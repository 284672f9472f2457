"""The one place triphoton starts a thread.

Every worker thread is owned by a with worker_thread block in the function
that uses it: scan_pair and export_pair run one basis on each thread, and
witness._search_objective lends its worker to a _Workspace, which splits a
histogram of at least witness._THREADED_ROWS rows at numpy's pairwise-sum
midpoint and runs the second range there; witness_from_samples uses none.
Either way the two threads share no array that either writes, so every
result is the one a single thread computes.  Each worker call runs in a copy
of the caller's context, so numpy's errstate holds there too, and the worker
is joined before the with block is left, also when a call raises.
"""

from __future__ import annotations

import contextlib
import contextvars
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor


@contextlib.contextmanager
def worker_thread(name: str) -> Iterator[Callable[[Callable, tuple, tuple], tuple]]:
    """One worker thread for the with block; yields both(fn, worker_args, caller_args).

    both returns (fn(*worker_args), fn(*caller_args)), the first computed
    on the worker while the caller computes the second.  It re-raises what
    the worker raised; if both calls raise, the caller's exception
    propagates.  The thread starts at the first call of both.
    """
    with ThreadPoolExecutor(1, thread_name_prefix=name) as pool:

        def both(fn: Callable, worker_args: tuple, caller_args: tuple) -> tuple:
            # a bare submit would run fn in the worker's own context
            theirs = pool.submit(contextvars.copy_context().run, fn, *worker_args)
            mine = fn(*caller_args)
            return theirs.result(), mine

        yield both
