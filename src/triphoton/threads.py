"""The one place triphoton starts a thread.

Two callers take a second thread from worker_thread: scan_pair and
export_pair run one basis on each thread, and the coefficient search
(witness._Workspace) splits a histogram of at least witness._THREADED_ROWS
rows at numpy's pairwise-sum midpoint and runs the second range on the
worker; a smaller histogram makes one pass on the calling thread.  Either
way the two threads share no array that either writes, so every result is
the one a single thread computes.  Each worker call runs in a copy of the
caller's context, so numpy's errstate holds there too, and the worker is
joined before the with block is left, also when a call raises.
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
