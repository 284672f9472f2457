"""The one place triphoton starts a thread.

scan_pair and export_pair run their two bases on two threads
(scan._on_two_threads), and the coefficient search splits each histogram's
rows between two (witness._Workspace).  Both take their second thread from
worker_thread.  Neither shares an array between the threads' writes, so
each result is the one a single thread computes.
"""

from __future__ import annotations

import contextlib
import contextvars
from collections.abc import Callable, Iterator
from concurrent.futures import Future, ThreadPoolExecutor


@contextlib.contextmanager
def worker_thread(name: str) -> Iterator[Callable[..., Future]]:
    """One worker thread for the with block; yields submit(fn, *args) -> Future.

    Each call runs in a copy of the submitting thread's context, so the
    worker sees the caller's context variables, numpy's errstate among
    them; a bare ThreadPoolExecutor runs it in the worker's own context.
    Leaving the block joins the worker on every path, so no thread
    outlives it.
    """
    with ThreadPoolExecutor(1, thread_name_prefix=name) as pool:
        yield lambda fn, *args: pool.submit(contextvars.copy_context().run, fn, *args)
