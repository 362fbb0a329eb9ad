"""One ordered map over forked worker processes for both engines: the
DSR's constant fits and the KAN read-out's edge fits.  The mapped
function reaches the workers through the fork, unpickled, so it may be a
closure over read-only arrays; only the items and the results cross the
pipe, and a worker computes bit for bit what this process would.
"""

from __future__ import annotations

import contextlib
import functools
import os
from typing import Callable, Iterable, Iterator

_MAX_WORKERS = 8  # most processes one ordered_map starts

# the mapped function, set by `_init_worker` in each worker process only
_worker_fn: Callable | None = None


def _init_worker(fn: Callable) -> None:
    global _worker_fn
    _worker_fn = fn


def _call_in_worker(item):
    return _worker_fn(item)


def _available_cpus() -> int:
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _start_pool(processes: int, fn: Callable):
    # fork, not spawn: spawn would import numpy and autopl again in every
    # worker and pickle `fn`; the pool starts its threads after forking
    import multiprocessing
    return multiprocessing.get_context("fork").Pool(
        processes, initializer=_init_worker, initargs=(fn,))


@contextlib.contextmanager
def ordered_map(fn: Callable) -> Iterator[Callable[[Iterable], Iterator]]:
    """Yield a map from items to `fn(item)`, in submission order.  The
    calls run in forked workers, one per available CPU up to
    `_MAX_WORKERS`, or through builtin `map` in this process when only
    one CPU is available or the pool cannot start.  An exception in a
    call reaches the caller; the workers are gone on exit."""
    processes = min(_available_cpus(), _MAX_WORKERS)
    pool = None
    if processes > 1:
        try:
            pool = _start_pool(processes, fn)
        except OSError:  # from fork, or no semaphores to be had
            pass
    if pool is None:
        yield functools.partial(map, fn)
        return
    try:
        yield functools.partial(pool.imap, _call_in_worker)
    finally:
        pool.terminate()
        pool.join()
