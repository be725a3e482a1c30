"""Shared thread pool for GIL-releasing chunk kernels.

The power model prices independent row chunks (the native
``repro_price`` call and numpy's word ops drop the GIL while they run),
and every chunk writes a disjoint row range of preallocated integer
sums — so threading the chunk loop changes wall-clock, never bits.  The pool is
process-global and lazily grown: thread startup is paid once, not per
trace evaluation.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

_LOCK = threading.Lock()
_POOL: ThreadPoolExecutor | None = None
_POOL_SIZE = 0


def kernel_pool(workers: int) -> ThreadPoolExecutor:
    """The shared kernel thread pool, grown to at least *workers*."""
    global _POOL, _POOL_SIZE
    with _LOCK:
        if _POOL is None or _POOL_SIZE < workers:
            if _POOL is not None:
                _POOL.shutdown(wait=False)
            _POOL = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-kernel"
            )
            _POOL_SIZE = workers
        return _POOL


def map_spans(
    workers: int,
    spans: list[tuple[int, int]],
    fn: Callable[[int, int], None],
) -> None:
    """Run ``fn(start, stop)`` over *spans*, threaded when it pays off.

    Each span must touch a disjoint output range (the caller's
    contract); results are therefore identical at any worker count, and
    the serial path is simply the in-order loop.
    """
    if workers <= 1 or len(spans) <= 1:
        for start, stop in spans:
            fn(start, stop)
        return
    pool = kernel_pool(workers)
    futures = [pool.submit(fn, start, stop) for start, stop in spans]
    for future in futures:
        future.result()
