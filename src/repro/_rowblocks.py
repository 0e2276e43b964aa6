"""Bounded row blocks, optionally across two threads, for the batch kernels.

Every step of :func:`repro.lte.srs.apply_channel_batch` and
:func:`repro.lte.tof.estimate_delays_batch` is row-wise, so a batch can
be cut into blocks of :data:`ROW_BLOCK` rows (keeping the temporaries
cache-sized) and the blocks can run on different threads without moving
a single bit of the result.  The ray tracer
(:func:`repro.channel.raytrace.obstructed_lengths`) splits its own
work items the same way through :func:`on_two_threads`.
Threads are started per call and joined before it returns, and an
exception raised on a helper is re-raised on the caller: no thread
outlives a call, so processes forked afterwards inherit no pool
state.  The work done on a helper must
never touch :data:`repro.perf.perf` or a traced entry point, whose span
stacks are single-threaded.
"""

from __future__ import annotations

import os
import queue
import threading
from typing import Callable, Iterator, List, Tuple, TypeVar

A = TypeVar("A")
B = TypeVar("B")

#: Rows per block: the ToF block's padded buffer, IFFT output and
#: magnitudes stay around 10 MB at the paper's numerology (K = 4).
ROW_BLOCK = 64

#: Smallest batch worth a helper thread: two full blocks.
MIN_THREADED_ROWS = 2 * ROW_BLOCK


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def use_helper(size: int, minimum: int = MIN_THREADED_ROWS) -> bool:
    """Whether a batch of ``size`` units of work (rows by default) uses two threads.

    ``minimum`` is the smallest batch worth starting a thread for.
    """
    return size >= minimum and _cpu_count() >= 2


def row_blocks(lo: int, hi: int) -> Iterator[Tuple[int, int]]:
    """``(start, stop)`` of each :data:`ROW_BLOCK`-row block of ``[lo, hi)``."""
    for start in range(lo, hi, ROW_BLOCK):
        yield start, min(start + ROW_BLOCK, hi)


def _start_helper(target: Callable[[], None]) -> Tuple[threading.Thread, List[BaseException]]:
    """Run ``target`` on a new thread; its exception lands in the returned list."""
    errors: List[BaseException] = []

    def run() -> None:
        try:
            target()
        except BaseException as exc:  # re-raised on the caller
            errors.append(exc)

    thread = threading.Thread(target=run, name="repro-rowblock", daemon=True)
    thread.start()
    return thread, errors


def pipeline(
    n_rows: int,
    produce: Callable[[int, int], None],
    consume: Callable[[int, int], None],
) -> None:
    """``produce`` then ``consume`` every row block, in row order.

    ``produce`` always runs on the calling thread, block after block (so
    a random generator it draws from is consumed in row order).  With a
    helper, ``consume`` runs on it, one block behind: the helper works
    on block ``b`` while the caller produces block ``b + 1``.
    ``consume`` must only read what ``produce`` wrote for its own block.
    """
    if not use_helper(n_rows):
        for lo, hi in row_blocks(0, n_rows):
            produce(lo, hi)
            consume(lo, hi)
        return
    ready: "queue.SimpleQueue" = queue.SimpleQueue()

    def drain() -> None:
        while True:
            block = ready.get()
            if block is None:
                return
            consume(*block)

    thread, errors = _start_helper(drain)
    try:
        for block in row_blocks(0, n_rows):
            if errors:
                break
            produce(*block)
            ready.put(block)
    finally:
        ready.put(None)
        thread.join()
    if errors:
        raise errors[0]


def on_two_threads(here: Callable[[], A], there: Callable[[], B]) -> Tuple[A, B]:
    """``(here(), there())``, with ``there`` on a helper started for this call."""
    result: List[B] = []
    thread, errors = _start_helper(lambda: result.append(there()))
    try:
        mine = here()
    finally:
        thread.join()
    if errors:
        raise errors[0]
    return mine, result[0]


def split_rows(n_rows: int, work: Callable[[int, int], None]) -> None:
    """``work(lo, hi)`` over all rows: both halves at once on two threads.

    Serially (one CPU, or a small batch) this is ``work(0, n_rows)``.
    """
    if not use_helper(n_rows):
        work(0, n_rows)
        return
    mid = n_rows // 2
    on_two_threads(lambda: work(0, mid), lambda: work(mid, n_rows))
