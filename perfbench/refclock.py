"""Reference-kernel clock: wall time reported at a fixed machine speed.

On a shared host the same pure-Python loop can take twice as long from
one minute to the next, and nothing inside the process shows it (CPU
time tracks wall time).  So every timed chunk of benchmark work is
bracketed by a fixed pure-Python reference kernel, and the chunk's wall
time is rescaled by how slow the kernel ran around it:

    normalized = wall * NOMINAL_KERNEL_MS / mean(kernel_before, kernel_after)

``NOMINAL_KERNEL_MS`` is the kernel's time on the reference machine.  It
is a constant of the benchmark, fixed once and never re-derived per
run, so normalized figures from different runs and hosts share one
scale.  Consecutive chunks share the kernel between them.

The kernel and the constant are part of the benchmark definition:
changing either changes every wall metric and counts as a benchmark
change.
"""

from __future__ import annotations

import gc
import threading
import time

#: kernel wall time on the reference machine (2-core x86-64 VM,
#: CPython 3.11), in ms
NOMINAL_KERNEL_MS = 5.5

#: the kernel is this many passes over a small working set, so it
#: measures interpreter speed rather than page faults on fresh memory
_KERNEL_PASSES = 12
_PASS_ROWS = 500


def _kernel_pass(rows: int) -> int:
    acc = 0
    index: dict = {}
    table = []
    for i in range(rows):
        row = (i, i * 7 % 13, f"k{i}")
        table.append(row)
        index[row[2]] = row
        acc += len(row[2]) + (row[1] if row[0] & 1 else -row[1])
    table.sort(key=lambda r: (r[1], -r[0]))
    for row in table[::3]:
        acc ^= index[row[2]][1]
    return acc


def reference_kernel() -> int:
    """Fixed pure-Python work shaped like the engine's: tuple building,
    dict probes, string formatting, a keyed sort and integer
    arithmetic.  Returns a checksum so nothing is optimized away."""
    return sum(_kernel_pass(_PASS_ROWS) for __ in range(_KERNEL_PASSES))


class Chunk:
    """One timed chunk: its wall time and the kernels around it."""

    __slots__ = ("wall_ms", "kernel_before_ms", "kernel_after_ms")

    def __init__(self, wall_ms: float, before: float, after: float):
        self.wall_ms = wall_ms
        self.kernel_before_ms = before
        self.kernel_after_ms = after

    @property
    def factor(self) -> float:
        """Multiplier from this chunk's wall ms to reference ms."""
        return NOMINAL_KERNEL_MS / (
            (self.kernel_before_ms + self.kernel_after_ms) / 2.0
        )

    @property
    def normalized_ms(self) -> float:
        return self.wall_ms * self.factor

    def audit(self) -> list:
        return [
            round(self.wall_ms, 4),
            round(self.kernel_before_ms, 4),
            round(self.kernel_after_ms, 4),
        ]


class ReferenceClock:
    """Runs the kernel between chunks and keeps every chunk for audit.

    Usage: ``clock.start()`` once, then per chunk ``t0 = clock.begin()``
    ... work ... ``chunk = clock.end(t0)``.  ``end`` runs the kernel
    that closes this chunk and opens the next one; code between
    ``end`` and the next ``begin`` (verification, bookkeeping) is
    outside both the chunk and the kernel.
    """

    def __init__(self, samples: int = 1, threads: int = 1) -> None:
        #: kernel passes per bracket and thread; the bracket's time is
        #: the mean per pass, so a workload with long chunks samples the
        #: host as densely as one with short chunks
        self.samples = samples
        #: threads running the kernel at once: a workload whose clients
        #: share the interpreter lock is normalized by a kernel that
        #: pays the same lock hand-offs
        self.threads = threads
        self.chunks: list[Chunk] = []
        self._last_kernel_ms: float = 0.0

    def _bracket(self) -> float:
        """Mean wall ms of one kernel pass, ``samples`` passes on each of
        ``threads`` threads.  The cyclic collector is paused meanwhile
        (the kernel makes no cycles), so a collection of the engine's
        heap never lands inside the kernel."""

        def passes() -> None:
            for __ in range(self.samples):
                reference_kernel()

        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            if self.threads == 1:
                passes()
            else:
                workers = [
                    threading.Thread(target=passes) for __ in range(self.threads)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join()
            wall_ms = (time.perf_counter() - started) * 1000.0
        finally:
            if enabled:
                gc.enable()
        return wall_ms / (self.samples * self.threads)

    def start(self) -> None:
        # one untimed pass warms the interpreter's caches for the kernel
        reference_kernel()
        self._last_kernel_ms = self._bracket()

    def begin(self) -> float:
        return time.perf_counter()

    def end(self, started: float) -> Chunk:
        wall_ms = (time.perf_counter() - started) * 1000.0
        kernel_ms = self._bracket()
        chunk = Chunk(wall_ms, self._last_kernel_ms, kernel_ms)
        self._last_kernel_ms = kernel_ms
        self.chunks.append(chunk)
        return chunk
