"""The host-speed reference kernel.

A fixed piece of work that touches no program code, timed between every two
phases of every round.  A phase's speed factor is the mean of the kernel
times around it over :data:`CALIB_REF_MS`; durations are divided by it and
rates multiplied, which removes the host drift (steal, frequency) that moves
every raw timing of a run together.  The kernel mixes the two kinds of work
the program does: interpreter-bound integer bytecode and numpy sorts.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: Kernel time on the reference host, ms.  Only a scale constant: it sets
#: the speed at which "normalised" values are stated and must never change,
#: or every normalised metric shifts with it.
CALIB_REF_MS = 8.0

_LOOP = 40_000
_ARRAY = np.random.default_rng(20120827).integers(0, 1 << 40, size=40_000, dtype=np.int64)


def kernel_ms() -> float:
    """Run the reference kernel once; wall milliseconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(_LOOP):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    np.unique(_ARRAY)
    np.sort(_ARRAY)
    return (time.perf_counter() - start) * 1e3


#: Disk-kernel time on the reference host, ms (a scale constant like CALIB_REF_MS).
IO_REF_MS = 1.5

_IO_BLOCK = bytes(64 * 1024)


class DiskKernel:
    """The disk-speed reference: two fsync'd 64 KiB appends to a scratch file.

    Checkpoints wait for fsync, and fsync latency on a shared disk drifts on
    its own (0.8 to 5 ms within one minute here) while the CPU kernel stays
    flat, so the ingest pass is bracketed by this kernel as well.
    """

    def __init__(self, path: str) -> None:
        self._file = open(path, "wb", buffering=0)

    def ms(self) -> float:
        start = time.perf_counter()
        for _ in range(2):
            self._file.write(_IO_BLOCK)
            os.fsync(self._file.fileno())
        return (time.perf_counter() - start) * 1e3

    def close(self) -> None:
        self._file.close()
