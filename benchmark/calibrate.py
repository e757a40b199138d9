"""Machine-speed scaling for timings taken on shared cores.

On a machine whose cores are shared with other tenants, the same work
drifts by 20-50% over ten minutes, which no run length or median can
hide. So every timed operation is bracketed by blocks of a fixed
calibration task that does not depend on xmcreg, and its time is scaled
by ``REFERENCE_S / mean of the two blocks``. The result is the time the
operation would have taken on a machine that runs the calibration in
``REFERENCE_S``. Raw times are printed next to the scaled ones.

The blocks are taken by run.py, which never imports xmcreg, while the
worker that runs xmcreg waits between two timed calls; both are pinned
to the same CPU. The task allocates nothing, so it does not depend on
the state of its own process's heap either. What the calibration still
shares with xmcreg is the machine: its caches and the other tenants'
load.

The task mixes what xmcreg's work is made of:

- interpreted integer arithmetic, like the FNV trigram hash;
- many small array operations, like the tape kernels;
- streaming passes over a 2 MB array, like the dense optimizer update.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# a round figure within the range the calibration took (0.020-0.032 s)
# on the 2-core Xeon VM the benchmark was written on (Python 3.11,
# numpy 2.4, one BLAS thread)
REFERENCE_S = 0.025
# samples per block; the block's median is its reading
BLOCK = 8

_TEXT = bytes(range(256)) * 8
_SMALL_A = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
_SMALL_B = np.linspace(0.5, 1.5, 8).reshape(4, 2)
_BIG = np.linspace(0.0, 1.0, 4096 * 64).reshape(4096, 64)
# work buffers, so the streaming passes allocate nothing
_ACC = np.zeros((3, 2))
_SMALL_TMP = np.zeros((3, 2))
_BUF = np.empty_like(_BIG)
_TMP = np.empty_like(_BIG)


def calibration_s() -> float:
    """Seconds the fixed calibration task takes, now."""
    t0 = time.perf_counter()
    h = 0xCBF29CE484222325
    for _ in range(40):
        for b in _TEXT:
            h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    _ACC.fill(0.0)
    for _ in range(3000):
        np.matmul(_SMALL_A, _SMALL_B, out=_SMALL_TMP)
        np.add(_ACC, _SMALL_TMP, out=_ACC)
        np.tanh(_ACC, out=_ACC)
    np.copyto(_BUF, _BIG)
    for _ in range(4):
        np.multiply(_BUF, _BUF, out=_TMP)
        np.multiply(_TMP, 0.1, out=_TMP)
        np.multiply(_BUF, 0.9, out=_BUF)
        np.add(_BUF, _TMP, out=_BUF)
    return time.perf_counter() - t0


def block_s() -> float:
    return statistics.median(calibration_s() for _ in range(BLOCK))


def local_blocks() -> tuple[float, float]:
    """One block taken here, which both closes a call and opens the next."""
    reading = block_s()
    return reading, reading


class Clock:
    """Times calls between calibration blocks.

    After each timed call, ``blocks()`` returns two readings: the block
    that closes the call and the block that opens the next one. They are
    the same block unless other work ran between the two."""

    def __init__(self, blocks=local_blocks) -> None:
        self._blocks = blocks
        self.readings: list[float] = []
        self.opening = self._take()[1]

    def _take(self) -> tuple[float, float]:
        closing, opening = self._blocks()
        self.readings += [closing, opening]
        return closing, opening

    def mark(self) -> float:
        """Takes blocks now, outside any timed call; returns the closing one."""
        closing, self.opening = self._take()
        return closing

    def time(self, fn, *args):
        """Returns (result, raw seconds, seconds scaled to the reference speed)."""
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        before = self.opening
        after = self.mark()
        return result, raw, raw * REFERENCE_S / ((before + after) / 2.0)
