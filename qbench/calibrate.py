"""Machine-speed calibration for timings taken on a shared machine.

On a small shared machine the speed of a core drifts by tens of percent
over seconds, as neighbours load the other hyperthread, the caches and the
memory bus.  Process CPU time drifts with it, so it is no cure.  The
benchmark therefore times a fixed reference kernel right before and right
after every timed piece of work and scales that piece by

    NOMINAL_MS / mean(kernel_before_ms, kernel_after_ms)

which turns seconds into seconds at a fixed reference speed.  The kernel is
frozen here, independent of qutritsim, and has the same mix as the items:
small dense eigendecompositions, tensor contractions on qubit-shaped arrays
and plain interpreter work.  Raw wall-clock figures are reported as well.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time measured on the reference machine (2-vCPU Intel Xeon, Python
# 3.11, numpy 2.4 with one OpenBLAS thread) in a quiet phase.  Only the
# unit of the calibrated figures depends on it; their stability does not.
NOMINAL_MS = 4.0

_rng = np.random.default_rng(20190513)
_M = _rng.normal(size=(16, 16)) + 1j * _rng.normal(size=(16, 16))
_H = _M + _M.conj().T
_G = _M.reshape((2,) * 8)[:, :, 0, 0, 0, 0]
_T = _rng.normal(size=(2,) * 8) + 0j


def _kernel() -> float:
    acc = 0.0
    for _ in range(60):
        w, _v = np.linalg.eigh(_H)
        t = np.tensordot(_G, _T, axes=([2, 3], [1, 5]))
        acc += float(w[0]) + float(t.real[0, 0, 0, 0, 0, 0, 0, 0])
        acc += sum(j * 0.5 for j in range(40))
    return acc


def kernel_ms() -> float:
    t0 = time.perf_counter()
    _kernel()
    return (time.perf_counter() - t0) * 1e3


def scale(before_ms: float, after_ms: float) -> float:
    """Factor from wall seconds to seconds at the reference speed."""
    return NOMINAL_MS / ((before_ms + after_ms) / 2)
