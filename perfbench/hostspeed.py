"""Host speed: a fixed kernel, independent of the program, timed through a run.

The benchmark runs on a few cores of a shared host whose speed swings by tens
of per cent within seconds and drifts over minutes while the other tenants'
load changes.  The calibration kernel below imitates the mix of one solver
step (a sparse LU factorization and solve with SuperLU, vectorised numpy
gathers and scatters, and interpreted Python) on fixed data, and it calls
nothing of the program, so a change of the program cannot move it.  The
benchmark pairs every timed sample with kernel times taken right beside it:
in the observer call right after each step, after each set-up probe, and
around a phase that has no observer.  It runs the kernel on the CPU the
workload runs on, but in the helper process that runs the set-up probes, so
the kernel's memory is not the workload's.  ``scale`` turns each sample into
seconds on a host that runs the kernel in ``REFERENCE_KERNEL_S``; the
measured times are reported beside the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

# a fixed constant near the kernel's time on the reference box (2 vCPUs of a
# Xeon, OpenBLAS pinned to one thread) while the host ran fast
REFERENCE_KERNEL_S = 0.05


def _matrix(n: int = 44):
    """A 2-D Stokes-like saddle matrix: two Laplacian velocity blocks and a
    first-difference divergence block, regularised so SuperLU needs no
    pivoting surprises."""
    lap1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    lap = (sp.kron(eye, lap1) + sp.kron(lap1, eye)).tocsr()
    dif = sp.diags([1.0, -1.0], [0, 1], shape=(n, n))
    bx, by = sp.kron(eye, dif), sp.kron(dif, eye)
    zero = -1e-8 * sp.identity(n * n)
    return sp.bmat([[lap, None, bx.T], [None, lap, by.T],
                    [bx, by, zero]]).tocsc()


class Kernel:
    """The calibration kernel on its fixed data."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._a = _matrix()
        self._rhs = rng.standard_normal(self._a.shape[0])
        self._idx = rng.integers(0, 50_000, size=400_000)
        self._vals = rng.standard_normal(400_000)
        self._pts = [(float(x), float(y)) for x, y in rng.random((30_000, 2))]
        self._once()        # warm caches and lazy imports before timing

    def _once(self) -> float:
        lu = sla.splu(self._a)
        x = lu.solve(self._rhs)
        acc = np.zeros(50_000)
        for _ in range(6):      # assembly-like scatters and gathers
            acc += np.bincount(self._idx, weights=self._vals,
                               minlength=50_000)
            acc += np.sqrt(np.abs(self._vals[self._idx[:50_000]]))
        hits = 0
        for px, py in self._pts:        # a Python-level geometric loop
            det = (px - 0.5) * (py + 0.25) - (py - 0.5) * (px + 0.25)
            if 0.0 <= px <= 1.0 and 0.0 <= py <= 1.0 and det > -0.1:
                hits += 1
        return float(x[0] + acc[0] + hits)

    def sample(self) -> float:
        """The time of one kernel run."""
        t0 = time.perf_counter()
        self._once()
        return time.perf_counter() - t0


def scale(times: list, kernel_s: list) -> list:
    """Each time scaled by the reference kernel time over the kernel time
    paired with it."""
    if len(times) != len(kernel_s):
        raise ValueError("every time needs its kernel time")
    return [t * REFERENCE_KERNEL_S / k for t, k in zip(times, kernel_s)]
