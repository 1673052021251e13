"""Constrained saddle-point systems for one time step.

A system couples the velocity block (mass + viscous + drag contributions)
with the divergence constraint.  Dirichlet values are imposed by symmetric
row/column elimination with right-hand-side lifting, slip walls constrain the
normal velocity component on axis-aligned edges, and the pressure level on a
fully Dirichlet boundary is fixed through a single zero-mean Lagrange
multiplier.

Systems are solved by a :class:`StepSolver`, which holds at most one sparse
LU factorization.  A system of the same kind as the factorized one is solved
by GMRES preconditioned with that LU; a system of another kind, or one on
which GMRES misses its tolerance within one restart cycle, is factorized
afresh and solved directly.  Between the steps of a run only the linearized
drag block and the right-hand side change, so one factorization serves every
general step.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import LinearOperator, gmres, splu

from porousflow.assembly import FormContext, pressure_volume_vector
from porousflow.fem import FeField, boundary_nodes
from porousflow.mesh import BoundaryTag

# SuperLU settings.  The constrained step matrices are structurally
# symmetric: symmetric mode with a minimum-degree ordering of A + A^T cuts the
# fill of the default COLAMD column ordering (MMS N=32: 4.7M entries -> 2.3M
# at the start-up step, 3.4M at general steps), and with it the memory a held
# factor occupies next to the following step's assembly.
PERMC_SPEC = "MMD_AT_PLUS_A"
DIAG_PIVOT_THRESH = 0.01
# GMRES with a held factor as preconditioner must reach this relative
# residual within one restart cycle of KRYLOV_MAX_ITERATIONS iterations;
# otherwise the factor is replaced.
KRYLOV_RTOL = 1e-14
KRYLOV_MAX_ITERATIONS = 20
# A solve whose relative residual exceeds this is rejected as singular.
RESIDUAL_BOUND = 1e-6
# glibc raises its mmap threshold to each freed mapped block (up to 32 MiB),
# so later factors are carved from the heap among the step temporaries and a
# run's peak RSS follows how that heap fragments (two-layer n=60: 134-144 MB
# over four hash seeds, 129-132 MB with the threshold fixed).  Fixed, blocks
# of MMAP_THRESHOLD bytes or more get mappings of their own, freed at once.
MMAP_THRESHOLD = 4 << 20


class SolverError(RuntimeError):
    """Base class for failures while solving a step system."""


class SingularSystemError(SolverError):
    """The constrained system is (numerically) singular."""


class ConstraintConflictError(ValueError):
    """A degree of freedom was constrained twice with different values."""


class UnsupportedBoundaryError(ValueError):
    """A boundary configuration outside the supported set was requested."""


class GaugeError(ValueError):
    """The zero-mean pressure gauge was requested where it does not apply."""


@dataclass
class SolveReport:
    """Algebraic quality measures of one solve."""

    algebraic_residual: float
    incompressibility_residual: float
    n_constrained: int
    krylov_iterations: int
    factorized: bool
    gauge_multiplier: float | None = None
    n_clamped_feet: int = 0


def _fix_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold (see ``MMAP_THRESHOLD``) and the trim
    threshold glibc pairs with it; a no-op on other C libraries."""
    try:
        if os.confstr("CS_GNU_LIBC_VERSION"):
            libc = ctypes.CDLL(None)
            libc.mallopt(-3, MMAP_THRESHOLD)       # M_MMAP_THRESHOLD
            libc.mallopt(-1, 2 * MMAP_THRESHOLD)   # M_TRIM_THRESHOLD
    except (AttributeError, ValueError, OSError):
        pass


class StepSolver:
    """Solves the constrained systems of one run, holding at most one LU.

    The held factorization is keyed by the ``key`` of the solve that built
    it; start-up and general steps pass different keys because their mass
    blocks carry rho/tau and 3 rho/(2 tau).  A solve with the held key runs
    GMRES on its own matrix, preconditioned by the held LU and started from
    the LU's solution.  When GMRES misses ``KRYLOV_RTOL`` within one restart
    cycle, or the key differs, the held LU is dropped before the new matrix is
    factorized, so two factors never coexist and freed ones leave the process.
    """

    def __init__(self, ctx: FormContext):
        _fix_malloc_thresholds()
        self.ctx = ctx
        self._lu = None
        self._key = None
        self._volume: np.ndarray | None = None

    def volume_vector(self) -> np.ndarray:
        """Pressure basis integrals of the context, built on first use."""
        if self._volume is None:
            self._volume = pressure_volume_vector(self.ctx)
        return self._volume

    def solve(self, k: sparse.csr_matrix, rhs: np.ndarray, key=None):
        """Solve ``k x = rhs``.

        Returns ``(x, residual, krylov_iterations, factorized)`` with the
        relative residual of ``x``; raises :class:`SingularSystemError` when
        that residual exceeds ``RESIDUAL_BOUND``.
        """
        x, iterations = None, 0
        if self._lu is not None and self._key == key:
            x, iterations = self._krylov(k, rhs)
        factorized = x is None
        if factorized:
            self._lu = None
            try:
                lu = splu(k.tocsc(), permc_spec=PERMC_SPEC,
                          diag_pivot_thresh=DIAG_PIVOT_THRESH,
                          options={"SymmetricMode": True})
                x = lu.solve(rhs)
            except RuntimeError as exc:
                raise SingularSystemError(str(exc)) from exc
            self._lu, self._key = lu, key
            path = "direct LU solve"
        else:
            path = f"GMRES with a reused LU ({iterations} iterations)"
        resid = float(np.linalg.norm(k @ x - rhs)
                      / max(np.linalg.norm(rhs), 1e-30))
        if not resid <= RESIDUAL_BOUND:   # also rejects NaN
            self._lu = None
            raise SingularSystemError(
                f"{path} left a relative residual of {resid:.3e}")
        return x, resid, iterations, factorized

    def _krylov(self, k, rhs):
        """GMRES preconditioned by the held LU and started from its solution,
        within one restart cycle of ``KRYLOV_MAX_ITERATIONS`` iterations.

        Returns ``(x, iterations)``, with ``x = None`` when the tolerance was
        missed.  scipy's inner loop can stop on its preconditioned residual
        estimate while the true residual is still above the tolerance; the
        iterations left in the cycle then continue from the returned iterate.
        """
        lu = self._lu
        precond = LinearOperator(k.shape, matvec=lu.solve, dtype=float)
        x = lu.solve(rhs)
        iterations = 0

        def count(_):
            nonlocal iterations
            iterations += 1

        # every call that misses the tolerance takes at least one iteration
        while iterations < KRYLOV_MAX_ITERATIONS:
            x, info = gmres(k, rhs, x0=x, rtol=KRYLOV_RTOL, atol=0.0,
                            restart=KRYLOV_MAX_ITERATIONS - iterations,
                            maxiter=1, M=precond, callback=count,
                            callback_type="pr_norm")
            if info == 0:
                return x, iterations
        return None, iterations


class SaddleSystem:
    """One velocity/pressure system with constraint bookkeeping."""

    def __init__(self, ctx: FormContext, a_block: sparse.spmatrix,
                 b_block: sparse.spmatrix, rhs_velocity: np.ndarray,
                 rhs_pressure: np.ndarray | None = None):
        self.ctx = ctx
        self.A = a_block.tocsr()
        self.B = b_block.tocsr()
        nv = ctx.vspace.dof_count
        nq = ctx.pspace.dof_count
        if self.A.shape != (nv, nv) or self.B.shape != (nq, nv):
            raise ValueError("block shapes do not match the context spaces")
        self.rhs_v = np.asarray(rhs_velocity, dtype=float).copy()
        self.rhs_p = (np.zeros(nq) if rhs_pressure is None
                      else np.asarray(rhs_pressure, dtype=float).copy())
        self.dirichlet_map: dict[int, float] = {}
        self.gauge = False

    # -- constraints ------------------------------------------------------------

    def _constrain(self, dof: int, value: float) -> None:
        old = self.dirichlet_map.get(dof)
        if old is not None and abs(old - value) > 1e-12 * max(1.0, abs(old)):
            raise ConstraintConflictError(
                f"velocity dof {dof} constrained to both {old!r} and {value!r}")
        self.dirichlet_map[dof] = value

    def apply_dirichlet(self, g, t: float | None = None,
                        tags=(BoundaryTag.DIRICHLET,)) -> "SaddleSystem":
        """Prescribe both velocity components on the tagged boundary nodes.

        ``g(points [, t])`` returns ``(n, 2)`` nodal values at the vertices
        and edge midpoints of the tagged edges.
        """
        nodes = boundary_nodes(self.ctx.vspace, set(tags))
        if nodes.size == 0:
            return self
        pts = self.ctx.vspace.node_coords[nodes]
        vals = np.asarray(g(pts) if t is None else g(pts, t), dtype=float)
        for node, val in zip(nodes, vals):
            self._constrain(2 * int(node), float(val[0]))
            self._constrain(2 * int(node) + 1, float(val[1]))
        return self

    def apply_slip(self) -> "SaddleSystem":
        """Zero the normal velocity component on axis-aligned slip edges."""
        mesh = self.ctx.mesh
        for e in mesh.boundary_edges_by_tag(BoundaryTag.SLIP):
            a, b = mesh.boundary_edges[e]
            d = mesh.vertices[b] - mesh.vertices[a]
            if abs(d[1]) <= 1e-12 * max(1.0, abs(d[0])):
                comp = 1   # horizontal edge, normal along y
            elif abs(d[0]) <= 1e-12 * max(1.0, abs(d[1])):
                comp = 0   # vertical edge, normal along x
            else:
                raise UnsupportedBoundaryError(
                    "slip boundaries must be axis-aligned")
            key = tuple(sorted((int(a), int(b))))
            for node in (int(a), int(b), self.ctx.vspace.edge_nodes[key]):
                self._constrain(2 * node + comp, 0.0)
        return self

    def apply_gauge(self) -> "SaddleSystem":
        """Constrain the pressure to zero mean via one Lagrange multiplier."""
        if len(self.ctx.mesh.boundary_edges_by_tag(BoundaryTag.STRESS_FREE)):
            raise GaugeError("pressure gauge conflicts with a stress-free "
                             "boundary, which already fixes the level")
        self.gauge = True
        return self

    # -- solve --------------------------------------------------------------------

    def solve(self, solver: StepSolver | None = None, key=None):
        """Solve the constrained system; returns velocity field, pressure
        field, report.

        ``solver`` carries the factorization of earlier systems of the same
        run and ``key`` names the kind of system (see :class:`StepSolver`);
        without a solver this system is factorized on its own.
        """
        if solver is None:
            solver = StepSolver(self.ctx)
        elif solver.ctx is not self.ctx:
            raise ValueError("the solver belongs to another form context")
        nv = self.ctx.vspace.dof_count
        nq = self.ctx.pspace.dof_count
        if self.gauge:
            c = solver.volume_vector()
            cc = sparse.csr_matrix(c[:, None])
            k = sparse.bmat([[self.A, self.B.T, None],
                             [self.B, None, cc],
                             [None, cc.T, None]], format="csr")
            rhs = np.concatenate([self.rhs_v, self.rhs_p, [0.0]])
        else:
            k = sparse.bmat([[self.A, self.B.T],
                             [self.B, None]], format="csr")
            rhs = np.concatenate([self.rhs_v, self.rhs_p])
        if not np.all(np.isfinite(rhs)):
            raise SolverError("right-hand side contains NaN or Inf")

        n = k.shape[0]
        fixed = np.fromiter(self.dirichlet_map.keys(), dtype=np.int64,
                            count=len(self.dirichlet_map))
        values = np.fromiter(self.dirichlet_map.values(), dtype=float,
                             count=len(self.dirichlet_map))
        if fixed.size:
            order = np.argsort(fixed)
            fixed, values = fixed[order], values[order]
            lift = np.zeros(n)
            lift[fixed] = values
            rhs = rhs - k @ lift
            keep = np.ones(n)
            keep[fixed] = 0.0
            mask = sparse.diags(keep)
            mark = np.zeros(n)
            mark[fixed] = 1.0
            k = (mask @ k @ mask + sparse.diags(mark)).tocsr()
            rhs[fixed] = values

        x, resid, iterations, factorized = solver.solve(k, rhs, key)
        if fixed.size:
            x[fixed] = values  # prescribed values, exactly

        u = x[:nv]
        p = x[nv:nv + nq]
        lam = float(x[-1]) if self.gauge else None
        if self.gauge:
            p = p - (c @ p) / float(self.ctx.mesh.areas.sum())
        div_res = float(np.abs(self.B @ u).max()) if nq else 0.0
        report = SolveReport(algebraic_residual=resid,
                             incompressibility_residual=div_res,
                             n_constrained=int(fixed.size),
                             krylov_iterations=iterations,
                             factorized=factorized,
                             gauge_multiplier=lam)
        u_field = FeField(self.ctx.vspace, u)
        p_field = FeField(self.ctx.pspace, p)
        return u_field, p_field, report
