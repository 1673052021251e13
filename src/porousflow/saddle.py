"""Constrained saddle-point systems for one time step.

A system couples the velocity block (mass + viscous + drag contributions)
with the divergence constraint.  Dirichlet values are imposed by symmetric
row/column elimination with right-hand-side lifting, slip walls constrain the
normal velocity component on axis-aligned edges, and the pressure level on a
fully Dirichlet boundary is fixed through a single zero-mean Lagrange
multiplier.

A :class:`SaddleSystem` on its own builds its constrained matrix from
scratch: the blocks are stacked and the fixed unknowns eliminated with
diagonal masks.  That path is the reference for everything below.

Within a run a :class:`StepSolver` owns the constrained step operator
(:class:`StepOperator`).  Between steps only the velocity mass-type block
changes: the scaled mass, the linear drag and the linearized quadratic drag
fold into one weight per quadrature point.  The operator eliminates the
constant blocks once, in a CSR pattern that also holds every element's
mass-type entries, and each step scatters its element matrices into a copy
of the constant data by precomputed positions.

The solver holds at most one sparse LU factorization.  A system of the same
kind as the factorized one is solved by right-preconditioned GMRES with that
LU, one triangular solve per iteration; a system of another kind, or one on
which GMRES misses its tolerance within one restart cycle, is factorized
afresh and solved directly, so one factorization serves every general step.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import solve_triangular
from scipy.sparse.linalg import splu

from porousflow.assembly import FormContext, _vector_mass
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
# residual (of the unpreconditioned system) within one restart cycle of
# KRYLOV_MAX_ITERATIONS iterations; otherwise the factor is replaced.
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


def _stack(a, b, gauge_vector):
    """Unconstrained block matrix ``[[A, B^T], [B, 0]]``, bordered by the
    gauge column ``c`` and row ``c^T`` when ``gauge_vector`` is given."""
    if gauge_vector is None:
        return sparse.bmat([[a, b.T], [b, None]], format="csr")
    cc = sparse.csr_matrix(gauge_vector[:, None])
    return sparse.bmat([[a, b.T, None], [b, None, cc], [None, cc.T, None]],
                       format="csr")


def _eliminate(k, fixed):
    """Zero the rows and columns of the ``fixed`` unknowns of ``k`` and put
    ones on their diagonal."""
    n = k.shape[0]
    keep = np.ones(n)
    keep[fixed] = 0.0
    mark = np.zeros(n)
    mark[fixed] = 1.0
    mask = sparse.diags(keep)
    return (mask @ k @ mask + sparse.diags(mark)).tocsr()


def _step_pattern(k, cell_dofs, free):
    """Eliminate the fixed unknowns of ``k`` (as :func:`_eliminate` does)
    and unite the result with every element's mass-type entries (same
    velocity component) on free rows and columns.

    Returns the canonical CSR matrix, zero where only the mass-type entries
    act, and the position of each entry of the element matrices, ``(nt, 6,
    6, 2)`` flattened, in its data array; entries on a fixed row or column
    point one past the end.
    """
    # 32-bit indices, as scipy keeps them, halve the index traffic
    dofs = cell_dofs.astype(np.int32).reshape(len(cell_dofs), -1, 2)
    shape = dofs.shape[:2] + dofs.shape[1:]
    rows = np.broadcast_to(dofs[:, :, None, :], shape).ravel()
    cols = np.broadcast_to(dofs[:, None, :, :], shape).ravel()
    live = free[rows] & free[cols]
    rows, cols = rows[live], cols[live]
    k = k.tocoo()
    keep = free[k.row] & free[k.col] & (k.data != 0.0)
    fixed = np.flatnonzero(~free).astype(np.int32)
    united = sparse.csr_matrix(
        (np.concatenate([k.data[keep], np.ones(fixed.size),
                         np.zeros(rows.size)]),
         (np.concatenate([k.row[keep], fixed, rows]),
          np.concatenate([k.col[keep], fixed, cols]))), shape=k.shape)
    nnz = united.nnz
    ids = sparse.csr_matrix((np.arange(1.0, nnz + 1), united.indices,
                             united.indptr), shape=k.shape)
    pos = np.full(live.size, nnz)
    pos[live] = np.asarray(ids[rows, cols]).ravel().astype(np.int64) - 1
    return united, pos


class StepOperator:
    """Constrained matrix of ``[[A + M(w), B^T], [B, 0]]`` (gauge-bordered
    when gauged) for one set of fixed velocity unknowns, in a fixed CSR
    pattern.

    ``M(w)`` is the velocity mass matrix weighted by ``w`` at the quadrature
    points.  The constant blocks are eliminated once, into a pattern that
    also holds every element's mass-type entries on free rows and columns,
    whose positions in the data array are recorded.  :meth:`assemble`
    scatters the element matrices of ``M(w)`` into a copy of the constant
    data and lifts the right-hand side by the fixed values.
    """

    def __init__(self, ctx: FormContext, a_block, b_block,
                 gauge_vector: np.ndarray | None, fixed: np.ndarray):
        self.ctx = ctx
        self.a_block, self.b_block = a_block, b_block
        self.gauge = gauge_vector is not None
        self.fixed = fixed
        k = _stack(a_block, b_block, gauge_vector)
        n = k.shape[0]
        self._fixed_columns = k[:, fixed]
        free = np.ones(n, dtype=bool)
        free[fixed] = False
        matrix, pos = _step_pattern(k, ctx.vspace.cell_dofs, free)
        del k
        # copied once the build's temporaries are freed, the held arrays
        # fill the heap holes those leave instead of pinning the heap top
        # (two-layer n=60: 10 MB less resident during the run)
        self._constant, self._pos = matrix.copy(), pos.copy()
        del matrix, pos
        # scalar P2 basis products at the quadrature points, (nq, 36)
        v = ctx.p2_vals
        self._vv = (v[:, :, None] * v[:, None, :]).reshape(len(v), -1)
        # elements with a fixed unknown: the weighted part of the lifting
        nv = ctx.vspace.dof_count
        touched = ~free[:nv][ctx.vspace.cell_dofs].all(axis=1)
        self._lift_elems = np.flatnonzero(touched)
        self._lift_dofs = ctx.vspace.cell_dofs[self._lift_elems]

    def matches(self, a_block, b_block, gauge: bool, fixed) -> bool:
        return (a_block is self.a_block and b_block is self.b_block
                and gauge == self.gauge and np.array_equal(fixed, self.fixed))

    def assemble(self, weight: np.ndarray, rhs: np.ndarray,
                 values: np.ndarray):
        """Constrained matrix and right-hand side for the mass-type weight
        ``weight`` (nt, nq), the unconstrained ``rhs`` and the values of the
        fixed unknowns."""
        local = (self.ctx.wxarea * weight) @ self._vv          # (nt, 36)
        const = self._constant
        data = np.bincount(self._pos, np.repeat(local.ravel(), 2),
                           minlength=const.nnz + 1)[:const.nnz]
        data += const.data
        k = sparse.csr_matrix((data, const.indices, const.indptr),
                              shape=const.shape)
        if self.fixed.size:
            nv = self.ctx.vspace.dof_count
            lift = np.zeros(nv)
            lift[self.fixed] = values
            dofs = self._lift_dofs
            weighted = local[self._lift_elems].reshape(-1, 6, 6) \
                @ lift[dofs].reshape(-1, 6, 2)
            rhs = rhs - self._fixed_columns @ values
            rhs[:nv] -= np.bincount(dofs.ravel(), weighted.ravel(),
                                    minlength=nv)
            rhs[self.fixed] = values
        return k, rhs


class StepSolver:
    """Solves the constrained systems of one run, holding at most one LU.

    The held factorization is keyed by the ``key`` of the solve that built
    it; start-up and general steps pass different keys because their mass
    blocks carry rho/tau and 3 rho/(2 tau).  A solve with the held key runs
    GMRES on its own matrix, right-preconditioned by the held LU and started
    from the LU's solution.  When GMRES misses ``KRYLOV_RTOL`` within one
    restart cycle, or the key differs, the held LU is dropped before the new
    matrix is factorized, so two factors never coexist and freed ones leave
    the process.  The solver also holds the run's :class:`StepOperator`,
    shared by both keys.
    """

    def __init__(self, ctx: FormContext):
        _fix_malloc_thresholds()
        self.ctx = ctx
        self._lu = None
        self._key = None
        self._operator: StepOperator | None = None

    def operator(self, a_block, b_block, gauge: bool,
                 fixed: np.ndarray) -> StepOperator:
        """The step operator of these constant blocks and fixed unknowns,
        built on first use and rebuilt only when they change."""
        op = self._operator
        if op is None or not op.matches(a_block, b_block, gauge, fixed):
            self._operator = None
            volume = self.ctx.volume_vector() if gauge else None
            op = StepOperator(self.ctx, a_block, b_block, volume, fixed)
            self._operator = op
        return op

    def solve(self, k: sparse.csr_matrix, rhs: np.ndarray, key=None):
        """Solve ``k x = rhs``.

        Returns ``(x, residual, krylov_iterations, factorized)`` with the
        relative residual of ``x``; raises :class:`SingularSystemError` when
        that residual exceeds ``RESIDUAL_BOUND``.
        """
        x, iterations = None, 0
        rhs_norm = max(float(np.linalg.norm(rhs)), 1e-30)
        if self._lu is not None and self._key == key:
            x, iterations, r_norm = self._krylov(k, rhs, rhs_norm)
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
            r_norm = float(np.linalg.norm(k @ x - rhs))
            path = "direct LU solve"
        else:
            path = f"GMRES with a reused LU ({iterations} iterations)"
        resid = r_norm / rhs_norm
        if not resid <= RESIDUAL_BOUND:   # also rejects NaN
            self._lu = None
            raise SingularSystemError(
                f"{path} left a relative residual of {resid:.3e}")
        return x, resid, iterations, factorized

    def _krylov(self, k, rhs, rhs_norm):
        """GMRES right-preconditioned by the held LU, started from its
        solution, within one restart cycle of ``KRYLOV_MAX_ITERATIONS``.

        The preconditioned directions ``Z = LU^{-1} V`` are stored, so each
        iteration solves with the LU once, and the least-squares residual of
        the Hessenberg system is the residual of ``k x = rhs`` itself.  The
        iterate is formed once that residual reaches ``KRYLOV_RTOL`` and is
        accepted when its true residual does too.

        Returns ``(x, iterations, residual norm)``, with ``x = None`` when
        the tolerance was missed.
        """
        solve = self._lu.solve
        m = KRYLOV_MAX_ITERATIONS
        target = KRYLOV_RTOL * rhs_norm
        x0 = solve(rhs)
        r = rhs - k @ x0
        beta = float(np.linalg.norm(r))
        if beta <= target:
            return x0, 0, beta
        v = np.empty((m + 1, len(rhs)))
        z = np.empty((m, len(rhs)))
        h = np.zeros((m + 1, m))
        g = np.zeros(m + 1)   # rotated right-hand side of the least squares
        rot = np.zeros((m, 2))
        v[0] = r / beta
        g[0] = beta
        for j in range(m):
            z[j] = solve(v[j])
            w = k @ z[j]
            for _ in range(2):   # classical Gram-Schmidt, reorthogonalized
                c = v[:j + 1] @ w
                w -= c @ v[:j + 1]
                h[:j + 1, j] += c
            h[j + 1, j] = h_next = float(np.linalg.norm(w))
            for i in range(j):   # earlier Givens rotations
                cs, sn = rot[i]
                h[i, j], h[i + 1, j] = (cs * h[i, j] + sn * h[i + 1, j],
                                        cs * h[i + 1, j] - sn * h[i, j])
            d = float(np.hypot(h[j, j], h[j + 1, j]))
            if d == 0.0:
                break
            cs, sn = h[j, j] / d, h[j + 1, j] / d
            rot[j] = cs, sn
            h[j, j], h[j + 1, j] = d, 0.0
            g[j], g[j + 1] = cs * g[j], -sn * g[j]
            if abs(g[j + 1]) <= target:
                y = solve_triangular(h[:j + 1, :j + 1], g[:j + 1])
                x = x0 + y @ z[:j + 1]
                r_norm = float(np.linalg.norm(rhs - k @ x))
                if r_norm <= target:
                    return x, j + 1, r_norm
            if h_next == 0.0:
                break
            v[j + 1] = w / h_next
        return None, j + 1, None


class SaddleSystem:
    """One velocity/pressure system with constraint bookkeeping.

    The velocity block is ``a_block``, plus the velocity mass matrix weighted
    by ``mass_weight`` (nt, nq) at the quadrature points when one is given.
    """

    def __init__(self, ctx: FormContext, a_block: sparse.spmatrix,
                 b_block: sparse.spmatrix, rhs_velocity: np.ndarray,
                 rhs_pressure: np.ndarray | None = None,
                 mass_weight: np.ndarray | None = None):
        self.ctx = ctx
        self.A = a_block.tocsr()
        self.B = b_block.tocsr()
        nv = ctx.vspace.dof_count
        nq = ctx.pspace.dof_count
        if self.A.shape != (nv, nv) or self.B.shape != (nq, nv):
            raise ValueError("block shapes do not match the context spaces")
        if mass_weight is not None and mass_weight.shape != ctx.wxarea.shape:
            raise ValueError("the mass weight must have one value per "
                             "quadrature point")
        self.mass_weight = mass_weight
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

    def constrained(self, solver: StepSolver | None = None):
        """Constrained matrix and right-hand side, with the fixed unknowns
        and their values: ``(k, rhs, fixed, values)``.

        With a run's ``solver`` and a mass weight they come from the
        solver's :class:`StepOperator`.  Otherwise they are built from
        scratch: the blocks are stacked and the fixed unknowns eliminated by
        diagonal masks after lifting the right-hand side.
        """
        rhs = np.concatenate([self.rhs_v, self.rhs_p, [0.0]] if self.gauge
                             else [self.rhs_v, self.rhs_p])
        if not np.all(np.isfinite(rhs)):
            raise SolverError("right-hand side contains NaN or Inf")
        fixed = np.fromiter(self.dirichlet_map.keys(), dtype=np.int64,
                            count=len(self.dirichlet_map))
        values = np.fromiter(self.dirichlet_map.values(), dtype=float,
                             count=len(self.dirichlet_map))
        order = np.argsort(fixed)
        fixed, values = fixed[order], values[order]
        if solver is not None and self.mass_weight is not None:
            op = solver.operator(self.A, self.B, self.gauge, fixed)
            k, rhs = op.assemble(self.mass_weight, rhs, values)
            return k, rhs, fixed, values

        a = self.A
        if self.mass_weight is not None:
            a = a + _vector_mass(self.ctx, self.mass_weight)
        k = _stack(a, self.B, self.ctx.volume_vector() if self.gauge else None)
        if fixed.size:
            lift = np.zeros(k.shape[0])
            lift[fixed] = values
            rhs = rhs - k @ lift
            k = _eliminate(k, fixed)
            rhs[fixed] = values
        return k, rhs, fixed, values

    def solve(self, solver: StepSolver | None = None, key=None):
        """Solve the constrained system; returns velocity field, pressure
        field, report.

        ``solver`` carries the step operator and the factorization of
        earlier systems of the same run, and ``key`` names the kind of
        system (see :class:`StepSolver`); without a solver this system is
        built from scratch and factorized on its own.
        """
        if solver is not None and solver.ctx is not self.ctx:
            raise ValueError("the solver belongs to another form context")
        k, rhs, fixed, values = self.constrained(solver)
        solver = solver or StepSolver(self.ctx)
        x, resid, iterations, factorized = solver.solve(k, rhs, key)
        if fixed.size:
            x[fixed] = values  # prescribed values, exactly

        nv = self.ctx.vspace.dof_count
        nq = self.ctx.pspace.dof_count
        u = x[:nv]
        p = x[nv:nv + nq]
        lam = float(x[-1]) if self.gauge else None
        if self.gauge:
            c = self.ctx.volume_vector()
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
