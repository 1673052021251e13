"""Constrained saddle-point systems for one time step.

A system couples the velocity block (mass + viscous + drag contributions)
with the divergence constraint.  One :class:`Constraints` table per run fixes
both velocity components on Dirichlet edges and the normal component on
axis-aligned slip edges, and says whether the pressure level on a fully
Dirichlet boundary is fixed through a single zero-mean Lagrange multiplier;
per system only the values change.  Fixed unknowns are imposed by symmetric
row/column elimination with right-hand-side lifting.

Every solve goes through one :class:`StepSolver`, built from the constant
blocks and the table: a run builds one, as does the steady solve of
:func:`porousflow.verification.steady_stokes_solve` with a zero weight.
Between steps only the velocity mass-type block changes: the scaled mass,
the linear drag and the linearized quadratic drag fold into one weight per
quadrature point.  The solver eliminates the constant blocks once, in a CSR
pattern that also holds every element's mass-type entries, and each step
scatters its element matrices into a copy of the constant data by
precomputed positions.  Its :meth:`StepSolver.solve` returns the step's
velocity and pressure fields.  A :class:`SaddleSystem` is only a per-step
front to that call.

Every matrix is factorized by :func:`direct_solve` in one fill-reducing order
of its unknowns, :func:`nested_dissection` of the mesh geometry, computed
once per solver.  The solver holds at most one LU.  A system of the same
kind as the factorized one is solved by right-preconditioned GMRES with that
LU, one triangular solve per iteration, down to the accuracy the factorizing
direct solve itself reached; a system of another kind, or one on which GMRES
misses that stop within one restart cycle, is factorized afresh, so one
factorization serves every general step.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import solve_triangular
from scipy.sparse.linalg import splu

from porousflow.assembly import FormContext
from porousflow.fem import FeField, boundary_nodes
from porousflow.mesh import BoundaryTag

# SuperLU settings.  The constrained step matrices are structurally
# symmetric, and SuperLU factors them in symmetric mode, in the order of
# their unknowns: a geometric nested dissection of the mesh (see
# nested_dissection) with leaves of about DISSECTION_LEAF unknowns.  Against
# SuperLU's minimum-degree ordering of A + A^T, on general step matrices (one
# core), it cuts the factor of two-layer n=60 from 2.05M entries (L+U) and
# 0.28 s to 1.43M and 0.10 s, of MMS N=32 from 2.77M to 1.33M entries, and of
# sinusoidal n=150 from 30.9M entries and 9.0 s to 12.2M and 0.96 s, with
# its triangular solve 62 -> 31 ms.
DIAG_PIVOT_THRESH = 0.01
DISSECTION_LEAF = 32
# GMRES with a held factor as preconditioner must reach this relative
# residual (of the unpreconditioned system) within one restart cycle of
# KRYLOV_MAX_ITERATIONS iterations; otherwise the factor is replaced.  The
# stop is raised to DIRECT_RESIDUAL_MARGIN times the relative residual of the
# direct solve that built the factor: GMRES in working precision stalls near
# the accuracy of a direct solve (sinusoidal n=40: direct 5.8e-14, GMRES
# 6.5e-14), so a stricter stop would only discard a good factor.  A margin of
# 10 leaves a system whose direct solve reaches 4e-16 at KRYLOV_RTOL, which
# one more iteration reaches, where 100 would stop it at 2e-14.
KRYLOV_RTOL = 1e-14
DIRECT_RESIDUAL_MARGIN = 10.0
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
    """Algebraic quality measures of one solve: the relative residual of
    the constrained system, the largest entry of ``B u``, the GMRES
    iterations taken (0 for a plain LU solve) and whether the solve built a
    new factorization.  The clamped feet of a step are counted by the
    scheme, in ``StepResult.clamped``."""

    algebraic_residual: float
    incompressibility_residual: float
    krylov_iterations: int
    factorized: bool


@dataclass(frozen=True, eq=False)
class Constraints:
    """The fixed velocity unknowns of one boundary configuration: sorted,
    both components of every Dirichlet node and the normal component of
    every slip node.  ``points`` are the Dirichlet nodes' coordinates and
    ``slots`` (nd, 2) and ``slip`` the positions in ``fixed`` of their
    unknowns and of the slip unknowns."""

    fixed: np.ndarray
    points: np.ndarray
    slots: np.ndarray
    slip: np.ndarray
    gauge: bool

    @classmethod
    def build(cls, ctx: FormContext, gauge: bool) -> "Constraints":
        """The table of ``ctx``'s tagged boundary; raises
        :class:`UnsupportedBoundaryError` for a slip edge that is not
        axis-aligned and :class:`GaugeError` for a gauge next to a
        stress-free edge, which already fixes the pressure level."""
        mesh, space = ctx.mesh, ctx.vspace
        tags = np.array(mesh.boundary_tags, dtype=object)
        if gauge and (tags == BoundaryTag.STRESS_FREE).any():
            raise GaugeError("pressure gauge conflicts with a stress-free "
                             "boundary, which already fixes the level")
        slip = tags == BoundaryTag.SLIP
        a, b = mesh.boundary_edges[slip].T
        d = np.abs(mesh.vertices[b] - mesh.vertices[a])
        horizontal = d[:, 1] <= 1e-12 * np.maximum(1.0, d[:, 0])
        vertical = d[:, 0] <= 1e-12 * np.maximum(1.0, d[:, 1])
        if not (horizontal | vertical).all():
            raise UnsupportedBoundaryError(
                "slip boundaries must be axis-aligned")
        # the normal component: y on horizontal edges, x on vertical ones
        ends = np.column_stack([a, b, space.boundary_midpoints[slip]])
        slip_dofs = 2 * ends + horizontal[:, None]
        nodes = boundary_nodes(space, {BoundaryTag.DIRICHLET})
        dirichlet_dofs = 2 * nodes[:, None] + np.arange(2)
        fixed = np.union1d(dirichlet_dofs, slip_dofs)
        return cls(fixed, space.node_coords[nodes],
                   np.searchsorted(fixed, dirichlet_dofs),
                   np.searchsorted(fixed, np.unique(slip_dofs)), bool(gauge))

    def values(self, g=None, t: float | None = None) -> np.ndarray:
        """Values of the ``fixed`` unknowns: the Dirichlet data from one
        ``g(points [, t])`` call, needed only when there are Dirichlet
        nodes, and zeros on the slip unknowns.  Raises
        :class:`ConstraintConflictError` where a Dirichlet value differs from
        the slip zero on the same unknown."""
        values = np.zeros(self.fixed.size)
        if len(self.points):
            values[self.slots] = g(self.points) if t is None \
                else g(self.points, t)
        shared = np.abs(values[self.slip])
        clash = self.slip[shared > 1e-12 * np.maximum(1.0, shared)]
        if clash.size:
            raise ConstraintConflictError(
                f"velocity dof {self.fixed[clash[0]]} constrained to both "
                f"{float(values[clash[0]])!r} and 0.0")
        values[self.slip] = 0.0
        return values


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


def _step_pattern(k, cell_dofs, free):
    """Eliminate the fixed unknowns of ``k`` (zero their rows and columns,
    ones on their diagonal) and unite the result with every element's
    mass-type entries (same velocity component) on free rows and columns.

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


def _place(pos, unknowns, groups, first):
    """Give the ``unknowns`` of each group consecutive positions from
    ``first[group]`` on, in index order."""
    order = np.argsort(groups, kind="stable")
    unknowns, groups = unknowns[order], groups[order]
    rank = np.arange(len(groups)) - np.searchsorted(groups, groups)
    pos[unknowns] = first[groups] + rank


def nested_dissection(ctx: FormContext, fixed: np.ndarray, gauge: bool):
    """Nested-dissection order of the unknowns of a step system of ``ctx``
    (velocity, pressure, then the gauge multiplier when ``gauge``).

    The ``fixed`` unknowns, decoupled by elimination, come first and the
    gauge multiplier, coupled to every pressure, last.  The triangles are
    split level by level: each part at the median centroid along its longer
    extent.  The part's unplaced unknowns used by triangles on both sides
    form its separator, ordered after the left and the right part; a part of
    at most ``DISSECTION_LEAF`` unknowns is a leaf, in index order.  Element
    matrices couple only unknowns of one triangle, so no entry of the step
    matrix joins a left part to its right part.

    Returns ``(perm, splits)``: ``k[perm][:, perm]`` is ``k`` in this order,
    and each row ``(start, middle, separator)`` of ``splits`` says that one
    split put its left part at positions ``start:middle``, its right part at
    ``middle:separator`` and its separator after them.
    """
    nv = ctx.vspace.dof_count
    n = nv + ctx.pspace.dof_count + int(gauge)
    cell_dofs = np.hstack([ctx.vspace.cell_dofs, nv + ctx.pspace.cell_dofs])
    centroids = ctx.mesh.vertices[ctx.mesh.triangles].mean(axis=1)
    pos = np.full(n, -1)
    pos[fixed] = np.arange(fixed.size)
    if gauge:
        pos[-1] = n - 1
    part = np.where(pos < 0, 0, -1)       # of each unknown; -1 once placed
    tri_part = np.zeros(len(centroids), dtype=np.int64)   # -1 in a leaf
    start = np.array([fixed.size])        # first position of each part
    splits = []
    while True:
        live = np.flatnonzero(part >= 0)
        size = np.bincount(part[live], minlength=len(start))
        big = size > DISSECTION_LEAF
        leaf = live[~big[part[live]]]
        _place(pos, leaf, part[leaf], start)
        # split the big parts, renumbered 0, 1, ...
        tris = np.flatnonzero(tri_part >= 0)
        tris = tris[big[tri_part[tris]]]
        if not tris.size:
            break
        renumber = np.cumsum(big) - 1
        tp = renumber[tri_part[tris]]
        live = live[big[part[live]]]
        up = renumber[part[live]]
        start = start[big]
        parts = len(start)
        c = centroids[tris]
        low = np.full((parts, 2), np.inf)
        high = np.full((parts, 2), -np.inf)
        np.minimum.at(low, tp, c)
        np.maximum.at(high, tp, c)
        axis = np.argmax(high - low, axis=1)
        order = np.lexsort((c[np.arange(len(tris)), axis[tp]], tp))
        sorted_tp = tp[order]
        rank = np.empty(len(tris), dtype=np.int64)
        rank[order] = np.arange(len(tris)) - np.searchsorted(sorted_tp,
                                                            sorted_tp)
        side = (rank >= np.bincount(tp, minlength=parts)[tp] // 2) * 1
        used = np.zeros((2, n), dtype=bool)
        used[np.repeat(side, cell_dofs.shape[1]),
             cell_dofs[tris].ravel()] = True
        on_left, on_right = used[:, live]
        sep = on_left & on_right
        child = 2 * up + on_right
        sizes = np.bincount(child[~sep], minlength=2 * parts)
        middle = start + sizes[0::2]
        separator = middle + sizes[1::2]
        _place(pos, live[sep], up[sep], separator)
        splits.append(np.column_stack([start, middle, separator]))
        part[:] = -1
        part[live[~sep]] = child[~sep]
        tri_part[:] = -1
        tri_part[tris] = 2 * tp + side
        start = np.column_stack([start, middle]).ravel()
    perm = np.empty(n, dtype=np.int64)
    perm[pos] = np.arange(n)
    return perm, np.concatenate(splits or [np.empty((0, 3), np.int64)])


def _lu_solve(lu, perm, b):
    """``x`` with ``k x = b`` by the LU of ``k[perm][:, perm]``."""
    x = np.empty_like(b)
    x[perm] = lu.solve(b[perm])
    return x


def direct_solve(k: sparse.csr_matrix, rhs: np.ndarray, perm: np.ndarray):
    """Solve ``k x = rhs`` by a sparse LU of ``k`` in the order ``perm`` of
    its unknowns (a :func:`nested_dissection` order).

    Returns ``(x, residual, lu)`` with the relative residual of ``x`` and the
    LU of ``k[perm][:, perm]``; raises :class:`SingularSystemError` when the
    factorization fails or that residual exceeds ``RESIDUAL_BOUND``.
    """
    try:
        lu = splu(k[perm][:, perm].tocsc(), permc_spec="NATURAL",
                  diag_pivot_thresh=DIAG_PIVOT_THRESH,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from exc
    x = _lu_solve(lu, perm, rhs)
    resid = float(np.linalg.norm(k @ x - rhs)) \
        / max(float(np.linalg.norm(rhs)), 1e-30)
    if not resid <= RESIDUAL_BOUND:   # also rejects NaN
        raise SingularSystemError(
            f"direct LU solve left a relative residual of {resid:.3e}")
    return x, resid, lu


class StepSolver:
    """Solves the step systems of one run, ``[[A + M(w), B^T], [B, 0]]``
    (gauge-bordered when gauged) under one constraint table, holding at most
    one LU.

    ``M(w)`` is the velocity mass matrix weighted by ``w`` at the quadrature
    points, the only part that changes between steps.  At construction the
    constant blocks are eliminated once, into a CSR pattern that also holds
    every element's mass-type entries on free rows and columns, whose
    positions in the data array are recorded, and the
    :func:`nested_dissection` order of the unknowns is computed.
    :meth:`assemble` scatters the element matrices of ``M(w)`` into a copy of
    the constant data and lifts the right-hand side by the fixed values.

    The held factorization is keyed by the ``key`` of the solve that built
    it; start-up and general steps pass different keys because their mass
    weights carry rho/tau and 3 rho/(2 tau).  A solve with the held key runs
    GMRES on its own matrix, right-preconditioned by the held LU and started
    from the LU's solution, down to ``KRYLOV_RTOL`` or
    ``DIRECT_RESIDUAL_MARGIN`` times the relative residual the LU's own
    direct solve reached, whichever is larger, and never above
    ``RESIDUAL_BOUND``.  When GMRES misses that stop within one restart
    cycle, or the key differs, the held LU is dropped before the new matrix
    is factorized by :func:`direct_solve`, so two factors never coexist and
    freed ones leave the process.
    """

    def __init__(self, ctx: FormContext, a_block, b_block,
                 constraints: Constraints):
        _fix_malloc_thresholds()
        self.ctx = ctx
        self.b_block = b_block
        self.constraints = constraints
        fixed = constraints.fixed
        k = _stack(a_block, b_block,
                   ctx.volume_vector() if constraints.gauge else None)
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
        self._perm = nested_dissection(ctx, fixed, constraints.gauge)[0]
        self._lu = None
        self._key = None
        self._direct_residual = 0.0    # the held LU's own relative residual

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
        fixed = self.constraints.fixed
        if fixed.size:
            nv = self.ctx.vspace.dof_count
            lift = np.zeros(nv)
            lift[fixed] = values
            dofs = self._lift_dofs
            weighted = local[self._lift_elems].reshape(-1, 6, 6) \
                @ lift[dofs].reshape(-1, 6, 2)
            rhs = rhs - self._fixed_columns @ values
            rhs[:nv] -= np.bincount(dofs.ravel(), weighted.ravel(),
                                    minlength=nv)
            rhs[fixed] = values
        return k, rhs

    def solve(self, weight: np.ndarray, load: np.ndarray, values: np.ndarray,
              key=None):
        """Solve the step system of the mass-type weight ``weight``, the
        velocity ``load`` (zero pressure and gauge rows) and the ``values``
        of the fixed unknowns.

        Returns the velocity and pressure fields, with the fixed unknowns
        set to their values exactly and, when gauged, the pressure shifted
        to zero mean, and the :class:`SolveReport`.  Raises
        :class:`SolverError` for a load that is not finite and
        :class:`SingularSystemError` as :func:`direct_solve` does.
        """
        if not np.isfinite(load).all():
            raise SolverError("right-hand side contains NaN or Inf")
        ctx, fixed = self.ctx, self.constraints.fixed
        nv, nq = ctx.vspace.dof_count, ctx.pspace.dof_count
        rhs = np.concatenate([load, np.zeros(self._constant.shape[0] - nv)])
        k, rhs = self.assemble(weight, rhs, values)
        x, resid, iterations, factorized = self._solve(k, rhs, key)
        x[fixed] = values   # prescribed values, exactly
        u, p = x[:nv], x[nv:nv + nq]
        if self.constraints.gauge:
            c = ctx.volume_vector()
            p = p - (c @ p) / float(ctx.mesh.areas.sum())
        report = SolveReport(algebraic_residual=resid,
                             incompressibility_residual=float(
                                 np.abs(self.b_block @ u).max()),
                             krylov_iterations=iterations,
                             factorized=factorized)
        return FeField(ctx.vspace, u), FeField(ctx.pspace, p), report

    def _solve(self, k, rhs, key):
        """``(x, residual, krylov_iterations, factorized)`` for the
        constrained system ``k x = rhs``: GMRES with the held LU when it
        was built under ``key``, else a new factorization."""
        iterations = 0
        if self._lu is not None and self._key == key:
            rhs_norm = max(float(np.linalg.norm(rhs)), 1e-30)
            x, iterations, r_norm = self._krylov(k, rhs, rhs_norm)
            if x is not None:
                return x, r_norm / rhs_norm, iterations, False
        self._lu = None
        x, resid, self._lu = direct_solve(k, rhs, self._perm)
        self._key, self._direct_residual = key, resid
        return x, resid, iterations, True

    def _krylov(self, k, rhs, rhs_norm):
        """GMRES right-preconditioned by the held LU, started from its
        solution, within one restart cycle of ``KRYLOV_MAX_ITERATIONS``.

        The preconditioned directions ``Z = LU^{-1} V`` are stored, so each
        iteration solves with the LU once, and the least-squares residual of
        the Hessenberg system is the residual of ``k x = rhs`` itself.  The
        iterate is formed once that residual reaches the stop (see
        :class:`StepSolver`) and is accepted when its true residual does too.

        Returns ``(x, iterations, residual norm)``, with ``x = None`` when
        the stop was missed.
        """
        lu, perm = self._lu, self._perm
        m = KRYLOV_MAX_ITERATIONS
        target = min(RESIDUAL_BOUND, max(
            KRYLOV_RTOL, DIRECT_RESIDUAL_MARGIN * self._direct_residual)) \
            * rhs_norm
        x0 = _lu_solve(lu, perm, rhs)
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
            z[j] = _lu_solve(lu, perm, v[j])
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
    """One step's system in front of the run's :class:`StepSolver`: the
    velocity ``load``, the mass-type ``weight`` and the values of the
    solver's fixed unknowns, set by :meth:`apply_dirichlet`."""

    def __init__(self, solver: StepSolver, load: np.ndarray,
                 weight: np.ndarray):
        self.solver, self.load, self.weight = solver, load, weight
        self.values: np.ndarray | None = None

    def apply_dirichlet(self, g, t: float | None = None) -> "SaddleSystem":
        """Evaluate the values of the solver's table: the Dirichlet data
        from ``g(points [, t])`` and zeros on the slip unknowns."""
        self.values = self.solver.constraints.values(g, t)
        return self

    # The run's table already holds the slip and gauge constraints.  These
    # two no-ops, and this front, stay only as the targets that
    # perfbench/tracer.py hooks, until ROADMAP item 1 re-points the hooks at
    # the solver's own names.
    def apply_slip(self) -> "SaddleSystem":
        return self

    def apply_gauge(self) -> "SaddleSystem":
        return self

    def solve(self, key=None):
        """:meth:`StepSolver.solve` of this system."""
        return self.solver.solve(self.weight, self.load, self.values, key)
