"""Constrained saddle-point systems for one time step.

A system couples the velocity block (mass + viscous + drag contributions)
with the divergence constraint.  One :class:`Constraints` table per run,
read off the mesh's boundary tags, fixes both velocity components on
Dirichlet edges and says whether the pressure level is fixed through a
single zero-mean Lagrange multiplier: exactly when no boundary edge is
stress-free, since only a stress-free edge fixes it otherwise; per system
only the values change.  Fixed unknowns are imposed by symmetric row/column
elimination with right-hand-side lifting.

Every solve goes through one :class:`StepSolver`, built from the element
tables of the constant blocks and the table: a run builds one, as does the
steady solve of :func:`porousflow.verification.steady_stokes_solve` with a
zero weight.  Between steps only the velocity mass-type block changes: the
scaled mass, the linear drag and the linearized quadratic drag fold into one
weight per quadrature point.  The solver places the constant element blocks,
already eliminated, in one CSR conversion whose pattern also holds every
element's mass-type entries, and each step scatters its element matrices
into a copy of the constant data by precomputed positions.  Its
:meth:`StepSolver.solve` returns the step's velocity and pressure fields.
A :class:`SaddleSystem` is only a per-step front to that call.

Every matrix is factorized in single precision (:func:`_factorize`) in one
fill-reducing order of its unknowns, :func:`nested_dissection` of the mesh
geometry, computed once per solver.  The solver holds at most one LU.  Every
system is solved by right-preconditioned GMRES in float64 with that LU, one
triangular solve per iteration: the system that built the LU down to
``KRYLOV_RTOL`` or to where its true residual stops falling, which is
iterative refinement by GMRES with a low-precision factor (Arioli & Duff,
ETNA 33, 2009; Carson & Higham, SIAM J. Sci. Comput. 40, 2018), and a later
system of the same kind down to the accuracy that first solve reached.
GMRES starts from the least-squares combination of the solver's last
``GUESS_HISTORY`` solutions, which takes no LU solve, so a start that
already meets the stop returns after 0 iterations.  A system of another
kind, or one on which GMRES misses that stop within one restart cycle, is
factorized afresh, so one factorization serves every general step.
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
# its triangular solve 62 -> 31 ms.  The factor is kept in float32: against
# float64, on the same general step matrices, its factorization is 20% (n=60,
# MMS N=32) and 24% (n=150) faster, one triangular solve 37%, 9% and 33%,
# and its values take half the memory.
DIAG_PIVOT_THRESH = 0.01
DISSECTION_LEAF = 32
# GMRES with a held factor as preconditioner must reach this relative residual
# (of the unpreconditioned system) within one restart cycle of
# KRYLOV_MAX_ITERATIONS iterations; otherwise the factor is replaced.  The
# solve that builds a factor refines with it down to KRYLOV_RTOL or until its
# true residual falls by less than the factor REFINE_STALL from one iterate to
# the next (measured: 2-5 iterations on two-layer n=60/120, sinusoidal
# n=40/80/150 and MMS N=8/16/32, and on MMS N=32 9 at tau=1e-7 and 7 at
# mu=1e3, the float32 factor gaining 4-7 digits each; at the round-off floor
# the residual still creeps down, and stopping only where it rises missed 20
# iterations on sinusoidal n=150), and a later solve with that
# factor stops at DIRECT_RESIDUAL_MARGIN times the relative residual the first
# one reached, if that is larger: GMRES in working precision stalls near the
# accuracy of a direct solve (sinusoidal n=40: float64 direct solve 5.8e-14,
# refinement 4.3e-14), so a stricter stop would only discard a good factor.
# Started from past solutions, GMRES ends just under the stop rather than well
# past it, so the margin bounds the distance to a fresh solve: over 6 steps of
# sinusoidal n=40, a margin of 10 left a step 1.9e-12 (relative) off the direct
# solution, and margins 1.5, 2 and 5 all 1.8e-13 in as many iterations.
KRYLOV_RTOL = 1e-14
DIRECT_RESIDUAL_MARGIN = 5.0
KRYLOV_MAX_ITERATIONS = 20
REFINE_STALL = 0.5
# GMRES starts from the least-squares combination of the last GUESS_HISTORY
# solutions.  Median LU solves per general step (two-layer n=60 / MMS N=32)
# with 1, 2, 3, 4 and 6 of them: 5/7, 5/7, 5/6, 5/6 and 5/6; 8/9 when
# started from the held LU's solution.
GUESS_HISTORY = 3
# A solve whose relative residual exceeds this is rejected as singular.
RESIDUAL_BOUND = 1e-6
# glibc raises its mmap threshold to each freed mapped block (up to 32 MiB),
# so later factors are carved from the heap among the step temporaries and a
# run's peak RSS follows how that heap fragments (perfbench two-layer-60,
# five runs each: 108.2-112.2 MB fixed, 116.5-119.2 MB not).  Fixed, blocks
# of MMAP_THRESHOLD bytes or more get mappings of their own, freed at once.
MMAP_THRESHOLD = 4 << 20


class SolverError(RuntimeError):
    """Base class for failures while solving a step system."""


class SingularSystemError(SolverError):
    """The constrained system is (numerically) singular."""


class GaugeError(ValueError):
    """A pressure gauge other than the one the boundary needs was asked
    for."""


@dataclass
class SolveReport:
    """Algebraic quality measures of one solve: the relative residual of
    the constrained system, the largest entry of ``B u``, the GMRES
    iterations taken and whether the solve built a new factorization.  Every
    solve takes one LU solve per GMRES iteration and none for its start, 0
    iterations when the start projected on past solutions already meets the
    stop; a factorizing solve counts the iterations that refined its
    solution with the new single-precision LU: measured 2-5 on the bundled
    cases and the manufactured solution, 7 at ``mu = 1e3`` and 9 at ``tau =
    1e-7`` (manufactured solution, N=32).
    The clamped feet of a step are counted by the scheme, in
    ``StepResult.clamped``."""

    algebraic_residual: float
    incompressibility_residual: float
    krylov_iterations: int
    factorized: bool


@dataclass(frozen=True, eq=False)
class Constraints:
    """The fixed velocity unknowns of one boundary configuration: both
    components of every Dirichlet node, nodes in ascending order, and
    ``points``, those nodes' coordinates.  ``gauge`` says whether the
    pressure carries the zero-mean gauge: exactly when no boundary edge is
    stress-free, since a stress-free edge fixes the pressure level and
    without one the level is undetermined."""

    fixed: np.ndarray
    points: np.ndarray
    gauge: bool

    @classmethod
    def build(cls, ctx: FormContext) -> "Constraints":
        """The table of ``ctx``'s tagged boundary."""
        nodes = boundary_nodes(ctx.vspace, {BoundaryTag.DIRICHLET})
        return cls((2 * nodes[:, None] + np.arange(2)).ravel(),
                   ctx.vspace.node_coords[nodes],
                   not (ctx.mesh.boundary_tags == BoundaryTag.STRESS_FREE)
                   .any())

    def values(self, g, t: float | None = None) -> np.ndarray:
        """Values of the ``fixed`` unknowns from one ``g(points [, t])``
        call, which must return one velocity per Dirichlet node, an array
        shaped like ``points``; any other shape raises ``ValueError``."""
        values = np.asarray(g(self.points) if t is None
                            else g(self.points, t), dtype=float)
        if values.shape != self.points.shape:
            raise ValueError(f"Dirichlet data of shape {values.shape} for "
                             f"{len(self.points)} nodes; expected "
                             f"{self.points.shape}")
        return values.ravel()


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


def element_dofs(ctx: FormContext) -> np.ndarray:
    """The unknowns of each triangle in a step system of ``ctx``, (nt, 15):
    its 12 velocity unknowns, then its 3 pressure unknowns."""
    nv = ctx.vspace.dof_count
    return np.hstack([ctx.vspace.cell_dofs, nv + ctx.pspace.cell_dofs])


# the same-component pairs of a triangle's velocity unknowns, (6, 6, 2):
# scalar nodes n and m of component c sit at 2 n + c and 2 m + c
_MASS_ROWS = 2 * np.arange(6)[:, None, None] + np.arange(2)
_MASS_COLS = 2 * np.arange(6)[None, :, None] + np.arange(2)


def _step_matrix(a_elements, b_elements, dofs, free, gauge_vector):
    """The constrained step matrix without its mass-type part, by one
    COO->CSR conversion: the element blocks ``[[A, B^T], [B, 0]]`` on free
    rows and columns, the gauge border ``c`` and ``c^T`` when
    ``gauge_vector`` is given, and ones on the diagonal of the fixed
    unknowns.  Entries that cancel stay stored, so the pattern depends on
    the mesh and the constraint table alone.

    Returns the canonical CSR matrix and the position in its data array of
    each element's mass-type entries, those of the viscous block's
    same-component pairs, ``(nt, 6, 6, 2)`` flattened; entries on a fixed
    row or column point one past the end.
    """
    nt, n = len(dofs), len(free)
    # 32-bit indices, as scipy keeps them, halve the index traffic
    dofs = dofs.astype(np.int32)
    rows = np.broadcast_to(dofs[:, :, None], (nt, 15, 15))
    cols = np.broadcast_to(dofs[:, None, :], (nt, 15, 15))
    on = free[dofs]
    live = on[:, :, None] & on[:, None, :]
    live[:, 12:, 12:] = False
    fixed = np.flatnonzero(~free).astype(np.int32)
    tail = [(np.ones(fixed.size), fixed, fixed)]
    if gauge_vector is not None:
        pressure = np.arange(n - 1 - gauge_vector.size, n - 1, dtype=np.int32)
        border = np.full(gauge_vector.size, n - 1, dtype=np.int32)
        tail += [(gauge_vector, pressure, border),
                 (gauge_vector, border, pressure)]
    # the triplet arrays are allocated once and filled in place: below the
    # mmap threshold, copies of them held at once stay resident as heap
    # holes after the build (two-layer-60 peak RSS: 119.5 MB when the
    # masked copies were concatenated, 108.6 MB filled in place)
    m = np.count_nonzero(live)
    size = m + sum(part[0].size for part in tail)
    data, r, c = (np.empty(size), np.empty(size, np.int32),
                  np.empty(size, np.int32))
    data[m:], r[m:], c[m:] = (np.concatenate(x) for x in zip(*tail))
    local = np.zeros((nt, 15, 15))
    local[:, :12, :12] = a_elements
    local[:, 12:, :12] = b_elements
    local[:, :12, 12:] = b_elements.transpose(0, 2, 1)
    data[:m] = local[live]
    del local
    r[:m] = rows[live]
    c[:m] = cols[live]
    k = sparse.coo_matrix((data, (r, c)), shape=(n, n)).tocsr()
    del data, r, c
    mass = live[:, _MASS_ROWS, _MASS_COLS]
    ids = sparse.csr_matrix((np.arange(1.0, k.nnz + 1), k.indices, k.indptr),
                            shape=k.shape)
    found = ids[rows[:, _MASS_ROWS, _MASS_COLS][mass],
                cols[:, _MASS_ROWS, _MASS_COLS][mass]]
    pos = np.full(mass.size, k.nnz)
    pos[mass.ravel()] = np.asarray(found).ravel().astype(np.int64) - 1
    return k, pos


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
    n = ctx.vspace.dof_count + ctx.pspace.dof_count + int(gauge)
    cell_dofs = element_dofs(ctx)
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
    """``x`` with ``k x = b`` by the single-precision LU of
    ``k[perm][:, perm]``."""
    x = np.empty_like(b)
    x[perm] = lu.solve(b[perm].astype(np.float32))
    return x


def _factorize(k: sparse.csr_matrix, perm: np.ndarray):
    """The single-precision sparse LU of ``k`` in the order ``perm`` of its
    unknowns (a :func:`nested_dissection` order), that is of
    ``k[perm][:, perm]``, by the module's ``splu``; raises
    :class:`SingularSystemError` when the factorization fails."""
    try:
        return splu(k.astype(np.float32)[perm][:, perm].tocsc(),
                    permc_spec="NATURAL",
                    diag_pivot_thresh=DIAG_PIVOT_THRESH,
                    options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from exc


class StepSolver:
    """Solves the step systems of one run, ``[[A + M(w), B^T], [B, 0]]``
    (gauge-bordered when gauged) under one constraint table, holding at most
    one LU.

    ``A`` and ``B`` come as element tables, ``a_elements`` (nt, 12, 12) and
    ``b_elements`` (nt, 3, 12) over each triangle's velocity and pressure
    unknowns (:func:`element_dofs`).  ``M(w)`` is the velocity mass matrix
    weighted by ``w`` at the quadrature points, the only part that changes
    between steps.  At construction the constant blocks are placed and
    eliminated at once (:func:`_step_matrix`), in a CSR pattern that also
    holds every element's mass-type entries on free rows and columns, whose
    positions in the data array are recorded, and the
    :func:`nested_dissection` order of the unknowns is computed.
    :meth:`assemble` scatters the element matrices of ``M(w)`` into a copy of
    the constant data and lifts the right-hand side by the fixed values
    through the element matrices of the triangles that hold them.

    The held factorization is keyed by the ``key`` of the solve that built
    it; start-up and general steps pass different keys because their mass
    weights carry rho/tau and 3 rho/(2 tau).  The solver keeps the raw
    solutions of its last ``GUESS_HISTORY`` solves, the factorizing ones
    included, so a solve with the held key, which always follows the solve
    that built the LU, has at least one.  Every solve runs GMRES in float64
    on its own matrix, right-preconditioned by the held single-precision LU
    and started from the combination ``P c`` of those solutions ``P`` that
    minimizes ``|rhs - K P c|`` (0 iterations when that start meets the
    stop).  A solve with the held key stops at ``KRYLOV_RTOL`` or
    ``DIRECT_RESIDUAL_MARGIN`` times the relative residual the solve that
    built the LU reached, whichever is larger, and never above
    ``RESIDUAL_BOUND``.  When GMRES misses that stop within one restart
    cycle, or the key differs, the held LU is dropped before the new matrix
    is factorized (:func:`_factorize`), so two factors never coexist and
    freed ones leave the process; GMRES with the new LU then refines from
    the same start down to ``KRYLOV_RTOL`` or to where its true residual
    stops falling, and raises :class:`SingularSystemError` when it misses
    both within one restart cycle or ends above ``RESIDUAL_BOUND``.
    """

    def __init__(self, ctx: FormContext, a_elements, b_elements,
                 constraints: Constraints):
        _fix_malloc_thresholds()
        self.ctx = ctx
        self.b_elements = b_elements
        self.constraints = constraints
        fixed = constraints.fixed
        n = (ctx.vspace.dof_count + ctx.pspace.dof_count
             + int(constraints.gauge))
        free = np.ones(n, dtype=bool)
        free[fixed] = False
        dofs = element_dofs(ctx)
        matrix, pos = _step_matrix(
            a_elements, b_elements, dofs, free,
            ctx.volume_vector() if constraints.gauge else None)
        # copied once the build's temporaries are freed, the held arrays
        # fill the heap holes those leave instead of pinning the heap top
        # (two-layer-60 peak RSS: 108.2-112.2 MB, uncopied 113.4-114.5 MB)
        self._constant, self._pos = matrix.copy(), pos.copy()
        del matrix, pos
        # the elements with a fixed unknown lift the right-hand side through
        # their constant blocks [A; B], (m, 15, 12), and their mass-type part
        touched = ~free[dofs[:, :12]].all(axis=1)
        self._lift_elems = np.flatnonzero(touched)
        self._lift_dofs = dofs[touched]
        self._lift_blocks = np.concatenate([a_elements[touched],
                                            b_elements[touched]], axis=1)
        self._perm = nested_dissection(ctx, fixed, constraints.gauge)[0]
        self._lu = None
        self._key = None
        self._factor_residual = 0.0    # reached by the solve that built the LU
        # the raw solutions of the last solves, in turn, and the solve count;
        # held in one block from the start, since a copy kept per step left
        # two-layer n=60 about 1 MB higher in peak RSS
        self._past = np.empty((GUESS_HISTORY, n))
        self._solves = 0

    def assemble(self, weight: np.ndarray, rhs: np.ndarray,
                 values: np.ndarray):
        """Constrained matrix and right-hand side for the mass-type weight
        ``weight`` (nt, nq), the unconstrained ``rhs`` and the values of the
        fixed unknowns."""
        tables = self.ctx.tables
        local = (tables.wxarea * weight) @ tables.p2_products   # (nt, 36)
        const = self._constant
        data = np.bincount(self._pos, np.repeat(local.ravel(), 2),
                           minlength=const.nnz + 1)[:const.nnz]
        data += const.data
        k = sparse.csr_matrix((data, const.indices, const.indptr),
                              shape=const.shape)
        fixed = self.constraints.fixed
        if fixed.size:
            lift = np.zeros(self.ctx.vspace.dof_count)
            lift[fixed] = values
            x = lift[self._lift_dofs[:, :12]]                     # (m, 12)
            out = (self._lift_blocks @ x[:, :, None])[:, :, 0]    # (m, 15)
            out[:, :12] += (local[self._lift_elems].reshape(-1, 6, 6)
                            @ x.reshape(-1, 6, 2)).reshape(-1, 12)
            rhs = rhs - np.bincount(self._lift_dofs.ravel(), out.ravel(),
                                    minlength=len(rhs))
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
        :class:`SingularSystemError` when the factorization fails or GMRES
        with the new LU misses its stop (see :class:`StepSolver`).
        """
        if not np.isfinite(load).all():
            raise SolverError("right-hand side contains NaN or Inf")
        ctx, fixed = self.ctx, self.constraints.fixed
        nv, nq = ctx.vspace.dof_count, ctx.pspace.dof_count
        rhs = np.concatenate([load, np.zeros(self._constant.shape[0] - nv)])
        k, rhs = self.assemble(weight, rhs, values)
        x, resid, iterations, factorized = self._solve(k, rhs, key)
        self._past[self._solves % GUESS_HISTORY] = x
        self._solves += 1
        x[fixed] = values   # prescribed values, exactly
        u, p = x[:nv], x[nv:nv + nq]
        if self.constraints.gauge:
            c = ctx.volume_vector()
            p = p - (c @ p) / float(ctx.mesh.areas.sum())
        div = self.b_elements @ u[ctx.vspace.cell_dofs][:, :, None]
        div = np.bincount(ctx.pspace.cell_dofs.ravel(), div.ravel(),
                          minlength=nq)
        report = SolveReport(algebraic_residual=resid,
                             incompressibility_residual=float(
                                 np.abs(div).max()),
                             krylov_iterations=iterations,
                             factorized=factorized)
        return FeField(ctx.vspace, u), FeField(ctx.pspace, p), report

    def _solve(self, k, rhs, key):
        """``(x, residual, krylov_iterations, factorized)`` for the
        constrained system ``k x = rhs``: GMRES with the held LU when it
        was built under ``key``, else with a new one."""
        rhs_norm = max(float(np.linalg.norm(rhs)), 1e-30)
        if self._lu is not None and self._key == key:
            x, iterations, r_norm = self._krylov(k, rhs, rhs_norm)
            if x is not None:
                return x, r_norm / rhs_norm, iterations, False
        self._lu = None
        self._lu = _factorize(k, self._perm)
        x, iterations, r_norm = self._krylov(k, rhs, rhs_norm, refine=True)
        if x is None or not r_norm <= RESIDUAL_BOUND * rhs_norm:   # or NaN
            self._lu = None
            reached = "no stop" if x is None \
                else f"a relative residual of {r_norm / rhs_norm:.3e}"
            raise SingularSystemError(f"GMRES with a new LU reached {reached}"
                                      f" in {iterations} iterations")
        self._key, self._factor_residual = key, r_norm / rhs_norm
        return x, self._factor_residual, iterations, True

    def _krylov(self, k, rhs, rhs_norm, refine=False):
        """GMRES right-preconditioned by the held LU within one restart
        cycle of ``KRYLOV_MAX_ITERATIONS``, started from ``x0 = P c``: the
        past solutions ``P`` (columns) combined by the least-squares ``c``
        of ``k P c = rhs``, which needs no LU solve and copes with linearly
        dependent columns (``x0 = 0`` before the first solve).  A start that
        meets the stop is returned after 0 iterations.

        The preconditioned directions ``Z = LU^{-1} V`` are stored in
        float64, so each iteration solves with the LU once, and the
        least-squares residual of the Hessenberg system is the residual of
        ``k x = rhs`` itself, whatever the precision of the LU.  The iterate
        is formed once that residual reaches the stop and is accepted when
        its true residual does too.  The stop of a solve that reuses the LU
        is given at :class:`StepSolver`; with ``refine``, for a new LU, it is
        ``KRYLOV_RTOL``, and the best iterate is also accepted once the true
        residual stops falling, by less than ``REFINE_STALL`` from one
        iterate to the next.

        Returns ``(x, iterations, residual norm)``, with ``x = None`` when
        the stop was missed.
        """
        lu, perm = self._lu, self._perm
        m = KRYLOV_MAX_ITERATIONS
        stop = KRYLOV_RTOL if refine else min(RESIDUAL_BOUND, max(
            KRYLOV_RTOL, DIRECT_RESIDUAL_MARGIN * self._factor_residual))
        target = stop * rhs_norm
        past = self._past[:self._solves].T
        x0 = past @ np.linalg.lstsq(k @ past, rhs, rcond=None)[0]
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
        best = None   # with refine: (x, residual norm) of the best iterate
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
                if refine:
                    if best is not None and r_norm > REFINE_STALL * best[1]:
                        x, r_norm = min(best, (x, r_norm), key=lambda b: b[1])
                        return x, j + 1, r_norm
                    best = x, r_norm
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
        """Evaluate the values of the solver's table, the Dirichlet data
        from ``g(points [, t])``."""
        self.values = self.solver.constraints.values(g, t)
        return self

    # The run's table already holds every constraint, the gauge included,
    # and no boundary kind is left for apply_slip.  These two no-ops, and
    # this front, stay only as the targets that perfbench/tracer.py hooks,
    # until ROADMAP item 1 re-points the hooks at the solver's own names.
    def apply_slip(self) -> "SaddleSystem":
        return self

    def apply_gauge(self) -> "SaddleSystem":
        return self

    def solve(self, key=None):
        """:meth:`StepSolver.solve` of this system."""
        return self.solver.solve(self.weight, self.load, self.values, key)
