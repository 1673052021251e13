"""Constrained saddle-point systems for one time step.

A system couples the velocity block (mass + viscous + drag contributions)
with the divergence constraint, ``[[A + M(w), B^T], [B, 0]]``, which is
symmetric: the characteristics move transport to the right-hand side.  One
:class:`Constraints` table per run, read off the mesh's Dirichlet mask
``boundary_dirichlet``, fixes both velocity components on Dirichlet edges
and says whether the pressure level is fixed through a single zero-mean
Lagrange multiplier: exactly when no boundary edge is stress-free, since
only a stress-free edge fixes it otherwise; per system only the values
change.  Fixed unknowns are
imposed by symmetric row/column elimination with right-hand-side lifting.

Every solve goes through one :class:`StepSolver`, built from the element
tables of the constant blocks and the table: a run builds one, as does the
steady solve of :func:`porousflow.verification.steady_stokes_solve` with a
zero weight.  Between steps only the velocity mass-type block changes: the
scaled mass, the linear drag and the linearized quadratic drag fold into one
weight per quadrature point.

The solver numbers the unknowns once, in the fill-reducing order of
:func:`nested_dissection` (the mesh geometry split on nodes, each part's
triangles kept in centroid order along both axes; fixed unknowns first, the
gauge multiplier last), and works in that numbering only.  The build
(:func:`_step_matrix`) sums the transpose ``K^T`` of the constant step
matrix ``K``, the constant element blocks already eliminated, into one CSC
matrix whose pattern also holds every element's mass-type entries, looked up
for the first velocity component; the arrays of that CSC are ``K``'s CSR,
which the solver holds, and the second component's positions are read off
its rows.  Each step sums its element matrices once per scalar pair at the
first component's positions, copies those sums to the second component's
and adds the constant data.
:meth:`StepSolver.solve` places the load in that numbering and reads the
step's velocity and pressure fields off the solution.  A
:class:`SaddleSystem` is only a per-step front to that call.

Every matrix is factorized in single precision (:func:`_factorize`) as it
is numbered: the CSR's arrays, read as a CSC, give the LU of ``K^T``.  The
solver holds at most one LU.  Every system is solved by right-preconditioned
GMRES in float64 with that LU applied transposed, which solves with ``K``,
one triangular solve per iteration, and every product taken with the CSR:
the system that built the LU down to ``KRYLOV_RTOL`` or to where its true
residual stops falling, which is iterative refinement by GMRES with a
low-precision factor (Arioli & Duff, ETNA 33, 2009; Carson & Higham, SIAM J.
Sci. Comput. 40, 2018), and a later system of the same kind down to the
accuracy that first solve reached.  GMRES starts from the least-squares
combination of the solver's last ``GUESS_HISTORY`` solutions, which takes
no LU solve, so a start that already meets the stop returns after 0
iterations.  A system of another kind, or one on which GMRES misses that
stop within one restart cycle, is factorized afresh, so one factorization
serves every general step.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import solve_triangular
from scipy.sparse.linalg import splu

from porousflow.assembly import FormContext, pressure_volume_vector
from porousflow.fem import FeField, boundary_nodes, eval_function

# SuperLU settings.  The constrained step matrices are structurally
# symmetric, and SuperLU factors them in symmetric mode, in the order of
# their unknowns: a geometric nested dissection of the mesh (see
# nested_dissection) with leaves of about DISSECTION_LEAF unknowns.  Against
# SuperLU's minimum-degree ordering of A + A^T, on general step matrices (one
# core), it cuts the factor of two-layer n=60 from 2.05M entries (L+U) and
# 0.28 s to 1.43M and 0.10 s, of MMS N=32 from 2.77M to 1.33M entries, and of
# sinusoidal n=150 from 30.9M entries and 9.0 s to 12.2M and 0.96 s, with
# its triangular solve 62 -> 31 ms.  The factor is kept in FACTOR_DTYPE,
# float32: against float64, on the same general step matrices, its
# factorization is 20% (n=60, MMS N=32) and 24% (n=150) faster, one
# triangular solve 37%, 9% and 33%, and its values take half the memory.
DIAG_PIVOT_THRESH = 0.01
DISSECTION_LEAF = 32
FACTOR_DTYPE = np.float32
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
# run's peak RSS follows how that heap fragments.  Fixed, blocks of
# MMAP_THRESHOLD bytes or more get mappings of their own, freed at once.
# Peak RSS of two-layer n=120: 174.5-174.9 MB fixed, 183-194 MB not; at
# n=60 (perfbench two-layer-60) it does not pay: 95.7-96.4 MB fixed (20
# runs), 92.6-96.4 MB not (10 runs).
MMAP_THRESHOLD = 4 << 20


class SolverError(RuntimeError):
    """Base class for failures while solving a step system."""


class SingularSystemError(SolverError):
    """The constrained system is (numerically) singular."""


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
        """The table of ``ctx``'s boundary, read off its mesh's
        ``boundary_dirichlet``."""
        nodes = boundary_nodes(ctx.vspace)
        return cls((2 * nodes[:, None] + np.arange(2)).ravel(),
                   ctx.vspace.node_coords[nodes],
                   bool(ctx.mesh.boundary_dirichlet.all()))

    def values(self, g, t: float | None = None) -> np.ndarray:
        """Values of the ``fixed`` unknowns from ``g(points [, t])``, which
        :func:`~porousflow.fem.eval_function` checks: one finite velocity
        per Dirichlet node, an array shaped like ``points``; any other
        shape, or a NaN or infinite value, raises ``ValueError`` naming
        ``Dirichlet data``."""
        return eval_function(g, self.points, t, (2,), "Dirichlet data").ravel()


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


# each triangle's entries in the step matrix, row by row of its 15 x 15
# element matrix without the pressure-pressure block: the local row and
# column of each of the 216
_ENTRY_ROWS = np.repeat(np.arange(15), [15] * 12 + [12] * 3)
_ENTRY_COLS = np.concatenate([np.tile(np.arange(15), 12),
                              np.tile(np.arange(12), 3)])


def _step_matrix(a_elements, b_elements, dofs, free, gauge_vector, position):
    """The transpose of the constrained step matrix without its mass-type
    part, as a CSC matrix with unknown ``i`` at place ``position[i]``: the
    element blocks ``[[A^T, B^T], [B, 0]]``, each triangle's viscous block
    transposed, on free rows and columns, the gauge border ``c`` and ``c^T``
    when ``gauge_vector`` is given, and ones on the diagonal of the fixed
    unknowns.  Its arrays are the step matrix's CSR.  Entries that cancel
    stay stored, so the pattern depends on the mesh and the constraint table
    alone.

    The entries are summed by one COO->CSR conversion, each row at its
    place and the columns numbered as in ``dofs``: every triangle gives its
    216 entries in row-major order, so each row receives its entries in the
    order of the triangles and, within one, of the columns.  scipy sums
    duplicates in the order its per-row sort by column leaves them, so that
    order, whatever place the row takes, fixes the data to the last bit.
    Entries on a fixed row or column, which only the triangles holding a
    fixed unknown have, go to an extra row ``n``, dropped after the
    conversion; that leaves the sequences of the other rows as they are.
    The columns then take their places, and the conversion to the CSC
    lists each column's rows in order without a sort.

    Returns the canonical CSC matrix and the int64 position in its data
    array of each element's first-component mass-type entries, those of the
    viscous block's pairs ``(2a, 2b)`` of the triangle's nodes ``a`` and
    ``b``, ``(nt, 6, 6)`` flattened; entries on a fixed row or column point
    one past the end.
    """
    nt, n = len(dofs), len(free)
    # 32-bit indices, as scipy keeps them, halve the index traffic
    dofs = dofs.astype(np.int32)
    position = position.astype(np.int32)
    places = position[dofs]
    fixed = np.flatnonzero(~free).astype(np.int32)
    tail = [(np.ones(fixed.size), position[fixed], fixed)]
    if gauge_vector is not None:
        pressure = np.arange(n - 1 - gauge_vector.size, n - 1, dtype=np.int32)
        border = np.full(gauge_vector.size, n - 1, dtype=np.int32)
        tail += [(gauge_vector, position[pressure], border),
                 (gauge_vector, border, pressure)]
    # the triplet arrays are allocated once and filled in place: below the
    # mmap threshold, copies of them held at once would stay resident as
    # heap holes after the build
    m = 216 * nt
    size = m + sum(part[0].size for part in tail)
    data, r, c = (np.empty(size), np.empty(size, np.int32),
                  np.empty(size, np.int32))
    data[m:], r[m:], c[m:] = (np.concatenate(x) for x in zip(*tail))
    for x, (velocity, coupling, pressure) in (
            (data, (a_elements.transpose(0, 2, 1),
                    b_elements.transpose(0, 2, 1), b_elements)),
            (r, (places[:, :12, None], places[:, :12, None],
                 places[:, 12:, None])),
            (c, (dofs[:, None, :12], dofs[:, None, 12:], dofs[:, None, :12]))):
        # views of x: each slice keeps its last axis contiguous, so
        # reshaping it copies nothing
        entries = x[:m].reshape(nt, 216)
        upper = entries[:, :180].reshape(nt, 12, 15)
        upper[:, :, :12] = velocity
        upper[:, :, 12:] = coupling
        entries[:, 180:].reshape(nt, 3, 12)[:] = pressure
    # entries on a fixed row or column to row n
    touched = np.flatnonzero(~free[dofs[:, :12]].all(axis=1))
    on = free[dofs[touched]]
    rows = r[:m].reshape(nt, 216)
    rows[touched] = np.where(on[:, _ENTRY_ROWS] & on[:, _ENTRY_COLS],
                             rows[touched], n)
    k = sparse.coo_matrix((data, (r, c)), shape=(n + 1, n)).tocsr()
    del data, r, c, rows
    # row n's entries lie past the end of row n - 1; cutting indptr drops them
    k = sparse.csr_matrix((k.data, position[k.indices], k.indptr[:-1]),
                          shape=(n, n)).tocsc()
    # the mass-type pairs (2a, 2b) of a triangle's nodes, looked up in data
    # numbered i - nnz (0 where not stored) at (2a, 2b + 1) when b is fixed,
    # whose column holds only its own row, so such a pair is not found
    first = dofs[:, 0:12:2]
    rows, cols = position[first], position[first + ~free[first]]
    ids = sparse.csc_matrix((np.arange(-k.nnz, 0, dtype=k.indices.dtype),
                             k.indices, k.indptr), shape=k.shape)
    found = np.asarray(ids[np.repeat(rows, 6, axis=1).ravel(),
                           np.tile(cols, 6).ravel()])
    return k, found.ravel().astype(np.int64) + k.nnz


def nested_dissection(ctx: FormContext, fixed: np.ndarray, gauge: bool):
    """Nested-dissection order of the unknowns of a step system of ``ctx``
    (velocity, pressure, then the gauge multiplier when ``gauge``).

    The ``fixed`` unknowns, decoupled by elimination, come first in their
    order and the gauge multiplier, coupled to every pressure, last.  The
    triangles are split level by level: each part at the median centroid
    along its longer extent.  The part's unplaced unknowns used by triangles
    on both sides form its separator, ordered after the left and the right
    part; a part of at most ``DISSECTION_LEAF`` unknowns is a leaf, in index
    order.  Element matrices couple only unknowns of one triangle, so no
    entry of the step matrix joins a left part to its right part.

    The split runs on nodes: the two velocity unknowns of a free node and
    the pressure unknown of a vertex are used by that node's triangles, so
    each is one item, of 2 and 1 unknowns.  Each part keeps its triangles in
    the order of their centroids along x and along y (ties in index order),
    which gives its extents and its median, and each split partitions both
    orders by one stable sort on (part, side).  An item's group (leaf or
    separator) is recorded when it is placed; one stable sort by group start
    then numbers the unknowns.

    Returns ``position``: unknown ``i`` takes place ``position[i]``.
    """
    nv, nq = ctx.vspace.dof_count, ctx.pspace.dof_count
    n = nv + nq + int(gauge)
    cell_nodes, n_nodes = ctx.vspace.cell_nodes, ctx.vspace.n_nodes
    node_free = np.ones(n_nodes, dtype=bool)
    node_free[fixed // 2] = False
    velocity = np.flatnonzero(node_free)
    # the items in index order of their unknowns; vertex v is node v
    item_node = np.concatenate([velocity, np.arange(nq)])
    weight = np.concatenate([np.full(velocity.size, 2),
                             np.ones(nq, dtype=np.int64)])
    group = np.empty(item_node.size, dtype=np.int64)   # its first position
    centroids = ctx.mesh.vertices[ctx.mesh.triangles].mean(axis=1)
    orders = [np.argsort(centroids[:, d], kind="stable") for d in (0, 1)]
    count = np.array([len(centroids)])   # triangles of each part
    start = np.array([fixed.size])       # first position of each part
    size = np.array([weight.sum()])      # unknowns of each part
    live = np.arange(item_node.size)     # the unplaced items, ascending,
    part = np.zeros(live.size, dtype=np.int64)   # and their parts
    side = np.empty(len(centroids), dtype=np.int64)   # 1: right
    while True:
        big = size > DISSECTION_LEAF
        keep = big[part]
        group[live[~keep]] = start[part[~keep]]
        if not big.any():
            break
        # split the big parts, renumbered 0, 1, ...
        orders = [o[np.repeat(big, count)] for o in orders]
        count, start = count[big], start[big]
        live, part = live[keep], (np.cumsum(big) - 1)[part[keep]]
        parts = len(count)
        end = np.cumsum(count)
        begin = end - count
        tp = np.repeat(np.arange(parts), count)   # part at each place
        extent = np.column_stack([centroids[o[end - 1], d]
                                  - centroids[o[begin], d]
                                  for d, o in enumerate(orders)])
        axis = np.argmax(extent, axis=1)
        rank = np.arange(len(tp)) - begin[tp]
        half = count // 2
        side[np.where(axis[tp] == 0, *orders)] = rank >= half[tp]
        used = np.zeros(2 * n_nodes, dtype=bool)   # left, then right
        o = orders[0]
        used[(cell_nodes[o] + n_nodes * side[o][:, None]).ravel()] = True
        on_right = used[n_nodes + item_node[live]]
        sep = used[item_node[live]] & on_right
        child = 2 * part + on_right
        sizes = np.bincount(child[~sep], weight[live[~sep]],
                            minlength=2 * parts).astype(np.int64)
        middle = start + sizes[0::2]
        separator = middle + sizes[1::2]
        group[live[sep]] = separator[part[sep]]
        # each part's left triangles, then its right ones, in the same order
        orders = [o[np.argsort(2 * tp + side[o], kind="stable")]
                  for o in orders]
        count = np.column_stack([half, count - half]).ravel()
        start = np.column_stack([start, middle]).ravel()
        size = sizes
        live, part = live[~sep], child[~sep]
    # groups tile the positions, so the items' unknowns, in item order and
    # sorted by group start, take them in turn
    unknowns = np.concatenate([np.column_stack([2 * velocity,
                                                2 * velocity + 1]).ravel(),
                               nv + np.arange(nq)])
    pos = np.empty(n, dtype=np.int64)
    pos[fixed] = np.arange(fixed.size)
    if gauge:
        pos[-1] = n - 1
    ranked = unknowns[np.argsort(np.repeat(group, weight), kind="stable")]
    pos[ranked] = np.arange(fixed.size, nv + nq)
    return pos


def _factorize(k: sparse.csr_matrix):
    """The single-precision sparse LU of ``k.T``, the CSR ``k``'s arrays
    read as a CSC, in the order of its unknowns, its
    :func:`nested_dissection` order, by the module's ``splu``; raises
    :class:`SingularSystemError` when the factorization fails.

    Applied transposed (``solve(..., trans="T")``), as
    :meth:`StepSolver._krylov` applies it, that LU solves with ``k``,
    through SuperLU's faster transposed triangular solves."""
    # only the data is converted: the factor input shares k's index arrays,
    # which a copy would duplicate where a run's memory peaks
    single = sparse.csc_matrix((k.data.astype(FACTOR_DTYPE), k.indices,
                                k.indptr), shape=k.shape)
    try:
        return splu(single, permc_spec="NATURAL",
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
    between steps.  The solver works in the :func:`nested_dissection`
    numbering of the unknowns, computed at construction, in which the
    constant blocks are placed and eliminated at once (:func:`_step_matrix`):
    the build sums their transpose ``K^T`` in a CSC pattern that also holds
    every element's mass-type entries on free rows and columns, records the
    first velocity component's positions in the data array, and the solver
    holds that CSC's arrays as ``K``'s CSR, off whose rows it reads where
    each second-component entry lies.  :meth:`assemble` scatters the element
    matrices of ``M(w)``, summed once per scalar pair, into a copy of the
    constant data and lifts the right-hand side by the fixed values through
    the element matrices of the triangles that hold them; only :meth:`solve`
    crosses numberings, to place the load and to read the fields off the
    solution.

    The held factorization is keyed by the ``key`` of the solve that built
    it; start-up and general steps pass different keys because their mass
    weights carry rho/tau and 3 rho/(2 tau).  The solver keeps the raw
    solutions of its last ``GUESS_HISTORY`` solves, the factorizing ones
    included, so a solve with the held key, which always follows the solve
    that built the LU, has at least one.  Every solve runs GMRES in float64
    on its own matrix, every product with its CSR, right-preconditioned by
    the held single-precision LU of its transpose applied transposed and
    started from the combination ``P c`` of those solutions ``P`` that
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
        dofs = element_dofs(ctx)
        # each unknown's place in the step system, the fixed ones first
        self._position = position = nested_dissection(
            ctx, constraints.fixed, constraints.gauge)
        free = position >= constraints.fixed.size
        # the pressure basis integrals: the gauge row, and the zero-mean
        # shift of every solve's pressure
        self._gauge_vector = (pressure_volume_vector(ctx)
                              if constraints.gauge else None)
        matrix, self._first = _step_matrix(a_elements, b_elements, dofs, free,
                                           self._gauge_vector, position)
        # the CSC of K^T is, array for array, K's CSR, which is held;
        # copied once the build's temporaries are freed, the held arrays
        # fill the heap holes those leave instead of pinning the heap top
        # (two-layer n=120 peak RSS: 174.5-174.9 MB, uncopied 176.3-177.1 MB)
        self._constant = matrix.T.copy()
        del matrix
        # both components of a mass-type pair take the same element values in
        # the same order, so each sum is formed once, at the first
        # component's position (one past the end off the pattern), and
        # copied to the second's, each pair of positions held once.  Both
        # unknowns of a free node take places in turn and their rows hold
        # the same columns, so (2a + 1, 2b + 1) lies one row length and one
        # further on than (2a, 2b).  The held indices stay int64, which take
        # and bincount use without a conversion
        indptr = self._constant.indptr
        stored = np.zeros(self._constant.nnz + 1, dtype=bool)
        stored[self._first] = True
        self._second_from = np.flatnonzero(stored[:-1])
        row = np.searchsorted(indptr, self._second_from, side="right") - 1
        self._second_to = self._second_from + (np.diff(indptr) + 1)[row]
        del stored, row
        # the elements with a fixed unknown lift the right-hand side through
        # their constant blocks [A; B], (m, 15, 12), and their mass-type part
        touched = ~free[dofs[:, :12]].all(axis=1)
        self._lift_elems = np.flatnonzero(touched)
        self._lift_dofs = position[dofs[touched]]
        self._lift_blocks = np.concatenate([a_elements[touched],
                                            b_elements[touched]], axis=1)
        self._lu = None
        self._key = None
        self._factor_residual = 0.0    # reached by the solve that built the LU
        # the raw solutions of the last solves, in turn, and the solve count;
        # held in one block from the start, since a copy kept per step left
        # two-layer n=60 about 1 MB higher in peak RSS
        self._past = np.empty((GUESS_HISTORY, len(position)))
        self._solves = 0

    def assemble(self, weight: np.ndarray, rhs: np.ndarray,
                 values: np.ndarray):
        """Constrained matrix, a CSR sharing the held index arrays, and
        right-hand side for the mass-type weight ``weight`` (nt, nq), the
        unconstrained ``rhs`` and the values of the fixed unknowns, all in
        the solver's numbering.

        Each element's 36 scalar mass-type entries are summed once, by one
        ``bincount`` over the positions of their first velocity component;
        the second component takes the same values in the same order, so its
        sums are copies, placed through the held position pairs, before the
        constant data is added."""
        tables = self.ctx.tables
        local = (tables.wxarea * weight) @ tables.p2_products   # (nt, 36)
        const = self._constant
        data = np.bincount(self._first, local.ravel(),
                           minlength=const.nnz + 1)[:const.nnz]
        data[self._second_to] = data.take(self._second_from)
        data += const.data
        k = sparse.csr_matrix((data, const.indices, const.indptr),
                              shape=const.shape)
        n_fixed = self.constraints.fixed.size   # at places 0, 1, ...
        if n_fixed:
            lift = np.zeros(len(rhs))
            lift[:n_fixed] = values
            x = lift[self._lift_dofs[:, :12]]                     # (m, 12)
            out = (self._lift_blocks @ x[:, :, None])[:, :, 0]    # (m, 15)
            out[:, :12] += (local[self._lift_elems].reshape(-1, 6, 6)
                            @ x.reshape(-1, 6, 2)).reshape(-1, 12)
            rhs = rhs - np.bincount(self._lift_dofs.ravel(), out.ravel(),
                                    minlength=len(rhs))
            rhs[:n_fixed] = values
        return k, rhs

    def solve(self, weight: np.ndarray, load: np.ndarray, values: np.ndarray,
              key=None):
        """Solve the step system of the mass-type weight ``weight``, the
        velocity ``load`` (zero pressure and gauge rows) and the ``values``
        of the fixed unknowns.

        Returns the velocity and pressure fields, with the fixed unknowns
        set to their values exactly and, when gauged, the pressure shifted
        to zero mean, and the solve's diagnostics as a dict: the largest
        entry of ``B u``, ``incompressibility_residual``; the relative
        residual of the constrained system, ``algebraic_residual``; the
        GMRES iterations taken, ``krylov_iterations``; and whether the solve
        built a new factorization, ``factorized``.  Every solve takes one LU
        solve per GMRES iteration and none for its start, 0 iterations when
        the start projected on past solutions already meets the stop; a
        factorizing solve counts the iterations that refined its solution
        with the new single-precision LU: measured 2-5 on the bundled cases
        and the manufactured solution, 7 at ``mu = 1e3`` and 9 at ``tau =
        1e-7`` (manufactured solution, N=32).  Raises :class:`SolverError`
        for a load that is not finite and :class:`SingularSystemError` when
        the factorization fails or GMRES with the new LU misses its stop
        (see :class:`StepSolver`).
        """
        if not np.isfinite(load).all():
            raise SolverError("right-hand side contains NaN or Inf")
        ctx, position = self.ctx, self._position
        nv, nq = ctx.vspace.dof_count, ctx.pspace.dof_count
        rhs = np.zeros(len(position))
        rhs[position[:nv]] = load
        k, rhs = self.assemble(weight, rhs, values)
        x, resid, iterations, factorized = self._solve(k, rhs, key)
        self._past[self._solves % GUESS_HISTORY] = x
        self._solves += 1
        x[:self.constraints.fixed.size] = values   # prescribed, exactly
        u, p = x[position[:nv]], x[position[nv:nv + nq]]
        if self.constraints.gauge:
            p = p - (self._gauge_vector @ p) / float(ctx.mesh.areas.sum())
        div = self.b_elements @ u[ctx.vspace.cell_dofs][:, :, None]
        div = np.bincount(ctx.pspace.cell_dofs.ravel(), div.ravel(),
                          minlength=nq)
        return FeField(ctx.vspace, u), FeField(ctx.pspace, p), {
            "incompressibility_residual": float(np.abs(div).max()),
            "algebraic_residual": resid,
            "krylov_iterations": iterations,
            "factorized": factorized}

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
        self._lu = _factorize(k)
        x, iterations, r_norm = self._krylov(k, rhs, rhs_norm, refine=True)
        if x is None or not r_norm <= RESIDUAL_BOUND * rhs_norm:   # or NaN
            self._lu = None
            reached = "no stop" if x is None \
                else f"a relative residual of {r_norm / rhs_norm:.3e}"
            raise SingularSystemError(f"GMRES with a new LU reached {reached}"
                                      f" in {iterations} iterations")
        self._key, self._factor_residual = key, r_norm / rhs_norm
        return x, self._factor_residual, iterations, True

    def _start(self, k, rhs):
        """The start ``x0 = P c`` of :meth:`_krylov`, ``x0 = 0`` before the
        first solve, with ``k`` the step matrix's CSR.  ``k P`` is formed
        by one product per held solution, each a contiguous row of the ring,
        written into the columns of an F-ordered array: every row of ``k``
        is summed in the order of the product with all columns at once,
        without its copy of ``P``."""
        past = self._past[:self._solves]
        kp = np.empty((len(rhs), len(past)), order="F")
        for i, p in enumerate(past):
            kp[:, i] = k @ p
        return past.T @ np.linalg.lstsq(kp, rhs, rcond=None)[0]

    def _krylov(self, k, rhs, rhs_norm, refine=False):
        """GMRES right-preconditioned by the held LU within one restart
        cycle of ``KRYLOV_MAX_ITERATIONS``, started from ``x0 = P c``: the
        past solutions ``P`` (columns) combined by the least-squares ``c``
        of ``k P c = rhs``, which needs no LU solve and copes with linearly
        dependent columns (``x0 = 0`` before the first solve).  A start that
        meets the stop is returned after 0 iterations.

        Every product is taken with ``k``, the step matrix's CSR, and the
        held LU of ``k^T`` is applied transposed (``trans="T"``), which
        solves with ``k`` through SuperLU's faster transposed triangular
        solves (per call on a general step matrix of two-layer n=60,
        interleaved: a CSR product 0.35 against a CSC's 0.41 ms, an LU solve
        applied transposed 2.11 against 2.73 ms as built).
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
        lu, m = self._lu, KRYLOV_MAX_ITERATIONS
        stop = KRYLOV_RTOL if refine else min(RESIDUAL_BOUND, max(
            KRYLOV_RTOL, DIRECT_RESIDUAL_MARGIN * self._factor_residual))
        target = stop * rhs_norm
        x0 = self._start(k, rhs)
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
            z[j] = lu.solve(v[j].astype(FACTOR_DTYPE), trans="T")
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
