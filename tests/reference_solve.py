"""The from-scratch reference solve of one step system.

The element tables of the constant blocks, and the mass-type matrix formed
by one ``einsum`` apart from the run's contraction, are scattered into global
matrices, the blocks stacked, the fixed unknowns eliminated with diagonal
masks after lifting the right-hand side, and the result solved on its own by
:func:`direct_solve`, a float64 SuperLU factorization called here, apart
from the run's factor path.  The run's
:class:`porousflow.saddle.StepSolver`, which places the element tables in
its step matrix once, factorizes it in single precision, refines every
solution by GMRES and reuses its factorization, is compared against it.
:func:`nested_dissection_reference` numbers the unknowns as the run does
and records where each split put its parts.  :func:`refined_solve` refines
the direct solve with long-double residuals, the reference of systems so
conditioned that the float64 direct solve loses digits.
"""

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from porousflow.assembly import (
    FormContext,
    divergence_elements,
    pressure_volume_vector,
    viscous_elements,
)
from porousflow.fem import FeField
from porousflow.saddle import (
    DIAG_PIVOT_THRESH,
    DISSECTION_LEAF,
    RESIDUAL_BOUND,
    Constraints,
    SingularSystemError,
    SolverError,
    element_dofs,
    nested_dissection,
)


def _scatter_matrix(rows_dofs, cols_dofs, local, shape) -> sparse.csr_matrix:
    """Global matrix of the element matrices ``local`` (nt, rows, cols)
    placed at their unknowns ``rows_dofs`` and ``cols_dofs`` by one COO."""
    r = np.broadcast_to(rows_dofs[:, :, None], local.shape).ravel()
    c = np.broadcast_to(cols_dofs[:, None, :], local.shape).ravel()
    return sparse.coo_matrix((local.ravel(), (r, c)), shape=shape).tocsr()


def _vectorize_scalar_local(s_local: np.ndarray) -> np.ndarray:
    """Expand scalar-node local matrices to both velocity components."""
    nt, nl, _ = s_local.shape
    out = np.zeros((nt, 2 * nl, 2 * nl))
    out[:, 0::2, 0::2] = s_local
    out[:, 1::2, 1::2] = s_local
    return out


def _vector_mass(ctx: FormContext, weight: np.ndarray) -> sparse.csr_matrix:
    """Velocity mass matrix with a per-quadrature-point scalar weight, by
    one ``einsum`` over the P2 values rather than the run's contraction
    with ``p2_products``."""
    v = ctx.tables.p2_vals
    s_local = np.einsum("tq,qn,qm->tnm", ctx.tables.wxarea * weight, v, v)
    local = _vectorize_scalar_local(s_local)
    dofs = ctx.vspace.cell_dofs
    n = ctx.vspace.dof_count
    return _scatter_matrix(dofs, dofs, local, (n, n))


def renumbered(k: sparse.spmatrix, position: np.ndarray) -> sparse.csc_matrix:
    """``k`` with unknown ``i`` at place ``position[i]``, as a CSC matrix."""
    k = k.tocoo()
    return sparse.csc_matrix((k.data, (position[k.row], position[k.col])),
                             shape=k.shape)


def _place_reference(pos, unknowns, groups, first):
    order = np.argsort(groups, kind="stable")
    unknowns, groups = unknowns[order], groups[order]
    rank = np.arange(len(groups)) - np.searchsorted(groups, groups)
    pos[unknowns] = first[groups] + rank


def nested_dissection_reference(ctx, fixed, gauge):
    """The dissection on every unknown, each part's bounds by
    ``np.minimum.at``/``np.maximum.at`` and its median by one ``lexsort``
    along its longer extent, each group placed as it forms.

    Returns ``(position, splits)``: unknown ``i`` takes place
    ``position[i]``, as :func:`nested_dissection` places it, and each row
    ``(start, middle, separator)`` of ``splits`` says that one split put its
    left part at places ``start:middle``, its right part at
    ``middle:separator`` and its separator after them."""
    n = ctx.vspace.dof_count + ctx.pspace.dof_count + int(gauge)
    cell_dofs = element_dofs(ctx)
    centroids = ctx.mesh.vertices[ctx.mesh.triangles].mean(axis=1)
    pos = np.full(n, -1)
    pos[fixed] = np.arange(fixed.size)
    if gauge:
        pos[-1] = n - 1
    part = np.where(pos < 0, 0, -1)
    tri_part = np.zeros(len(centroids), dtype=np.int64)
    start = np.array([fixed.size])
    splits = []
    while True:
        live = np.flatnonzero(part >= 0)
        size = np.bincount(part[live], minlength=len(start))
        big = size > DISSECTION_LEAF
        leaf = live[~big[part[live]]]
        _place_reference(pos, leaf, part[leaf], start)
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
        _place_reference(pos, live[sep], up[sep], separator)
        splits.append(np.column_stack([start, middle, separator]))
        part[:] = -1
        part[live[~sep]] = child[~sep]
        tri_part[:] = -1
        tri_part[tris] = 2 * tp + side
        start = np.column_stack([start, middle]).ravel()
    return pos, np.concatenate(splits or [np.empty((0, 3), np.int64)])


def _direct_lu(k: sparse.spmatrix, position: np.ndarray):
    """The float64 SuperLU factorization of ``k`` in the order ``position``
    (see :func:`direct_solve`)."""
    try:
        return splu(renumbered(k, position), permc_spec="NATURAL",
                    diag_pivot_thresh=DIAG_PIVOT_THRESH,
                    options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from exc


def refined_solve(k: sparse.csr_matrix, rhs: np.ndarray,
                  position: np.ndarray):
    """Solve ``k x = rhs`` with the float64 LU of :func:`direct_solve`,
    refined with residuals in ``np.longdouble``: from ``x = 0``, four
    sweeps of ``x += LU^-1 (rhs - k x)``, the residual and the sum taken in
    long double.  The first sweep is the direct solve; each further one
    multiplies the error by about the LU's relative backward error times
    the condition number, so a system that is not too ill-conditioned for
    the LU converges to long-double accuracy within a few sweeps.

    Returns ``x`` (long double) and the last correction's max norm relative
    to that of ``x``, which shows whether it converged."""
    lu = _direct_lu(k, position)
    k_long, rhs_long = k.astype(np.longdouble), rhs.astype(np.longdouble)
    x = np.zeros(len(rhs), dtype=np.longdouble)
    b = np.empty(len(rhs))
    for _ in range(4):
        b[position] = rhs_long - k_long @ x
        step = lu.solve(b)[position]
        x += step
    return x, float(np.abs(step).max() / np.abs(x).max())


def direct_solve(k: sparse.csr_matrix, rhs: np.ndarray,
                 position: np.ndarray):
    """Solve ``k x = rhs`` by a float64 sparse LU of ``k`` in the order of
    its unknowns that puts unknown ``i`` at place ``position[i]`` (a
    :func:`nested_dissection` order).

    Returns ``x`` and its relative residual; raises
    :class:`SingularSystemError` when the factorization fails or that
    residual exceeds ``RESIDUAL_BOUND``.
    """
    lu = _direct_lu(k, position)
    b = np.empty_like(rhs)
    b[position] = rhs
    x = lu.solve(b)[position]
    resid = float(np.linalg.norm(k @ x - rhs)) \
        / max(float(np.linalg.norm(rhs)), 1e-30)
    if not resid <= RESIDUAL_BOUND:   # also rejects NaN
        raise SingularSystemError(
            f"direct LU solve left a relative residual of {resid:.3e}")
    return x, resid


def global_blocks(ctx: FormContext, a_elements, b_elements):
    """The global viscous block and divergence block of the element tables
    ``a_elements`` (nt, 12, 12) and ``b_elements`` (nt, 3, 12)."""
    v, p = ctx.vspace, ctx.pspace
    a = _scatter_matrix(v.cell_dofs, v.cell_dofs, a_elements,
                        (v.dof_count, v.dof_count))
    b = _scatter_matrix(p.cell_dofs, v.cell_dofs, b_elements,
                        (p.dof_count, v.dof_count))
    return a, b


def assemble_a0(ctx: FormContext) -> sparse.csr_matrix:
    """Global viscous form 2*mu*(D(u), D(v)) on the velocity space."""
    return global_blocks(ctx, viscous_elements(ctx),
                         divergence_elements(ctx))[0]


def assemble_b(ctx: FormContext) -> sparse.csr_matrix:
    """Global divergence coupling -(div v, q), (pressure x velocity)."""
    return global_blocks(ctx, viscous_elements(ctx),
                         divergence_elements(ctx))[1]


def _stack(a, b, gauge_vector):
    """Unconstrained block matrix ``[[A, B^T], [B, 0]]``, bordered by the
    gauge column ``c`` and row ``c^T`` when ``gauge_vector`` is given."""
    if gauge_vector is None:
        return sparse.bmat([[a, b.T], [b, None]], format="csr")
    cc = sparse.csr_matrix(gauge_vector[:, None])
    return sparse.bmat([[a, b.T, None], [b, None, cc], [None, cc.T, None]],
                       format="csr")


def eliminate(k, fixed):
    """Zero the rows and columns of the ``fixed`` unknowns of ``k`` and put
    ones on their diagonal."""
    n = k.shape[0]
    keep = np.ones(n)
    keep[fixed] = 0.0
    mark = np.zeros(n)
    mark[fixed] = 1.0
    mask = sparse.diags(keep)
    return (mask @ k @ mask + sparse.diags(mark)).tocsr()


class ReferenceSystem:
    """One velocity/pressure system and the values of its fixed unknowns.

    The velocity block is ``a_block``, plus the velocity mass matrix weighted
    by ``mass_weight`` (nt, nq) at the quadrature points when one is given.
    Without a ``constraints`` table the system is unconstrained and
    ungauged; with one, nothing is fixed until :meth:`apply_dirichlet`
    imposes it.
    """

    def __init__(self, ctx: FormContext, a_block, b_block, rhs_velocity,
                 rhs_pressure=None, mass_weight=None,
                 constraints: Constraints | None = None):
        self.ctx = ctx
        self.A = a_block.tocsr()
        self.B = b_block.tocsr()
        nq = ctx.pspace.dof_count
        self.mass_weight = mass_weight
        self.rhs_v = np.asarray(rhs_velocity, dtype=float).copy()
        self.rhs_p = (np.zeros(nq) if rhs_pressure is None
                      else np.asarray(rhs_pressure, dtype=float).copy())
        self.constraints = constraints
        self.values = None   # of constraints.fixed

    @property
    def gauge(self) -> bool:
        return self.constraints is not None and self.constraints.gauge

    def apply_dirichlet(self, g, t=None) -> "ReferenceSystem":
        """Impose the constraint table: both velocity components on the
        Dirichlet nodes from ``g(points [, t])``."""
        self.values = self.constraints.values(g, t)
        return self

    def full_rhs(self) -> np.ndarray:
        """The unconstrained right-hand side, a zero gauge row appended."""
        rhs = np.concatenate([self.rhs_v, self.rhs_p, [0.0]] if self.gauge
                             else [self.rhs_v, self.rhs_p])
        if not np.all(np.isfinite(rhs)):
            raise SolverError("right-hand side contains NaN or Inf")
        return rhs

    def constrained(self):
        """Constrained matrix and right-hand side, with the fixed unknowns
        and their values, built from scratch: ``(k, rhs, fixed, values)``."""
        rhs = self.full_rhs()
        fixed, values = np.empty(0, dtype=np.int64), np.empty(0)
        if self.values is not None:
            fixed, values = self.constraints.fixed, self.values
        a = self.A
        if self.mass_weight is not None:
            a = a + _vector_mass(self.ctx, self.mass_weight)
        k = _stack(a, self.B, pressure_volume_vector(self.ctx) if self.gauge
                   else None)
        if fixed.size:
            lift = np.zeros(k.shape[0])
            lift[fixed] = values
            rhs = rhs - k @ lift
            k = eliminate(k, fixed)
            rhs[fixed] = values
        return k, rhs, fixed, values

    def solve(self):
        """Velocity field, pressure field and diagnostics of a direct solve of
        :meth:`constrained`, zero-mean pressure when gauged."""
        k, rhs, fixed, values = self.constrained()
        position = nested_dissection(self.ctx, fixed, self.gauge)
        x, resid = direct_solve(k, rhs, position)
        u, p = self._fields(x, fixed, values)
        return FeField(self.ctx.vspace, u), FeField(self.ctx.pspace, p), {
            "incompressibility_residual": float(np.abs(self.B @ u).max()),
            "algebraic_residual": resid,
            "krylov_iterations": 0,
            "factorized": True}

    def refined(self):
        """The velocity and pressure coefficients of :func:`refined_solve`
        on :meth:`constrained`, in ``np.longdouble`` and set as by
        :meth:`solve`, and the last correction's relative size."""
        k, rhs, fixed, values = self.constrained()
        x, last = refined_solve(k, rhs, nested_dissection(self.ctx, fixed,
                                                          self.gauge))
        return (*self._fields(x, fixed, values), last)

    def _fields(self, x, fixed, values):
        """The velocity and pressure coefficients of the solution ``x``,
        its ``fixed`` unknowns set to their ``values``, the pressure shifted
        to zero mean when gauged, in the precision of ``x``."""
        x[fixed] = values
        nv = self.ctx.vspace.dof_count
        u, p = x[:nv], x[nv:nv + self.ctx.pspace.dof_count]
        if self.gauge:
            c = pressure_volume_vector(self.ctx)
            p = p - (c @ p) / float(self.ctx.mesh.areas.sum())
        return u, p


class FreshSolver:
    """Stands in for a run's :class:`porousflow.saddle.StepSolver`, with its
    constructor and :meth:`solve` signature, but scatters the element tables
    itself and solves every system from scratch as a
    :class:`ReferenceSystem`."""

    def __init__(self, ctx: FormContext, a_elements, b_elements,
                 constraints: Constraints):
        self.ctx = ctx
        self.a_block, self.b_block = global_blocks(ctx, a_elements,
                                                   b_elements)
        self.constraints = constraints

    def solve(self, weight, load, values, key=None):
        system = ReferenceSystem(self.ctx, self.a_block, self.b_block, load,
                                 mass_weight=weight,
                                 constraints=self.constraints)
        system.values = values
        return system.solve()
