"""The from-scratch reference solve of one step system.

The element tables of the constant blocks are scattered into global
matrices, the blocks stacked, the fixed unknowns eliminated with diagonal
masks after lifting the right-hand side, and the result solved on its own by
:func:`direct_solve`, a float64 SuperLU factorization called here, apart
from the run's factor path.  The run's
:class:`porousflow.saddle.StepSolver`, which places the element tables in
its step matrix once, factorizes it in single precision, refines every
solution by GMRES and reuses its factorization, is compared against it.
"""

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from porousflow.assembly import (
    FormContext,
    _scatter_matrix,
    _vector_mass,
    divergence_elements,
    viscous_elements,
)
from porousflow.fem import FeField
from porousflow.saddle import (
    DIAG_PIVOT_THRESH,
    RESIDUAL_BOUND,
    Constraints,
    SingularSystemError,
    SolveReport,
    SolverError,
    nested_dissection,
)


def direct_solve(k: sparse.csr_matrix, rhs: np.ndarray, perm: np.ndarray):
    """Solve ``k x = rhs`` by a float64 sparse LU of ``k`` in the order
    ``perm`` of its unknowns (a :func:`nested_dissection` order).

    Returns ``x`` and its relative residual; raises
    :class:`SingularSystemError` when the factorization fails or that
    residual exceeds ``RESIDUAL_BOUND``.
    """
    try:
        lu = splu(k[perm][:, perm].tocsc(), permc_spec="NATURAL",
                  diag_pivot_thresh=DIAG_PIVOT_THRESH,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from exc
    x = np.empty_like(rhs)
    x[perm] = lu.solve(rhs[perm])
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

    def apply_gauge(self) -> "ReferenceSystem":
        """A no-op: the table carries the zero-mean gauge exactly when the
        boundary needs it."""
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
        k = _stack(a, self.B, self.ctx.volume_vector() if self.gauge else None)
        if fixed.size:
            lift = np.zeros(k.shape[0])
            lift[fixed] = values
            rhs = rhs - k @ lift
            k = eliminate(k, fixed)
            rhs[fixed] = values
        return k, rhs, fixed, values

    def solve(self):
        """Velocity field, pressure field and report of a direct solve of
        :meth:`constrained`, zero-mean pressure when gauged."""
        k, rhs, fixed, values = self.constrained()
        perm = nested_dissection(self.ctx, fixed, self.gauge)[0]
        x, resid = direct_solve(k, rhs, perm)
        x[fixed] = values
        nv = self.ctx.vspace.dof_count
        u, p = x[:nv], x[nv:nv + self.ctx.pspace.dof_count]
        if self.gauge:
            c = self.ctx.volume_vector()
            p = p - (c @ p) / float(self.ctx.mesh.areas.sum())
        report = SolveReport(algebraic_residual=resid,
                             incompressibility_residual=float(
                                 np.abs(self.B @ u).max()),
                             krylov_iterations=0, factorized=True)
        return FeField(self.ctx.vspace, u), FeField(self.ctx.pspace, p), report


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
