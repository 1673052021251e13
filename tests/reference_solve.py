"""The from-scratch reference solve of one step system.

The blocks are stacked, the fixed unknowns eliminated with diagonal masks
after lifting the right-hand side, and the result factorized on its own by
:func:`porousflow.saddle.direct_solve`.  The run's
:class:`porousflow.saddle.StepSolver`, which eliminates the constant blocks
once and reuses its factorization, is compared against it.
"""

import numpy as np
import scipy.sparse as sparse

from porousflow.assembly import FormContext, _vector_mass
from porousflow.fem import FeField
from porousflow.saddle import (
    Constraints,
    SolveReport,
    SolverError,
    _stack,
    direct_solve,
    nested_dissection,
)


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
    Nothing is fixed until the ``constraints`` table (made on first use when
    none is given) is imposed by :meth:`apply_dirichlet` or
    :meth:`apply_slip`.
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

    def _table(self, gauge: bool = False) -> Constraints:
        """The constraint table, built on first use or to add the gauge."""
        if self.constraints is None or (gauge and not self.gauge):
            self.constraints = Constraints.build(self.ctx, gauge)
        return self.constraints

    def apply_dirichlet(self, g, t=None) -> "ReferenceSystem":
        """Impose the constraint table: both velocity components on the
        Dirichlet nodes from ``g(points [, t])``, and zero normal velocity
        on the slip edges."""
        self.values = self._table().values(g, t)
        return self

    def apply_slip(self) -> "ReferenceSystem":
        """Impose the table of a boundary without Dirichlet edges; a no-op
        after :meth:`apply_dirichlet`, which imposes the slip edges too."""
        if self.values is None:
            self.values = self._table().values()
        return self

    def apply_gauge(self) -> "ReferenceSystem":
        """Constrain the pressure to zero mean via one Lagrange multiplier."""
        self._table(gauge=True)
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
        x, resid, _ = direct_solve(k, rhs, perm)
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
    constructor and :meth:`solve` signature, but solves every system from
    scratch as a :class:`ReferenceSystem`."""

    def __init__(self, ctx: FormContext, a_block, b_block,
                 constraints: Constraints):
        self.ctx, self.a_block, self.b_block = ctx, a_block, b_block
        self.constraints = constraints

    def solve(self, weight, load, values, key=None):
        system = ReferenceSystem(self.ctx, self.a_block, self.b_block, load,
                                 mass_weight=weight,
                                 constraints=self.constraints)
        system.values = values
        return system.solve()
