"""Time integration: a first-order start-up step followed by two-step,
second-order general steps along the characteristics of the average velocity.

Both kinds of step are one formula, solved by one routine, :func:`_step`,
from the data of its kind: the foot multiples of the history fields, their
coefficients in the transport bracket and in the velocity the step
linearizes around, and the mass and right-hand-side scales (``STARTUP`` and
``GENERAL``).  Every step solves one linear saddle-point system: the
transport term enters through the composed upwind values of the previous
velocities, and the quadratic drag is linearized around the extrapolated
velocity magnitude, so no step requires a nonlinear iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, NamedTuple, Sequence

import numpy as np

from porousflow.assembly import (
    FormContext,
    assemble_load,
    assemble_mass_phi_rhs,
    divergence_elements,
    quadratic_drag_weight,
    viscous_elements,
)
from porousflow.characteristics import material_terms
from porousflow.fem import FeField, eval_function, norm
from porousflow.saddle import (FACTOR_DTYPE, Constraints, SaddleSystem,
                               StepSolver)

# Names kept only because perfbench/tracer.py hooks them on this module:
# assemble_c1, which no step calls since the drag is folded into the step
# solver's weight; the entry points initial_step and general_step; and one
# alias of the bracket per kind of step, looked up when the step is taken,
# so that each hook fires once per step.  They go with ROADMAP item 13.
from porousflow.assembly import assemble_c1  # noqa: F401
lg1_material_terms = ab2_material_terms = material_terms


class StepKind(NamedTuple):
    """What sets one kind of step apart.  Per history field, newest first:
    the multiple of ``tau`` its feet lie back (``feet``), its coefficient in
    the transport bracket (``bracket``) and in the velocity the step
    linearizes around (``velocity``).  Then the mass and right-hand-side
    scales over ``rho / tau``, and the solver's factorization ``key``."""

    feet: tuple
    bracket: tuple
    velocity: tuple
    mass: float
    rhs: float
    key: str


# the start-up step from u0; the general steps from (u_prev, u_prev2), whose
# discrete material derivative is (3 u - 4 u_prev o X1 + u_prev2 o X2)/2 tau
STARTUP = StepKind((1,), (1.0,), (1.0,), 1.0, 1.0, "initial")
GENERAL = StepKind((1, 2), (4.0, -1.0), (2.0, -1.0), 1.5, 0.5, "general")


class SchemeDivergenceError(RuntimeError):
    """A step produced no usable solution; the message starts with ``step
    k: `` and the step's own exception is the cause."""


@dataclass
class ProblemSetup:
    """Everything one run needs besides the time-step history.

    ``u_initial(points)`` gives the initial velocity; ``dirichlet(points, t)``
    the boundary velocity on Dirichlet edges; ``forcing(points, t)`` the body
    force (or ``None``).  ``tau`` and ``t_final`` must be positive and
    finite, with a finite ratio that gives at least one step, or
    ``ValueError`` names them; so does a ``tau`` whose largest step mass
    weight (``GENERAL``'s ``1.5 rho / tau``) exceeds the range of the step
    factor's ``FACTOR_DTYPE``.  The run's :class:`Constraints` table is
    built here from the mesh's Dirichlet mask ``boundary_dirichlet``, so a
    bad boundary fails early: every boundary edge is Dirichlet or
    stress-free, and an all-stress-free boundary raises ``ValueError``.  The
    table carries the zero-mean pressure gauge exactly when no boundary edge
    is stress-free; ``gauge`` is set to that value, and a ``gauge`` given
    otherwise raises ``ValueError``.  The analytic data is checked where it
    is read, by :func:`~porousflow.fem.eval_function`: a value of the wrong
    shape or a NaN or infinite one raises ``ValueError`` naming the data.
    """

    ctx: FormContext
    u_initial: Callable
    dirichlet: Callable
    tau: float
    t_final: float
    forcing: Callable | None = None
    gauge: bool | None = None
    constraints: Constraints = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("tau", "t_final"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value}")
        if math.isinf(float(self.t_final) / float(self.tau)):
            raise ValueError(f"t_final = {self.t_final} over tau = "
                             f"{self.tau} overflows; no step count")
        scale = max(kind.mass for kind in (STARTUP, GENERAL))
        weight = scale * self.ctx.params.rho / self.tau
        if weight > float(np.finfo(FACTOR_DTYPE).max):
            raise ValueError(f"tau = {self.tau} gives the mass weight {scale} "
                             f"rho / tau = {weight:.3g}, beyond the range of "
                             f"the step factor's {np.dtype(FACTOR_DTYPE)}")
        if self.n_steps < 1:
            raise ValueError("tau exceeds the final time; no steps to take")
        self.constraints = table = Constraints.build(self.ctx)
        # the gauge follows from the Dirichlet mask; a caller's value is only
        # checked, so that one asking for a gauge beside a stress-free edge,
        # or for none where the pressure level would be undetermined, fails
        # loudly
        if self.gauge is not None and self.gauge != table.gauge:
            raise ValueError(f"gauge={self.gauge} contradicts the boundary: "
                             "the zero-mean pressure gauge is on exactly "
                             "when no edge is stress-free")
        self.gauge = table.gauge
        if not len(table.points):
            raise ValueError("a Dirichlet part of the boundary is required")
        if self.dirichlet is None:
            raise ValueError("dirichlet data is required on Dirichlet edges")

    @property
    def n_steps(self) -> int:
        return int(np.floor(self.t_final / self.tau + 1e-9))

    def constant_blocks(self):
        """The element tables of the viscous block, (nt, 12, 12), and of the
        divergence block, (nt, 3, 12), built afresh on each call."""
        return viscous_elements(self.ctx), divergence_elements(self.ctx)


@dataclass
class SchemeState:
    """Rolling two-step history; ``k`` is the next step to compute."""

    u_prev: FeField
    k: int
    u_prev2: FeField | None = None

    def __post_init__(self):
        if self.k >= 2 and self.u_prev2 is None:
            raise ValueError("steps beyond the first need two history fields")


def _bound_dirichlet(setup: ProblemSetup, t: float):
    return lambda pts: setup.dirichlet(pts, t)


def _step(setup: ProblemSetup, kind: StepKind, state: SchemeState,
          solver: StepSolver, bracket: Callable):
    """Solve step ``state.k`` of ``kind`` with the run's ``solver``.

    The history fields are ``state.u_prev`` and, for a general step,
    ``state.u_prev2``.  Their combination with ``kind.velocity``, evaluated
    at the quadrature points once, gives both the feet of the
    characteristics and the drag linearization.  ``bracket`` (a
    :func:`~porousflow.characteristics.material_terms`) sums the history
    fields at their feet with ``kind.bracket``, each under the Dirichlet
    data of its own time; that sum enters the right-hand side times
    ``kind.rhs rho / tau`` beside the forcing at ``k tau``, and the mass
    matrix times ``kind.mass rho / tau``.  The scaled mass and both drag
    forms enter the velocity block as one quadrature-point weight.

    Returns the velocity, the pressure and the step's record: the solver's
    diagnostics and ``clamped_feet``, the feet the bracket clamped.
    """
    if state.k < len(kind.feet):
        raise ValueError(f"{kind.key} steps start at k = {len(kind.feet)}")
    ctx, rho, tau = setup.ctx, setup.ctx.params.rho, setup.tau
    t = state.k * tau
    history = (state.u_prev, state.u_prev2)[:len(kind.feet)]
    theta_at = ctx.tables.at_quad(FeField(ctx.vspace, reduce(np.add, (
        c * f.coefficients for c, f in zip(kind.velocity, history)))))
    terms, clamped = bracket(
        [(f, m, c, _bound_dirichlet(setup, t - m * tau))
         for f, m, c in zip(history, kind.feet, kind.bracket)],
        ctx.porosity, tau, ctx.tables.qpoints_flat, theta_at.reshape(-1, 2),
        ctx.phi_q.ravel())
    rhs = assemble_mass_phi_rhs(terms, ctx, kind.rhs * rho / tau)
    if setup.forcing is not None:
        rhs = rhs + assemble_load(setup.forcing, ctx, t)
    weight = (kind.mass * rho / tau + ctx.linear_drag
              + quadratic_drag_weight(theta_at, ctx))
    system = SaddleSystem(solver, rhs, weight)
    system.apply_dirichlet(setup.dirichlet, t)
    u, p, record = system.solve(kind.key)
    record["clamped_feet"] = clamped
    return u, p, record


def initial_step(setup: ProblemSetup, u0_field: FeField,
                 solver: StepSolver):
    """First-order start-up step producing the fields at t = tau from the
    initial velocity; :func:`_step` of ``STARTUP``."""
    return _step(setup, STARTUP, SchemeState(u0_field, 1), solver,
                 lg1_material_terms)


def general_step(setup: ProblemSetup, state: SchemeState,
                 solver: StepSolver):
    """Second-order step k >= 2 from the two stored history fields;
    :func:`_step` of ``GENERAL``."""
    return _step(setup, GENERAL, state, solver, ab2_material_terms)


Observer = Callable[[int, float, FeField, FeField, dict], None]


def run(setup: ProblemSetup, observers: Sequence[Observer] = ()) -> None:
    """Execute the start-up step and all general steps up to the final time.

    The observers are the only way a step's results leave the run: each is
    called after every accepted step with ``(k, t, velocity, pressure,
    diagnostics)``, the step's record being ``step``, ``t`` and the L2
    norms ``velocity_l2`` and ``pressure_l2`` before the record of
    :func:`_step`.  An observer's exception stops the run and propagates
    as itself.  All steps share one :class:`StepSolver`, built here from
    the constant blocks and the constraint table, so a factorization is
    reused across the general steps; the element tables of the constant
    blocks are built for it, and the viscous one is freed once it is
    built.  A failed step raises :class:`SchemeDivergenceError` naming the
    step; an initial velocity that is NaN or infinite at a velocity node
    raises the ``ValueError`` of :func:`~porousflow.fem.eval_function`,
    naming the ``initial velocity``, before the solver is built.
    """
    vspace = setup.ctx.vspace
    u0_field = FeField(vspace, eval_function(
        setup.u_initial, vspace.node_coords, None, (2,),
        "initial velocity").ravel())
    solver = StepSolver(setup.ctx, *setup.constant_blocks(),
                        setup.constraints)
    state = SchemeState(u_prev=u0_field, k=1)
    for k in range(1, setup.n_steps + 1):
        try:
            if k == 1:
                u, p, record = initial_step(setup, u0_field, solver)
            else:
                u, p, record = general_step(setup, state, solver)
        except Exception as exc:
            raise SchemeDivergenceError(f"step {k}: {exc}") from exc
        t_k = k * setup.tau
        diag = {"step": k, "t": t_k, "velocity_l2": norm(u, "L2"),
                "pressure_l2": norm(p, "L2"), **record}
        for obs in observers:
            obs(k, t_k, u, p, diag)
        state = SchemeState(u_prev=u, k=k + 1, u_prev2=state.u_prev)
