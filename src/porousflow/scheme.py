"""Time integration: a first-order start-up step followed by two-step,
second-order general steps along the characteristics of the average velocity.

Every step solves one linear saddle-point system: the transport term enters
through the composed upwind values of the two previous velocities, and the
quadratic drag is linearized around the extrapolated velocity magnitude, so
no step requires a nonlinear iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from porousflow.assembly import (
    FormContext,
    assemble_load,
    assemble_mass_phi_rhs,
    divergence_elements,
    quadratic_drag_weight,
    viscous_elements,
)
# the steps fold the drag into the step solver's weight; assemble_c1 stays
# importable here because perfbench/tracer.py hooks porousflow.scheme's names
from porousflow.assembly import assemble_c1  # noqa: F401
from porousflow.characteristics import ab2_material_terms, lg1_material_terms
from porousflow.fem import FeField, eval_function, norm
from porousflow.saddle import (FACTOR_DTYPE, Constraints, SaddleSystem,
                               StepSolver)


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
    ``ValueError`` names them; so does a ``tau`` whose general steps' mass
    weight ``1.5 rho / tau`` exceeds the range of the step factor's
    ``FACTOR_DTYPE``.  The run's :class:`Constraints` table is built here
    from the mesh's Dirichlet mask ``boundary_dirichlet``, so a bad boundary
    fails early: every boundary edge is Dirichlet or stress-free, and an
    all-stress-free boundary raises ``ValueError``.  The table carries the
    zero-mean pressure gauge exactly when no boundary edge is stress-free;
    ``gauge`` is set to that value, and a ``gauge`` given otherwise raises
    ``ValueError``.  The analytic data is checked where it is read, by
    :func:`~porousflow.fem.eval_function`: a value of the wrong shape or a
    NaN or infinite one raises ``ValueError`` naming the data.
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
        weight = 1.5 * self.ctx.params.rho / self.tau
        if weight > float(np.finfo(FACTOR_DTYPE).max):
            raise ValueError(f"tau = {self.tau} gives the mass weight 1.5 rho "
                             f"/ tau = {weight:.3g}, beyond the range of the "
                             f"step factor's {np.dtype(FACTOR_DTYPE)}")
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


def _advance(setup: ProblemSetup, k: int, bracket: np.ndarray, clamped: int,
             theta_at: np.ndarray, m_scale: float, r_scale: float,
             solver: StepSolver):
    """Solve step ``k``: the mass matrix enters times ``m_scale``, the
    transport ``bracket`` (values at the context's quadrature points) the
    right-hand side times ``r_scale`` beside the forcing at ``k tau``, and
    the quadratic drag is linearized around the velocity whose values at the
    quadrature points are ``theta_at``; the scaled mass and both drag forms
    enter the velocity block as one quadrature-point weight.

    Returns the velocity, the pressure and the step's record: the solver's
    diagnostics and ``clamped_feet``, the feet the bracket clamped.
    """
    ctx = setup.ctx
    t = k * setup.tau
    rhs = assemble_mass_phi_rhs(bracket, ctx, r_scale)
    if setup.forcing is not None:
        rhs = rhs + assemble_load(setup.forcing, ctx, t)
    weight = m_scale + ctx.linear_drag + quadratic_drag_weight(theta_at, ctx)
    system = SaddleSystem(solver, rhs, weight)
    system.apply_dirichlet(setup.dirichlet, t)
    u, p, record = system.solve("initial" if k == 1 else "general")
    record["clamped_feet"] = clamped
    return u, p, record


def initial_step(setup: ProblemSetup, u0_field: FeField,
                 solver: StepSolver):
    """First-order start-up step producing the fields at t = tau with the
    run's ``solver``: mass and right-hand-side scales ``rho/tau``, the feet
    and the drag both from the initial velocity.  Returns ``(u, p,
    record)`` as :func:`_advance` does."""
    ctx, rho, tau = setup.ctx, setup.ctx.params.rho, setup.tau
    theta_at = ctx.tables.at_quad(u0_field)
    bracket, clamped = lg1_material_terms(
        u0_field, ctx.porosity, tau, ctx.tables.qpoints_flat,
        theta_at=theta_at.reshape(-1, 2), phi_at=ctx.phi_q.ravel(),
        g0=_bound_dirichlet(setup, 0.0))
    return _advance(setup, 1, bracket, clamped, theta_at, rho / tau,
                    rho / tau, solver)


def general_step(setup: ProblemSetup, state: SchemeState,
                 solver: StepSolver):
    """Second-order step k >= 2 from the two stored history fields, with the
    run's ``solver``: mass scale ``3 rho/(2 tau)``, right-hand-side scale
    ``rho/(2 tau)``.  The extrapolated velocity ``2 u_prev - u_prev2`` is
    evaluated at the quadrature points once, and those values give both the
    feet of the characteristics and the drag linearization.  Returns ``(u,
    p, record)`` as :func:`_advance` does."""
    if state.k < 2:
        raise ValueError("general steps start at k = 2")
    ctx, rho, tau = setup.ctx, setup.ctx.params.rho, setup.tau
    t_k = state.k * tau
    theta_at = ctx.tables.at_quad(FeField(
        ctx.vspace,
        2.0 * state.u_prev.coefficients - state.u_prev2.coefficients))
    bracket, clamped = ab2_material_terms(
        state.u_prev, state.u_prev2, ctx.porosity, tau,
        ctx.tables.qpoints_flat, theta_at=theta_at.reshape(-1, 2),
        phi_at=ctx.phi_q.ravel(), g_prev=_bound_dirichlet(setup, t_k - tau),
        g_prev2=_bound_dirichlet(setup, t_k - 2.0 * tau))
    return _advance(setup, state.k, bracket, clamped, theta_at,
                    1.5 * rho / tau, 0.5 * rho / tau, solver)


Observer = Callable[[int, float, FeField, FeField, dict], None]


def run(setup: ProblemSetup, observers: Sequence[Observer] = ()) -> None:
    """Execute the start-up step and all general steps up to the final time.

    The observers are the only way a step's results leave the run: each is
    called after every accepted step with ``(k, t, velocity, pressure,
    diagnostics)``, the step's record being ``step``, ``t`` and the L2
    norms ``velocity_l2`` and ``pressure_l2`` before the record of
    :func:`_advance`.  An observer's exception stops the run and propagates
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
