"""Time integration: a first-order start-up step followed by two-step,
second-order general steps along the characteristics of the average velocity.

Every step solves one linear saddle-point system: the transport term enters
through the composed upwind values of the two previous velocities, and the
quadratic drag is linearized around the extrapolated velocity magnitude, so
no step requires a nonlinear iteration.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from porousflow.assembly import (
    FormContext,
    assemble_load,
    assemble_mass_phi_rhs,
    divergence_elements,
    linear_drag_weight,
    quadratic_drag_weight,
    viscous_elements,
)
# the steps fold the drag into the step solver's weight; assemble_c1 stays
# importable here because perfbench/tracer.py hooks porousflow.scheme's names
from porousflow.assembly import assemble_c1  # noqa: F401
from porousflow.characteristics import ab2_material_terms, lg1_material_terms
from porousflow.fem import FeField, interpolate, norm
from porousflow.saddle import (Constraints, GaugeError, SaddleSystem,
                               SolveReport, StepSolver)


class SchemeDivergenceError(RuntimeError):
    """A step produced no usable solution; carries the failing step index."""

    def __init__(self, step: int, message: str, partial=None):
        super().__init__(f"step {step}: {message}")
        self.step = step
        self.partial = partial


@dataclass
class ProblemSetup:
    """Everything one run needs besides the time-step history.

    ``u_initial(points)`` gives the initial velocity; ``dirichlet(points, t)``
    the boundary velocity on Dirichlet edges; ``forcing(points, t)`` the body
    force (or ``None``).  The run's :class:`Constraints` table is built
    here from the mesh's tags, so a bad boundary fails early: every boundary
    edge is Dirichlet or stress-free, and an all-stress-free boundary raises
    ``ValueError``.  The table carries the zero-mean pressure gauge exactly
    when no boundary edge is stress-free; ``gauge`` is set to that value,
    and a ``gauge`` given otherwise raises :class:`GaugeError` (a
    ``ValueError``).
    """

    ctx: FormContext
    u_initial: Callable
    dirichlet: Callable
    tau: float
    t_final: float
    forcing: Callable | None = None
    gauge: bool | None = None
    constraints: Constraints = field(init=False, repr=False)
    _blocks: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for name in ("tau", "t_final"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value}")
        if self.n_steps < 1:
            raise ValueError("tau exceeds the final time; no steps to take")
        self.constraints = table = Constraints.build(self.ctx)
        # the gauge follows from the tags; a caller's value is only checked,
        # so that one asking for a gauge beside a stress-free edge, or for
        # none where the pressure level would be undetermined, fails loudly
        if self.gauge is not None and self.gauge != table.gauge:
            raise GaugeError(f"gauge={self.gauge} contradicts the boundary: "
                             "the zero-mean pressure gauge is on exactly "
                             "when no edge is stress-free")
        self.gauge = table.gauge
        if not len(table.points):
            raise ValueError("a Dirichlet part of the boundary is required")
        if self.dirichlet is None:
            raise ValueError("dirichlet data is required on tagged edges")

    @property
    def n_steps(self) -> int:
        return int(np.floor(self.t_final / self.tau + 1e-9))

    def constant_blocks(self):
        """The element tables of the viscous block, (nt, 12, 12), and of the
        divergence block, (nt, 3, 12)."""
        if not self._blocks:
            self._blocks["a"] = viscous_elements(self.ctx)
            self._blocks["b"] = divergence_elements(self.ctx)
        return self._blocks["a"], self._blocks["b"]


@dataclass
class SchemeState:
    """Rolling two-step history; ``k`` is the next step to compute."""

    u_prev: FeField
    k: int
    u_prev2: FeField | None = None

    def __post_init__(self):
        if self.k >= 2 and self.u_prev2 is None:
            raise ValueError("steps beyond the first need two history fields")


class StepResult(NamedTuple):
    u: FeField
    p: FeField
    report: SolveReport
    clamped: int   # feet clamped to the boundary by the step's bracket


def _bound_dirichlet(setup: ProblemSetup, t: float):
    return lambda pts: setup.dirichlet(pts, t)


def _advance(setup: ProblemSetup, k: int, bracket: np.ndarray, clamped: int,
             theta: FeField, m_scale: float, r_scale: float,
             solver: StepSolver) -> StepResult:
    """Solve step ``k``: the mass matrix enters times ``m_scale``, the
    transport ``bracket`` (values at the context's quadrature points) the
    right-hand side times ``r_scale`` beside the forcing at ``k tau``, and
    the quadratic drag is linearized around ``theta``; the scaled mass and
    both drag forms enter the velocity block as one quadrature-point weight.
    """
    ctx = setup.ctx
    t = k * setup.tau
    rhs = assemble_mass_phi_rhs(bracket, ctx, r_scale)
    if setup.forcing is not None:
        rhs = rhs + assemble_load(setup.forcing, ctx, t)
    weight = m_scale + linear_drag_weight(ctx) \
        + quadratic_drag_weight(theta, ctx)
    system = SaddleSystem(solver, rhs, weight)
    system.apply_dirichlet(setup.dirichlet, t)
    u, p, report = system.solve("initial" if k == 1 else "general")
    u.time_label = t
    p.time_label = t
    return StepResult(u, p, report, clamped)


def initial_step(setup: ProblemSetup, u0_field: FeField,
                 solver: StepSolver) -> StepResult:
    """First-order start-up step producing the fields at t = tau with the
    run's ``solver``: mass and right-hand-side scales ``rho/tau``."""
    ctx, rho, tau = setup.ctx, setup.ctx.params.rho, setup.tau
    bracket, clamped = lg1_material_terms(
        u0_field, ctx.porosity, tau, ctx.tables.qpoints_flat,
        u0_at=ctx.tables.at_quad(u0_field).reshape(-1, 2),
        phi_at=ctx.phi_q.ravel(), g0=_bound_dirichlet(setup, 0.0))
    return _advance(setup, 1, bracket, clamped, u0_field, rho / tau,
                    rho / tau, solver)


def general_step(setup: ProblemSetup, state: SchemeState,
                 solver: StepSolver) -> StepResult:
    """Second-order step k >= 2 from the two stored history fields, with the
    run's ``solver``: mass scale ``3 rho/(2 tau)``, right-hand-side scale
    ``rho/(2 tau)``."""
    if state.k < 2:
        raise ValueError("general steps start at k = 2")
    ctx, rho, tau = setup.ctx, setup.ctx.params.rho, setup.tau
    t_k = state.k * tau
    bracket, clamped = ab2_material_terms(
        state.u_prev, state.u_prev2, ctx.porosity, tau,
        ctx.tables.qpoints_flat,
        u_prev_at=ctx.tables.at_quad(state.u_prev).reshape(-1, 2),
        u_prev2_at=ctx.tables.at_quad(state.u_prev2).reshape(-1, 2),
        phi_at=ctx.phi_q.ravel(), g_prev=_bound_dirichlet(setup, t_k - tau),
        g_prev2=_bound_dirichlet(setup, t_k - 2.0 * tau))
    theta = FeField(ctx.vspace,
                    2.0 * state.u_prev.coefficients - state.u_prev2.coefficients)
    return _advance(setup, state.k, bracket, clamped, theta, 1.5 * rho / tau,
                    0.5 * rho / tau, solver)


@dataclass
class RunSummary:
    """Per-step diagnostics of a completed (or aborted) run."""

    steps: list
    n_steps: int
    wall_time: float


Observer = Callable[[int, float, FeField, FeField, dict], None]


def run(setup: ProblemSetup, observers: Sequence[Observer] = ()) -> RunSummary:
    """Execute the start-up step and all general steps up to the final time.

    Observers are called after every accepted step with ``(k, t, velocity,
    pressure, diagnostics)``.  All steps share one :class:`StepSolver`, built
    here from the constant blocks and the constraint table, so a
    factorization is reused across the general steps.  A failed step raises
    :class:`SchemeDivergenceError` with the partial summary attached.
    """
    n_steps = setup.n_steps
    t0 = time.perf_counter()
    solver = StepSolver(setup.ctx, *setup.constant_blocks(),
                        setup.constraints)
    u0_field = interpolate(setup.ctx.vspace, setup.u_initial, None)
    u0_field.time_label = 0.0
    records: list[dict] = []
    summary = RunSummary(records, n_steps, 0.0)

    state = SchemeState(u_prev=u0_field, k=1)
    for k in range(1, n_steps + 1):
        try:
            if k == 1:
                result = initial_step(setup, u0_field, solver)
            else:
                result = general_step(setup, state, solver)
        except Exception as exc:
            summary.wall_time = time.perf_counter() - t0
            raise SchemeDivergenceError(k, str(exc), summary) from exc
        t_k = k * setup.tau
        diag = {
            "step": k,
            "t": t_k,
            "velocity_l2": norm(result.u, "L2"),
            "pressure_l2": norm(result.p, "L2"),
            "incompressibility_residual":
                result.report.incompressibility_residual,
            "algebraic_residual": result.report.algebraic_residual,
            "clamped_feet": result.clamped,
            "krylov_iterations": result.report.krylov_iterations,
            "factorized": result.report.factorized,
        }
        records.append(diag)
        for obs in observers:
            obs(k, t_k, result.u, result.p, diag)
        state = SchemeState(u_prev=result.u, k=k + 1, u_prev2=state.u_prev)
    summary.wall_time = time.perf_counter() - t0
    return summary
