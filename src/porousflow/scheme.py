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
    assemble_a0,
    assemble_b,
    assemble_load,
    assemble_mass_phi_rhs,
    linear_drag_weight,
    quadratic_drag_weight,
)
# the steps fold the drag into the step operator's weight and the run
# diagnostics use FormContext.l2_norm; assemble_c1 and fem.norm stay
# importable here because perfbench/tracer.py hooks porousflow.scheme's names
from porousflow.assembly import assemble_c1  # noqa: F401
from porousflow.characteristics import ab2_material_terms, lg1_material_terms
from porousflow.fem import FeField, interpolate
from porousflow.fem import norm  # noqa: F401
from porousflow.mesh import BoundaryTag
from porousflow.saddle import SaddleSystem, SolveReport, StepSolver


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
    force (or ``None``).  With ``gauge=None`` the zero-mean pressure gauge is
    enabled exactly when the whole boundary is Dirichlet.
    """

    ctx: FormContext
    u_initial: Callable
    dirichlet: Callable | None
    tau: float
    t_final: float
    forcing: Callable | None = None
    gauge: bool | None = None
    _blocks: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for name in ("tau", "t_final"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value}")
        tags = set(self.ctx.mesh.boundary_tags)
        if self.gauge is None:
            self.gauge = tags == {BoundaryTag.DIRICHLET}
        if BoundaryTag.DIRICHLET not in tags and not self.gauge:
            raise ValueError("a Dirichlet part of the boundary is required")
        if BoundaryTag.DIRICHLET in tags and self.dirichlet is None:
            raise ValueError("dirichlet data is required on tagged edges")

    @property
    def n_steps(self) -> int:
        return int(np.floor(self.t_final / self.tau + 1e-9))

    def constant_blocks(self):
        """The viscous block ``a0`` and the divergence block ``b``."""
        if not self._blocks:
            self._blocks["a0"] = assemble_a0(self.ctx)
            self._blocks["b"] = assemble_b(self.ctx)
        return self._blocks["a0"], self._blocks["b"]


@dataclass
class SchemeState:
    """Rolling two-step history; ``k`` is the next step to compute."""

    u_prev: FeField
    p_prev: FeField | None
    k: int
    tau: float
    t_final: float
    u_prev2: FeField | None = None

    def __post_init__(self):
        if self.k >= 2 and self.u_prev2 is None:
            raise ValueError("steps beyond the first need two history fields")


class StepResult(NamedTuple):
    u: FeField
    p: FeField
    report: SolveReport


def _bound_dirichlet(setup: ProblemSetup, t: float):
    if setup.dirichlet is None:
        return None
    return lambda pts: setup.dirichlet(pts, t)


def _solve_step(setup: ProblemSetup, m_scale: float, theta: FeField, rhs_v,
                t: float, kind: str, solver: StepSolver | None) -> StepResult:
    """Solve the step system with the mass matrix scaled by ``m_scale`` and
    the quadratic drag linearized around ``theta``.  The scaled mass and both
    drag forms enter the velocity block as one quadrature-point weight."""
    ctx = setup.ctx
    a0, b = setup.constant_blocks()
    weight = m_scale + linear_drag_weight(ctx) \
        + quadratic_drag_weight(theta, ctx)
    system = SaddleSystem(ctx, a0, b, rhs_v, mass_weight=weight)
    if setup.dirichlet is not None:
        system.apply_dirichlet(setup.dirichlet, t)
    system.apply_slip()
    if setup.gauge:
        system.apply_gauge()
    u, p, report = system.solve(solver, kind)
    u.time_label = t
    p.time_label = t
    return StepResult(u, p, report)


def initial_step(setup: ProblemSetup, u0_field: FeField,
                 solver: StepSolver | None = None) -> StepResult:
    """First-order start-up step producing the fields at t = tau.

    ``solver`` is the run's :class:`StepSolver`; without one the step system
    is built from scratch and factorized on its own.
    """
    if setup.n_steps < 1:
        raise ValueError("tau exceeds the final time; no steps to take")
    ctx, tau = setup.ctx, setup.tau
    u0_at = ctx.velocity_at_quad(u0_field).reshape(-1, 2)
    clamp_counter = [0]

    def bracket(points, hints):
        val, clamped = lg1_material_terms(u0_field, ctx.porosity, tau, points,
                                          hints, u0_at=u0_at,
                                          g0=_bound_dirichlet(setup, 0.0))
        clamp_counter[0] += clamped
        return val

    rhs, m_scale = assemble_mass_phi_rhs(bracket, ctx, tau, "initial")
    if setup.forcing is not None:
        rhs = rhs + assemble_load(setup.forcing, ctx, tau)
    result = _solve_step(setup, m_scale, u0_field, rhs, tau, "initial",
                         solver)
    result.report.n_clamped_feet = clamp_counter[0]
    return result


def general_step(setup: ProblemSetup, state: SchemeState,
                 solver: StepSolver | None = None) -> StepResult:
    """Second-order step k >= 2 from the two stored history fields.

    ``solver`` is the run's :class:`StepSolver`; without one the step system
    is built from scratch and factorized on its own.
    """
    if state.k < 2:
        raise ValueError("general steps start at k = 2")
    ctx, tau = setup.ctx, setup.tau
    t_k = state.k * tau
    u1_at = ctx.velocity_at_quad(state.u_prev).reshape(-1, 2)
    u2_at = ctx.velocity_at_quad(state.u_prev2).reshape(-1, 2)
    clamp_counter = [0]

    def bracket(points, hints):
        val, clamped = ab2_material_terms(
            state.u_prev, state.u_prev2, ctx.porosity, tau, points, hints,
            u_prev_at=u1_at, u_prev2_at=u2_at,
            g_prev=_bound_dirichlet(setup, t_k - tau),
            g_prev2=_bound_dirichlet(setup, t_k - 2.0 * tau))
        clamp_counter[0] += clamped
        return val

    rhs, m_scale = assemble_mass_phi_rhs(bracket, ctx, tau, "general")
    if setup.forcing is not None:
        rhs = rhs + assemble_load(setup.forcing, ctx, t_k)
    theta = FeField(ctx.vspace,
                    2.0 * state.u_prev.coefficients - state.u_prev2.coefficients)
    result = _solve_step(setup, m_scale, theta, rhs, t_k, "general", solver)
    result.report.n_clamped_feet = clamp_counter[0]
    return result


@dataclass
class RunSummary:
    """Per-step diagnostics of a completed (or aborted) run."""

    steps: list
    n_steps: int
    wall_time: float
    u_final: FeField | None = None
    p_final: FeField | None = None


Observer = Callable[[int, float, FeField, FeField, dict], None]


def run(setup: ProblemSetup, observers: Sequence[Observer] = ()) -> RunSummary:
    """Execute the start-up step and all general steps up to the final time.

    Observers are called after every accepted step with ``(k, t, velocity,
    pressure, diagnostics)``.  All steps share one :class:`StepSolver`, so
    the step operator is built once and a factorization is reused across the
    general steps.  A failed step raises
    :class:`SchemeDivergenceError` with the partial summary attached.
    """
    n_steps = setup.n_steps
    if n_steps < 1:
        raise ValueError("tau exceeds the final time; no steps to take")
    t0 = time.perf_counter()
    solver = StepSolver(setup.ctx)
    u0_field = interpolate(setup.ctx.vspace, setup.u_initial, None)
    u0_field.time_label = 0.0
    records: list[dict] = []
    summary = RunSummary(records, n_steps, 0.0)

    state = SchemeState(u_prev=u0_field, p_prev=None, k=1,
                        tau=setup.tau, t_final=setup.t_final)
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
            "velocity_l2": setup.ctx.l2_norm(result.u),
            "pressure_l2": setup.ctx.l2_norm(result.p),
            "incompressibility_residual":
                result.report.incompressibility_residual,
            "algebraic_residual": result.report.algebraic_residual,
            "clamped_feet": result.report.n_clamped_feet,
            "krylov_iterations": result.report.krylov_iterations,
            "factorized": result.report.factorized,
        }
        records.append(diag)
        for obs in observers:
            obs(k, t_k, result.u, result.p, diag)
        state = SchemeState(u_prev=result.u, p_prev=result.p, k=k + 1,
                            tau=setup.tau, t_final=setup.t_final,
                            u_prev2=state.u_prev)
    summary.wall_time = time.perf_counter() - t0
    summary.u_final = state.u_prev
    summary.p_final = state.p_prev
    return summary
