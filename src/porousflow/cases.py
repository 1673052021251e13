"""Bundled experiment definitions.

Both channel cases push a parabolic inflow through a non-homogeneous medium:
``two-layer`` stacks a low-porosity layer under a high-porosity one with a
thin smoothed transition at mid-height; ``sinusoidal`` modulates the porosity
in both directions.  The right edge is a stress-free outlet, every other edge
carries the (time-independent) initial profile as Dirichlet data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from porousflow.assembly import make_context
from porousflow.mesh import BoundaryTag, LayerGrading, Mesh, generate_rect_mesh
from porousflow.porous import (SINUSOIDAL_GAMMA, TWO_LAYER_EPS, PhysicalParams,
                               PorosityField, builtin_porosity)
from porousflow.scheme import ProblemSetup


@dataclass
class CaseDefinition:
    """Domain, data, and defaults of one experiment."""

    name: str
    x_extent: tuple
    y_extent: tuple
    tag_rule: Callable
    porosity: PorosityField
    u_initial: Callable
    dirichlet: Callable | None
    forcing: Callable | None
    t_final: float
    default_n: int
    params: PhysicalParams
    grading: LayerGrading | None = None
    constants: dict = field(default_factory=dict)

    def nominal_h(self, n: int | None = None) -> float:
        n = n or self.default_n
        return (self.x_extent[1] - self.x_extent[0]) / n


def inflow_window(x1):
    """Cosine window: cos(pi x1) for x1 <= 1/2, zero beyond."""
    x1 = np.asarray(x1, dtype=float)
    return np.where(x1 <= 0.5, np.cos(np.pi * x1), 0.0)


def _channel_tag_rule(x_right: float):
    def rule(mid):
        if mid[0] >= x_right - 1e-9:
            return BoundaryTag.STRESS_FREE
        return BoundaryTag.DIRICHLET
    return rule


def case_two_layer() -> CaseDefinition:
    """Channel (0,3)x(0,1) with porosity 0.4 below mid-height, 0.8 above."""

    def u0(pts):
        pts = np.asarray(pts, dtype=float)
        prof = 0.25 - (pts[:, 1] - 0.5) ** 2
        return np.column_stack([inflow_window(pts[:, 0]) * prof,
                                np.zeros(len(pts))])

    return CaseDefinition(
        name="two-layer",
        x_extent=(0.0, 3.0),
        y_extent=(0.0, 1.0),
        tag_rule=_channel_tag_rule(3.0),
        porosity=builtin_porosity("two-layer"),
        u_initial=u0,
        dirichlet=lambda pts, t: u0(pts),
        forcing=None,
        t_final=5.0,
        default_n=120,
        # d_p defaulted to 5e-2 cm (not stated for this case)
        params=PhysicalParams(mu=8.89e-3, rho=9.951e-1, d_p=5e-2),
        grading=LayerGrading(line=0.5, size=1.0 / 720.0),
        constants={"eps": TWO_LAYER_EPS},
    )


def case_sinusoidal() -> CaseDefinition:
    """Channel (0,3pi)x(0,pi) with porosity oscillating in both directions."""

    def u0(pts):
        pts = np.asarray(pts, dtype=float)
        prof = 0.01 * (math.pi ** 2 / 4.0 - (pts[:, 1] - math.pi / 2.0) ** 2)
        return np.column_stack([inflow_window(pts[:, 0]) * prof,
                                np.zeros(len(pts))])

    return CaseDefinition(
        name="sinusoidal",
        x_extent=(0.0, 3.0 * math.pi),
        y_extent=(0.0, math.pi),
        # d_p and the boundary decomposition are defaults: stress-free outlet
        # at the right edge, Dirichlet elsewhere
        tag_rule=_channel_tag_rule(3.0 * math.pi),
        porosity=builtin_porosity("sinusoidal"),
        u_initial=u0,
        dirichlet=lambda pts, t: u0(pts),
        forcing=None,
        t_final=5.0,
        default_n=300,
        params=PhysicalParams(mu=8.89e-3, rho=9.951e-1, d_p=5e-2),
        constants={"gamma0": SINUSOIDAL_GAMMA[0],
                   "gamma1": SINUSOIDAL_GAMMA[1]},
    )


_CASES = {"two-layer": case_two_layer, "sinusoidal": case_sinusoidal}


def get_case(name: str) -> CaseDefinition:
    try:
        return _CASES[name]()
    except KeyError:
        raise ValueError(f"unknown case {name!r}; available: "
                         f"{sorted(_CASES)}") from None


def case_names() -> list[str]:
    return sorted(_CASES)


def build_case_mesh(case: CaseDefinition, n: int | None = None) -> Mesh:
    """The case's mesh at ``n`` cells along x, graded when the case has a
    layer grading."""
    return generate_rect_mesh(case.x_extent, case.y_extent,
                              n or case.default_n, grading=case.grading,
                              tag_rule=case.tag_rule)


def build_setup(case: CaseDefinition, n: int | None = None,
                tau: float | None = None, t_final: float | None = None):
    """Mesh + context (degree-5 quadrature) + problem setup for a case at
    the given resolution."""
    n = n or case.default_n
    mesh = build_case_mesh(case, n)
    ctx = make_context(mesh, case.porosity, case.params)
    setup = ProblemSetup(
        ctx=ctx,
        u_initial=case.u_initial,
        dirichlet=case.dirichlet,
        forcing=case.forcing,
        tau=tau if tau is not None else case.nominal_h(n),
        t_final=t_final if t_final is not None else case.t_final,
    )
    return mesh, ctx, setup
