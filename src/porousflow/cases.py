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
from typing import ClassVar

import numpy as np

from porousflow.assembly import make_context
from porousflow.mesh import LayerGrading, Mesh, generate_rect_mesh
from porousflow.porous import (SINUSOIDAL_GAMMA, TWO_LAYER_EPS, PhysicalParams,
                               PorosityField, builtin_porosity)
from porousflow.scheme import ProblemSetup


@dataclass(frozen=True)
class CaseDefinition:
    """One channel experiment: its domain, the scale of its inflow profile,
    its porosity and its defaults.  The right edge is the stress-free
    outlet, and every case runs to ``t_final`` with ``params``."""

    name: str
    x_extent: tuple
    y_extent: tuple
    inflow_scale: float
    porosity: PorosityField
    default_n: int
    grading: LayerGrading | None = None
    constants: dict = field(default_factory=dict)

    t_final: ClassVar[float] = 5.0
    # d_p is not stated for either case; the default 5e-2 cm is used
    params: ClassVar[PhysicalParams] = PhysicalParams()

    def u_initial(self, pts) -> np.ndarray:
        """The parabolic inflow profile across the channel, ``inflow_scale``
        times its squared half-height at the centre line, under the
        :func:`inflow_window` along x; the vertical velocity is zero."""
        pts = np.asarray(pts, dtype=float)
        y0, y1 = self.y_extent
        prof = self.inflow_scale * (((y1 - y0) / 2.0) ** 2
                                    - (pts[:, 1] - (y0 + y1) / 2.0) ** 2)
        return np.column_stack([inflow_window(pts[:, 0]) * prof,
                                np.zeros(len(pts))])

    def nominal_h(self, n: int | None = None) -> float:
        """The cell width along x at ``n`` cells (``default_n`` when
        ``None``); ``n`` below 2, the coarsest mesh
        :func:`porousflow.mesh.generate_rect_mesh` builds, raises
        ``ValueError``."""
        n = self.default_n if n is None else n
        if n < 2:
            raise ValueError(f"n must be at least 2, got {n}")
        return (self.x_extent[1] - self.x_extent[0]) / n


def inflow_window(x1):
    """Cosine window: cos(pi x1) for x1 <= 1/2, zero beyond."""
    x1 = np.asarray(x1, dtype=float)
    return np.where(x1 <= 0.5, np.cos(np.pi * x1), 0.0)


_CASES = {case.name: case for case in (
    # channel (0,3)x(0,1), porosity 0.4 below mid-height and 0.8 above
    CaseDefinition(name="two-layer", x_extent=(0.0, 3.0),
                   y_extent=(0.0, 1.0), inflow_scale=1.0,
                   porosity=builtin_porosity("two-layer"), default_n=120,
                   grading=LayerGrading(line=0.5, size=1.0 / 720.0),
                   constants={"eps": TWO_LAYER_EPS}),
    # channel (0,3pi)x(0,pi), porosity oscillating in both directions
    CaseDefinition(name="sinusoidal", x_extent=(0.0, 3.0 * math.pi),
                   y_extent=(0.0, math.pi), inflow_scale=0.01,
                   porosity=builtin_porosity("sinusoidal"), default_n=300,
                   constants={"gamma0": SINUSOIDAL_GAMMA[0],
                              "gamma1": SINUSOIDAL_GAMMA[1]}),
)}


def get_case(name: str) -> CaseDefinition:
    try:
        return _CASES[name]
    except KeyError:
        raise ValueError(f"unknown case {name!r}; available: "
                         f"{sorted(_CASES)}") from None


def case_names() -> list[str]:
    return sorted(_CASES)


def build_case_mesh(case: CaseDefinition, n: int | None = None) -> Mesh:
    """The case's mesh at ``n`` cells along x (the case's ``default_n``
    when ``None``), graded when the case has a layer grading."""
    return generate_rect_mesh(case.x_extent, case.y_extent,
                              case.default_n if n is None else n,
                              grading=case.grading,
                              stress_free=("right",))


def build_setup(case: CaseDefinition, n: int | None = None,
                tau: float | None = None, t_final: float | None = None):
    """Mesh + context (degree-5 quadrature) + problem setup for a case at
    the given resolution: the Dirichlet edges keep the initial profile, and
    no body force acts."""
    mesh = build_case_mesh(case, n)
    ctx = make_context(mesh, case.porosity, case.params)
    setup = ProblemSetup(
        ctx=ctx,
        u_initial=case.u_initial,
        dirichlet=lambda pts, t: case.u_initial(pts),
        tau=tau if tau is not None else case.nominal_h(n),
        t_final=t_final if t_final is not None else case.t_final,
    )
    return mesh, ctx, setup
