"""Porosity fields and Ergun-type drag coefficients.

The packed-bed permeability ``K = d_p^2 phi^3 / (a (1 - phi)^2)`` diverges as
the porosity approaches one, so the drag terms are implemented through the
simplified quotients ``phi/K`` and ``F phi / sqrt(K)`` which stay finite on
all of ``(0, 1]`` and vanish exactly in the pure-fluid limit.

The admissibility validator checks, by sampling, that a porosity field keeps
its gradient below ``(2 b / d_p) (1 - phi)``, the condition under which the
quadratic drag dominates the destabilizing porosity-gradient transport term.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class PhysicalParams:
    """Fluid and medium constants, CGS units."""

    mu: float = 8.89e-3    # dynamic viscosity, dyn*s/cm^2
    rho: float = 9.951e-1  # density, g/cm^3
    d_p: float = 5e-2      # particle diameter, cm
    a: float = 150.0       # linear Ergun constant
    b: float = 1.75        # quadratic Ergun constant

    def __post_init__(self):
        for name in ("mu", "rho", "d_p", "a", "b"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class PorosityField:
    """Analytic porosity with its gradient.

    ``value(points)`` maps ``(n, 2)`` to ``(n,)`` in (0, 1]; ``grad(points)``
    returns ``(n, 2)``.
    """

    name: str
    value: Callable
    grad: Callable


def _check_phi(phi):
    phi = np.asarray(phi, dtype=float)
    # nan fails every comparison: test that each value lies inside
    if not np.all((phi > 0.0) & (phi <= 1.0)):
        raise ValueError("porosity must lie in (0, 1]")
    return phi


def linear_drag_coeff(phi, params: PhysicalParams):
    """Closed form of phi/K: a (1-phi)^2 / (d_p^2 phi^2), in cm^-2."""
    phi = _check_phi(phi)
    return params.a * (1.0 - phi) ** 2 / (params.d_p ** 2 * phi ** 2)


def forchheimer_coeff(phi, params: PhysicalParams):
    """Closed form of F(phi) phi / sqrt(K): b (1-phi) / (d_p phi^2), in cm^-1."""
    phi = _check_phi(phi)
    return params.b * (1.0 - phi) / (params.d_p * phi ** 2)


# -- admissibility validation ----------------------------------------------------

@dataclass
class AdmissibilityReport:
    """Sampling report for porosity admissibility."""

    passed: bool
    phi0: float
    max_margin: float          # max of |grad phi| - (2b/d_p)(1 - phi), cm^-1
    argmax: tuple[float, float]
    n_violations: int
    resolution: int
    violation_extent: tuple[float, float] | None  # y-range of violations

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"admissibility: {verdict}",
            f"  min porosity sample     : {self.phi0:.6g}",
            f"  max gradient margin     : {self.max_margin:.6g} cm^-1 "
            f"at ({self.argmax[0]:.6g}, {self.argmax[1]:.6g})",
            f"  violating samples       : {self.n_violations}",
        ]
        if self.violation_extent is not None:
            lines.append(f"  violation band (y)      : "
                         f"[{self.violation_extent[0]:.6g}, "
                         f"{self.violation_extent[1]:.6g}]")
        return "\n".join(lines)


def _margin_at(porosity: PorosityField, params: PhysicalParams, pts: np.ndarray):
    g = np.asarray(porosity.grad(pts), dtype=float)
    phi = np.asarray(porosity.value(pts), dtype=float)
    return np.sqrt((g ** 2).sum(axis=1)) - (2.0 * params.b / params.d_p) * (1.0 - phi), phi


def validate_porosity_admissibility(porosity: PorosityField, params: PhysicalParams,
                         bounds, resolution: int = 512) -> AdmissibilityReport:
    """Sample the gradient-bound margin on a uniform grid over ``bounds``.

    ``bounds`` is ``((x0, x1), (y0, y1))``.  After the uniform scan the
    neighborhood of the largest margin is re-sampled a few times so that a
    thin violating layer is reported with a sharp peak value rather than
    whatever the coarse grid happened to hit.  The violation count and band
    cover every distinct sample, the uniform and the refined ones, so a
    layer thinner than the grid spacing is still counted.  A ``resolution``
    below 2 raises ``ValueError``.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    (x0, x1), (y0, y1) = bounds
    xs = np.linspace(x0, x1, resolution)
    ys = np.linspace(y0, y1, resolution)
    xv, yv = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([xv.ravel(), yv.ravel()])
    margin, phi = _margin_at(porosity, params, pts)
    violating = [pts[margin > 0.0]]

    best = int(np.argmax(margin))
    cx, cy = pts[best]
    hx, hy = (x1 - x0) / (resolution - 1), (y1 - y0) / (resolution - 1)
    for _ in range(8):  # local refinement to pin the peak of a thin layer
        lx = np.linspace(max(x0, cx - hx), min(x1, cx + hx), 9)
        ly = np.linspace(max(y0, cy - hy), min(y1, cy + hy), 9)
        gx, gy = np.meshgrid(lx, ly, indexing="ij")
        local = np.column_stack([gx.ravel(), gy.ravel()])
        lm, _ = _margin_at(porosity, params, local)
        violating.append(local[lm > 0.0])
        j = int(np.argmax(lm))
        cx, cy = local[j]
        hx, hy = hx / 4.0, hy / 4.0
    peak_at = np.array([[cx, cy]])
    peak, _ = _margin_at(porosity, params, peak_at)
    violating.append(peak_at[peak > 0.0])
    max_margin = float(max(margin[best], peak[0]))
    bad = np.unique(np.concatenate(violating), axis=0)
    extent = None
    if len(bad):
        extent = (float(bad[:, 1].min()), float(bad[:, 1].max()))

    phi0 = float(phi.min())
    return AdmissibilityReport(
        passed=(max_margin <= 0.0 and phi0 > 0.0),
        phi0=phi0,
        max_margin=max_margin,
        argmax=(float(cx), float(cy)),
        n_violations=len(bad),
        resolution=resolution,
        violation_extent=extent,
    )


# -- built-in porosity models ------------------------------------------------------

def _smooth_step(s, eps):
    """Heaviside regularized over |s| < eps with a sine blend; the blend is
    evaluated only on that band (and at NaN, which it propagates)."""
    s = np.asarray(s, dtype=float)
    out = np.where(s >= eps, 1.0, 0.0)
    band = ~(np.abs(s) >= eps)
    sb = s[band]
    out[band] = 0.5 + 0.5 * (sb / eps + np.sin(np.pi * sb / eps) / np.pi)
    return out


def _smooth_step_deriv(s, eps):
    s = np.asarray(s, dtype=float)
    inner = (0.5 / eps) * (1.0 + np.cos(np.pi * s / eps))
    return np.where(np.abs(s) < eps, inner, 0.0)


TWO_LAYER_EPS = 1.0 / 360.0        # half-width of the two-layer transition
SINUSOIDAL_GAMMA = (0.15, 0.65)    # range (g0, g1) of the sinusoidal field


def builtin_porosity(name: str, value: float = 0.5) -> PorosityField:
    """Named analytic porosity fields used by the bundled experiments.

    ``mms-sine``
        ``(2 + sin(2y/5)) / 3``, the smooth profile of the convergence study.
    ``two-layer``
        ``0.4 + 0.4 H_eps(y - 1/2)`` with a regularized Heaviside ``H_eps``,
        ``eps = TWO_LAYER_EPS``.
    ``sinusoidal``
        ``(g1-g0)/2 sin(2y) cos(2x) + (g1+g0)/2``, ``(g0, g1) =
        SINUSOIDAL_GAMMA``.
    ``constant``
        uniform porosity ``value``.
    """
    if name == "mms-sine":
        def val(pts):
            return (2.0 + np.sin(0.4 * np.asarray(pts)[:, 1])) / 3.0

        def grad(pts):
            pts = np.asarray(pts)
            g = np.zeros_like(pts, dtype=float)
            g[:, 1] = 0.4 * np.cos(0.4 * pts[:, 1]) / 3.0
            return g

        return PorosityField("mms-sine", val, grad)

    if name == "two-layer":
        eps = TWO_LAYER_EPS

        def val(pts):
            return 0.4 + 0.4 * _smooth_step(np.asarray(pts)[:, 1] - 0.5, eps)

        def grad(pts):
            pts = np.asarray(pts)
            g = np.zeros_like(pts, dtype=float)
            g[:, 1] = 0.4 * _smooth_step_deriv(pts[:, 1] - 0.5, eps)
            return g

        return PorosityField(f"two-layer(eps={eps:g})", val, grad)

    if name == "sinusoidal":
        gamma0, gamma1 = SINUSOIDAL_GAMMA
        amp = 0.5 * (gamma1 - gamma0)
        mid = 0.5 * (gamma1 + gamma0)

        def val(pts):
            pts = np.asarray(pts)
            return amp * np.sin(2.0 * pts[:, 1]) * np.cos(2.0 * pts[:, 0]) + mid

        def grad(pts):
            pts = np.asarray(pts)
            g = np.empty_like(pts, dtype=float)
            g[:, 0] = -2.0 * amp * np.sin(2.0 * pts[:, 1]) * np.sin(2.0 * pts[:, 0])
            g[:, 1] = 2.0 * amp * np.cos(2.0 * pts[:, 1]) * np.cos(2.0 * pts[:, 0])
            return g

        return PorosityField(f"sinusoidal({gamma0:g},{gamma1:g})", val, grad)

    if name == "constant":
        c = float(value)
        if not (0.0 < c <= 1.0):
            raise ValueError("constant porosity must lie in (0, 1]")

        def val(pts):
            return np.full(len(np.asarray(pts)), c)

        def grad(pts):
            return np.zeros_like(np.asarray(pts, dtype=float))

        return PorosityField(f"constant({c:g})", val, grad)

    raise ValueError(f"unknown porosity model: {name!r}")
