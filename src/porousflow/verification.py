"""Verification harness: manufactured solution, convergence study, and
quadrature identity checks.

The manufactured forcing is derived symbolically from the closed-form
velocity, pressure, and porosity by ``tests/mms_derivation.py``, which
separates every quantity into powers of ``e^{-2t}`` times functions of the
point and prints those spatial factors as the vectorized numpy functions of
the generated module ``porousflow._mms_generated``; the program evaluates
them once per point set, combines them with the time factors at each call,
and needs no sympy.
The test suite checks the module against the derivation, and a
finite-difference oracle cross-checks the derivation, so no
hand-transcribed derivative ever enters the pipeline.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from porousflow import _mms_generated
from porousflow.assembly import (FormContext, assemble_load,
                                 divergence_elements, make_context,
                                 viscous_elements)
from porousflow.fem import (
    AnalyticVectorField,
    edge_quadrature,
    error_norm,
    field_mean,
    interpolate,
    norm,
    physical_points,
    tri_quadrature,
)
from porousflow.mesh import generate_rect_mesh
from porousflow.porous import (
    PhysicalParams,
    PorosityField,
    builtin_porosity,
    forchheimer_coeff,
    linear_drag_coeff,
)
from porousflow.saddle import Constraints, StepSolver
from porousflow.scheme import GENERAL, ProblemSetup, run


# -- manufactured solution --------------------------------------------------------

@dataclass(frozen=True)
class MmsCase:
    """Closed-form flow with the forcing that makes it an exact solution.

    Each quantity is a function of ``(points, t)``; one case evaluates the
    spatial factors of all four once per point set (see
    :class:`_SpatialTables`) and each call combines them with the powers of
    ``e^{-2t}``, so the per-step calls of a run on fixed points cost a few
    array operations."""

    params: PhysicalParams
    porosity: PorosityField
    u: Callable              # (points, t) -> (n, 2)
    grad_u: Callable         # (points, t) -> (n, 2, 2)
    p: Callable              # (points, t) -> (n,)
    f: Callable              # (points, t) -> (n, 2)

    def velocity_field(self, t: float) -> AnalyticVectorField:
        return AnalyticVectorField(lambda pts: self.u(pts, t),
                                   lambda pts: self.grad_u(pts, t))


class _SpatialTables:
    """The generated spatial factors of one case at its most recently used
    point sets.

    A point set is found by value (same shape and equal entries) against a
    private copy, so a caller that edits its array in place gets the new
    points' values; each set is held once, with the tables of every
    quantity evaluated there.  At most ``SIZE`` sets are held, the least
    recently used dropped first: a step of a run uses its quadrature points
    and Dirichlet nodes, the start and the end its finite-element nodes, and
    one-off sets (the Dirichlet feet of the characteristics) pass through."""

    SIZE = 4

    def __init__(self):
        self._held: list[tuple[np.ndarray, dict]] = []   # most recent first

    def at(self, pts: np.ndarray) -> dict:
        """The tables (by quantity name) held for ``pts``, empty when
        ``pts`` is new."""
        for i, (held, tables) in enumerate(self._held):
            if held.shape == pts.shape and np.array_equal(held, pts):
                self._held.insert(0, self._held.pop(i))
                return tables
        tables: dict = {}
        self._held.insert(0, (pts.copy(), tables))
        del self._held[self.SIZE:]
        return tables


def _stack(tables: _SpatialTables, name: str, shape):
    """One function of ``(points, t)`` for the generated ``name`` of ``(x,
    y)``: ``sum_k e^{-2kt} c_k(points)``, each ``c_k`` stacked to ``shape``
    at each point and memoized in ``tables``."""
    fn = getattr(_mms_generated, name)

    def call(pts, t):
        pts = np.asarray(pts, dtype=float)
        held = tables.at(pts)
        if name not in held:
            x, y = pts[:, 0], pts[:, 1]
            held[name] = [
                (k, np.stack([np.broadcast_to(np.asarray(v, dtype=float),
                                              x.shape) for v in comps],
                             axis=-1).reshape((len(pts),) + shape))
                for k, comps in fn(x, y)]
        decay = np.exp(-2.0 * t)
        return sum(decay ** k * c for k, c in held[name])

    return call


def build_mms_case() -> MmsCase:
    """Stream-function flow ``psi = sin^3 x sin^3 y e^{-2t}`` with pressure
    ``sin x sin y e^{-2t}`` over the ``mms-sine`` porosity ``(2 +
    sin(2y/5))/3``, with the default physical parameters, from the spatial
    factors of :mod:`porousflow._mms_generated`, memoized per point set in
    one :class:`_SpatialTables` of the case."""
    tables = _SpatialTables()
    return MmsCase(
        params=PhysicalParams(),
        porosity=builtin_porosity("mms-sine"),
        u=_stack(tables, "u", (2,)),
        grad_u=_stack(tables, "grad_u", (2, 2)),
        p=_stack(tables, "p", ()),
        f=_stack(tables, "f", (2,)),
    )


# -- convergence study --------------------------------------------------------------

@dataclass
class EocRecord:
    """Errors at one resolution and the slope against the previous one.

    ``er1``/``er2`` are the maxima over all time levels; ``final_rel1``/
    ``final_rel2`` are diagnostic final-time errors relative to the exact
    solution's norm at that time (they show the settled behavior once the
    start-up transient has decayed; only the max-over-steps values enter the
    CSV schema).
    """

    n: int
    h: float
    er1: float               # max over steps of the H1 velocity error
    er2: float               # max over steps of the L2 pressure error
    slope1: float | None = None
    slope2: float | None = None
    final_rel1: float | None = None
    final_rel2: float | None = None


def run_eoc(n_list: Sequence[int], t_final: float = 1.0,
            progress: Callable[[str], None] | None = None) -> list[EocRecord]:
    """Solve the manufactured problem on ``(0, pi)^2`` for each resolution,
    strictly ascending and at least 2 (the coarsest mesh
    :func:`porousflow.mesh.generate_rect_mesh` builds).

    For each ``N``: ``h = tau = pi/N``, Dirichlet data from the exact
    velocity on the whole boundary, zero-mean pressure gauge, the default
    physical parameters and degree-5 quadrature.  Errors are the
    maxima over all time levels (including the interpolated initial data) of
    the H1 velocity error and the L2 pressure error measured against the
    zero-mean representative of the exact pressure.
    """
    if not n_list:
        raise ValueError("at least one resolution is required")
    if min(n_list) < 2:
        raise ValueError(f"resolutions must be positive cell counts of at "
                         f"least 2, got {list(n_list)}")
    if any(fine <= coarse for coarse, fine in zip(n_list, n_list[1:])):
        raise ValueError(f"resolutions must be ascending without repeats, "
                         f"got {list(n_list)}")
    # the coarsest level takes the longest step (ProblemSetup.n_steps); a
    # t_final that is not positive and finite is left to ProblemSetup
    if t_final > 0.0 and t_final / (math.pi / n_list[0]) + 1e-9 < 1.0:
        raise ValueError(f"tau = pi/{n_list[0]} exceeds t_final = {t_final}; "
                         "no steps to take")
    case = build_mms_case()
    records: list[EocRecord] = []
    for n_div in n_list:
        mesh = generate_rect_mesh((0.0, math.pi), (0.0, math.pi), n_div)
        ctx = make_context(mesh, case.porosity, case.params)
        tau = math.pi / n_div
        setup = ProblemSetup(
            ctx=ctx,
            u_initial=lambda pts: case.u(pts, 0.0),
            dirichlet=case.u,
            forcing=case.f,
            tau=tau,
            t_final=t_final,
        )
        if progress:
            progress(f"running N={n_div}")
        er1, er2 = [], []

        def track(k, t, u, p, diag):
            er1.append(error_norm(u, case.u, "H1", t, exact_grad=case.grad_u))
            er2.append(error_norm(p, case.p, "L2", t, zero_mean=True))

        track(0, 0.0, interpolate(ctx.vspace, case.u, 0.0),
              interpolate(ctx.pspace, case.p, 0.0), None)
        run(setup, observers=[track])
        t_end = setup.n_steps * tau
        u_scale = norm(interpolate(ctx.vspace, case.u, t_end), "H1")
        p_ref = interpolate(ctx.pspace, case.p, t_end)
        p_scale = math.sqrt(max(norm(p_ref, "L2") ** 2
                                - field_mean(p_ref) ** 2
                                * float(ctx.mesh.areas.sum()), 1e-30))
        records.append(EocRecord(n=n_div, h=tau, er1=max(er1), er2=max(er2),
                                 final_rel1=er1[-1] / u_scale,
                                 final_rel2=er2[-1] / p_scale))

    for prev, cur in zip(records, records[1:]):
        ratio = math.log(prev.h / cur.h)
        cur.slope1 = math.log(prev.er1 / cur.er1) / ratio
        cur.slope2 = math.log(prev.er2 / cur.er2) / ratio
    return records


def write_eoc_csv(records: Sequence[EocRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "h", "Er1", "slope1", "Er2", "slope2"])
        for r in records:
            writer.writerow([
                r.n, f"{r.h:.6e}", f"{r.er1:.6e}",
                "" if r.slope1 is None else f"{r.slope1:.3f}",
                f"{r.er2:.6e}",
                "" if r.slope2 is None else f"{r.slope2:.3f}",
            ])


# -- quadrature identity checks -------------------------------------------------------

def _boundary_quadrature(mesh, n_points: int):
    """Gauss-Legendre points of the boundary edges (m, n_points, 2), their
    weights times the edge lengths (m, n_points) and the edges' outward
    normals (m, 2)."""
    s, w = edge_quadrature(n_points)
    start = mesh.vertices[mesh.boundary_edges[:, 0]]
    d = mesh.vertices[mesh.boundary_edges[:, 1]] - start
    length = np.hypot(d[:, 0], d[:, 1])
    normals = np.column_stack([d[:, 1], -d[:, 0]]) / length[:, None]
    points = start[:, None, :] + s[None, :, None] * d[:, None, :]
    return points, length[:, None] * w, normals


@dataclass
class TransportIdentityReport:
    """Both sides of the transport identity for a divergence-free field.

    ``scale`` is the largest L1 mass of the participating integrands; the
    relative residual is measured against it because the integrals themselves
    can vanish by symmetry (they do for the bundled manufactured flow on the
    full square).
    """

    lhs: float
    boundary_term: float
    interior_term: float
    scale: float

    @property
    def rhs(self) -> float:
        return self.boundary_term + self.interior_term

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def relative(self) -> float:
        return self.residual / max(self.scale, 1e-30)


def transport_identity_check(u: AnalyticVectorField, porosity: PorosityField,
                          extents=((0.0, math.pi), (0.0, math.pi)),
                          n_divisions: int = 64, degree: int = 9) -> TransportIdentityReport:
    """Check ((u . grad)(u/phi), u) against its boundary/interior split.

    For divergence-free ``u`` the convective integral equals half the contour
    integral of ``(|u|^2/phi) u.n`` plus half of ``(|u|^2, (u . grad)(1/phi))``.
    Both sides are evaluated independently by quadrature of the given degree,
    from the points and weights of :func:`porousflow.fem.tri_quadrature`
    alone: the integrands are analytic and need no basis tables.
    """
    mesh = generate_rect_mesh(extents[0], extents[1], n_divisions)
    rule = tri_quadrature(degree)
    wxa = rule.weights[None, :] * mesh.areas[:, None]
    nt, nq = wxa.shape
    flat = physical_points(mesh, rule.points).reshape(nt * nq, 2)

    uv = np.asarray(u.value(flat), dtype=float)
    gu = np.asarray(u.grad(flat), dtype=float)
    phi = np.asarray(porosity.value(flat), dtype=float)
    gphi = np.asarray(porosity.grad(flat), dtype=float)

    # (u . grad)(u/phi)_c = sum_d u_d (d_d u_c / phi - u_c d_d phi / phi^2)
    grad_w = gu / phi[:, None, None] \
        - np.einsum("nc,nd->ncd", uv, gphi) / (phi ** 2)[:, None, None]
    conv = np.einsum("nd,ncd->nc", uv, grad_w)
    lhs_vals = (conv * uv).sum(axis=1)
    lhs = float(np.einsum("tq,tq->", wxa, lhs_vals.reshape(nt, nq)))
    lhs_mass = float(np.einsum("tq,tq->", wxa,
                               np.abs(lhs_vals).reshape(nt, nq)))

    speed_sq = (uv ** 2).sum(axis=1)
    adv_inv_phi = -np.einsum("nd,nd->n", uv, gphi) / phi ** 2
    int_vals = 0.5 * speed_sq * adv_inv_phi
    interior = float(np.einsum("tq,tq->", wxa, int_vals.reshape(nt, nq)))
    int_mass = float(np.einsum("tq,tq->", wxa,
                               np.abs(int_vals).reshape(nt, nq)))

    points, weights, normals = _boundary_quadrature(mesh, (degree + 2) // 2)
    flat = points.reshape(-1, 2)
    ue = np.asarray(u.value(flat), dtype=float).reshape(points.shape)
    phie = np.asarray(porosity.value(flat), dtype=float).reshape(
        weights.shape)
    integrand = 0.5 * (ue ** 2).sum(axis=2) / phie \
        * np.einsum("enc,ec->en", ue, normals)
    boundary = float((weights * integrand).sum())
    bdry_mass = float((weights * np.abs(integrand)).sum())
    return TransportIdentityReport(lhs=lhs, boundary_term=boundary,
                        interior_term=interior,
                        scale=max(lhs_mass, int_mass, bdry_mass))


# -- temporal consistency of the transport formula -------------------------------------

@dataclass
class Ab2Report:
    errors: list
    observed_order: float


def default_consistency_field():
    """A smooth advected field and its material derivative, for order checks."""

    def w(pts, t):
        pts = np.asarray(pts, dtype=float)
        return np.column_stack([np.sin(pts[:, 1] + t), np.cos(pts[:, 0] - t)])

    def material(pts, t):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[:, 0], pts[:, 1]
        w1 = np.sin(y + t)
        w2 = np.cos(x - t)
        return np.column_stack([np.cos(y + t) * (1.0 + w2),
                                np.sin(x - t) * (1.0 - w1)])

    return w, material


def ab2_consistency_check(
        w: Callable, material: Callable,
        taus: Sequence[float] = (0.1, 0.05, 0.025, 0.0125)) -> Ab2Report:
    """Observed temporal order of the general steps' material-derivative
    formula, with the foot multiples ``m`` and the coefficients of
    :data:`porousflow.scheme.GENERAL`.

    Evaluates ``[mass w(x, t) - rhs sum c w(x - m tau w*, t - m tau)] /
    tau`` with ``w* = sum v w(x, t - m tau)``, the sums over the table's
    history entries with their bracket coefficients ``c`` and velocity
    coefficients ``v``: ``(1/2 tau)[3 w(x, t) - 4 w(x - tau w*, t - tau) +
    w(x - 2 tau w*, t - 2 tau)]`` with ``w* = 2 w(x, t - tau) - w(x, t - 2
    tau)``.  It is compared with the analytic material derivative at ``t =
    1`` on a 7 x 7 grid of ``[0.4, 2.6]^2``, and the error decay under tau
    halving gives the order.
    """
    t_eval = 1.0
    g = np.linspace(0.4, 2.6, 7)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    points = np.column_stack([gx.ravel(), gy.ravel()])
    exact = np.asarray(material(points, t_eval), dtype=float)

    def at(pts, t):
        return np.asarray(w(pts, t), dtype=float)

    errors = []
    for tau in taus:
        w_star = reduce(np.add, (
            v * at(points, t_eval - m * tau)
            for m, v in zip(GENERAL.feet, GENERAL.velocity)))
        bracket = reduce(np.add, (
            c * at(points - m * tau * w_star, t_eval - m * tau)
            for m, c in zip(GENERAL.feet, GENERAL.bracket)))
        comp = GENERAL.mass * at(points, t_eval) - GENERAL.rhs * bracket
        errors.append(float(np.abs(comp / tau - exact).max()))
    log_t = np.log(np.asarray(taus))
    log_e = np.log(np.maximum(errors, 1e-300))
    order = float(np.polyfit(log_t, log_e, 1)[0]) if max(errors) > 0 else np.inf
    return Ab2Report(errors, order)


# -- steady exactness check ---------------------------------------------------------------

def steady_stokes_solve(ctx: FormContext, forcing, dirichlet):
    """One steady viscous solve with no drag and no mass term: a
    :class:`StepSolver` solve with a zero mass-type weight under the table
    of ``ctx``'s boundary.

    Used for the polynomial-exactness patch test: with quadratic velocity and
    linear pressure data the mixed pair reproduces the fields to solver
    precision.
    """
    table = Constraints.build(ctx)
    solver = StepSolver(ctx, viscous_elements(ctx), divergence_elements(ctx),
                        table)
    return solver.solve(np.zeros_like(ctx.tables.wxarea),
                        assemble_load(forcing, ctx, None),
                        table.values(dirichlet))


def polynomial_exactness_check(ctx: FormContext) -> tuple[float, float]:
    """Worst nodal errors of a steady solve whose exact solution the P2/P1
    pair reproduces: the divergence-free quadratic velocity ``(x^2 - 3y^2,
    -3x^2 - 2xy)`` and the linear pressure ``2x - 3y + 1``, the latter
    compared as its zero-mean representative.  Returns ``(velocity error,
    pressure error)``."""
    mu = ctx.params.mu

    def velocity(p):
        x, y = p[:, 0], p[:, 1]
        return np.column_stack([x ** 2 - 3 * y ** 2, -3 * x ** 2 - 2 * x * y])

    def forcing(p, t=None):
        n = len(p)
        return np.column_stack([np.full(n, 4 * mu + 2.0),
                                np.full(n, 6 * mu - 3.0)])

    u, p_field, _ = steady_stokes_solve(ctx, forcing, velocity)
    u_err = np.abs(u.node_values() - velocity(ctx.vspace.node_coords)).max()
    p_exact = interpolate(ctx.pspace,
                          lambda p: 2 * p[:, 0] - 3 * p[:, 1] + 1.0)
    p_err = np.abs(p_field.coefficients
                   - (p_exact.coefficients - field_mean(p_exact))).max()
    return float(u_err), float(p_err)


# -- drag coefficients -----------------------------------------------------------------

def drag_equivalence_check(params: PhysicalParams,
                           seed: int) -> tuple[float, float]:
    """Worst relative errors of the closed-form linear and quadratic drag
    coefficients against their compositional forms ``phi/K`` and ``F phi /
    sqrt(K)`` (packed-bed permeability ``K``, Forchheimer factor ``F``) at
    1000 porosities drawn uniformly from [0.01, 0.999]."""
    phi = np.random.default_rng(seed).uniform(0.01, 0.999, 1000)
    k_perm = params.d_p ** 2 * phi ** 3 / (params.a * (1.0 - phi) ** 2)
    f_forch = params.b / np.sqrt(params.a * phi ** 3)
    linear = phi / k_perm
    quadratic = f_forch * phi / np.sqrt(k_perm)
    rel_lin = np.abs(linear_drag_coeff(phi, params) - linear) / linear
    rel_quad = np.abs(forchheimer_coeff(phi, params) - quadratic) / quadratic
    return float(rel_lin.max()), float(rel_quad.max())
