"""Verification harness: manufactured solution, convergence study, energy
monitors, and quadrature identity checks.

The manufactured forcing is derived symbolically from the closed-form
velocity, pressure, and porosity, then compiled to vectorized numpy
functions.  A finite-difference oracle in the test suite cross-checks the
derivation, so no hand-transcribed derivative ever enters the pipeline.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from porousflow.assembly import FormContext, assemble_a0, assemble_b, assemble_load, make_context
from porousflow.fem import (
    AnalyticVectorField,
    FeField,
    edge_quadrature,
    error_norm,
    field_mean,
    interpolate,
    norm,
    quad_tables,
    tri_quadrature,
)
from porousflow.mesh import BoundaryTag, generate_rect_mesh
from porousflow.porous import (
    PhysicalParams,
    PorosityField,
    alpha_constant,
    builtin_porosity,
    forchheimer_coeff,
    linear_drag_coeff,
)
from porousflow.saddle import Constraints, StepSolver
from porousflow.scheme import ProblemSetup, run


# -- manufactured solution --------------------------------------------------------

@dataclass(frozen=True)
class MmsCase:
    """Closed-form flow with the forcing that makes it an exact solution."""

    params: PhysicalParams
    porosity: PorosityField
    u: Callable              # (points, t) -> (n, 2)
    grad_u: Callable         # (points, t) -> (n, 2, 2)
    p: Callable              # (points, t) -> (n,)
    f: Callable              # (points, t) -> (n, 2)

    def velocity_field(self, t: float) -> AnalyticVectorField:
        return AnalyticVectorField(lambda pts: self.u(pts, t),
                                   lambda pts: self.grad_u(pts, t))


_MMS_CACHE: dict = {}


def _lambdify_stack(args, exprs, shape):
    """One numpy function of ``(points, t)`` for the stacked ``exprs``, with
    their common subexpressions computed once."""
    import sympy as sp
    fn = sp.lambdify(args, list(exprs), modules="numpy", cse=True)

    def call(pts, t):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[:, 0], pts[:, 1]
        cols = [np.broadcast_to(np.asarray(v, dtype=float), x.shape)
                for v in fn(x, y, t)]
        out = np.stack(cols, axis=-1)
        return out.reshape((len(pts),) + shape)

    return call


def build_mms_case(params: PhysicalParams | None = None,
                   porosity: PorosityField | None = None) -> MmsCase:
    """Stream-function flow ``psi = sin^3 x sin^3 y e^{-2t}`` with pressure
    ``sin x sin y e^{-2t}`` over a porosity with a symbolic closed form."""
    import sympy as sp

    params = params or PhysicalParams()
    porosity = porosity or builtin_porosity("mms-sine")
    if porosity.expr_factory is None:
        raise ValueError("the porosity needs a symbolic closed form")
    key = (params, porosity.name)
    if key in _MMS_CACHE:
        return _MMS_CACHE[key]

    x, y, t = sp.symbols("x y t", real=True)
    psi = sp.sin(x) ** 3 * sp.sin(y) ** 3 * sp.exp(-2 * t)
    u = sp.Matrix([-sp.diff(psi, y), sp.diff(psi, x)])
    p = sp.sin(x) * sp.sin(y) * sp.exp(-2 * t)
    phi = porosity.expr_factory(x, y)

    grad_u = sp.Matrix([[sp.diff(u[c], v) for v in (x, y)] for c in range(2)])
    w = u / phi
    conv = sp.Matrix([u[0] * sp.diff(w[c], x) + u[1] * sp.diff(w[c], y)
                      for c in range(2)])
    d_tensor = sp.Matrix([[sp.Rational(1, 2)
                           * (sp.diff(u[i], v_j) + sp.diff(u[j], v_i))
                           for j, v_j in enumerate((x, y))]
                          for i, v_i in enumerate((x, y))])
    div_stress = sp.Matrix([sum(sp.diff(2 * params.mu * d_tensor[i, j], v)
                                for j, v in enumerate((x, y)))
                            for i in range(2)])
    speed = sp.sqrt(u[0] ** 2 + u[1] ** 2)
    lin = params.a * (1 - phi) ** 2 / (params.d_p ** 2 * phi ** 2)
    quad = params.b * (1 - phi) / (params.d_p * phi ** 2)
    drag = -params.mu * lin * u - params.rho * quad * speed * u
    grad_p = sp.Matrix([sp.diff(p, x), sp.diff(p, y)])
    f = params.rho * (sp.diff(u, t) + conv) - div_stress + grad_p - drag

    args = (x, y, t)
    case = MmsCase(
        params=params,
        porosity=porosity,
        u=_lambdify_stack(args, list(u), (2,)),
        grad_u=_lambdify_stack(args, list(grad_u), (2, 2)),
        p=_lambdify_stack(args, [p], ()),
        f=_lambdify_stack(args, list(f), (2,)),
    )
    _MMS_CACHE[key] = case
    return case


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
    strictly ascending.

    For each ``N``: ``h = tau = pi/N``, Dirichlet data from the exact
    velocity on the whole boundary, zero-mean pressure gauge, the default
    physical parameters and degree-5 quadrature.  Errors are the
    maxima over all time levels (including the interpolated initial data) of
    the H1 velocity error and the L2 pressure error measured against the
    zero-mean representative of the exact pressure.
    """
    if not n_list:
        raise ValueError("at least one resolution is required")
    if min(n_list) < 1:
        raise ValueError(f"resolutions must be positive, got {list(n_list)}")
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
            gauge=True,
        )
        if progress:
            progress(f"running N={n_div}")
        er1 = [error_norm(interpolate(ctx.vspace, case.u, 0.0), case.u, "H1",
                          0.0, exact_grad=case.grad_u)]
        er2 = [error_norm(interpolate(ctx.pspace, case.p, 0.0), case.p, "L2",
                          0.0, zero_mean=True)]

        def track(k, t, u, p, diag):
            er1.append(error_norm(u, case.u, "H1", t, exact_grad=case.grad_u))
            er2.append(error_norm(p, case.p, "L2", t, zero_mean=True))

        summary = run(setup, observers=[track])
        t_end = summary.n_steps * tau
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


# -- energy monitors -----------------------------------------------------------------

@dataclass
class EnergyRecord:
    """Per-step terms of the kinetic-energy balance."""

    t: float
    u_l2: float
    kinetic: float           # rho/2 ||u||^2
    h1_dissipation: float    # mu beta0^2 ||u||_H1^2
    drag_dissipation: float  # mu alpha ||u||^2
    outflow_flux: float      # rho/2 * contour integral of (|u|^2/phi) u.n
    forcing_budget: float    # ||f||^2 / (4 mu beta0^2)


def analytic_l2(ctx: FormContext, f, t: float) -> float:
    vals = np.asarray(f(ctx.qpoints_flat, t), dtype=float)
    nt, nq = ctx.wxarea.shape
    sq = (vals ** 2).reshape(nt, nq, -1).sum(axis=2)
    return float(np.sqrt(np.einsum("tq,tq->", ctx.wxarea, sq)))


def outflow_kinetic_flux(u_field: FeField, porosity: PorosityField,
                         tags=(BoundaryTag.STRESS_FREE,),
                         n_points: int = 5) -> float:
    """Edge-quadrature value of the contour integral of (|u|^2/phi) u.n over
    the tagged part of the boundary."""
    mesh = u_field.space.mesh
    edges = np.concatenate([mesh.boundary_edges_by_tag(t) for t in tags]) \
        if tags else np.array([], dtype=np.int64)
    if edges.size == 0:
        return 0.0
    s, w = edge_quadrature(n_points)
    total = 0.0
    for e in edges:
        a, b = mesh.boundary_edges[e]
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        d = pb - pa
        length = float(np.hypot(*d))
        normal = np.array([d[1], -d[0]]) / length
        pts = pa[None, :] + s[:, None] * d[None, :]
        owner = int(mesh.boundary_edge_tri[e])
        bary = mesh.barycentric(np.full(len(pts), owner), pts)
        from porousflow.fem import eval_field_many
        uv = eval_field_many(u_field, np.full(len(pts), owner), bary)
        phi = np.asarray(porosity.value(pts), dtype=float)
        integrand = (uv ** 2).sum(axis=1) / phi * (uv @ normal)
        total += length * float(w @ integrand)
    return total


@dataclass
class EnergyVerdict:
    name: str
    passed: bool
    margin: float
    detail: str


class EnergyMonitor:
    """Observer recording the energy-balance terms and stability budgets.

    Usage: construct, call :meth:`start` with the initial velocity field,
    register the instance as a run observer, then read :attr:`records` and
    :meth:`verdicts`.
    """

    def __init__(self, ctx: FormContext, beta0: float, forcing=None):
        self.ctx = ctx
        self.beta0 = float(beta0)
        self.alpha = alpha_constant(ctx.porosity, ctx.params)
        self.forcing = forcing
        self.records: list[EnergyRecord] = []
        self._f_sq_integrals: list[float] = []   # running value of the time
        self._u0_l2: float | None = None         # integral of ||f||^2

    def _record(self, t: float, u_field: FeField) -> EnergyRecord:
        mu, rho = self.ctx.params.mu, self.ctx.params.rho
        u_l2 = norm(u_field, "L2")
        u_h1 = norm(u_field, "H1")
        f_l2 = (analytic_l2(self.ctx, self.forcing, t)
                if self.forcing is not None else 0.0)
        rec = EnergyRecord(
            t=t,
            u_l2=u_l2,
            kinetic=0.5 * rho * u_l2 ** 2,
            h1_dissipation=mu * self.beta0 ** 2 * u_h1 ** 2,
            drag_dissipation=mu * self.alpha * u_l2 ** 2,
            outflow_flux=0.5 * rho * outflow_kinetic_flux(
                u_field, self.ctx.porosity),
            forcing_budget=f_l2 ** 2 / (4.0 * mu * self.beta0 ** 2),
        )
        return rec

    def start(self, u0_field: FeField) -> None:
        rec = self._record(0.0, u0_field)
        self._u0_l2 = rec.u_l2
        self.records.append(rec)
        self._f_sq_integrals.append(0.0)

    def __call__(self, k, t, u_field, p_field, diag) -> None:
        rec = self._record(t, u_field)
        self.records.append(rec)
        tau = t / k
        f_l2 = (analytic_l2(self.ctx, self.forcing, t)
                if self.forcing is not None else 0.0)
        self._f_sq_integrals.append(self._f_sq_integrals[-1] + tau * f_l2 ** 2)

    def write_jsonl(self, path) -> None:
        """Energy records, one JSON object per line."""
        import json
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec.__dict__, sort_keys=True) + "\n")

    def verdicts(self) -> list[EnergyVerdict]:
        if self._u0_l2 is None or not self.records:
            raise RuntimeError("monitor was never started")
        mu, rho = self.ctx.params.mu, self.ctx.params.rho
        u0 = self._u0_l2
        f_total = math.sqrt(self._f_sq_integrals[-1])
        out = []

        lhs = math.sqrt(rho) * max(r.u_l2 for r in self.records)
        rhs = 2.0 * (math.sqrt(rho) * u0
                     + f_total / (math.sqrt(mu) * self.beta0))
        out.append(EnergyVerdict(
            "max-velocity-budget", lhs <= rhs + 1e-12, rhs - lhs,
            f"max_k sqrt(rho)||u^k|| = {lhs:.6g} vs budget {rhs:.6g}"))

        worst = math.inf
        ok = True
        for rec, f_int in zip(self.records, self._f_sq_integrals):
            bound = (math.exp(-mu * self.alpha * rec.t / rho) * u0
                     + math.sqrt(f_int) / (math.sqrt(2.0 * rho * mu) * self.beta0))
            margin = bound - rec.u_l2
            worst = min(worst, margin)
            ok = ok and (rec.u_l2 <= bound + 1e-12)
        out.append(EnergyVerdict(
            "exponential-decay-budget", ok, worst,
            f"worst margin over steps: {worst:.6g}"))
        return out


# -- quadrature identity checks -------------------------------------------------------

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
    Both sides are evaluated independently by quadrature of the given degree.
    """
    mesh = generate_rect_mesh(extents[0], extents[1], n_divisions)
    tables = quad_tables(mesh, tri_quadrature(degree))
    wxa, pts = tables.wxarea, tables.qpoints
    nt, nq = wxa.shape
    flat = pts.reshape(nt * nq, 2)

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

    s, w = edge_quadrature((degree + 2) // 2)
    boundary = 0.0
    bdry_mass = 0.0
    for e in range(len(mesh.boundary_edges)):
        a, b = mesh.boundary_edges[e]
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        d = pb - pa
        length = float(np.hypot(*d))
        normal = np.array([d[1], -d[0]]) / length
        epts = pa[None, :] + s[:, None] * d[None, :]
        ue = np.asarray(u.value(epts), dtype=float)
        phie = np.asarray(porosity.value(epts), dtype=float)
        integrand = 0.5 * (ue ** 2).sum(axis=1) / phie * (ue @ normal)
        boundary += length * float(w @ integrand)
        bdry_mass += length * float(w @ np.abs(integrand))
    return TransportIdentityReport(lhs=lhs, boundary_term=boundary,
                        interior_term=interior,
                        scale=max(lhs_mass, int_mass, bdry_mass))


# -- temporal consistency of the transport formula -------------------------------------

@dataclass
class Ab2Report:
    taus: list
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


def ab2_consistency_check(w: Callable, material: Callable,
                          taus: Sequence[float] = (0.1, 0.05, 0.025, 0.0125),
                          points: np.ndarray | None = None,
                          t_eval: float = 1.0) -> Ab2Report:
    """Observed temporal order of the two-step material-derivative formula.

    Evaluates ``(1/2 tau)[3 w(x, t) - 4 w(x - tau w*, t - tau) + w(x - 2 tau
    w*, t - 2 tau)]`` with ``w* = 2 w(x, t - tau) - w(x, t - 2 tau)`` against
    the analytic material derivative, and fits the error decay under tau
    halving.
    """
    if points is None:
        g = np.linspace(0.4, 2.6, 7)
        gx, gy = np.meshgrid(g, g, indexing="ij")
        points = np.column_stack([gx.ravel(), gy.ravel()])
    exact = np.asarray(material(points, t_eval), dtype=float)
    errors = []
    for tau in taus:
        w_k = np.asarray(w(points, t_eval), dtype=float)
        w_star = (2.0 * np.asarray(w(points, t_eval - tau), dtype=float)
                  - np.asarray(w(points, t_eval - 2.0 * tau), dtype=float))
        f1 = points - tau * w_star
        f2 = points - 2.0 * tau * w_star
        comp = (3.0 * w_k
                - 4.0 * np.asarray(w(f1, t_eval - tau), dtype=float)
                + np.asarray(w(f2, t_eval - 2.0 * tau), dtype=float))
        err = np.abs(comp / (2.0 * tau) - exact).max()
        errors.append(float(err))
    log_t = np.log(np.asarray(taus))
    log_e = np.log(np.maximum(errors, 1e-300))
    order = float(np.polyfit(log_t, log_e, 1)[0]) if max(errors) > 0 else np.inf
    return Ab2Report(list(taus), errors, order)


# -- steady exactness check ---------------------------------------------------------------

def steady_stokes_solve(ctx: FormContext, forcing, dirichlet,
                        gauge: bool | None = None):
    """One steady viscous solve with no drag and no mass term: a
    :class:`StepSolver` solve with a zero mass-type weight.

    Used for the polynomial-exactness patch test: with quadratic velocity and
    linear pressure data the mixed pair reproduces the fields to solver
    precision.
    """
    if gauge is None:
        gauge = set(ctx.mesh.boundary_tags) == {BoundaryTag.DIRICHLET}
    table = Constraints.build(ctx, gauge)
    solver = StepSolver(ctx, assemble_a0(ctx), assemble_b(ctx), table)
    return solver.solve(np.zeros_like(ctx.wxarea),
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
