"""Element-wise assembly of the velocity/pressure forms.

All element loops are vectorized: local matrices are built for every element
at once and scattered into COO triplets, letting scipy merge duplicates.
Coefficient weights (porosity, drag factors, linearized speeds) are evaluated
at the physical quadrature points from the analytic porosity rather than
interpolated, so the only discretization error in the coefficients is the
quadrature itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import eigsh

from porousflow.fem import (
    AnalyticVectorField,
    FeField,
    QuadratureRule,
    SpaceDescriptor,
    _quad_tables,
    boundary_nodes,
    eval_basis,
    pressure_space,
    tri_quadrature,
    velocity_space,
)
from porousflow.mesh import BoundaryTag, Mesh
from porousflow.porous import (
    PhysicalParams,
    PorosityField,
    forchheimer_coeff,
    linear_drag_coeff,
)


@dataclass
class FormContext:
    """Mesh, spaces, porosity, constants, and cached quadrature tables."""

    mesh: Mesh
    vspace: SpaceDescriptor
    pspace: SpaceDescriptor
    porosity: PorosityField
    params: PhysicalParams
    quad: QuadratureRule

    # cached tables, built on construction
    wxarea: np.ndarray = field(init=False, repr=False)     # (nt, nq)
    qpoints: np.ndarray = field(init=False, repr=False)    # (nt, nq, 2)
    qpoints_flat: np.ndarray = field(init=False, repr=False)
    qhints_flat: np.ndarray = field(init=False, repr=False)
    p1_vals: np.ndarray = field(init=False, repr=False)    # (nq, 3)
    p2_vals: np.ndarray = field(init=False, repr=False)    # (nq, 6)
    p2_grad: np.ndarray = field(init=False, repr=False)    # (nt, nq, 6, 2)
    phi_q: np.ndarray = field(init=False, repr=False)      # (nt, nq)
    _mass: sparse.csr_matrix | None = field(init=False, default=None, repr=False)
    _volume: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        self.p1_vals, _ = eval_basis("p1", self.quad.points)
        self.p2_vals, self.p2_grad, self.wxarea, self.qpoints = _quad_tables(
            self.mesh, "p2", self.quad, True)
        nt, nq = self.wxarea.shape
        self.qpoints_flat = self.qpoints.reshape(nt * nq, 2)
        self.qhints_flat = np.repeat(np.arange(nt, dtype=np.int64), nq)
        self.phi_q = np.asarray(self.porosity.value(self.qpoints_flat),
                                dtype=float).reshape(nt, nq)

    def velocity_at_quad(self, f: FeField) -> np.ndarray:
        """Values of a velocity field at all quadrature points, (nt, nq, 2)."""
        coef = f.node_values()[self.vspace.cell_nodes]
        return np.einsum("qn,tnc->tqc", self.p2_vals, coef)

    def l2_norm(self, f: FeField) -> float:
        """L2 norm of a velocity or pressure field on the context's rule,
        from the cached tables (``fem.norm(f, "L2", rule=self.quad)``)."""
        if f.space.mesh is not self.mesh:
            raise ValueError("the field lives on another mesh")
        vals = self.p2_vals if f.space.kind == self.vspace.kind \
            else self.p1_vals
        u = np.einsum("qn,tnc->tqc", vals, f.node_values()[f.space.cell_nodes])
        return float(np.sqrt(np.einsum("tq,tqc->", self.wxarea, u ** 2)))

    def mass_matrix(self) -> sparse.csr_matrix:
        """Unweighted velocity mass matrix (cached)."""
        if self._mass is None:
            self._mass = _vector_mass(self, np.ones_like(self.wxarea))
        return self._mass

    def volume_vector(self) -> np.ndarray:
        """Pressure basis integrals (cached, see
        :func:`pressure_volume_vector`)."""
        if self._volume is None:
            self._volume = pressure_volume_vector(self)
        return self._volume


def make_context(mesh: Mesh, porosity: PorosityField, params: PhysicalParams,
                 quad_degree: int = 5) -> FormContext:
    return FormContext(mesh, velocity_space(mesh), pressure_space(mesh),
                       porosity, params, tri_quadrature(quad_degree))


# -- scatter helpers -------------------------------------------------------------

def _scatter_matrix(rows_dofs, cols_dofs, local, shape) -> sparse.csr_matrix:
    r = np.broadcast_to(rows_dofs[:, :, None], local.shape).ravel()
    c = np.broadcast_to(cols_dofs[:, None, :], local.shape).ravel()
    return sparse.coo_matrix((local.ravel(), (r, c)), shape=shape).tocsr()


def _scatter_vector(dofs, local, size) -> np.ndarray:
    out = np.zeros(size)
    np.add.at(out, dofs.ravel(), local.ravel())
    return out


def _vectorize_scalar_local(s_local: np.ndarray) -> np.ndarray:
    """Expand scalar-node local matrices to both velocity components."""
    nt, nl, _ = s_local.shape
    out = np.zeros((nt, 2 * nl, 2 * nl))
    out[:, 0::2, 0::2] = s_local
    out[:, 1::2, 1::2] = s_local
    return out


def _vector_mass(ctx: FormContext, weight: np.ndarray) -> sparse.csr_matrix:
    """Velocity mass matrix with a per-quadrature-point scalar weight."""
    v = ctx.p2_vals
    s_local = np.einsum("tq,qn,qm->tnm", ctx.wxarea * weight, v, v)
    local = _vectorize_scalar_local(s_local)
    dofs = ctx.vspace.cell_dofs
    n = ctx.vspace.dof_count
    return _scatter_matrix(dofs, dofs, local, (n, n))


# -- bilinear forms ---------------------------------------------------------------

def assemble_a0(ctx: FormContext) -> sparse.csr_matrix:
    """Viscous form 2*mu*(D(u), D(v)) on the velocity space."""
    g = ctx.p2_grad
    wxa = ctx.wxarea
    s = np.einsum("tq,tqnd,tqmd->tnm", wxa, g, g)
    cross = np.einsum("tq,tqnd,tqmc->tncmd", wxa, g, g)
    nt = len(wxa)
    local = ctx.params.mu * (_vectorize_scalar_local(s)
                             + cross.reshape(nt, 12, 12))
    dofs = ctx.vspace.cell_dofs
    n = ctx.vspace.dof_count
    return _scatter_matrix(dofs, dofs, local, (n, n))


def assemble_b(ctx: FormContext) -> sparse.csr_matrix:
    """Divergence coupling -(div v, q), shape (pressure x velocity)."""
    local = -np.einsum("tq,qi,tqnc->tinc", ctx.wxarea, ctx.p1_vals, ctx.p2_grad)
    nt = len(ctx.wxarea)
    local = local.reshape(nt, 3, 12)
    return _scatter_matrix(ctx.pspace.cell_dofs, ctx.vspace.cell_dofs, local,
                           (ctx.pspace.dof_count, ctx.vspace.dof_count))


def linear_drag_weight(ctx: FormContext) -> np.ndarray:
    """Quadrature-point weight mu*phi/K(phi) of the linear drag form."""
    return ctx.params.mu * linear_drag_coeff(ctx.phi_q, ctx.params)


def quadratic_drag_weight(theta_field: FeField,
                          ctx: FormContext) -> np.ndarray:
    """Quadrature-point weight rho*F phi/sqrt(K) |theta| of the linearized
    quadratic drag form."""
    if theta_field.space is not ctx.vspace:
        if theta_field.space.dof_count != ctx.vspace.dof_count:
            raise ValueError("theta_field must live on the velocity space")
    theta = ctx.velocity_at_quad(theta_field)
    speed = np.sqrt((theta ** 2).sum(axis=2))
    return ctx.params.rho * forchheimer_coeff(ctx.phi_q, ctx.params) * speed


def assemble_c0(ctx: FormContext) -> sparse.csr_matrix:
    """Linear drag form mu*(phi/K(phi) u, v)."""
    return _vector_mass(ctx, linear_drag_weight(ctx))


def assemble_c1(theta_field: FeField, ctx: FormContext) -> sparse.csr_matrix:
    """Linearized quadratic drag rho*(F phi/sqrt(K) |theta| u, v).

    ``theta_field`` is the velocity field whose pointwise magnitude weights
    the form (the extrapolated velocity in the general step, the initial
    velocity in the start-up step).
    """
    return _vector_mass(ctx, quadratic_drag_weight(theta_field, ctx))


# -- right-hand sides --------------------------------------------------------------

def assemble_load(f, ctx: FormContext, t: float | None = None) -> np.ndarray:
    """Load vector (f(t), v) with ``f`` analytic or a velocity field."""
    nt, nq = ctx.wxarea.shape
    if isinstance(f, FeField):
        fv = ctx.velocity_at_quad(f)
    else:
        fv = f(ctx.qpoints_flat) if t is None else f(ctx.qpoints_flat, t)
        fv = np.asarray(fv, dtype=float).reshape(nt, nq, 2)
    local = np.einsum("tq,tqc,qn->tnc", ctx.wxarea, fv, ctx.p2_vals)
    return _scatter_vector(ctx.vspace.cell_dofs, local.reshape(nt, 12),
                           ctx.vspace.dof_count)


def assemble_mass_phi_rhs(material_fn: Callable, ctx: FormContext, tau: float,
                          step_kind: str):
    """Time-derivative contributions of one step.

    ``material_fn(points, hints)`` must return the composed transport bracket
    (already multiplied by the porosity at the points).  Returns ``(rhs,
    mass_scale)``: the velocity mass matrix enters the step system times
    ``mass_scale``, ``rho/tau`` at the start-up step and ``3 rho/(2 tau)`` at
    general steps, and the right-hand side carries the matching ``rho/tau``
    or ``rho/(2 tau)`` factor.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    rho = ctx.params.rho
    if step_kind == "initial":
        m_scale, r_scale = rho / tau, rho / tau
    elif step_kind == "general":
        m_scale, r_scale = 1.5 * rho / tau, 0.5 * rho / tau
    else:
        raise ValueError(f"unknown step kind: {step_kind!r}")
    nt, nq = ctx.wxarea.shape
    bracket = np.asarray(material_fn(ctx.qpoints_flat, ctx.qhints_flat),
                         dtype=float).reshape(nt, nq, 2)
    local = np.einsum("tq,tqc,qn->tnc", ctx.wxarea, bracket, ctx.p2_vals)
    rhs = r_scale * _scatter_vector(ctx.vspace.cell_dofs,
                                    local.reshape(nt, 12),
                                    ctx.vspace.dof_count)
    return rhs, m_scale


# -- diagnostics --------------------------------------------------------------------

def trilinear_a1_quadrature(u: AnalyticVectorField, w: AnalyticVectorField,
                            v: AnalyticVectorField, ctx: FormContext) -> float:
    """Quadrature value of the convective form rho*((u . grad) w, v).

    Diagnostic only: the time stepper replaces this form with the composed
    transport term, so it never enters a system matrix.
    """
    pts = ctx.qpoints_flat
    uv = np.asarray(u.value(pts), dtype=float)
    gw = np.asarray(w.grad(pts), dtype=float)          # (n, 2, 2): gw[i, c, d] = d_d w_c
    vv = np.asarray(v.value(pts), dtype=float)
    conv = np.einsum("nd,ncd->nc", uv, gw)
    nt, nq = ctx.wxarea.shape
    integrand = (conv * vv).sum(axis=1).reshape(nt, nq)
    return ctx.params.rho * float(np.einsum("tq,tq->", ctx.wxarea, integrand))


def korn_constant_estimate(ctx: FormContext,
                           tags=(BoundaryTag.DIRICHLET,)) -> float:
    """Lower bound on ||D(u)|| / ||u||_H1 over the constrained velocity space.

    Computed as the square root of the smallest generalized eigenvalue of the
    strain-rate Gram matrix against the H1 Gram matrix, after removing the
    degrees of freedom fixed by the given boundary tags.
    """
    strain = assemble_a0(ctx) / (2.0 * ctx.params.mu)
    grad_gram = _vector_gradient_gram(ctx)
    h1 = ctx.mass_matrix() + grad_gram
    fixed_nodes = boundary_nodes(ctx.vspace, set(tags))
    fixed = np.concatenate([2 * fixed_nodes, 2 * fixed_nodes + 1]) \
        if len(fixed_nodes) else np.array([], dtype=np.int64)
    if fixed.size == 0:
        raise ValueError("the constrained space needs at least one fixed node")
    free = np.setdiff1d(np.arange(ctx.vspace.dof_count), fixed)
    k_ff = strain[np.ix_(free, free)].tocsc()
    h_ff = h1[np.ix_(free, free)].tocsc()
    lam = eigsh(k_ff, k=1, M=h_ff, sigma=0, which="LM",
                return_eigenvectors=False)
    lam_min = float(lam[0])
    if lam_min <= 0.0:
        raise RuntimeError("strain-rate Gram matrix is not positive definite "
                           "on the constrained space")
    return float(np.sqrt(lam_min))


def _vector_gradient_gram(ctx: FormContext) -> sparse.csr_matrix:
    g = ctx.p2_grad
    s = np.einsum("tq,tqnd,tqmd->tnm", ctx.wxarea, g, g)
    local = _vectorize_scalar_local(s)
    dofs = ctx.vspace.cell_dofs
    n = ctx.vspace.dof_count
    return _scatter_matrix(dofs, dofs, local, (n, n))


def pressure_volume_vector(ctx: FormContext) -> np.ndarray:
    """Integrals of the pressure basis functions, used by the mean gauge."""
    local = np.einsum("tq,qi->ti", ctx.wxarea, ctx.p1_vals)
    return _scatter_vector(ctx.pspace.cell_dofs, local, ctx.pspace.dof_count)


def dump_matrix(mat: sparse.spmatrix, path) -> None:
    """Write a sparse matrix in MatrixMarket coordinate format."""
    from scipy.io import mmwrite
    mmwrite(str(path), sparse.coo_matrix(mat))
