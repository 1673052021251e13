"""Diagnostic forms that only the tests evaluate.

The convective trilinear form, which the time stepper replaces by the
composed transport term, a Korn-constant estimate on the constrained
velocity space, the unweighted velocity mass matrix and linear drag form,
which the step solver folds into one quadrature-point weight, and the
per-triangle gradient products by the five-operand einsum that the viscous
element table once used.
"""

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import eigsh

from porousflow.assembly import FormContext
from porousflow.fem import AnalyticVectorField
from porousflow.saddle import Constraints
from reference_solve import (
    _scatter_matrix,
    _vector_mass,
    _vectorize_scalar_local,
    assemble_a0,
)


def gradient_products(ctx: FormContext) -> np.ndarray:
    """Integrals of ``d_d phi_n * d_c phi_m`` over each triangle ``t``,
    (nt, 6, 2, 6, 2) indexed ``(t, n, c, m, d)``: the area times one reference
    tensor of the degree-5 rule contracted with the triangle's constant
    ``grad_lambda`` (Kirby & Logg, ACM TOMS 32(3), 2006)."""
    tables = ctx.tables
    d = tables.p2_dlam                                        # (nq, 6, 3)
    ref = np.einsum("q,qnj,qmk->jknm", tables.weights, d, d)
    return np.einsum("t,jknm,tjd,tkc->tncmd", ctx.mesh.areas, ref,
                     ctx.mesh.grad_lambda, ctx.mesh.grad_lambda, optimize=True)


def trilinear_a1_quadrature(u: AnalyticVectorField, w: AnalyticVectorField,
                            v: AnalyticVectorField, ctx: FormContext) -> float:
    """Quadrature value of the convective form rho*((u . grad) w, v)."""
    pts = ctx.tables.qpoints_flat
    uv = np.asarray(u.value(pts), dtype=float)
    gw = np.asarray(w.grad(pts), dtype=float)          # (n, 2, 2): gw[i, c, d] = d_d w_c
    vv = np.asarray(v.value(pts), dtype=float)
    conv = np.einsum("nd,ncd->nc", uv, gw)
    wxa = ctx.tables.wxarea
    integrand = (conv * vv).sum(axis=1).reshape(wxa.shape)
    return ctx.params.rho * float(np.einsum("tq,tq->", wxa, integrand))


def korn_constant_estimate(ctx: FormContext) -> float:
    """Lower bound on ||D(u)|| / ||u||_H1 over the constrained velocity space.

    Computed as the square root of the smallest generalized eigenvalue of the
    strain-rate Gram matrix against the H1 Gram matrix, after removing the
    Dirichlet unknowns of the boundary's constraint table.
    """
    strain = assemble_a0(ctx) / (2.0 * ctx.params.mu)
    h1 = mass_matrix(ctx) + vector_gradient_gram(ctx)
    fixed = Constraints.build(ctx).fixed
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


def vector_gradient_gram(ctx: FormContext) -> sparse.csr_matrix:
    """Gram matrix of the velocity gradients, (grad u, grad v)."""
    s = np.einsum("tncmc->tnm", gradient_products(ctx))
    local = _vectorize_scalar_local(s)
    dofs = ctx.vspace.cell_dofs
    n = ctx.vspace.dof_count
    return _scatter_matrix(dofs, dofs, local, (n, n))


def mass_matrix(ctx: FormContext) -> sparse.csr_matrix:
    """Unweighted velocity mass matrix."""
    return _vector_mass(ctx, np.ones_like(ctx.tables.wxarea))


def assemble_c0(ctx: FormContext) -> sparse.csr_matrix:
    """Linear drag form mu*(phi/K(phi) u, v)."""
    return _vector_mass(ctx, ctx.linear_drag)
