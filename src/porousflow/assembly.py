"""Element-wise assembly of the velocity/pressure forms.

All element loops are vectorized: local matrices are built for every element
at once.  The constant viscous and divergence forms stay per-element tables,
which :class:`porousflow.saddle.StepSolver` places in the step matrix; the
other forms are scattered into COO triplets, letting scipy merge
duplicates.
Coefficient weights (porosity, drag factors, linearized speeds) are evaluated
at the physical quadrature points from the analytic porosity rather than
interpolated, so the only discretization error in the coefficients is the
quadrature itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from porousflow.fem import (
    P2_VECTOR,
    FeField,
    QuadratureRule,
    QuadTables,
    SpaceDescriptor,
    eval_basis,
    pressure_space,
    quad_tables,
    tri_quadrature,
    velocity_space,
)
from porousflow.mesh import Mesh
from porousflow.porous import (
    PhysicalParams,
    PorosityField,
    forchheimer_coeff,
    linear_drag_coeff,
)


@dataclass
class FormContext:
    """Mesh, spaces, porosity, constants, and the mesh's quadrature tables
    of the context's rule (see :func:`porousflow.fem.quad_tables`)."""

    mesh: Mesh
    vspace: SpaceDescriptor
    pspace: SpaceDescriptor
    porosity: PorosityField
    params: PhysicalParams
    quad: QuadratureRule

    # tables of the rule, shared with the mesh's norms and error norms
    tables: QuadTables = field(init=False, repr=False)
    wxarea: np.ndarray = field(init=False, repr=False)     # (nt, nq)
    qpoints: np.ndarray = field(init=False, repr=False)    # (nt, nq, 2)
    qpoints_flat: np.ndarray = field(init=False, repr=False)
    p1_vals: np.ndarray = field(init=False, repr=False)    # (nq, 3)
    p2_vals: np.ndarray = field(init=False, repr=False)    # (nq, 6)
    phi_q: np.ndarray = field(init=False, repr=False)      # (nt, nq)
    _volume: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        self.tables = quad_tables(self.mesh, self.quad)
        self.wxarea, self.qpoints = self.tables.wxarea, self.tables.qpoints
        self.p1_vals, self.p2_vals = self.tables.p1_vals, self.tables.p2_vals
        nt, nq = self.wxarea.shape
        self.qpoints_flat = self.qpoints.reshape(nt * nq, 2)
        self.phi_q = np.asarray(self.porosity.value(self.qpoints_flat),
                                dtype=float).reshape(nt, nq)

    def velocity_at_quad(self, f: FeField) -> np.ndarray:
        """Values of a velocity field at all quadrature points, (nt, nq, 2)."""
        return self.tables.at_quad(f)

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
    return np.bincount(dofs.ravel(), weights=local.ravel(), minlength=size)


def _velocity_load(ctx: FormContext, values: np.ndarray) -> np.ndarray:
    """Load vector (v, .) of velocity-valued quadrature-point values
    (nt, nq, 2): one product with the transposed P2 value table."""
    local = (ctx.wxarea[:, :, None] * values).reshape(len(values), -1) \
        @ ctx.tables.p2_table.T                               # (nt, 12)
    return _scatter_vector(ctx.vspace.cell_dofs, local, ctx.vspace.dof_count)


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

def _gradient_products(ctx: FormContext) -> np.ndarray:
    """Integrals of ``d_d phi_n * d_c phi_m`` over each triangle ``t``,
    (nt, 6, 2, 6, 2) indexed ``(t, n, c, m, d)``: the area times one reference
    tensor of the context's rule contracted with the triangle's constant
    ``grad_lambda`` (Kirby & Logg, ACM TOMS 32(3), 2006)."""
    d = eval_basis(P2_VECTOR, ctx.quad.points)[1]             # (nq, 6, 3)
    ref = np.einsum("q,qnj,qmk->jknm", ctx.quad.weights, d, d)
    return np.einsum("t,jknm,tjd,tkc->tncmd", ctx.mesh.areas, ref,
                     ctx.mesh.grad_lambda, ctx.mesh.grad_lambda, optimize=True)


def viscous_elements(ctx: FormContext) -> np.ndarray:
    """Element matrices of the viscous form 2*mu*(D(u), D(v)), (nt, 12, 12)
    over each triangle's velocity unknowns."""
    cross = _gradient_products(ctx)
    s = np.einsum("tncmc->tnm", cross)
    return ctx.params.mu * (_vectorize_scalar_local(s)
                            + cross.reshape(-1, 12, 12))


def divergence_elements(ctx: FormContext) -> np.ndarray:
    """Element matrices of the divergence coupling -(div v, q), (nt, 3, 12)
    from each triangle's velocity unknowns to its pressure unknowns."""
    d = eval_basis(P2_VECTOR, ctx.quad.points)[1]
    ref = np.einsum("q,qi,qnj->inj", ctx.quad.weights, ctx.p1_vals, d)
    local = -np.einsum("t,inj,tjc->tinc", ctx.mesh.areas, ref,
                       ctx.mesh.grad_lambda, optimize=True)
    return local.reshape(-1, 3, 12)


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
    speed = np.sqrt(theta[..., 0] ** 2 + theta[..., 1] ** 2)
    return ctx.params.rho * forchheimer_coeff(ctx.phi_q, ctx.params) * speed


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
    return _velocity_load(ctx, fv)


def assemble_mass_phi_rhs(bracket: np.ndarray, ctx: FormContext,
                          scale: float) -> np.ndarray:
    """Time-derivative load of one step: ``scale`` times the load of the
    composed transport ``bracket``, its values (already multiplied by the
    porosity) at the context's flattened quadrature points."""
    nt, nq = ctx.wxarea.shape
    return scale * _velocity_load(ctx, bracket.reshape(nt, nq, 2))


def pressure_volume_vector(ctx: FormContext) -> np.ndarray:
    """Integrals of the pressure basis functions, used by the mean gauge."""
    local = np.einsum("tq,qi->ti", ctx.wxarea, ctx.p1_vals)
    return _scatter_vector(ctx.pspace.cell_dofs, local, ctx.pspace.dof_count)

