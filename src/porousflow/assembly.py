"""Element-wise assembly of the velocity/pressure forms.

All element loops are vectorized: local matrices are built for every element
at once.  The constant viscous and divergence forms stay per-element tables,
which :class:`porousflow.saddle.StepSolver` places in the step matrix, and
the loads are summed by ``bincount``; only :func:`assemble_c1`, which no
step calls, still scatters a global matrix, from COO triplets whose
duplicates scipy merges.
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
    FeField,
    QuadTables,
    SpaceDescriptor,
    eval_function,
    pressure_space,
    quad_tables,
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
    """Mesh, spaces, porosity, constants, the mesh's quadrature tables (see
    :func:`porousflow.fem.quad_tables`), the porosity at their points and
    the drag factors there, (nt, nq) each and read-only: ``linear_drag``,
    the linear weight ``mu*phi/K(phi)``, and ``quadratic_drag``, the
    quadratic weight per unit speed, ``rho*F phi/sqrt(K)``.  A porosity
    outside (0, 1] at a quadrature point raises ``ValueError``."""

    mesh: Mesh
    vspace: SpaceDescriptor
    pspace: SpaceDescriptor
    porosity: PorosityField
    params: PhysicalParams

    # shared with the mesh's norms and error norms
    tables: QuadTables = field(init=False, repr=False)
    phi_q: np.ndarray = field(init=False, repr=False)           # (nt, nq)
    linear_drag: np.ndarray = field(init=False, repr=False)     # (nt, nq)
    quadratic_drag: np.ndarray = field(init=False, repr=False)  # (nt, nq)

    def __post_init__(self):
        self.tables = quad_tables(self.mesh)
        self.phi_q = np.asarray(
            self.porosity.value(self.tables.qpoints_flat),
            dtype=float).reshape(self.tables.wxarea.shape)
        self.linear_drag = self.params.mu * linear_drag_coeff(self.phi_q,
                                                              self.params)
        self.quadratic_drag = self.params.rho * forchheimer_coeff(
            self.phi_q, self.params)
        self.linear_drag.flags.writeable = False
        self.quadratic_drag.flags.writeable = False


def make_context(mesh: Mesh, porosity: PorosityField,
                 params: PhysicalParams) -> FormContext:
    return FormContext(mesh, velocity_space(mesh), pressure_space(mesh),
                       porosity, params)


# -- scatter helpers -------------------------------------------------------------

def _scatter_vector(dofs, local, size) -> np.ndarray:
    return np.bincount(dofs.ravel(), weights=local.ravel(), minlength=size)


def _velocity_load(ctx: FormContext, values: np.ndarray) -> np.ndarray:
    """Load vector (v, .) of velocity-valued quadrature-point values
    (nt, nq, 2): one product with the transposed P2 value table."""
    local = (ctx.tables.wxarea[:, :, None] * values).reshape(len(values), -1) \
        @ ctx.tables.p2_table.T                               # (nt, 12)
    return _scatter_vector(ctx.vspace.cell_dofs, local, ctx.vspace.dof_count)


# -- bilinear forms ---------------------------------------------------------------

def viscous_elements(ctx: FormContext) -> np.ndarray:
    """Element matrices of the viscous form 2*mu*(D(u), D(v)), (nt, 12, 12)
    over each triangle's velocity unknowns: mu times the gradient products
    ``D_cd``, the integrals of ``d_d phi_n * d_c phi_m`` over each triangle,
    plus their trace ``D_00 + D_11`` on the same-component blocks.

    ``D_cd`` is the area times one reference tensor of the degree-5 rule
    contracted with the triangle's constant ``grad_lambda`` (Kirby & Logg,
    ACM TOMS 32(3), 2006): one matrix product per component block, with the
    rows and the summation order of the single product that
    ``einsum(..., optimize=True)`` ran for all four blocks at once.
    """
    tables, mesh = ctx.tables, ctx.mesh
    dlam = tables.p2_dlam                                     # (nq, 6, 3)
    ref = np.einsum("q,qnj,qmk->jknm", tables.weights, dlam,
                    dlam).reshape(9, 36)
    gl = mesh.grad_lambda                                     # (nt, 3, 2)
    nt = len(gl)
    x = np.einsum("tjd,t->dtj", gl, mesh.areas)
    rows = np.empty((nt, 3, 3))
    block = np.empty((nt, 36))

    def products(c, d):
        """``D_cd`` (nt, 6, 6), in the one reused block buffer; its rows
        are ``0.0 + x_d[t, j] * grad_lambda[t, k, c]``, as einsum forms
        them."""
        np.multiply(x[d, :, :, None], gl[:, None, :, c], out=rows)
        np.add(rows, 0.0, out=rows)
        return np.dot(rows.reshape(nt, 9), ref, out=block).reshape(nt, 6, 6)

    out = np.empty((nt, 6, 2, 6, 2))
    # the trace is summed as (0.0 + D_00) + D_11, in the (1, 1) block until
    # D_11 is added to it; the cross-component blocks add +0.0, which turns
    # a -0.0 into +0.0 as the zero-filled scalar expansion did
    diag0, diag1 = out[:, :, 0, :, 0], out[:, :, 1, :, 1]
    prod = products(0, 0)
    np.copyto(diag0, prod)
    np.add(prod, 0.0, out=diag1)
    prod = products(1, 1)          # the same buffer, now holding D_11
    diag1 += prod
    diag0 += diag1
    diag1 += prod
    for c, d in ((0, 1), (1, 0)):
        np.add(products(c, d), 0.0, out=out[:, :, c, :, d])
    out *= ctx.params.mu
    return out.reshape(nt, 12, 12)


def divergence_elements(ctx: FormContext) -> np.ndarray:
    """Element matrices of the divergence coupling -(div v, q), (nt, 3, 12)
    from each triangle's velocity unknowns to its pressure unknowns: one
    matrix product of the reference tensor per velocity component, as the
    einsum over both components ran it, negated into its block."""
    tables, mesh = ctx.tables, ctx.mesh
    ref = np.einsum("q,qi,qnj->inj", tables.weights, tables.p1_vals,
                    tables.p2_dlam).transpose(2, 0, 1).reshape(3, 18)
    x = np.einsum("tjc,t->ctj", mesh.grad_lambda, mesh.areas)
    nt = x.shape[1]
    block = np.empty((nt, 18))
    out = np.empty((nt, 3, 6, 2))
    for c in range(2):
        np.dot(x[c], ref, out=block)
        np.negative(block.reshape(nt, 3, 6), out=out[..., c])
    return out.reshape(nt, 3, 12)


def quadratic_drag_weight(theta_at: np.ndarray,
                          ctx: FormContext) -> np.ndarray:
    """Quadrature-point weight rho*F phi/sqrt(K) |theta| of the linearized
    quadratic drag form, from the velocity ``theta``'s values at the
    context's quadrature points, (nt, nq, 2); another shape raises
    ``ValueError``."""
    expected = ctx.quadratic_drag.shape + (2,)
    if np.shape(theta_at) != expected:
        raise ValueError(f"theta values of shape {np.shape(theta_at)}; "
                         f"expected {expected}, one velocity per "
                         "quadrature point")
    speed = np.sqrt(theta_at[..., 0] ** 2 + theta_at[..., 1] ** 2)
    return ctx.quadratic_drag * speed


def assemble_c1(theta_field: FeField, ctx: FormContext) -> sparse.csr_matrix:
    """Linearized quadratic drag rho*(F phi/sqrt(K) |theta| u, v).

    ``theta_field`` is the velocity field whose pointwise magnitude weights
    the form; it must live on ``ctx.vspace``.  No step calls this: a step
    adds the weight to the step solver's mass-type weight, whose
    contraction ``(wxarea * weight) @ p2_products`` gives the element
    matrices here too, placed on both velocity components by one COO.
    """
    if theta_field.space is not ctx.vspace:
        raise ValueError("theta_field must live on the velocity space")
    tables = ctx.tables
    weight = quadratic_drag_weight(tables.at_quad(theta_field), ctx)
    nt = len(weight)
    local = ((tables.wxarea * weight) @ tables.p2_products).reshape(nt, 6, 6)
    dofs = ctx.vspace.cell_dofs.reshape(nt, 6, 2).transpose(2, 0, 1)
    rows, cols, data = np.broadcast_arrays(dofs[..., None], dofs[:, :, None],
                                           local)   # (component, nt, 6, 6)
    n = ctx.vspace.dof_count
    return sparse.coo_matrix((data.ravel(), (rows.ravel(), cols.ravel())),
                             shape=(n, n)).tocsr()


# -- right-hand sides --------------------------------------------------------------

def assemble_load(f, ctx: FormContext, t: float | None = None) -> np.ndarray:
    """Load vector (f(t), v) of an analytic ``f(points [, t])``, which must
    return ``(n, 2)`` finite values; another shape, or a NaN or infinite
    value, raises the ``ValueError`` of :func:`~porousflow.fem.eval_function`
    naming the ``load``."""
    fv = eval_function(f, ctx.tables.qpoints_flat, t, (2,), "load")
    return _velocity_load(ctx, fv.reshape(*ctx.tables.wxarea.shape, 2))


def assemble_mass_phi_rhs(bracket: np.ndarray, ctx: FormContext,
                          scale: float) -> np.ndarray:
    """Time-derivative load of one step: ``scale`` times the load of the
    composed transport ``bracket``, its values (already multiplied by the
    porosity) at the context's flattened quadrature points."""
    return scale * _velocity_load(
        ctx, bracket.reshape(*ctx.tables.wxarea.shape, 2))


def pressure_volume_vector(ctx: FormContext) -> np.ndarray:
    """Integrals of the pressure basis functions, used by the mean gauge."""
    local = np.einsum("tq,qi->ti", ctx.tables.wxarea, ctx.tables.p1_vals)
    return _scatter_vector(ctx.pspace.cell_dofs, local, ctx.pspace.dof_count)

