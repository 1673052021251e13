"""Composed transport terms of the time stepper along the characteristics.

The integrator follows the characteristics of the average velocity ``w =
u/phi``.  At a quadrature point ``x`` the upwind foot is ``x - w*(x) tau``
for ``w* = theta/phi``, from the values ``theta_at`` at the points of the
velocity the scheme also linearizes the drag around (the initial velocity,
then the extrapolation ``2 u_prev - u_prev2``); previous velocity fields are
evaluated there by finite element interpolation, dividing by the analytic
porosity at the evaluation point.  All feet of a batch of points are handled
together: one point location, one boundary-exit call, one field evaluation
and one porosity evaluation per foot set.  The two-step bracket does this
twice, for the ``tau`` feet and for the ``2 tau`` feet, which lie twice as
far along the same direction.  The porosity at the points themselves is the
caller's ``phi_at``; the scheme passes the form context's table of it at the
quadrature points, so no step evaluates it again.

Feet that leave the domain are clamped to the first boundary intersection of
the backtracking segment.  When that crossing is through a Dirichlet edge the
prescribed boundary velocity replaces the interior field, otherwise the field
is evaluated at the clamped point itself.
"""

from __future__ import annotations

import numpy as np

from porousflow.fem import FeField, eval_field_many, eval_function
from porousflow.mesh import boundary_exit_point, locate_many
from porousflow.porous import PorosityField


def _composed_average_velocity(points, field: FeField, porosity: PorosityField,
                               advect, tau: float, g=None):
    """(field/phi) at the upwind feet of many points; returns the values and
    the number of clamped feet."""
    mesh = field.space.mesh
    # F-ordered, so that point location reads x and y as they are
    feet = np.subtract(points, tau * advect, order="F")
    tri, bary, inside = locate_many(mesh, feet)
    outside = np.flatnonzero(~inside)
    on_dirichlet = outside[:0]
    if outside.size:
        hit = boundary_exit_point(mesh, points[outside], feet[outside])
        feet[outside] = hit.points
        tri[outside] = mesh.boundary_edge_tri[hit.edges]
        bary[outside] = mesh.barycentric(tri[outside], hit.points)
        if g is not None:
            on_dirichlet = outside[mesh.boundary_dirichlet[hit.edges]]
    vals = eval_field_many(field, tri, bary)
    if on_dirichlet.size:
        vals[on_dirichlet] = eval_function(g, feet[on_dirichlet], None, (2,),
                                           "Dirichlet data")
    return vals / np.asarray(porosity.value(feet))[:, None], len(outside)


def ab2_material_terms(u_prev: FeField, u_prev2: FeField,
                       porosity: PorosityField, tau: float, points,
                       theta_at, phi_at, g_prev=None, g_prev2=None):
    """Known part of the two-step material-derivative bracket at many points.

    Returns ``phi(x) * [4 (w_prev o X1(w*, tau))(x) - (w_prev2 o X1(w*,
    2 tau))(x)]`` and the clamped-feet count, where ``w* = theta/phi`` is
    evaluated at the points themselves from the extrapolated velocity's
    values there, ``theta_at`` (m, 2), the values of ``2 u_prev - u_prev2``,
    and the porosity there, ``phi_at`` (m,).
    """
    w_star = theta_at / phi_at[:, None]
    w1, c1 = _composed_average_velocity(points, u_prev, porosity, w_star,
                                        tau, g_prev)
    w2, c2 = _composed_average_velocity(points, u_prev2, porosity, w_star,
                                        2.0 * tau, g_prev2)
    return phi_at[:, None] * (4.0 * w1 - w2), c1 + c2


def lg1_material_terms(u0: FeField, porosity: PorosityField, tau: float,
                       points, theta_at, phi_at, g0=None):
    """First-order composed term ``phi(x) * (w0 o X1(w0, tau))(x)`` at many
    points, with ``w0 = theta/phi`` from the values ``theta_at`` (m, 2) of
    ``u0`` there and the porosity ``phi_at`` there; used only for the
    start-up step."""
    w, clamped = _composed_average_velocity(points, u0, porosity,
                                            theta_at / phi_at[:, None], tau,
                                            g0)
    return phi_at[:, None] * w, clamped
