"""Composed transport terms of the time stepper along the characteristics.

The integrator follows the characteristics of the average velocity ``w =
u/phi``.  At a quadrature point ``x`` the upwind foot is ``x - w*(x) tau``
for ``w* = theta/phi``, from the values ``theta_at`` at the points of the
velocity the scheme also linearizes the drag around (the initial velocity,
then the extrapolation ``2 u_prev - u_prev2``); previous velocity fields are
evaluated there by finite element interpolation, dividing by the analytic
porosity at the evaluation point.  All feet of a batch of points are handled
together: one point location, one boundary-exit call, one field evaluation
and one porosity evaluation per foot set.  A step's bracket takes one foot
set per history field: the start-up step its ``tau`` feet, a general step
also its ``2 tau`` feet, which lie twice as far along the same direction.
The porosity at the points themselves is the caller's ``phi_at``; the
scheme passes the form context's table of it at the quadrature points, so
no step evaluates it again.

Feet that leave the domain are clamped to the first boundary intersection of
the backtracking segment.  When that crossing is through a Dirichlet edge the
prescribed boundary velocity replaces the interior field, otherwise the field
is evaluated at the clamped point itself.  So every history field comes with
its Dirichlet data, a function of the points, read at each foot that leaves
through a Dirichlet edge; there is no fallback to the interior field there,
and a missing data function fails at the first such exit.
"""

from __future__ import annotations

import numpy as np

from porousflow.fem import FeField, eval_field_many, eval_function
from porousflow.mesh import boundary_exit_point, locate_many
from porousflow.porous import PorosityField


def _composed_average_velocity(points, field: FeField, porosity: PorosityField,
                               advect, tau: float, g):
    """(field/phi) at the upwind feet of many points, with the Dirichlet
    data ``g`` at the feet clamped on a Dirichlet edge; returns the values
    and the number of clamped feet."""
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
        on_dirichlet = outside[mesh.boundary_dirichlet[hit.edges]]
    vals = eval_field_many(field, tri, bary)
    if on_dirichlet.size:
        vals[on_dirichlet] = eval_function(g, feet[on_dirichlet], None, (2,),
                                           "Dirichlet data")
    return vals / np.asarray(porosity.value(feet))[:, None], len(outside)


def material_terms(history, porosity: PorosityField, tau: float, points,
                   theta_at, phi_at):
    """Known part of a step's material-derivative bracket at many points.

    ``history`` holds one ``(field, m, c, g)`` entry per previous velocity:
    its field, foot multiple, bracket coefficient and Dirichlet data.  Every
    entry carries its data, read at each foot that leaves through a
    Dirichlet edge.  Returns ``phi(x) * sum c (field/phi o X1(w*, m tau))(x)``
    and the total of clamped feet, where ``w* = theta/phi`` is evaluated at
    the points themselves from the linearization velocity's values there,
    ``theta_at`` (m, 2), and the porosity there, ``phi_at`` (m,).  The sum
    starts from its first term, as ``0.0 + (-0.0)`` is ``+0.0``; so the
    coefficients ``(1,)`` give ``w1`` and ``(4, -1)`` give ``4 w1 - w2`` bit
    for bit.
    """
    w_star = theta_at / phi_at[:, None]
    total, clamped = None, 0
    for field, m, c, g in history:
        w, n = _composed_average_velocity(points, field, porosity, w_star,
                                          m * tau, g)
        total = c * w if total is None else total + c * w
        clamped += n
    return phi_at[:, None] * total, clamped
