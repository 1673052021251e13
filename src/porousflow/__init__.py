"""Finite element solver for non-stationary flow in non-homogeneous porous media.

The package couples a Taylor-Hood (P2/P1) mixed discretization with a
characteristics-based, two-step time integrator for the macroscopic
momentum balance of a fluid moving through a medium of spatially varying
porosity.  Drag from the pore structure enters through Ergun-type linear
and quadratic resistance terms.
"""

from porousflow.mesh import (
    LayerGrading,
    Mesh,
    boundary_exit_point,
    generate_rect_mesh,
)
from porousflow.fem import (
    AnalyticVectorField,
    FeField,
    QuadratureRule,
    edge_quadrature,
    error_norm,
    eval_basis,
    eval_field_many,
    interpolate,
    norm,
    pressure_space,
    tri_quadrature,
    velocity_space,
)
from porousflow.porous import (
    PhysicalParams,
    PorosityField,
    builtin_porosity,
    forchheimer_coeff,
    linear_drag_coeff,
    validate_porosity_admissibility,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticVectorField",
    "FeField",
    "LayerGrading",
    "Mesh",
    "PhysicalParams",
    "PorosityField",
    "QuadratureRule",
    "boundary_exit_point",
    "builtin_porosity",
    "edge_quadrature",
    "error_norm",
    "eval_basis",
    "eval_field_many",
    "forchheimer_coeff",
    "generate_rect_mesh",
    "interpolate",
    "linear_drag_coeff",
    "norm",
    "pressure_space",
    "tri_quadrature",
    "validate_porosity_admissibility",
    "velocity_space",
]
