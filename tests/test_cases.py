import math

import numpy as np
import pytest

from porousflow import cases as case_lib
from porousflow.mesh import BoundaryTag


def test_two_layer_initial_profile_values():
    case = case_lib.get_case("two-layer")
    u0 = case.u_initial(np.array([[0.0, 0.5], [1.0, 0.3], [2.5, 0.8]]))
    assert u0[0] == pytest.approx([0.25, 0.0], abs=1e-14)
    assert u0[1] == pytest.approx([0.0, 0.0], abs=0.0)  # window closed
    assert u0[2] == pytest.approx([0.0, 0.0], abs=0.0)


def test_sinusoidal_initial_profile_value():
    case = case_lib.get_case("sinusoidal")
    u0 = case.u_initial(np.array([[0.0, math.pi / 2]]))
    assert u0[0, 0] == pytest.approx(0.01 * math.pi ** 2 / 4.0, rel=1e-12)
    assert u0[0, 0] == pytest.approx(0.02467, abs=2e-5)
    assert u0[0, 1] == 0.0


def test_inflow_window_continuous_at_cutoff():
    left = case_lib.inflow_window(np.array([0.5 - 1e-12]))[0]
    right = case_lib.inflow_window(np.array([0.5 + 1e-12]))[0]
    assert abs(left - right) < 1e-11
    assert case_lib.inflow_window(np.array([0.5]))[0] == pytest.approx(0.0, abs=1e-15)


def test_boundary_tags_cover_and_split():
    case = case_lib.get_case("two-layer")
    mesh = case_lib.build_case_mesh(case, n=12)
    outflow = np.flatnonzero(mesh.boundary_tags == BoundaryTag.STRESS_FREE)
    n_outflow = len(outflow)
    n_wall = len(np.flatnonzero(mesh.boundary_tags == BoundaryTag.DIRICHLET))
    assert n_outflow > 0
    assert n_outflow + n_wall == len(mesh.boundary_edges)
    # the outflow edges are exactly the right edge
    for e in outflow:
        a, b = mesh.boundary_edges[e]
        assert mesh.vertices[a][0] == pytest.approx(3.0)
        assert mesh.vertices[b][0] == pytest.approx(3.0)


def test_initial_data_matches_dirichlet_trace():
    for name in case_lib.case_names():
        case = case_lib.get_case(name)
        mesh, _, setup = case_lib.build_setup(case, n=12)
        wall = [mesh.boundary_edges[e]
                for e in np.flatnonzero(
                    mesh.boundary_tags == BoundaryTag.DIRICHLET)]
        pts = mesh.vertices[np.unique(np.concatenate(wall))]
        assert setup.dirichlet(pts, 0.0) == pytest.approx(case.u_initial(pts))


def test_zero_cells_is_not_the_default():
    # only None selects the case's default_n
    case = case_lib.get_case("two-layer")
    with pytest.raises(ValueError, match="n_divisions must be at least 2"):
        case_lib.build_case_mesh(case, 0)
    with pytest.raises(ValueError, match="n_divisions must be at least 2"):
        case_lib.build_setup(case, 0)


def test_default_time_step_is_nominal_cell_size():
    case = case_lib.get_case("two-layer")
    assert case.nominal_h() == pytest.approx(3.0 / 120.0)
    assert case.nominal_h(60) == pytest.approx(0.05)
    sin_case = case_lib.get_case("sinusoidal")
    assert sin_case.nominal_h() == pytest.approx(3.0 * math.pi / 300.0)


@pytest.mark.parametrize("n", [0, -3, 1])
def test_nominal_h_rejects_fewer_than_two_cells(n):
    # 2 is the coarsest mesh generate_rect_mesh builds
    case = case_lib.get_case("two-layer")
    with pytest.raises(ValueError, match=f"^n must be at least 2, got {n}$"):
        case.nominal_h(n)


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        case_lib.get_case("karst")
