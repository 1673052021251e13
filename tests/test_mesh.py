import math

import numpy as np
import pytest

from porousflow.mesh import (
    SIDES,
    BoundaryTag,
    LayerGrading,
    Mesh,
    _graded_interval,
    boundary_exit_point,
    generate_rect_mesh,
    locate_many,
)
from test_kernel_references import exhaustive_reference


def test_structured_counts_and_hmax():
    m = generate_rect_mesh((0.0, math.pi), (0.0, math.pi), 4)
    assert m.n_triangles == 32
    edges = m.vertices[m.triangles[:, [1, 2, 0]]] - m.vertices[m.triangles]
    h_max = np.sqrt((edges ** 2).sum(-1)).max()
    assert h_max == pytest.approx(math.sqrt(2.0) * math.pi / 4.0, rel=1e-14)


def test_area_tiling_unit_square():
    m = generate_rect_mesh((0.0, 1.0), (0.0, 1.0), 2)
    assert m.areas.sum() == pytest.approx(1.0, abs=1e-12)
    assert (m.areas > 0.0).all()


def test_rectangle_aspect_gives_square_cells():
    m = generate_rect_mesh((0.0, 3.0), (0.0, 1.0), 120)
    assert m.n_triangles == 2 * 120 * 40
    assert m.areas.sum() == pytest.approx(3.0, rel=1e-12)


def test_graded_layer_reaches_target_size():
    m = generate_rect_mesh((0.0, 3.0), (0.0, 1.0), 120,
                           grading=LayerGrading(0.5, 1.0 / 720.0))
    ys = np.unique(m.vertices[:, 1])
    gaps = np.diff(ys)
    near = np.abs(0.5 * (ys[:-1] + ys[1:]) - 0.5) < 0.01
    local_min = gaps[near].min()
    assert 1.0 / 1440.0 <= local_min <= 1.0 / 360.0
    assert 0.5 in ys  # the layer line is a mesh line


def test_graded_and_uniform_share_total_area():
    graded = generate_rect_mesh((0.0, 3.0), (0.0, 1.0), 24,
                                grading=LayerGrading(0.5, 1.0 / 720.0))
    uniform = generate_rect_mesh((0.0, 3.0), (0.0, 1.0), 24)
    assert graded.areas.sum() == pytest.approx(uniform.areas.sum(),
                                               rel=1e-12)


@pytest.mark.parametrize("size", [0.0, -0.01, math.inf, math.nan])
def test_layer_grading_rejects_size_not_positive_and_finite(size):
    with pytest.raises(ValueError, match="^grading size must be positive "
                                         f"and finite, got {size}$"):
        LayerGrading(0.5, size)


@pytest.mark.parametrize("size, reason", [
    (1e-300, "fill 0.5 with 2 geometrically growing intervals"),
    (1e-30, "separate the grid lines at 0.5"),
])
def test_layer_grading_rejects_size_too_small_for_its_mesh(size, reason):
    # below 1e-200 no growth factor fills a side of the layer without
    # overflowing; below the spacing of floats at the line, the first grid
    # line off it is the line itself
    with pytest.raises(ValueError, match=f"^grading size {size} is too "
                                         f"small to {reason}$"):
        generate_rect_mesh((0.0, 3.0), (0.0, 1.0), 12,
                           grading=LayerGrading(0.5, size))


@pytest.mark.parametrize("length, size", [
    (0.25, 1e-300), (0.5, 1.0 / 720.0), (0.7, 0.01), (0.7, 0.3), (0.7, 5.0),
])
def test_graded_side_of_one_interval_is_the_side(length, size):
    # one interval has the same size whatever the growth ratio, so no ratio
    # is searched for: the side comes back exactly, not size * (length / size)
    assert _graded_interval(length, 1, size).tolist() == [length]


def test_one_row_side_of_a_graded_layer_stays_whole():
    m = generate_rect_mesh((0.0, 1.0), (0.0, 0.5), 4,
                           grading=LayerGrading(0.25, 0.01))
    assert m.ys.tolist() == [0.0, 0.25, 0.5]
    # two-layer at n = 8: two rows below the layer line, one above
    m = generate_rect_mesh((0.0, 3.0), (0.0, 1.0), 8,
                           grading=LayerGrading(0.5, 1.0 / 720.0))
    assert len(m.ys) == 4
    assert m.ys[1] == pytest.approx(0.4986, abs=1e-4)
    assert m.ys[2:].tolist() == [0.5, 1.0]


def test_degenerate_extent_rejected():
    with pytest.raises(ValueError):
        generate_rect_mesh((0.0, 0.0), (0.0, 1.0), 4)
    with pytest.raises(ValueError):
        generate_rect_mesh((0.0, 1.0), (0.0, 1.0), 1)


@pytest.mark.parametrize("xs, ys", [([0.0], [0.0, 1.0]),
                                    ([0.0, 1.0, 0.5], [0.0, 1.0]),
                                    ([0.0, 1.0], [0.0, 0.0, 1.0]),
                                    ([0.0, 1.0], [0.0, np.nan])])
def test_mesh_rejects_grid_lines_that_do_not_increase(xs, ys):
    with pytest.raises(ValueError, match="grid lines"):
        Mesh(xs, ys)


def test_locate_centroid(unit_mesh):
    centroid = unit_mesh.vertices[unit_mesh.triangles[0]].mean(axis=0)
    tri, bary, inside = locate_many(unit_mesh, centroid[None])
    assert inside[0] and tri[0] == 0
    assert bary[0] == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-12)


def test_locate_outside_returns_none(unit_mesh):
    for x in ((-0.1, 0.5), (0.5, 1.5)):
        tri, _, inside = locate_many(unit_mesh, np.array([x]))
        assert not inside[0] and tri[0] == -1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_locate_non_finite_points_are_outside(unit_mesh, bad):
    # quietly: the suite raises every RuntimeWarning as an error
    pts = np.array([[bad, 0.5], [0.5, bad], [bad, bad], [0.5, 0.5]])
    tri, bary, inside = locate_many(unit_mesh, pts)
    assert list(inside) == [False, False, False, True]
    assert (tri[:3] == -1).all() and (bary[:3] == 0.0).all()


def test_locate_hint_agrees_with_exhaustive(rng):
    mesh = generate_rect_mesh((0.0, 3.0), (0.0, 1.0), 12,
                              grading=LayerGrading(0.5, 0.01))
    pts = np.column_stack([rng.uniform(0, 3, 1000), rng.uniform(0, 1, 1000)])
    tri_w, bary_w, inside_w = locate_many(mesh, pts)
    assert inside_w.all()
    for i in range(0, 1000, 37):
        t_e, b_e = exhaustive_reference(mesh, pts[i])
        got = mesh.barycentric(np.array([tri_w[i]]), pts[i][None])[0]
        assert got.min() >= -1e-12
        # both candidates contain the point; interior points are unambiguous
        assert tri_w[i] == t_e or b_e.min() <= 1e-12


def test_quadrature_points_locate_home():
    from porousflow.fem import tri_quadrature
    mesh = generate_rect_mesh((0.0, 3.0), (0.0, 1.0), 10,
                              grading=LayerGrading(0.5, 0.02))
    rule = tri_quadrature(5)
    pts = np.einsum("qi,tid->tqd", rule.points,
                    mesh.vertices[mesh.triangles])
    nt, nq = pts.shape[:2]
    flat = pts.reshape(nt * nq, 2)
    tri, bary, inside = locate_many(mesh, flat)
    assert inside.all()
    assert (tri == np.repeat(np.arange(nt), nq)).all()


def test_boundary_edges_count_and_tags():
    tagged = generate_rect_mesh((0.0, 3.0), (0.0, 1.0), 6,
                                stress_free=("right",))
    nx, ny = 6, 2
    assert len(tagged.boundary_edges) == 2 * (nx + ny)
    right = np.flatnonzero(tagged.boundary_tags == BoundaryTag.STRESS_FREE)
    assert len(right) == ny
    assert len(np.flatnonzero(tagged.boundary_tags == BoundaryTag.DIRICHLET)) \
        == 2 * (nx + ny) - ny


@pytest.mark.parametrize("side, axis, line", [("left", 0, -1.0),
                                              ("right", 0, 2.0),
                                              ("bottom", 1, 0.5),
                                              ("top", 1, 2.0)])
def test_stress_free_side_is_that_side(side, axis, line):
    # exactly the edges with both ends on the named side's line
    mesh = generate_rect_mesh((-1.0, 2.0), (0.5, 2.0), 6, stress_free=(side,))
    ends = mesh.vertices[mesh.boundary_edges]
    on_line = (ends[:, :, axis] == line).all(axis=1)
    assert on_line.sum() == len((mesh.ys, mesh.xs)[axis]) - 1
    assert np.array_equal(mesh.boundary_tags == BoundaryTag.STRESS_FREE,
                          on_line)


@pytest.mark.parametrize("stress_free", [("east",),
                                         (BoundaryTag.STRESS_FREE,), "right"],
                         ids=["unknown-side", "tag", "bare-string"])
def test_stress_free_must_name_sides(stress_free):
    # a bare string is rejected too, rather than read as its letters
    with pytest.raises(ValueError) as info:
        generate_rect_mesh((0.0, 1.0), (0.0, 1.0), 4, stress_free=stress_free)
    assert str(info.value) == (
        f"stress_free must name sides among {SIDES}, got {stress_free!r}")


def test_boundary_exit_left_edge():
    mesh = generate_rect_mesh((0.0, 3.0), (0.0, 1.0), 6)
    hit = boundary_exit_point(mesh, [(0.05, 0.5)], [(-0.05, 0.5)])
    assert hit.points[0] == pytest.approx([0.0, 0.5], abs=1e-12)
    assert hit.tags[0] is BoundaryTag.DIRICHLET


def test_boundary_exit_top_edge():
    mesh = generate_rect_mesh((0.0, 1.0), (0.0, 1.0), 4)
    hit = boundary_exit_point(mesh, [(0.5, 0.5)], [(0.5, 1.5)])
    assert hit.points[0] == pytest.approx([0.5, 1.0], abs=1e-12)


def test_boundary_exit_degenerate_segment(unit_mesh):
    with pytest.raises(ValueError, match="degenerate"):
        boundary_exit_point(unit_mesh, [(0.2, 0.2), (0.5, 0.5)],
                            [(-1.0, 0.2), (0.5, 0.5)])


def test_boundary_exit_needs_a_crossing(unit_mesh):
    with pytest.raises(ValueError, match="does not cross"):
        boundary_exit_point(unit_mesh, [(0.2, 0.2), (0.5, 0.5)],
                            [(-1.0, 0.2), (0.6, 0.5)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 0), (1, 1)],
                         ids=["start-x", "start-y", "end-x", "end-y"])
def test_boundary_exit_rejects_non_finite_segments(unit_mesh, bad, where):
    # the second and third rows are bad, so the count and the first row show
    rows = np.array([[[0.5, 0.5], [1.5, 0.5]]] * 4)
    rows[1:3, where[0], where[1]] = bad
    with pytest.raises(ValueError) as info:
        boundary_exit_point(unit_mesh, rows[:, 0], rows[:, 1])
    assert str(info.value) == (
        f"segment start or end not finite in 2 of 4 rows, first row 1: "
        f"{rows[1, 0]} to {rows[1, 1]}")


def test_boundary_exit_point_stays_in_domain(unit_mesh, rng):
    inside = rng.uniform(0.05, 0.95, (50, 2))
    outside = inside + rng.normal(0, 2.0, (50, 2))
    out = ~locate_many(unit_mesh, outside)[2]
    hit = boundary_exit_point(unit_mesh, inside[out], outside[out])
    assert len(hit.points) == out.sum() > 0
    assert locate_many(unit_mesh, hit.points)[2].all()


def test_mesh_vtk_export(unit_mesh, tmp_path):
    from porousflow.fem import pressure_space, velocity_space, zero_field
    from porousflow.porous import builtin_porosity
    from porousflow.vtkio import write_snapshot
    path = write_snapshot(zero_field(velocity_space(unit_mesh)),
                          zero_field(pressure_space(unit_mesh)),
                          builtin_porosity("constant", value=1.0), unit_mesh,
                          0.0, tmp_path / "mesh.vtk")
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert f"POINTS {unit_mesh.n_vertices} double" in text
    assert f"CELLS {unit_mesh.n_triangles} {4 * unit_mesh.n_triangles}" in text
