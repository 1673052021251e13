import math

import numpy as np
import pytest

from porousflow.mesh import (
    BoundaryTag,
    LayerGrading,
    Mesh,
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
    tagged = generate_rect_mesh(
        (0.0, 3.0), (0.0, 1.0), 6,
        tag_rule=lambda mid: BoundaryTag.STRESS_FREE if mid[0] >= 3 - 1e-9
        else BoundaryTag.DIRICHLET)
    nx, ny = 6, 2
    assert len(tagged.boundary_edges) == 2 * (nx + ny)
    right = np.flatnonzero(tagged.boundary_tags == BoundaryTag.STRESS_FREE)
    assert len(right) == ny
    assert len(np.flatnonzero(tagged.boundary_tags == BoundaryTag.DIRICHLET)) \
        == 2 * (nx + ny) - ny


def _wall_on_top(mid):
    """Real tags on three sides, a string on the top side."""
    if mid[1] >= 1.0 - 1e-9:
        return "wall"
    return BoundaryTag.STRESS_FREE if mid[0] >= 1.0 - 1e-9 \
        else BoundaryTag.DIRICHLET


@pytest.mark.parametrize("rule", [lambda mid: "wall", lambda mid: None,
                                  _wall_on_top],
                         ids=["string", "none", "mixed"])
def test_tag_rule_must_return_a_boundary_tag(rule):
    # the error names the first boundary edge whose tag is not a
    # BoundaryTag, by its midpoint, and the value the rule returned there
    valid = generate_rect_mesh((0.0, 1.0), (0.0, 1.0), 4)
    ends = valid.vertices[valid.boundary_edges]
    mids = 0.5 * (ends[:, 0] + ends[:, 1])
    mid = next(m for m in mids if not isinstance(rule(m), BoundaryTag))
    with pytest.raises(ValueError) as info:
        generate_rect_mesh((0.0, 1.0), (0.0, 1.0), 4, tag_rule=rule)
    assert str(info.value) == (
        f"tag_rule returned {rule(mid)!r} for the boundary edge at "
        f"{mid.tolist()}, not a BoundaryTag")


def test_boundary_exit_left_edge():
    mesh = generate_rect_mesh((0.0, 3.0), (0.0, 1.0), 6,
                              tag_rule=lambda mid: BoundaryTag.DIRICHLET)
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
