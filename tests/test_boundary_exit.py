"""Property tests of the batched boundary exit against a brute-force scan."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from porousflow.cases import build_case_mesh, get_case
from porousflow.mesh import (
    EXIT_TOL,
    boundary_exit_point,
    generate_rect_mesh,
    locate_many,
)

MESHES = {
    "graded-two-layer": build_case_mesh(get_case("two-layer"), n=12),
    "uniform-crossed": generate_rect_mesh((0.0, 1.0), (0.0, 1.0), 5),
}

# a segment: start as fractions of the extents, displacement in extents
fraction = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
displacement = st.floats(-3.0, 3.0)
segments = st.lists(st.tuples(fraction, fraction, displacement, displacement),
                    min_size=1, max_size=12)
PROPERTY = settings(max_examples=80, deadline=None, database=None)
# segments through the bottom-left corner (0, 0), where two edges tie
CORNER = [(0.5, 0.5, -1.0, -1.0)]
# from the centre through each of the four corners
CORNERS = [(0.5, 0.5, dx, dy) for dx in (-1.0, 1.0) for dy in (-1.0, 1.0)]
# from a point on each side line (left, right, bottom, top) across the
# domain and out through the opposite side: the start is the exit
SIDE_STARTS = [(0.0, 0.5, 2.0, 0.25), (1.0, 0.5, -2.0, -0.25),
               (0.5, 0.0, 0.25, 2.0), (0.5, 1.0, -0.25, -2.0)]
# parallel to the bottom and top, and along the left and the bottom side
# lines out through a corner
PARALLEL = [(0.5, 0.5, 1.0, 0.0), (0.0, 0.5, 0.0, 1.0), (0.5, 0.0, 1.0, 0.0)]
# starts a few subnormals inside the left and the bottom side; the second
# crosses the bottom line just before it starts, and the last two move away
# from their side at a subnormal slope, their distance to it underflowing
# when scaled by an edge's length, so they exit there
NEAR_SIDE = [(5e-324, 0.5, 5e-324, 1.0), (0.5, 5e-324, 1.0, 1.0),
             (0.5, 5e-324, 1.0, 2.2250738585e-313),
             (5e-324, 0.5, 2.2250738585e-313, 1.0)]
# through the bottom-left corner of the uniform and of the graded mesh, the
# crossing of each side line rounded just beyond the other side
ROUNDED_CORNER = [
    (0.9658509332922315, 0.940867674550585, -1.4487763999383472,
     -1.4113015118258774),
    (0.3013417651116296, 0.9798438318517214, -0.9040252953348887,
     -2.939531495555164)]


def inside_starts_outside_ends(mesh, rows):
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    rows = np.array(rows, dtype=float)
    starts = lo + rows[:, :2] * (hi - lo)
    ends = starts + rows[:, 2:] * (hi - lo)
    assert locate_many(mesh, starts)[2].all()
    out = ~locate_many(mesh, ends)[2]
    return starts[out], ends[out]


def crossing_parameter(mesh, edge, a, b):
    """Parameter along [a, b] of the crossing with one boundary edge, or
    ``None`` when they do not cross."""
    i, j = mesh.boundary_edges[edge]
    px, py = (float(v) for v in mesh.vertices[i])
    rx, ry = (float(v) for v in mesh.vertices[j] - mesh.vertices[i])
    sx, sy = float(b[0] - a[0]), float(b[1] - a[1])
    denom = sx * ry - sy * rx
    if denom == 0.0:
        return None
    apx, apy = px - float(a[0]), py - float(a[1])
    t = (apx * ry - apy * rx) / denom
    u = (apx * sy - apy * sx) / denom
    if -EXIT_TOL <= t <= 1.0 + EXIT_TOL and -EXIT_TOL <= u <= 1.0 + EXIT_TOL:
        return t
    return None


def first_crossing(mesh, a, b):
    """Brute-force scan over every boundary edge: the smallest crossing
    parameter and its edge."""
    best_t, best_edge = math.inf, -1
    for edge in range(len(mesh.boundary_edges)):
        t = crossing_parameter(mesh, edge, a, b)
        if t is not None and t < best_t:
            best_t, best_edge = t, edge
    return best_edge, best_t


@settings(PROPERTY)
@given(st.sampled_from(sorted(MESHES)), segments)
@example("uniform-crossed", CORNER)
@example("graded-two-layer", CORNER)
@example("uniform-crossed", CORNERS)
@example("graded-two-layer", CORNERS)
@example("uniform-crossed", SIDE_STARTS)
@example("graded-two-layer", SIDE_STARTS)
@example("uniform-crossed", PARALLEL)
@example("graded-two-layer", PARALLEL)
@example("graded-two-layer", NEAR_SIDE)
@example("uniform-crossed", ROUNDED_CORNER)
@example("graded-two-layer", ROUNDED_CORNER)
def test_exit_matches_brute_force_scan(mesh_name, rows):
    mesh = MESHES[mesh_name]
    starts, ends = inside_starts_outside_ends(mesh, rows)
    hit = boundary_exit_point(mesh, starts, ends)
    for a, b, point, edge in zip(starts, ends, hit.points, hit.edges):
        expected_edge, expected_t = first_crossing(mesh, a, b)
        assert expected_edge >= 0
        if edge != expected_edge:   # a tie at a corner
            t = crossing_parameter(mesh, edge, a, b)
            assert t is not None and abs(t - expected_t) <= 1e-12
        # the point lies on the returned edge
        p, q = mesh.vertices[mesh.boundary_edges[edge]]
        r, d = q - p, point - p
        along = float(d @ r) / float(r @ r)
        across = abs(float(r[0] * d[1] - r[1] * d[0])) / float(np.hypot(*r))
        assert -1e-12 <= along <= 1.0 + 1e-12
        assert across <= 1e-12
    # the hit is its points and edges, edges that index the Dirichlet mask
    assert hit._fields == ("points", "edges")
    assert hit.edges.dtype.kind == "i"
    assert ((hit.edges >= 0)
            & (hit.edges < len(mesh.boundary_dirichlet))).all()
    # and inside the closed domain
    assert locate_many(mesh, hit.points)[2].all()


@settings(PROPERTY)
@given(st.sampled_from(sorted(MESHES)), segments)
@example("uniform-crossed", CORNER)
@example("uniform-crossed", ROUNDED_CORNER)
@example("graded-two-layer",
         CORNERS + SIDE_STARTS + PARALLEL + NEAR_SIDE + ROUNDED_CORNER)
def test_exit_batch_matches_one_row_calls(mesh_name, rows):
    mesh = MESHES[mesh_name]
    starts, ends = inside_starts_outside_ends(mesh, rows)
    hit = boundary_exit_point(mesh, starts, ends)
    for i in range(len(starts)):
        one = boundary_exit_point(mesh, starts[i:i + 1], ends[i:i + 1])
        assert np.array_equal(one.points[0], hit.points[i])
        assert one.edges[0] == hit.edges[i]
        assert mesh.boundary_dirichlet[one.edges[0]] \
            == mesh.boundary_dirichlet[hit.edges[i]]
