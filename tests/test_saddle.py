import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.sparse as sp

from porousflow import saddle
from porousflow.assembly import (
    assemble_a0,
    assemble_b,
    assemble_load,
    make_context,
    pressure_volume_vector,
)
from porousflow.fem import interpolate
from porousflow.mesh import BoundaryTag, Mesh, generate_rect_mesh
from porousflow.porous import builtin_porosity
from porousflow.saddle import (
    ConstraintConflictError,
    GaugeError,
    SaddleSystem,
    SingularSystemError,
    SolverError,
    StepSolver,
    UnsupportedBoundaryError,
)
from porousflow.verification import steady_stokes_solve


def quad_velocity(p):
    x, y = p[:, 0], p[:, 1]
    return np.column_stack([x ** 2 - 3 * y ** 2, -3 * x ** 2 - 2 * x * y])


def stokes_forcing(mu):
    def f(p, t=None):
        n = len(p)
        return np.column_stack([np.full(n, 4 * mu + 2.0),
                                np.full(n, 6 * mu - 3.0)])
    return f


def linear_pressure(p):
    return 2 * p[:, 0] - 3 * p[:, 1] + 1.0


def test_patch_test_polynomial_exactness(unit_ctx, params):
    u, p, rep = steady_stokes_solve(unit_ctx, stokes_forcing(params.mu),
                                    quad_velocity)
    u_err = np.abs(u.node_values()
                   - quad_velocity(unit_ctx.vspace.node_coords)).max()
    p_exact = interpolate(unit_ctx.pspace, linear_pressure)
    from porousflow.fem import field_mean
    shift = field_mean(p_exact)
    p_err = np.abs(p.coefficients - (p_exact.coefficients - shift)).max()
    assert u_err <= 1e-10
    assert p_err <= 1e-10
    assert rep.algebraic_residual <= 1e-10
    assert rep.incompressibility_residual <= 1e-10


def test_zero_dirichlet_gives_exact_zeros(unit_ctx):
    zero = lambda p: np.zeros((len(p), 2))
    u, p, rep = steady_stokes_solve(unit_ctx, zero, zero)
    from porousflow.fem import boundary_nodes
    nodes = boundary_nodes(unit_ctx.vspace, {BoundaryTag.DIRICHLET})
    vals = u.node_values()[nodes]
    assert (vals == 0.0).all()


def test_constant_dirichlet_reproduced(unit_ctx):
    c = np.array([0.8, -0.3])
    g = lambda p: np.broadcast_to(c, (len(p), 2)).copy()
    f = lambda p, t=None: np.zeros((len(p), 2))
    u, p, rep = steady_stokes_solve(unit_ctx, f, g)
    assert np.abs(u.node_values() - c).max() < 1e-10
    assert np.abs(p.coefficients).max() < 1e-9


def test_dirichlet_values_bit_for_bit(unit_ctx):
    g = lambda p: np.column_stack([np.sin(3 * p[:, 0]) * p[:, 1],
                                   np.cos(p[:, 1])])
    a0 = assemble_a0(unit_ctx)
    b = assemble_b(unit_ctx)
    system = SaddleSystem(unit_ctx, a0 + sp.identity(a0.shape[0]), b,
                          np.zeros(a0.shape[0]))
    system.apply_dirichlet(g)
    system.apply_gauge()
    u, p, rep = system.solve()
    from porousflow.fem import boundary_nodes
    nodes = boundary_nodes(unit_ctx.vspace, {BoundaryTag.DIRICHLET})
    expected = g(unit_ctx.vspace.node_coords[nodes])
    got = u.node_values()[nodes]
    assert (got == expected).all()  # exactly the prescribed values


def test_conflicting_constraints_rejected(unit_ctx):
    a0 = assemble_a0(unit_ctx)
    b = assemble_b(unit_ctx)
    system = SaddleSystem(unit_ctx, a0, b, np.zeros(a0.shape[0]))
    system.apply_dirichlet(lambda p: np.ones((len(p), 2)))
    with pytest.raises(ConstraintConflictError):
        system.apply_dirichlet(lambda p: 2.0 * np.ones((len(p), 2)))


def test_matching_corner_constraints_allowed(unit_ctx):
    a0 = assemble_a0(unit_ctx)
    b = assemble_b(unit_ctx)
    system = SaddleSystem(unit_ctx, a0, b, np.zeros(a0.shape[0]))
    system.apply_dirichlet(lambda p: np.ones((len(p), 2)))
    system.apply_dirichlet(lambda p: np.ones((len(p), 2)))  # same values
    assert len(system.dirichlet_map) > 0


def test_slip_empty_is_noop(unit_ctx):
    a0 = assemble_a0(unit_ctx)
    b = assemble_b(unit_ctx)
    system = SaddleSystem(unit_ctx, a0, b, np.zeros(a0.shape[0]))
    system.apply_slip()
    assert system.dirichlet_map == {}


def test_slip_bottom_edge_zeroes_normal_component(params):
    def tags(mid):
        if mid[1] <= 1e-9:
            return BoundaryTag.SLIP
        return BoundaryTag.DIRICHLET

    mesh = generate_rect_mesh((0.0, 1.0), (0.0, 1.0), 4, tag_rule=tags)
    ctx = make_context(mesh, builtin_porosity("constant", value=1.0), params)
    a0 = assemble_a0(ctx)
    b = assemble_b(ctx)
    rhs = assemble_load(lambda p: np.column_stack(
        [np.ones(len(p)), np.ones(len(p))]), ctx, None)
    system = SaddleSystem(ctx, a0 + sp.identity(a0.shape[0]), b, rhs)
    system.apply_dirichlet(lambda p: np.zeros((len(p), 2)))
    system.apply_slip()
    u, p, rep = system.solve()
    bottom = np.abs(ctx.vspace.node_coords[:, 1]) < 1e-12
    assert np.abs(u.node_values()[bottom, 1]).max() == 0.0
    # tangential component stays free
    interior_bottom = bottom & (ctx.vspace.node_coords[:, 0] > 1e-9) \
        & (ctx.vspace.node_coords[:, 0] < 1 - 1e-9)
    assert np.abs(u.node_values()[interior_bottom, 0]).max() > 0.0


def test_diagonal_slip_edge_rejected(params):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    edges = np.array([[0, 1], [1, 2], [2, 0]])
    tags = [BoundaryTag.DIRICHLET, BoundaryTag.SLIP, BoundaryTag.DIRICHLET]
    mesh = Mesh(verts, tris, edges, tags, np.zeros(3, dtype=int))
    ctx = make_context(mesh, builtin_porosity("constant", value=1.0), params)
    a0 = assemble_a0(ctx)
    b = assemble_b(ctx)
    system = SaddleSystem(ctx, a0, b, np.zeros(a0.shape[0]))
    with pytest.raises(UnsupportedBoundaryError):
        system.apply_slip()


def test_gauge_zero_mean(unit_ctx, params):
    u, p, rep = steady_stokes_solve(unit_ctx, stokes_forcing(params.mu),
                                    quad_velocity)
    c = pressure_volume_vector(unit_ctx)
    assert abs(c @ p.coefficients) <= 1e-10


def test_gauge_rejected_with_outflow(params):
    def tags(mid):
        if mid[0] >= 1 - 1e-9:
            return BoundaryTag.STRESS_FREE
        return BoundaryTag.DIRICHLET

    mesh = generate_rect_mesh((0.0, 1.0), (0.0, 1.0), 4, tag_rule=tags)
    ctx = make_context(mesh, builtin_porosity("constant", value=1.0), params)
    system = SaddleSystem(ctx, assemble_a0(ctx), assemble_b(ctx),
                          np.zeros(ctx.vspace.dof_count))
    with pytest.raises(GaugeError):
        system.apply_gauge()


def test_gauge_invariance_to_pressure_rhs_shift(unit_ctx, params):
    a0 = assemble_a0(unit_ctx)
    b = assemble_b(unit_ctx)
    rhs = assemble_load(stokes_forcing(params.mu), unit_ctx, None)
    sol = []
    for beta in (0.0, 0.7):
        shift = beta * pressure_volume_vector(unit_ctx)
        system = SaddleSystem(unit_ctx, a0, b, rhs, rhs_pressure=shift)
        system.apply_dirichlet(quad_velocity)
        system.apply_gauge()
        u, p, rep = system.solve()
        sol.append(u.coefficients)
    assert np.abs(sol[0] - sol[1]).max() < 1e-9


def test_identity_dominated_known_solution(unit_ctx, rng):
    nv = unit_ctx.vspace.dof_count
    b = assemble_b(unit_ctx)
    x_known = rng.normal(size=nv)
    system = SaddleSystem(unit_ctx, sp.identity(nv, format="csr"), b,
                          x_known, rhs_pressure=b @ x_known)
    u, p, rep = system.solve()
    assert np.abs(u.coefficients - x_known).max() < 1e-12
    assert np.abs(p.coefficients).max() < 1e-12


def test_singular_system_detected(unit_ctx):
    # steady viscous block with no constraints: rigid motions in the kernel,
    # and a body force that has no solution in its range
    rhs = assemble_load(lambda p: np.column_stack(
        [np.ones(len(p)), np.zeros(len(p))]), unit_ctx, None)
    system = SaddleSystem(unit_ctx, assemble_a0(unit_ctx),
                          assemble_b(unit_ctx), rhs)
    with pytest.raises(SingularSystemError):
        system.solve()


def test_nan_rhs_rejected(unit_ctx):
    rhs = np.zeros(unit_ctx.vspace.dof_count)
    rhs[0] = np.nan
    system = SaddleSystem(unit_ctx, assemble_a0(unit_ctx),
                          assemble_b(unit_ctx), rhs)
    with pytest.raises(SolverError):
        system.solve()


def _drag_system(ctx, drag, rhs):
    a0 = assemble_a0(ctx)
    system = SaddleSystem(ctx, a0 + drag * sp.identity(a0.shape[0]),
                          assemble_b(ctx), rhs)
    system.apply_dirichlet(quad_velocity)
    system.apply_gauge()
    return system


def test_step_solver_reuses_lu_for_same_key(unit_ctx, params):
    rhs = assemble_load(stokes_forcing(params.mu), unit_ctx, None)
    solver = StepSolver(unit_ctx)
    _, _, first = _drag_system(unit_ctx, 1.0, rhs).solve(solver, "general")
    u, p, rep = _drag_system(unit_ctx, 1.3, rhs).solve(solver, "general")
    u_ref, p_ref, ref = _drag_system(unit_ctx, 1.3, rhs).solve()
    assert first.factorized and first.krylov_iterations == 0
    assert not rep.factorized and rep.krylov_iterations > 0
    assert ref.factorized and ref.krylov_iterations == 0
    assert rep.algebraic_residual <= saddle.KRYLOV_RTOL
    assert np.abs(u.coefficients - u_ref.coefficients).max() \
        <= 1e-12 * np.abs(u_ref.coefficients).max()
    assert np.abs(p.coefficients - p_ref.coefficients).max() \
        <= 1e-12 * np.abs(p_ref.coefficients).max()
    # another key never uses the held factorization
    _, _, other = _drag_system(unit_ctx, 1.3, rhs).solve(solver, "initial")
    assert other.factorized and other.krylov_iterations == 0


def test_step_solver_replaces_lu_that_misses_target(unit_ctx, params,
                                                    monkeypatch):
    rhs = assemble_load(stokes_forcing(params.mu), unit_ctx, None)
    solver = StepSolver(unit_ctx)
    _drag_system(unit_ctx, 1.0, rhs).solve(solver, "general")
    held = solver._lu
    held_at_factorization = []
    splu = saddle.splu

    def recording_splu(*args, **kwargs):
        held_at_factorization.append(solver._lu)
        return splu(*args, **kwargs)

    monkeypatch.setattr(saddle, "splu", recording_splu)
    monkeypatch.setattr(saddle, "KRYLOV_MAX_ITERATIONS", 1)
    u, p, rep = _drag_system(unit_ctx, 3.0, rhs).solve(solver, "general")
    assert rep.factorized and rep.krylov_iterations == 1
    assert held_at_factorization == [None]   # the old factor was dropped
    assert solver._lu is not None and solver._lu is not held
    assert rep.algebraic_residual <= 1e-12


class _CountingLU:
    """Stands in for a held factorization and counts its solves."""

    def __init__(self, lu):
        self.lu = lu
        self.calls = 0

    def solve(self, rhs):
        self.calls += 1
        return self.lu.solve(rhs)


def test_step_solver_solves_with_lu_once_per_iteration(unit_ctx, params):
    rhs = assemble_load(stokes_forcing(params.mu), unit_ctx, None)
    solver = StepSolver(unit_ctx)
    _drag_system(unit_ctx, 1.0, rhs).solve(solver, "general")
    solver._lu = counting = _CountingLU(solver._lu)
    _, _, rep = _drag_system(unit_ctx, 1.3, rhs).solve(solver, "general")
    assert not rep.factorized and rep.krylov_iterations > 0
    # the start from LU^{-1} rhs, then one preconditioned direction each
    assert counting.calls == rep.krylov_iterations + 1
    assert rep.algebraic_residual <= saddle.KRYLOV_RTOL


def test_step_solver_bound_to_its_context(unit_ctx, pi_mesh, params):
    other = make_context(pi_mesh, builtin_porosity("constant", value=1.0),
                         params)
    system = SaddleSystem(unit_ctx, assemble_a0(unit_ctx),
                          assemble_b(unit_ctx),
                          np.zeros(unit_ctx.vspace.dof_count))
    with pytest.raises(ValueError):
        system.solve(StepSolver(other))


_FREED_BLOCK_SCRIPT = textwrap.dedent("""
    import os
    import numpy as np
    from porousflow.saddle import StepSolver

    def rss():
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

    big = np.ones(3 << 20)   # 24 MiB freed: glibc's threshold rises to it
    del big
    StepSolver(None)
    block = np.ones(2 << 20)   # 16 MiB
    pin = np.ones(100)         # allocated above the block in the heap
    before = rss()
    del block
    print(before - rss())
""")


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or os.confstr("CS_GNU_LIBC_VERSION") is None,
                    reason="malloc thresholds are set on glibc only")
def test_step_solver_returns_freed_blocks_to_the_system():
    src = os.path.dirname(os.path.dirname(saddle.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _FREED_BLOCK_SCRIPT],
                         env=env, capture_output=True, text=True, check=True)
    assert int(out.stdout) >= 12 << 20
