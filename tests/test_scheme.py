"""Time stepper: configuration contract, the recursion against a dense
reference, and the per-step identity residual API."""

import math
import time

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import ipcs2d as pk
from ipcs2d import scheme
from ipcs2d.diagnostics import EnergyLedger, record_level
from ipcs2d.linsolve import SWEEPS
from ipcs2d.scheme import Level, init_state, step

from oracles import (
    DenseScheme,
    divergence_coupling,
    free_block,
    full_convection,
    full_velocity_matrices,
)


def affine_case():
    def u0(x, y):
        return 0.3 + x - 2.0 * y, -1.0 + 0.5 * x + y

    def f(t, x, y):
        return (1.0 + 2.0 * t + 3.0 * t * t) * (x - y + 0.2), (2.0 - t) * (0.1 + y)

    return u0, f


def vortex_u0(x, y):
    return (
        np.pi * np.sin(np.pi * x) ** 2 * np.sin(2.0 * np.pi * y),
        -np.pi * np.sin(2.0 * np.pi * x) * np.sin(np.pi * y) ** 2,
    )


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(dt=0.0, T=1.0), "dt must be positive"),
        (dict(dt=-0.1, T=1.0), "dt must be positive"),
        (dict(dt=0.2, T=0.1), "final time"),
        (dict(dt=0.1, T=1.0, mu=0.0), "viscosity"),
        (dict(dt=0.1, T=1.0, mu=-2.0), "viscosity"),
        (dict(dt=0.1, T=1.0, mesh_n=None), "exactly one"),
        (dict(dt=0.1, T=1.0, degree_u=3), "degree_u must be 1 or 2"),
        (dict(dt=0.1, T=1.0, degree_p=0), "degree_p must be 1 or 2"),
        (dict(dt=0.1, T=1.0, store_every=0), "store_every"),
        (dict(dt=0.1, T=1.0, store_every=1.5), "store_every"),
        (dict(dt=0.1, T=1.0, f_cutoff=0.0), "f_cutoff"),
        (dict(dt=0.1, T=1.0, f_cutoff=-1.0), "f_cutoff"),
        (dict(dt=float("nan"), T=1.0), "dt must be positive and finite"),
        (dict(dt=0.1, T=float("inf")), "must be finite"),
        (dict(dt=0.1, T=1.0, mu=float("inf")), "mu must be positive and finite"),
        (dict(dt=1e-300, T=1.0), "dt gives more than 10000000 steps to T \\(got 1e-300\\)"),
        (dict(dt=0.1, T=1.0, tol_momentum=0.0), "tol_momentum must be positive and finite"),
        (dict(dt=0.1, T=1.0, tol_poisson=-1.0), "tol_poisson must be positive and finite"),
        (dict(dt=0.1, T=1.0, tol_poisson=float("nan")), "tol_poisson must be positive"),
        (dict(dt=0.1, T=1.0, tol_momentum=float("inf")), "tol_momentum must be positive"),
        (dict(dt=0.1, T=1.0, f_cutoff=float("nan")), "f_cutoff must be positive when given"),
        (dict(dt=0.1, T=-1.0), "T must be positive"),
        (dict(dt=0.1, T=1.0, mu=float("nan")), "mu must be positive and finite"),
        (dict(dt=0.1, T=1.0, degree_u=1.5), "degree_u must be 1 or 2"),
        (dict(dt=0.1, T=1.0, store_every=-1), "store_every"),
        (dict(dt=0.1, T=1.0, store_every=float("inf")), "store_every"),
        (dict(dt=0.1, T=1.0, store_every=float("nan")), "store_every"),
        (dict(dt=0.1, T=1.0, mesh_n=float("inf")), "must be a positive integer"),
        (dict(dt=0.1, T=1.0, mesh_n=float("nan")), "must be a positive integer"),
        (dict(dt=0.1, T=10**400), "must be finite"),
        (dict(dt=0.1, T=1.0, mu=10**400), "mu must be positive and finite"),
        (dict(dt=0.1, T=1.0, degree_p=float("nan")), "degree_p must be 1 or 2"),
        (dict(dt=0.1, T=1.0, mesh_n=None, mesh="square.txt"), "mesh must be a Mesh; .*read_mesh"),
        (dict(dt=0.1, T=1.0, mesh_n=None, mesh=4), "mesh must be a Mesh; .*\\(got 4\\)"),
    ],
)
def test_config_rejects_bad_parameters(kwargs, match):
    base = dict(mesh_n=2, u0=vortex_u0)
    base.update(kwargs)
    with pytest.raises(ValueError, match=match):
        pk.SchemeConfig(**base)


# any float, nan and infinities included, or any integer, also one beyond
# the float range
REALS = st.one_of(st.floats(), st.integers(-3, 3), st.integers(), st.just(10**400))
CONFIG_NUMBERS = dict(
    dt=REALS,
    T=REALS,
    mu=REALS,
    # the largest mesh a valid draw can build is 4 x 4
    mesh_n=st.one_of(
        st.integers(-2, 4), st.sampled_from([2.0, 2.5, 1025, 10**30, math.inf, -math.inf, math.nan])
    ),
    degree_u=st.one_of(st.integers(0, 3), st.floats()),
    degree_p=st.one_of(st.integers(0, 3), st.floats()),
    f_cutoff=st.one_of(st.none(), REALS),
    tol_poisson=REALS,
    tol_momentum=REALS,
    store_every=REALS,
)


@settings(deadline=None, max_examples=1000)
@given(changes=st.fixed_dictionaries({}, optional=CONFIG_NUMBERS))
def test_numeric_config_arguments_raise_only_value_error(changes):
    # any subset of the numeric arguments changed from a valid config
    kwargs = dict(dt=0.1, T=1.0, mesh_n=2, u0=vortex_u0)
    kwargs.update(changes)
    try:
        cfg = pk.SchemeConfig(**kwargs)
    except ValueError:
        return
    assert 0 < cfg.dt < math.inf and 1 <= cfg.n_steps <= scheme.MAX_STEPS
    assert 0 < cfg.mu < math.inf and cfg.store_every >= 1
    assert cfg.f_cutoff is None or cfg.f_cutoff > 0


def test_config_requires_initial_velocity():
    with pytest.raises(ValueError, match="initial velocity"):
        pk.SchemeConfig(dt=0.1, T=1.0, mesh_n=2)


def test_config_rejects_mesh_and_mesh_n_together():
    mesh = pk.generate_structured_unit_square(2)
    with pytest.raises(ValueError, match="exactly one"):
        pk.SchemeConfig(dt=0.1, T=1.0, mesh=mesh, mesh_n=2, u0=vortex_u0)


def test_dt_adjusted_to_divide_final_time():
    cfg = pk.SchemeConfig(dt=0.05, T=0.49, mesh_n=2, u0=vortex_u0)
    assert cfg.n_steps == 10
    assert math.isclose(cfg.dt, 0.049)
    assert len(cfg.warnings) == 1 and "adjusted" in cfg.warnings[0]

    exact = pk.SchemeConfig(dt=0.05, T=0.5, mesh_n=2, u0=vortex_u0)
    assert exact.dt == 0.05 and exact.n_steps == 10
    assert exact.warnings == []


def test_config_cannot_take_a_mesh_with_a_non_finite_vertex():
    # h would be nan
    with pytest.raises(pk.MeshFormatError, match="vertex 2 has non-finite coordinates"):
        pk.SchemeConfig(
            dt=0.01, T=0.1, mesh=pk.Mesh([[0, 0], [1, 0], [math.nan, 1]], [[0, 1, 2]]),
            u0=vortex_u0,
        )


def test_zero_initial_velocity_gives_identically_zero_run():
    cfg = pk.SchemeConfig(
        dt=0.05, T=0.2, mesh_n=4, degree_u=1, degree_p=1,
        u0=lambda x, y: (0.0 * x, 0.0 * y),
    )
    traj = pk.run(cfg)
    assert traj.is_complete() and len(traj.levels) == 5
    for lv in traj.levels:
        assert np.abs(lv.utilde).max() == 0.0
        assert np.abs(lv.phi).max() == 0.0
        assert np.abs(lv.p).max() == 0.0
    for name in ("norm_u_sq", "E_h", "residual_identity", "residual_pythagoras"):
        assert np.abs(traj.ledger.column(name)).max() == 0.0


def test_initialization_splits_orthogonally(setup_cache):
    _, su, sp, ops = setup_cache(4, 2, 1)

    def u0(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y), x * (1.0 - x) * y

    dt = 0.05
    state = init_state(ops, u0, dt)
    assert state.m == 0 and state.t == 0.0
    # phi = -dt * p by construction
    assert np.allclose(state.phi, -dt * state.p, atol=1e-15)
    # end-of-step field is weakly divergence free against every pressure mode
    wd = ops.G.T @ state.utilde + ops.N_p @ state.phi
    u_sq = ops.yh_norm_sq(state.utilde, state.phi)
    assert np.max(np.abs(wd) / (np.sqrt(u_sq) * ops.grad_psi_norms)) <= 1e-10
    # orthogonal splitting of the projected field
    utilde_sq = ops.norm_u_sq(state.utilde)
    gap = abs(u_sq + ops.grad_p_sq(state.phi) - utilde_sq)
    assert gap <= 1e-10 * utilde_sq


def test_curl_initial_data_has_small_projection_defect(setup_cache):
    _, su, sp, ops = setup_cache(8, 2, 1)

    def curl_u0(x, y):
        s = x * (1.0 - x)
        t = y * (1.0 - y)
        return 2.0 * s * s * t * (1.0 - 2.0 * y), -2.0 * s * (1.0 - 2.0 * x) * t * t

    dt = 0.1
    state = init_state(ops, curl_u0, dt)
    defect = ops.grad_p_sq(state.phi) / ops.norm_u_sq(state.utilde)
    assert defect <= 1e-5

    generic = init_state(ops, lambda x, y: (np.sin(np.pi * x) * np.sin(np.pi * y), 0.0 * y), dt)
    generic_defect = ops.grad_p_sq(generic.phi) / ops.norm_u_sq(generic.utilde)
    assert generic_defect > 0.1


def test_run_matches_dense_reference(setup_cache):
    mesh, su, sp, ops = setup_cache(2, 1, 1)
    u0, f = affine_case()
    dt, mu = 0.1, 0.7
    cfg = pk.SchemeConfig(
        dt=dt, T=3 * dt, mu=mu, mesh=mesh, degree_u=1, degree_p=1,
        u0=u0, f=f, tol_poisson=1e-13, tol_momentum=1e-13,
    )
    traj = pk.run(cfg, ops=ops)

    dense = DenseScheme(mesh.vertices, mesh.triangles, mesh.boundary_vertex_flags)
    ut0, p0, phi0 = dense.init_levels(u0, dt)
    ut1, p1, phi1 = dense.backward_euler(ut0, p0, phi0, f, dt, mu)
    ut2, p2, phi2 = dense.bdf2_step((ut0, phi0, ut1, p1, phi1), f, dt, mu, 2)
    ut3, p3, phi3 = dense.bdf2_step((ut1, phi1, ut2, p2, phi2), f, dt, mu, 3)
    ref = [(ut0, p0, phi0), (ut1, p1, phi1), (ut2, p2, phi2), (ut3, p3, phi3)]

    for lv, (ut, p, phi) in zip(traj.levels, ref):
        scale = max(1.0, np.abs(ut).max())
        assert np.abs(lv.utilde - ut).max() <= 1e-12 * scale
        assert np.abs(lv.p - p).max() <= 1e-12 * scale
        assert np.abs(lv.phi - phi).max() <= 1e-12 * scale


@pytest.mark.parametrize("n", [8, 16])
def test_reused_factor_run_matches_dense_reference(setup_cache, n):
    # later steps solve with the LU of an earlier one, refined to rounding
    mesh, su, sp, ops = setup_cache(n, 1, 1)
    u0, f = affine_case()
    dt, mu, n_steps = 0.05, 0.7, 8
    cfg = pk.SchemeConfig(
        dt=dt, T=n_steps * dt, mu=mu, mesh=mesh, degree_u=1, degree_p=1,
        u0=u0, f=f, tol_poisson=1e-13, tol_momentum=1e-13,
    )
    traj = pk.run(cfg, ops=ops)
    assert traj.momentum_refactored[:2] == [True, True]
    assert traj.momentum_refactored.count(False) >= 4

    dense = DenseScheme(mesh.vertices, mesh.triangles, mesh.boundary_vertex_flags)
    ut0, p0, phi0 = dense.init_levels(u0, dt)
    ref = [(ut0, p0, phi0), dense.backward_euler(ut0, p0, phi0, f, dt, mu)]
    for m in range(2, n_steps + 1):
        (ut_a, _, phi_a), (ut_b, p_b, phi_b) = ref[-2:]
        ref.append(dense.bdf2_step((ut_a, phi_a, ut_b, p_b, phi_b), f, dt, mu, m))

    for lv, (ut, p, phi) in zip(traj.levels, ref):
        scale = max(1.0, np.abs(ut).max())
        assert np.abs(lv.utilde - ut).max() <= 1e-12 * scale
        assert np.abs(lv.p - p).max() <= 1e-12 * scale
        assert np.abs(lv.phi - phi).max() <= 1e-12 * scale


def _count_momentum_factorizations(monkeypatch):
    # splu calls made inside the step's one solve_momentum call, and the
    # dtype of every factored matrix
    counts = {"splu": 0, "momentum": 0, "momentum_splu": 0, "dtypes": []}
    splu = scipy.sparse.linalg.splu
    solve_momentum = scheme.solve_momentum

    def counted_splu(A, *args, **kwargs):
        counts["splu"] += 1
        counts["dtypes"].append(A.dtype)
        return splu(A, *args, **kwargs)

    def counted_momentum(*args, **kwargs):
        counts["momentum"] += 1
        before = counts["splu"]
        try:
            return solve_momentum(*args, **kwargs)
        finally:
            counts["momentum_splu"] += counts["splu"] - before

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted_splu)
    monkeypatch.setattr(scheme, "solve_momentum", counted_momentum)
    return counts


def test_run_reuses_the_momentum_factorization(setup_cache, monkeypatch):
    # the quick-start problem: n=16 P2/P1, 50 steps
    _, su, sp, ops = setup_cache(16, 2, 1)
    case = pk.stream_vortex_case(mu=1.0)
    cfg = pk.SchemeConfig(
        dt=0.01, T=0.5, mu=1.0, mesh=su.mesh, u0=case.u0, f=case.f
    )
    counts = _count_momentum_factorizations(monkeypatch)
    traj = pk.run(cfg, ops=ops)
    assert counts["momentum"] == 50
    assert counts["momentum_splu"] <= 4
    # backward Euler and the first BDF2 step factor; the key changes between
    assert traj.momentum_refactored[:2] == [True, True]
    assert sum(traj.momentum_refactored) == counts["momentum_splu"]
    assert len(traj.momentum_sweeps) == 50
    assert all(1 <= s <= SWEEPS + 4 for s in traj.momentum_sweeps)


def test_unreachable_momentum_tolerance_fails_at_step_one(setup_cache, monkeypatch):
    _, su, sp, ops = setup_cache(16, 2, 1)
    case = pk.stream_vortex_case(mu=1.0)
    cfg = pk.SchemeConfig(
        dt=0.01, T=0.5, mu=1.0, mesh=su.mesh, u0=case.u0, f=case.f, tol_momentum=1e-30
    )
    counts = _count_momentum_factorizations(monkeypatch)
    t0 = time.perf_counter()
    with pytest.raises(pk.LinearSolveError, match="momentum solve stalled") as info:
        pk.run(cfg, ops=ops)
    assert time.perf_counter() - t0 < 5.0
    # one fresh float32 factorization and its three corrections, then the
    # same in float64, and no retry
    assert counts["momentum"] == 1 and counts["momentum_splu"] == 2
    assert counts["dtypes"] == [np.float32, np.float64]
    assert 0.0 < info.value.residual < 1e-13


def test_run_rejects_operators_built_for_another_config(setup_cache):
    _, _, _, ops = setup_cache(4, 1, 1)
    case = pk.stream_vortex_case(mu=1.0)
    # another size and other degrees
    cfg = pk.SchemeConfig(dt=0.05, T=0.05, mesh_n=8, u0=case.u0, f=case.f)
    with pytest.raises(ValueError, match="config's mesh and degrees"):
        pk.run(cfg, ops=ops)
    # the same connectivity with moved interior vertices
    v = ops.space_u.mesh.vertices.copy()
    interior = ~ops.space_u.mesh.boundary_vertex_flags
    v[interior] += np.random.default_rng(0).uniform(-0.03, 0.03, (int(interior.sum()), 2))
    mesh = pk.Mesh(v, ops.space_u.mesh.triangles)
    cfg = pk.SchemeConfig(
        dt=0.05, T=0.05, mesh=mesh, degree_u=1, degree_p=1, u0=case.u0, f=case.f
    )
    with pytest.raises(ValueError, match="config's mesh and degrees"):
        pk.run(cfg, ops=ops)


def test_single_step_run_equals_manual_composition(setup_cache):
    mesh, su, sp, ops = setup_cache(3, 1, 1)
    u0, f = affine_case()
    dt = 0.05
    cfg = pk.SchemeConfig(dt=dt, T=dt, mu=1.0, mesh=mesh, degree_u=1, degree_p=1, u0=u0, f=f)
    traj = pk.run(cfg, ops=ops)
    assert len(traj.levels) == 2

    state0 = init_state(ops, u0, dt)
    F1, _ = ops.load(f, 0.5 * dt, 1.5 * dt)
    state1 = step(None, state0, ops, dt, 1.0, F1)
    assert np.array_equal(traj.levels[0].utilde, state0.utilde)
    assert np.array_equal(traj.levels[1].utilde, state1.utilde)
    assert np.array_equal(traj.levels[1].p, state1.p)
    assert np.array_equal(traj.levels[1].phi, state1.phi)


def test_step_matches_full_system_solve(setup_cache):
    # the momentum system as one two-component solve, before it was split
    # into a scalar block shared by both components
    from scipy.sparse.linalg import spsolve

    _, su, _, ops = setup_cache(4, 2, 1)
    u0, f = affine_case()
    dt, mu = 0.05, 1.0
    level0 = init_state(ops, u0, dt)
    F1, _ = ops.load(f, 0.5 * dt, 1.5 * dt)
    level1 = step(None, level0, ops, dt, mu, F1)
    F2, _ = ops.load(f, 1.5 * dt, 2.5 * dt)
    level2 = step(level0, level1, ops, dt, mu, F2)
    M, A = full_velocity_matrices(ops)
    # the pressure enters through the divergence coupling D, which the step
    # replaces by -G on the free rows
    D = divergence_coupling(ops)
    for prev, cur, F, new in ((None, level0, F1, level1), (level0, level1, F2, level2)):
        r = ops.yh_pair_with_u(cur.utilde, cur.phi)
        if prev is None:
            a0, w, history = 1.0, cur.utilde, r
        else:
            a0, w = 1.5, 2.0 * cur.utilde - prev.utilde
            history = 2.0 * r - 0.5 * ops.yh_pair_with_u(prev.utilde, prev.phi)
        S = ((a0 / dt) * M + full_convection(ops, w) + mu * A).tocsr()
        rhs = F + D @ cur.p + history / dt
        free = su.free
        ref = np.zeros(su.ndofs)
        ref[free] = spsolve(S[free][:, free].tocsc(), rhs[free])
        assert np.abs(new.utilde - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("deg", [1, 2])
def test_step_momentum_matrix_equals_sum_then_slice(deg, setup_cache, monkeypatch):
    # the step forms its matrix on the fixed free-block pattern; it must be
    # the matrix the sum-then-slice formula gives, entry for entry
    _, su, _, ops = setup_cache(4, deg, 1)
    n = su.n_scalar
    seen = []
    solve = scheme.solve_momentum

    def capture(A, b, **kwargs):
        seen.append(A)
        return solve(A, b, **kwargs)

    monkeypatch.setattr(scheme, "solve_momentum", capture)
    u0, f = affine_case()
    dt, mu = 0.05, 0.5
    level0 = init_state(ops, u0, dt)
    level1 = step(None, level0, ops, dt, mu, ops.load(f, 0.5 * dt, 1.5 * dt)[0])
    step(level0, level1, ops, dt, mu, ops.load(f, 1.5 * dt, 2.5 * dt)[0])
    advected = ((1.0, level0.utilde), (1.5, 2.0 * level1.utilde - level0.utilde))
    assert len(seen) == 2
    M, A = full_velocity_matrices(ops)
    for (a0, w), S in zip(advected, seen):
        B = full_convection(ops, w)
        ref = free_block(ops, (a0 / dt) * M[:n, :n] + B[:n, :n] + mu * A[:n, :n])
        assert np.array_equal(S.indptr, ref.indptr)
        assert np.array_equal(S.indices, ref.indices)
        assert np.array_equal(S.data, ref.data)


def test_operators_and_step_matrices_share_read_only_patterns(setup_cache, monkeypatch):
    # every matrix of the set but the stacked G, and the convection and
    # momentum matrices of a step, hold the index arrays of the _Scatter
    # that built them: no step copies them, and none can be edited in place
    _, su, _, ops = setup_cache(4, 2, 1)
    seen = []
    convection, solve = ops.free_convection, scheme.solve_momentum
    monkeypatch.setattr(ops, "free_convection", lambda w: seen.append(convection(w)) or seen[-1])
    monkeypatch.setattr(
        scheme, "solve_momentum", lambda A, b, **kwargs: seen.append(A) or solve(A, b, **kwargs)
    )
    u0, f = affine_case()
    level0 = init_state(ops, u0, 0.05)
    step(None, level0, ops, 0.05, 1.0, ops.load(f, 0.025, 0.075)[0])
    assert len(seen) == 2
    pattern = ops.scatter_free
    for matrix in [ops.M_free, ops.A_free] + seen:
        assert np.shares_memory(matrix.indices, pattern.indices)
        assert np.shares_memory(matrix.indptr, pattern.indptr)
    assert np.shares_memory(ops.M_p.indices, ops.N_p.indices)
    assert np.shares_memory(ops.M_p.indptr, ops.N_p.indptr)
    for matrix in [ops.M_free, ops.A_free, ops.M_p, ops.N_p] + seen:
        for index in (matrix.indices, matrix.indptr):
            assert not index.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                index[0] = index[0]


def test_mesh_without_free_velocity_dofs_runs():
    # n=1 P1: every velocity dof lies on the boundary, so the free block,
    # and the order it is numbered in, are empty
    case = pk.stream_vortex_case(mu=1.0)
    cfg = pk.SchemeConfig(
        dt=0.1, T=0.2, mu=1.0, mesh_n=1, degree_u=1, degree_p=1, u0=case.u0, f=case.f,
    )
    traj = pk.run(cfg)
    assert traj.ops.M_free.shape == (0, 0) and traj.ops.scatter_free.order.size == 0
    assert traj.n_steps == 2 and not np.any(traj.final.utilde)


def test_gates_fire_inside_run(setup_cache):
    mesh, su, sp, _ = setup_cache(4, 1, 1)
    ops = pk.build_operators(su, sp)
    orig = ops.free_convection
    # a mass term added to the convection feeds energy into every step; the
    # step assembles the free block, so the mass block is the free one
    ops.free_convection = lambda w: orig(w) + 1e-3 * ops.M_free
    u0, f = affine_case()
    cfg = pk.SchemeConfig(dt=0.05, T=0.1, mesh=mesh, degree_u=1, degree_p=1, u0=u0, f=f)
    with pytest.raises(pk.SchemeError, match="energy identity violated at step 1:"):
        pk.run(cfg, ops=ops)


def test_gates_pass_a_wrong_convection_that_the_error_norms_see():
    # the skew-symmetric form feeds no energy whatever field advects and
    # at any scale, so every gate holds for s * B(w); only the error sees it
    case = pk.stream_vortex_case(mu=1.0)
    errors = {}
    for scale in (1.0, 0.0, 0.5, 2.0, -1.0):
        cfg = pk.SchemeConfig(dt=0.05, T=0.15, mu=1.0, mesh_n=8, u0=case.u0, f=case.f)
        space_u = pk.build_space(cfg.mesh, cfg.degree_u, components=2, homogeneous_dirichlet=True)
        space_p = pk.build_space(cfg.mesh, cfg.degree_p, components=1, zero_mean=True)
        ops = pk.build_operators(space_u, space_p)
        convection = ops.free_convection
        ops.free_convection = lambda w, s=scale: s * convection(w)
        traj = pk.run(cfg, ops=ops)
        for column, tol, _ in scheme.GATES:
            assert traj.ledger.column(column).max() <= tol
        errors[scale] = pk.error_norms(traj, case)["err_u_L2"]
    assert min(errors[s] for s in (0.0, 0.5, 2.0, -1.0)) >= 1.5 * errors[1.0]


def l_shaped_mesh(rng):
    # the n=8 grid without its upper-right quarter, boundary flags from the
    # topology, every interior vertex moved by up to h/5
    base = pk.generate_structured_unit_square(8)
    centroids = base.vertices[base.triangles].mean(axis=1)
    kept = base.triangles[~np.all(centroids > 0.5, axis=1)]
    used, triangles = np.unique(kept, return_inverse=True)
    triangles = triangles.reshape(-1, 3)
    vertices = base.vertices[used]
    flags = pk.Mesh(vertices, triangles).boundary_vertex_flags
    vertices[~flags] += rng.uniform(-0.2 / 8, 0.2 / 8, (int((~flags).sum()), 2))
    return pk.Mesh(vertices, triangles)


def test_run_on_a_jittered_l_shaped_mesh(tmp_path):
    # the scheme and its gates need no unit square: an L-shaped mesh, read
    # back from a file, steps with every gate held
    path = tmp_path / "l_shape.txt"
    pk.write_mesh(l_shaped_mesh(np.random.default_rng(11)), path)
    mesh = pk.read_mesh(str(path))
    assert mesh.n_triangles == 96 and np.isclose(mesh.areas.sum(), 0.75)
    case = pk.stream_vortex_case(mu=1.0)
    cfg = pk.SchemeConfig(dt=0.01, T=0.05, mesh=mesh, u0=case.u0, f=case.f)
    traj = pk.run(cfg)
    for column, tol, _ in scheme.GATES:
        assert traj.ledger.column(column).max() <= tol
    report = pk.energy_inequality_check(traj.ledger)
    assert report.ok and report.max_ratio <= 1.0


def rectangle_mesh():
    # the n=8 grid stretched to [0, 2] x [0, 1]
    base = pk.generate_structured_unit_square(8)
    return pk.Mesh(base.vertices * [2.0, 1.0], base.triangles)


@pytest.mark.parametrize(
    "make_mesh, area",
    [(lambda: l_shaped_mesh(np.random.default_rng(5)), 0.75), (rectangle_mesh, 2.0)],
    ids=["l-shape", "rectangle"],
)
def test_run_on_a_mesh_from_vertices_and_triangles_alone(make_mesh, area):
    # the Dirichlet boundary comes from the topology, so any polygon runs
    # from Mesh(vertices, triangles) with every gate held
    mesh = make_mesh()
    assert np.isclose(mesh.areas.sum(), area)
    case = pk.stream_vortex_case(mu=1.0)
    traj = pk.run(pk.SchemeConfig(dt=0.01, T=0.05, mesh=mesh, u0=case.u0, f=case.f))
    assert traj.is_complete() and len(traj.levels) == 6
    for column, tol, _ in scheme.GATES:
        assert traj.ledger.column(column).max() <= tol
    report = pk.energy_inequality_check(traj.ledger)
    assert report.ok and report.max_ratio <= 1.0


def test_unforced_energy_is_monotone(unforced_run):
    _, traj = unforced_run
    E = traj.ledger.column("E_h")
    assert np.all(np.diff(E) <= 1e-12 * E[0])


def test_nonfinite_initial_data_is_rejected():
    cfg = pk.SchemeConfig(
        dt=0.05, T=0.1, mesh_n=2, degree_u=1, degree_p=1,
        u0=lambda x, y: (np.full_like(x, np.nan), 0.0 * y),
    )
    with pytest.raises(ValueError, match="u0\\(x, y\\) .*: got non-finite values"):
        pk.run(cfg)


U0_EXPECTED = "u0\\(x, y\\) must return two finite components of shape \\(8, 12\\): "
F_EXPECTED = "f\\(t, x, y\\) at t=%s must return two finite components of shape \\(8, 3\\): "
T_NODE = "0\\.06127016653792\\d*"  # first Gauss node of the window [0.05, 0.15]


@pytest.mark.parametrize(
    "which,fn,match",
    [
        ("u0", None, U0_EXPECTED + "u0 is None, not a callable"),
        ("u0", lambda t, x, y: (x, y), U0_EXPECTED + "it cannot be called with 2 arguments"),
        ("u0", lambda x, y: (x, y, x), U0_EXPECTED + "got 3 values"),
        ("u0", lambda x, y: 1.0, U0_EXPECTED + "got a float"),
        ("u0", lambda x, y: (x[:, :2], y), U0_EXPECTED + "component 0: could not broadcast"),
        ("u0", lambda x, y: (x, np.full_like(y, np.nan)), U0_EXPECTED + "got non-finite values"),
        ("f", None, F_EXPECTED % T_NODE + "f is None, not a callable"),
        ("f", lambda x, y: (x, y), F_EXPECTED % T_NODE + "it cannot be called with 3 arguments"),
        ("f", lambda t, x, y: (x, y, x), F_EXPECTED % T_NODE + "got 3 values"),
        ("f", lambda t, x, y: (x.ravel(), y), F_EXPECTED % T_NODE + "component 0: could not broadcast"),
        ("f", lambda t, x, y: (x, np.where(t > 0.07, np.nan, y)),
         F_EXPECTED % "0\\.1" + "got non-finite values"),
        ("f", lambda t, x, y: (np.full_like(x, np.inf), y), F_EXPECTED % T_NODE + "got non-finite values"),
    ],
    ids=["u0-none", "u0-arity", "u0-three", "u0-scalar", "u0-shape", "u0-nan",
         "f-none", "f-arity", "f-three", "f-shape", "f-nan-later", "f-inf"],
)
def test_user_callables_are_checked(setup_cache, which, fn, match):
    # u0 goes through the L2 projection of level 0, f through a step's load
    _, _, _, ops = setup_cache(2, 1, 1)
    dt = 0.1
    with pytest.raises(ValueError, match=match):
        if which == "u0":
            init_state(ops, fn, dt)
        else:
            ops.load(fn, 0.5 * dt, 1.5 * dt)


def stream_case_run(store_every):
    case = pk.stream_vortex_case(mu=1.0)
    cfg = pk.SchemeConfig(
        dt=0.02, T=0.2, mu=1.0, mesh_n=4, degree_u=1, degree_p=1,
        u0=case.u0, f=case.f, store_every=store_every,
    )
    return pk.run(cfg)


def test_store_every_keeps_endpoints():
    traj = stream_case_run(3)
    assert [lv.m for lv in traj.levels] == [0, 3, 6, 9, 10]
    assert len(traj.ledger.rows) == 11
    assert not traj.is_complete()
    # the interpolant norms read the ledger, which holds every level
    full = stream_case_run(1)
    assert pk.interpolant_difference_norms(traj) == pk.interpolant_difference_norms(full)
    # an entry that needs every level is None; the final-time ones are the same bits
    case = pk.stream_vortex_case(mu=1.0)
    errs, full_errs = pk.error_norms(traj, case), pk.error_norms(full, case)
    assert errs["err_u_L2L2"] is None and errs["err_utilde_L2L2"] is None
    for key in ("err_u_L2", "err_utilde_L2", "err_u_H1", "err_p_L2"):
        assert errs[key] == full_errs[key]
    # a diagnostic whose only result needs every level raises
    with pytest.raises(ValueError, match="full trajectory.*store_every=1"):
        pk.time_modulus(traj, traj.dt)


def manual_states(ops, case, dt, mu, n_steps):
    states = [init_state(ops, case.u0, dt)]
    loads = [None]
    for m in range(1, n_steps + 1):
        F, _ = ops.load(case.f, (m - 0.5) * dt, (m + 0.5) * dt)
        loads.append(F)
        if m == 1:
            states.append(step(None, states[0], ops, dt, mu, F))
        else:
            states.append(step(states[-2], states[-1], ops, dt, mu, F))
    return states, loads


def identity_residuals(ops, states, loads, dt, mu):
    # replay the levels through the run's ledger, one row per level
    ledger = EnergyLedger(dt, mu)
    window = [None, None, None]
    for m, level in enumerate(states):
        window = window[1:] + [level]
        f_dot = 0.0 if m == 0 else float(loads[m] @ level.utilde)
        record_level(ledger, ops, window, f_dot, 0.0)
    return ledger.column("residual_identity")


def test_step_identity_residual_accepts_true_steps(setup_cache):
    _, su, sp, ops = setup_cache(4, 1, 1)
    case = pk.stream_vortex_case(mu=1.0)
    dt = 0.02
    states, loads = manual_states(ops, case, dt, 1.0, 5)
    assert identity_residuals(ops, states, loads, dt, 1.0).max() <= 1e-9


def test_step_identity_residual_detects_perturbation(setup_cache):
    _, su, sp, ops = setup_cache(4, 1, 1)
    case = pk.stream_vortex_case(mu=1.0)
    dt = 0.02
    states, loads = manual_states(ops, case, dt, 1.0, 3)
    good = states[3]
    rng = np.random.default_rng(23)
    bump = 1e-3 * rng.standard_normal(su.ndofs)
    bad = Level(good.m, good.t, good.utilde + bump, good.phi, good.p)
    assert identity_residuals(ops, states[:3] + [bad], loads, dt, 1.0)[3] > 1e-5


def test_forcing_cutoff_changes_only_clipped_windows(setup_cache):
    mesh, su, sp, ops = setup_cache(2, 1, 1)
    u0, f = affine_case()
    dt, T = 0.05, 0.2

    def run_with(cutoff):
        cfg = pk.SchemeConfig(
            dt=dt, T=T, mu=1.0, mesh=mesh, degree_u=1, degree_p=1,
            u0=u0, f=f, f_cutoff=cutoff,
        )
        return pk.run(cfg, ops=ops)

    plain = run_with(None)
    clipped = run_with(T)
    harmless = run_with(T + 0.5 * dt)
    # the final window [T - dt/2, T + dt/2] is halved by cutoff=T
    assert not np.allclose(plain.final.utilde, clipped.final.utilde, atol=1e-12)
    # a cutoff at T + dt/2 never clips anything
    assert np.array_equal(plain.final.utilde, harmless.final.utilde)
    # earlier levels are identical in all three runs
    assert np.array_equal(plain.levels[2].utilde, clipped.levels[2].utilde)
