"""Manufactured cases: frozen point values, exact-field structure, error
norms against closed forms, and the convergence studies."""

import math
import os
import subprocess
import sys
import time
import weakref

import numpy as np
import pytest

import ipcs2d as pk
from ipcs2d.scheme import Level

# frozen reference values, computed symbolically before the package
# existed (notes kept outside the repository)
SAMPLE_T, SAMPLE_X, SAMPLE_Y = 0.3, 0.4, 0.7
SAMPLE_U = (-2.58181556847654, -1.1546230232961614)
SAMPLE_P = -0.17352314697627094
SAMPLE_F = (-125.33804002947483, -88.6023870732213)
U0_NORM_SQ = 3.0 * math.pi**2 / 8.0  # = 3.7011016504085097


def tensor_grid(npts=24):
    xs, wx = np.polynomial.legendre.leggauss(npts)
    xs = 0.5 * (xs + 1.0)
    wx = 0.5 * wx
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    return X, Y, np.outer(wx, wx)


def test_stream_vortex_is_divergence_free():
    case = pk.stream_vortex_case(mu=1.0)
    rng = np.random.default_rng(31)
    for _ in range(100):
        t, x, y = rng.uniform(0.0, 1.0, size=3)
        g11, g12, g21, g22 = case.grad_u(t, x, y)
        assert abs(float(g11) + float(g22)) <= 1e-12


def test_stream_vortex_vanishes_on_the_boundary():
    case = pk.stream_vortex_case(mu=1.0)
    rng = np.random.default_rng(32)
    for _ in range(100):
        s = rng.uniform(0.0, 1.0)
        side = rng.integers(0, 4)
        x, y = [(0.0, s), (1.0, s), (s, 0.0), (s, 1.0)][side]
        u1, u2 = case.u(rng.uniform(0.0, 1.0), x, y)
        assert abs(float(u1)) <= 1e-13 and abs(float(u2)) <= 1e-13


def test_stream_vortex_pressure_has_zero_mean():
    case = pk.stream_vortex_case(mu=1.0)
    X, Y, W = tensor_grid()
    for t in (0.0, SAMPLE_T):
        assert abs(float((W * case.p(t, X, Y)).sum())) <= 1e-14


def test_stream_vortex_frozen_point_values():
    case = pk.stream_vortex_case(mu=1.0)
    u1, u2 = case.u(SAMPLE_T, SAMPLE_X, SAMPLE_Y)
    assert math.isclose(float(u1), SAMPLE_U[0], rel_tol=1e-12)
    assert math.isclose(float(u2), SAMPLE_U[1], rel_tol=1e-12)
    assert math.isclose(float(case.p(SAMPLE_T, SAMPLE_X, SAMPLE_Y)), SAMPLE_P, rel_tol=1e-12)
    f1, f2 = case.f(SAMPLE_T, SAMPLE_X, SAMPLE_Y)
    assert math.isclose(float(f1), SAMPLE_F[0], rel_tol=1e-12)
    assert math.isclose(float(f2), SAMPLE_F[1], rel_tol=1e-12)


@pytest.mark.parametrize("mu", [1.0, 0.01])
def test_forcing_is_the_momentum_residual(mu):
    # du/dt + (u . grad) u - mu lap(u) + grad p from the exact fields by
    # central differences, independent of how the forcing was rewritten
    case = pk.stream_vortex_case(mu=mu)
    rng = np.random.default_rng(41)
    t, x, y = rng.uniform(0.0, 1.0, size=(3, 50))
    h = 5e-4

    def central(fn, dt=0.0, dx=0.0, dy=0.0):
        plus = fn(t + dt, x + dx, y + dy)
        minus = fn(t - dt, x - dx, y - dy)
        return [(a - b) / (2.0 * h) for a, b in zip(plus, minus)]

    u1, u2 = case.u(t, x, y)
    g11, g12, g21, g22 = case.grad_u(t, x, y)
    du1_dt, du2_dt = central(case.u, dt=h)
    d11_dx, _, d21_dx, _ = central(case.grad_u, dx=h)
    _, d12_dy, _, d22_dy = central(case.grad_u, dy=h)
    (dp_dx,) = central(lambda t, x, y: (case.p(t, x, y),), dx=h)
    (dp_dy,) = central(lambda t, x, y: (case.p(t, x, y),), dy=h)
    r1 = du1_dt + u1 * g11 + u2 * g12 - mu * (d11_dx + d12_dy) + dp_dx
    r2 = du2_dt + u1 * g21 + u2 * g22 - mu * (d21_dx + d22_dy) + dp_dy

    f1, f2 = case.f(t, x, y)
    scale = max(np.abs(f1).max(), np.abs(f2).max())
    assert np.abs(f1 - r1).max() <= 1e-5 * scale
    assert np.abs(f2 - r2).max() <= 1e-5 * scale

    # grad_u is the derivative of u, (d1u1, d2u1, d1u2, d2u2)
    du1_dx, du2_dx = central(case.u, dx=h)
    du1_dy, du2_dy = central(case.u, dy=h)
    g_scale = max(np.abs(g).max() for g in (g11, g12, g21, g22))
    for fd, g in ((du1_dx, g11), (du2_dx, g21), (du1_dy, g12), (du2_dy, g22)):
        assert np.abs(fd - g).max() <= 1e-5 * g_scale


def test_import_leaves_sympy_unloaded():
    # the manufactured cases are closed-form numpy, so importing the
    # package must not pull in a symbolic engine
    src = os.path.dirname(os.path.dirname(os.path.abspath(pk.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, ipcs2d; print('sympy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_import_leaves_the_factorization_modules_unloaded():
    # scipy.sparse.linalg and scipy.linalg take 0.10-0.14 s to import; the
    # first factorization loads them, so neither import of the package does
    src = os.path.dirname(os.path.dirname(os.path.abspath(pk.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, ipcs2d, ipcs2d.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.sparse.linalg', 'scipy.linalg'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_stream_vortex_case_builds_within_budget():
    t0 = time.perf_counter()
    case = pk.stream_vortex_case(mu=1.0)
    elapsed = time.perf_counter() - t0
    assert case.name == "stream_vortex"
    assert elapsed < 1.5


def test_stream_vortex_initial_energy():
    case = pk.stream_vortex_case(mu=1.0)
    X, Y, W = tensor_grid()
    u1, u2 = case.u(0.0, X, Y)
    assert math.isclose(float((W * (u1 * u1 + u2 * u2)).sum()), U0_NORM_SQ, rel_tol=1e-12)


def test_case_u0_is_u_at_time_zero():
    case = pk.stream_vortex_case(mu=1.0)
    x = np.array([0.2, 0.6])
    y = np.array([0.8, 0.1])
    a = np.array(case.u0(x, y))
    b = np.array(case.u(0.0, x, y))
    assert np.array_equal(a, b)


def test_memoized_factors_match_a_fresh_case():
    # one case evaluates every field at the same points over and over; its
    # memo of the spatial factors must give the values of a fresh case
    rng = np.random.default_rng(3)
    x, y = rng.random((2, 40, 7))
    x2, y2 = rng.random((2, 40, 7))

    def fields(case, t, x, y):
        return [np.asarray(v) for v in
                (*case.f(t, x, y), *case.u(t, x, y), *case.grad_u(t, x, y), case.p(t, x, y))]

    def assert_fresh(case, t, x, y):
        # bit for bit what a case that never saw other points gives
        for got, expect in zip(fields(case, t, x, y), fields(pk.stream_vortex_case(0.7), t, x, y)):
            assert np.array_equal(got, expect)

    case = pk.stream_vortex_case(0.7)
    for t in (0.0, 0.3, 1.1):
        assert_fresh(case, t, x, y)
    assert_fresh(case, 0.3, x2, y2)  # a different point set
    assert_fresh(case, 0.3, x, y)  # and back
    x[3, 2] += 0.25  # the same array, changed in place
    assert_fresh(case, 0.3, x, y)
    y[::2] = 0.5
    assert_fresh(case, 0.4, x, y)
    assert_fresh(case, 0.4, x[:, :3], y[:, :3])  # a view of another shape
    # read-only points, which the case remembers: the forcing and the exact
    # fields take turns at one set, then at a read-only view of a
    # writeable array that is changed in place
    frozen = [x2.copy(), y2.copy()]
    base = np.stack([x, y], axis=-1)
    views = [base[..., 0], base[..., 1]]
    for a in frozen + views:
        a.flags.writeable = False
    for points in (frozen, views):
        for t in (0.0, 0.3, 0.3, 1.1):
            assert_fresh(case, t, *points)
    base[2:5] += 0.125
    assert_fresh(case, 0.3, *views)
    # the case keeps no point set alive, so its memo goes with the points
    points = [np.array(rng.random((40, 7))) for _ in range(2)]
    for c in (0, 1):
        points[c].flags.writeable = False
    for field in (case.u, case.grad_u, case.p, case.f):
        field(0.3, *points)
    alive = [weakref.ref(c) for c in points]
    del points
    assert all(ref() is None for ref in alive)


def test_forcing_fields_are_computed_once_at_read_only_points(setup_cache, monkeypatch):
    # an OperatorSet's rule points are read-only: the forcing keeps its six
    # spatial fields there, by reference, and recombines them on each of a
    # step's three calls; writeable points, or a read-only view of a
    # writeable array, are evaluated afresh on every call
    _, _, _, ops = setup_cache(4, 2, 1)
    x, y = ops.geom.x, ops.geom.y
    case = pk.stream_vortex_case(0.7)
    times = (0.1, 0.2, 0.3)
    sin, arrays = np.sin, []

    def counted(a, *args, **kwargs):
        if np.ndim(a):
            arrays.append(np.shape(a))
        return sin(a, *args, **kwargs)

    monkeypatch.setattr(np, "sin", counted)
    got = [np.array(case.f(t, x, y)) for t in times]
    assert arrays == [x.shape, y.shape]  # sin(pi x) and sin(pi y), once
    base = ops.geom.phys.copy()
    xv, yv = base[..., 0], base[..., 1]
    xv.flags.writeable = yv.flags.writeable = False
    for points in ((x.copy(), y.copy()), (xv, yv)):
        arrays.clear()
        for t in times:
            case.f(t, *points)
        assert len(arrays) == 2 * len(times)
    monkeypatch.undo()
    for t, values in zip(times, got):
        assert np.array_equal(values, np.array(pk.stream_vortex_case(0.7).f(t, x, y)))
    # a write to the base array of a read-only view reaches the values
    case.f(0.3, xv, yv)
    base[..., 0] += 0.125
    fresh = pk.stream_vortex_case(0.7).f(0.3, xv, yv)
    assert np.array_equal(np.array(case.f(0.3, xv, yv)), np.array(fresh))


def forcing_by_terms(mu, t, x, y):
    """The stream vortex forcing term by term, each with its time factor:
    the arithmetic before the spatial fields were kept per point set."""
    pi = math.pi
    sx, cx, sy, cy = np.sin(pi * x), np.cos(pi * x), np.sin(pi * y), np.cos(pi * y)
    Sx, Sy = 2.0 * sx * cx, 2.0 * sy * cy
    ct, st = np.cos(t), np.sin(t)
    sx2, sy2 = sx * sx, sy * sy
    convect = 2.0 * pi**3 * ct * ct * sx2 * sy2
    diffuse = 2.0 * pi**3 * mu * ct
    return (
        -pi * st * sx2 * Sy + convect * Sx - diffuse * Sy * (1.0 - 4.0 * sx2) - pi * ct * sx * cy,
        pi * st * Sx * sy2 + convect * Sy - diffuse * Sx * (4.0 * sy2 - 1.0) - pi * ct * cx * sy,
    )


@pytest.mark.parametrize("mu", [1.0, 0.01])
def test_forcing_fields_match_the_term_by_term_forcing(mu):
    rng = np.random.default_rng(5)
    x, y = rng.random((2, 300, 7))
    case = pk.stream_vortex_case(mu)
    for t in (0.0, 0.3, 1.1, 2.9):
        expect = np.array(forcing_by_terms(mu, t, x, y))
        got = np.array(case.f(t, x, y))
        assert np.abs(got - expect).max() <= 4 * np.spacing(np.abs(expect).max())
        # the memoized fields give a fresh case's values bit for bit
        assert np.array_equal(got, np.array(pk.stream_vortex_case(mu).f(t, x, y)))


@pytest.fixture(scope="module")
def zero_field_run():
    cfg = pk.SchemeConfig(
        dt=0.05, T=0.2, mesh_n=8, degree_u=2, degree_p=1,
        u0=lambda x, y: (0.0 * x, 0.0 * y),
    )
    return pk.run(cfg)


def test_error_norms_of_zero_run_match_closed_forms(zero_field_run):
    """With u_h identically zero the errors ARE the exact-field norms."""
    traj = zero_field_run
    case = pk.stream_vortex_case(mu=1.0)
    errs = pk.error_norms(traj, case)
    T = 0.2
    assert math.isclose(errs["err_u_L2"], math.sqrt(U0_NORM_SQ) * abs(math.cos(T)), rel_tol=1e-12)
    assert errs["err_utilde_L2"] == errs["err_u_L2"]
    assert math.isclose(errs["err_p_L2"], 0.5 * abs(math.cos(T)), rel_tol=1e-12)

    X, Y, W = tensor_grid()
    g = case.grad_u(T, X, Y)
    ref_h1 = math.sqrt(float((W * sum(gi * gi for gi in g)).sum()))
    assert math.isclose(errs["err_u_H1"], ref_h1, rel_tol=1e-12)

    dt = traj.dt
    ref_l2l2_sq = dt * sum(
        U0_NORM_SQ * math.cos(m * dt) ** 2 for m in range(1, traj.n_steps + 1)
    )
    assert math.isclose(errs["err_u_L2L2"], math.sqrt(ref_l2l2_sq), rel_tol=1e-12)


def test_exact_fields_injected_into_a_trajectory_have_no_error(setup_cache):
    mesh, su, sp, ops = setup_cache(4, 1, 1)
    rest_case = pk.ManufacturedCase(
        name="rest",
        mu=1.0,
        u=lambda t, x, y: (0.0 * x, 0.0 * y),
        p=lambda t, x, y: x - 0.5 + 0.0 * y,
        f=lambda t, x, y: (1.0 + 0.0 * x, 0.0 * y),
        grad_u=lambda t, x, y: (0.0 * x, 0.0 * x, 0.0 * x, 0.0 * x),
    )
    cfg = pk.SchemeConfig(
        dt=0.05, T=0.1, mesh=mesh, degree_u=1, degree_p=1,
        u0=lambda x, y: (0.0 * x, 0.0 * y),
    )
    traj = pk.run(cfg, ops=ops)
    # replace the final level by the interpolated exact fields, which lie
    # in the discrete spaces (zero velocity, affine pressure)
    exact = Level(
        traj.final.m,
        traj.final.t,
        np.zeros(su.ndofs),
        np.zeros(sp.ndofs),
        sp.interpolate(lambda x, y: x - 0.5),
    )
    traj.levels[-1] = exact
    errs = pk.error_norms(traj, rest_case)
    assert errs["err_u_L2"] <= 1e-14
    assert errs["err_u_H1"] <= 1e-14
    assert errs["err_p_L2"] <= 1e-13
    assert errs["err_u_L2L2"] <= 1e-14


def test_velocity_error_split_obeys_triangle_inequality(vortex_run):
    _, traj, _ = vortex_run
    case = pk.stream_vortex_case(mu=1.0)
    errs = pk.error_norms(traj, case)
    gap = abs(errs["err_u_L2"] - errs["err_utilde_L2"])
    separation = math.sqrt(traj.ops.grad_p_sq(traj.final.phi))
    assert gap <= separation + 1e-12


def test_temporal_study_is_second_order(temporal_study):
    rows, warnings, _, steps = temporal_study
    assert steps == [40, 80, 160, 320]
    assert len(rows) == 3
    assert math.isnan(rows[0]["rate_u"])
    dts = [row["dt"] for row in rows]
    assert all(math.isclose(a / b, 2.0) for a, b in zip(dts, dts[1:]))
    errs = [row["err_u_L2"] for row in rows]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    for row in rows[1:]:
        assert math.isfinite(row["rate_u"])
    assert warnings == []


def test_spatial_study_superconverges_with_quadratic_elements():
    case = pk.stream_vortex_case(mu=1.0)
    cfg = pk.SchemeConfig(
        dt=1.25e-3, T=0.05, mu=1.0, mesh_n=4, degree_u=2, degree_p=1,
        u0=case.u0, f=case.f, case_name=case.name,
    )
    rows, warnings = pk.convergence_study("spatial", cfg, case)
    assert len(rows) == 4
    assert [row["n"] for row in rows] == [4, 8, 16, 32]
    assert 2.5 <= rows[-1]["rate_u"] <= 3.5
    assert warnings == []


def test_coupled_study_refines_dt_with_h_on_linear_elements():
    # P1/P1 whatever the config's degrees, dt = 4 dt/n: the velocity error
    # falls as h^2
    case = pk.stream_vortex_case(mu=1.0)
    cfg = pk.SchemeConfig(
        dt=0.05, T=0.1, mu=1.0, mesh_n=4, degree_u=2, degree_p=1,
        u0=case.u0, f=case.f, case_name=case.name,
    )
    rows, warnings = pk.convergence_study("coupled", cfg, case)
    assert [row["n"] for row in rows] == [4, 8, 16, 32]
    assert all(math.isclose(row["dt"], 4 * 0.05 / row["n"]) for row in rows)
    assert 1.7 <= rows[-1]["rate_u"] <= 2.5
    assert warnings == []


def test_zero_case_study_has_zero_errors_and_nan_rates():
    case = pk.zero_case(mu=1.0)
    cfg = pk.SchemeConfig(
        dt=0.02, T=0.04, mu=1.0, mesh_n=4, degree_u=1, degree_p=1,
        u0=case.u0, f=case.f, case_name=case.name,
    )
    rows, warnings = pk.convergence_study("spatial", cfg, case)
    for row in rows:
        assert row["err_u_L2"] == 0.0 and row["err_p_L2"] == 0.0
        assert math.isnan(row["rate_u"]) and math.isnan(row["rate_p"])
    assert warnings == []


def test_case_by_name():
    assert pk.case_by_name("stream_vortex", mu=1.0).name == "stream_vortex"
    assert pk.case_by_name("zero", mu=0.3).mu == 0.3
    with pytest.raises(ValueError, match="unknown case"):
        pk.case_by_name("couette", mu=1.0)
    with pytest.raises(ValueError, match="mu must be positive"):
        pk.stream_vortex_case(mu=0.0)


@pytest.mark.parametrize(
    "mu", [0, -1, float("nan"), float("inf"), 10**400], ids=["0", "-1", "nan", "inf", "10**400"]
)
@pytest.mark.parametrize("make_case", [pk.stream_vortex_case, pk.zero_case])
def test_cases_reject_what_the_config_rejects(make_case, mu):
    with pytest.raises(ValueError) as config_error:
        pk.SchemeConfig(dt=0.1, T=1.0, mu=mu, mesh_n=2, u0=lambda x, y: (x, y))
    assert "mu must be positive and finite" in str(config_error.value)
    with pytest.raises(ValueError) as case_error:
        make_case(mu)
    assert str(case_error.value) == str(config_error.value)


def test_study_requires_a_case():
    cfg = pk.SchemeConfig(dt=0.02, T=0.04, mesh_n=2, u0=lambda x, y: (0.0 * x, 0.0 * y))
    with pytest.raises(ValueError, match="names none"):
        pk.convergence_study("spatial", cfg, None)


def test_study_rejects_unknown_mode():
    case = pk.zero_case(mu=1.0)
    cfg = pk.SchemeConfig(dt=0.02, T=0.04, mesh_n=2, u0=case.u0, case_name="zero")
    with pytest.raises(ValueError, match="mode must be"):
        pk.convergence_study("diagonal", cfg, case)
