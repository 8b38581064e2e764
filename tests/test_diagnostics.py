"""Trajectory diagnostics: energy bound, interpolant norms, time modulus,
and the discrete Gronwall lemma."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ipcs2d as pk
from ipcs2d.diagnostics import EnergyLedger, record_level
from ipcs2d.scheme import init_state

from oracles import (
    admissible_sequence,
    gronwall_equality_sequence,
    modulus_sq_segment_midpoint,
    modulus_sq_uniform_midpoint,
)


def test_energy_bound_holds_on_forced_run(vortex_run):
    _, traj, _ = vortex_run
    report = pk.energy_inequality_check(traj.ledger)
    assert report.ok
    assert report.forced and report.energy_monotone is None
    assert report.M.size == traj.n_steps
    assert report.max_ratio <= 1.0
    assert report.max_ratio_gronwall <= 1.0
    assert report.max_utilde_ratio <= 1.0
    # the raw Gronwall factor is the sharper of the two right sides
    assert np.all(report.rhs_gronwall <= report.rhs_exp * (1.0 + 1e-12))


def test_energy_decays_without_forcing(unforced_run):
    _, traj = unforced_run
    report = pk.energy_inequality_check(traj.ledger)
    assert report.ok
    assert not report.forced
    assert report.energy_monotone is True
    assert np.all(np.diff(report.energy) <= 1e-12 * report.energy[0])


def test_zero_run_report_uses_zero_over_zero_convention():
    cfg = pk.SchemeConfig(
        dt=0.05, T=0.2, mesh_n=2, degree_u=1, degree_p=1,
        u0=lambda x, y: (0.0 * x, 0.0 * y),
    )
    traj = pk.run(cfg)
    report = pk.energy_inequality_check(traj.ledger)
    assert report.ok
    assert report.max_ratio == 0.0
    norms = pk.interpolant_difference_norms(traj)
    assert all(v == 0.0 for v in norms.values())


def test_interpolant_norms_match_ledger_sums(vortex_run):
    _, traj, _ = vortex_run
    norms = pk.interpolant_difference_norms(traj)
    dt = traj.dt
    split = traj.ledger.column("split_err_sq")
    sd = traj.ledger.column("second_diff_sq")
    assert np.isclose(norms["u_minus_utilde_sq"], dt * split[1:].sum(), rtol=1e-12)
    assert np.isclose(norms["u_minus_ubar_sq"], dt * sd[2:].sum(), rtol=1e-12)
    assert norms["ubar_minus_uhat_sq"] > 0.0


def test_traced_splitting_bound(vortex_run):
    _, traj, _ = vortex_run
    report = pk.energy_inequality_check(traj.ledger)
    norms = pk.interpolant_difference_norms(traj)
    split1 = traj.ledger.rows[1]["split_err_sq"]
    # dt * (first-step term + half the dissipative budget) dominates the
    # cumulative splitting energy
    bound = traj.dt * (split1 + 0.5 * report.rhs_exp[-1])
    assert norms["u_minus_utilde_sq"] <= bound


def test_energy_check_requires_small_dt():
    cfg = pk.SchemeConfig(
        dt=0.2, T=0.4, mesh_n=2, degree_u=1, degree_p=1,
        u0=lambda x, y: (0.0 * x, 0.0 * y),
    )
    traj = pk.run(cfg)
    with pytest.raises(ValueError, match="dt <= 1/6"):
        pk.energy_inequality_check(traj.ledger)


def test_energy_check_requires_a_completed_step(setup_cache):
    _, su, sp, ops = setup_cache(2, 1, 1)
    dt = 0.05
    state = init_state(ops, lambda x, y: (0.0 * x, 0.0 * y), dt)
    ledger = EnergyLedger(dt, 1.0)
    record_level(ledger, ops, dt, 1.0, [None, None, state], 0.0, 0.0)
    with pytest.raises(ValueError, match="at least one completed step"):
        pk.energy_inequality_check(ledger)


def test_time_modulus_vanishes_at_zero_shift(vortex_run):
    _, traj, _ = vortex_run
    assert pk.time_modulus(traj, 0.0) == 0.0


def test_time_modulus_matches_uniform_midpoint_oracle(vortex_run):
    _, traj, _ = vortex_run
    dt = traj.dt
    values = [lv.utilde for lv in traj.levels]
    for tau in (0.5 * dt, dt, 2.0 * dt, 4.0 * dt):
        got = pk.time_modulus(traj, tau)
        ref = modulus_sq_uniform_midpoint(values, dt, tau, traj.ops.norm_u_sq)
        assert abs(got - ref) <= 1e-12 * max(1.0, ref)


@settings(max_examples=25, deadline=None)
@given(tau=st.floats(min_value=1e-4, max_value=0.4 - 1e-4))
def test_time_modulus_matches_segment_oracle_at_any_shift(vortex_run, tau):
    _, traj, _ = vortex_run
    values = [lv.utilde for lv in traj.levels]
    got = pk.time_modulus(traj, tau)
    ref = modulus_sq_segment_midpoint(values, traj.dt, tau, traj.ops.norm_u_sq)
    assert abs(got - ref) <= 1e-10 * max(1.0, ref)


def test_time_modulus_grows_with_shift(vortex_run):
    _, traj, _ = vortex_run
    dt = traj.dt
    assert pk.time_modulus(traj, 0.5 * dt) <= pk.time_modulus(traj, 4.0 * dt)


def test_time_modulus_validates_shift(vortex_run):
    _, traj, _ = vortex_run
    with pytest.raises(ValueError, match="tau"):
        pk.time_modulus(traj, -0.01)
    with pytest.raises(ValueError, match="tau"):
        pk.time_modulus(traj, traj.n_steps * traj.dt)
    for tau in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"tau must lie in \[0, T\)"):
            pk.time_modulus(traj, tau)


def test_gronwall_bound_without_accumulation_is_b():
    b = np.array([0.5, 1.0, 0.25, 2.0])
    assert np.allclose(pk.discrete_gronwall_bound(b, 0.0, 0.1), b, rtol=0, atol=0)


@pytest.mark.parametrize(
    "b,nu,dt,match",
    [
        ([1.0, -0.5], 1.0, 0.1, "nonnegative"),
        ([], 1.0, 0.1, "nonempty"),
        ([1.0], 1.0, 1.0, "nu \\* dt < 1"),
        ([1.0], -1.0, 0.1, "nu >= 0"),
        ([1.0], 1.0, -0.1, "dt > 0"),
        ([1.0, np.nan], 1.0, 0.1, "finite"),
        ([np.inf], 1.0, 0.1, "finite"),
        ([1.0], np.nan, 0.1, "finite nu"),
        ([1.0], np.inf, 0.0, "finite nu"),
        ([1.0], 1.0, np.nan, "finite nu"),
        ([1.0], 0.0, np.inf, "finite nu"),
        ([1e307] * 3, 1.0, 0.9, "float range"),
    ],
)
def test_gronwall_bound_validates_inputs(b, nu, dt, match):
    for bound in (pk.discrete_gronwall_bound, pk.gronwall_monotone_bound):
        with pytest.raises(ValueError, match=match):
            bound(b, nu, dt)


@settings(max_examples=200, deadline=None)
@given(
    b=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=6),
    nu=st.floats(allow_nan=True, allow_infinity=True),
    dt=st.floats(allow_nan=True, allow_infinity=True),
)
def test_gronwall_bounds_raise_value_error_or_are_finite(b, nu, dt):
    for bound in (pk.discrete_gronwall_bound, pk.gronwall_monotone_bound):
        try:
            out = bound(b, nu, dt)
        except ValueError:
            continue
        assert out.shape == (len(b),) and np.all(np.isfinite(out))


def test_gronwall_equality_sequence_saturates_bound():
    rng = np.random.default_rng(4)
    b = rng.uniform(0.0, 2.0, size=50)
    nu, dt = 2.0, 0.01
    a = gronwall_equality_sequence(b, nu, dt)
    bound = pk.discrete_gronwall_bound(b, nu, dt)
    assert np.allclose(a, bound, rtol=1e-12, atol=0)


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0),
            st.floats(min_value=0.0, max_value=5.0),
        ),
        min_size=1,
        max_size=30,
    ),
    nudt=st.floats(min_value=0.0, max_value=0.9),
)
def test_gronwall_bound_dominates_admissible_sequences(data, nudt):
    b = np.array([row[0] for row in data])
    slack = np.array([row[1] for row in data])
    dt = 0.05
    nu = nudt / dt
    a = admissible_sequence(b, nu, dt, slack)
    bound = pk.discrete_gronwall_bound(b, nu, dt)
    assert np.all(a <= bound + 1e-9 * np.maximum(1.0, bound))


def test_monotone_closed_form():
    nu, dt = 2.0, 0.02
    r = 1.0 / (1.0 - nu * dt)
    b_const = np.full(20, 3.0)
    closed = pk.gronwall_monotone_bound(b_const, nu, dt)
    assert np.allclose(closed, 3.0 * r ** np.arange(1, 21), rtol=1e-14)
    # for constant b the closed form IS the general bound
    assert np.allclose(closed, pk.discrete_gronwall_bound(b_const, nu, dt), rtol=1e-12)
    # for nondecreasing b it dominates entrywise
    rng = np.random.default_rng(9)
    b_inc = np.cumsum(rng.uniform(0.0, 1.0, size=25))
    general = pk.discrete_gronwall_bound(b_inc, nu, dt)
    assert np.all(pk.gronwall_monotone_bound(b_inc, nu, dt) >= general * (1.0 - 1e-12))
    with pytest.raises(ValueError, match="nondecreasing"):
        pk.gronwall_monotone_bound([2.0, 1.0], nu, dt)
