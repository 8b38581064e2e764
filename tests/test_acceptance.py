"""Acceptance gate: one test per advertised guarantee, each at its stated
tolerance and runtime budget, printing one summary line on success (pytest
itself reports the fail line otherwise)."""

import math
import time

import numpy as np

import ipcs2d as pk
from ipcs2d.scheme import first_step_backward_euler, init_state

from oracles import DenseScheme, admissible_sequence, full_convection, full_velocity_matrices
from oracles import gronwall_equality_sequence
from oracles import modulus_sq_uniform_midpoint
from test_scheme import affine_case


def _suite_ledgers(vortex_run, unforced_run, splitting_runs):
    _, vortex, _ = vortex_run
    _, unforced = unforced_run
    out = [("forced 40-step", vortex), ("unforced decay", unforced)]
    out += [("splitting dt=%g" % cfg.dt, traj) for cfg, traj in splitting_runs]
    return out


def test_criterion_01_convection_skew_symmetry(setup_cache):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    combos = [(n, k) for n in (2, 4, 8) for k in (1, 2)]
    worst = 0.0
    n_pairs = 102
    for i in range(n_pairs):
        n, k = combos[i % len(combos)]
        _, su, _, ops = setup_cache(n, k, 1)
        w = rng.standard_normal(su.ndofs)
        v = rng.standard_normal(su.ndofs)
        w[~su.free] = 0.0
        v[~su.free] = 0.0
        B = full_convection(ops, w)
        value = abs(float(v @ (B @ v)))
        bound = 1e-12 * float(np.abs(w).max()) * float(v @ (full_velocity_matrices(ops)[0] @ v))
        assert value <= bound
        worst = max(worst, value / bound if bound > 0 else 0.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        "criterion 01 PASS: |v'B(w)v| <= 1e-12 |w|_inf |v|_M^2 on %d pairs "
        "(worst fill %.1e of budget, %.1fs < 10s)" % (n_pairs, worst, elapsed)
    )


def test_criterion_02_per_step_energy_identities(vortex_run):
    cfg, traj, elapsed = vortex_run
    assert cfg.n_steps == 40 and cfg.degree_u == 2
    res = traj.ledger.column("residual_identity")
    assert res.size == 41
    # row 0 is the init identity, row 1 the first-step identity, the rest
    # the two-step identity
    assert np.all(res <= 1e-9)
    assert elapsed < 30.0
    print(
        "criterion 02 PASS: init + first-step + 40-step identity residuals "
        "max %.2e <= 1e-9 (run %.1fs < 30s)" % (res.max(), elapsed)
    )


def test_criterion_03_velocity_splitting_pythagoras(
    vortex_run, unforced_run, splitting_runs
):
    worst = 0.0
    for name, traj in _suite_ledgers(vortex_run, unforced_run, splitting_runs):
        res = traj.ledger.column("residual_pythagoras")
        assert np.all(res <= 1e-10), name
        worst = max(worst, float(res.max()))
    print(
        "criterion 03 PASS: splitting orthogonality residual max %.2e <= "
        "1e-10 on every suite run" % worst
    )


def test_criterion_04_weak_divergence(vortex_run, unforced_run, splitting_runs):
    worst = 0.0
    for name, traj in _suite_ledgers(vortex_run, unforced_run, splitting_runs):
        res = traj.ledger.column("residual_weak_div")
        assert np.all(res <= 1e-10), name
        worst = max(worst, float(res.max()))
    print(
        "criterion 04 PASS: |(u, grad psi)| <= 1e-10 |u| |grad psi| on every "
        "suite run (max %.2e)" % worst
    )


def test_criterion_05_global_energy_bound(vortex_run, unforced_run, splitting_runs):
    ratios = []
    for name, traj in _suite_ledgers(vortex_run, unforced_run, splitting_runs):
        report = pk.energy_inequality_check(traj.ledger)
        assert np.all(report.lhs <= report.rhs_exp), name
        assert report.ok, name
        ratios.append(report.max_ratio)
    _, unforced = unforced_run
    report = pk.energy_inequality_check(unforced.ledger)
    assert report.energy_monotone is True
    E = unforced.ledger.column("E_h")
    assert np.all(np.diff(E) <= 1e-12 * E[0])
    print(
        "criterion 05 PASS: LHS <= traced RHS on every run (max ratio %.3f); "
        "unforced E_h non-increasing" % max(ratios)
    )


def test_criterion_06_dense_oracle_step_equivalence(setup_cache):
    t0 = time.perf_counter()
    u0, f = affine_case()
    dt, mu = 0.1, 0.7

    gaps = []
    for n in (1, 2):
        mesh, su, sp, ops = setup_cache(n, 1, 1)
        cfg = pk.SchemeConfig(
            dt=dt, T=2 * dt, mu=mu, mesh=mesh, degree_u=1, degree_p=1,
            u0=u0, f=f, tol_poisson=1e-13, tol_momentum=1e-13,
        )
        traj = pk.run(cfg, ops=ops)

        dense = DenseScheme(mesh.vertices, mesh.triangles, mesh.boundary_vertex_flags)
        ut0, p0, phi0 = dense.init_levels(u0, dt)
        ut1, p1, phi1 = dense.backward_euler(ut0, p0, phi0, f, dt, mu)
        ut2, p2, phi2 = dense.bdf2_step((ut0, phi0, ut1, p1, phi1), f, dt, mu, 2)

        worst = 0.0
        for lv, (ut, p, phi) in zip(
            traj.levels, [(ut0, p0, phi0), (ut1, p1, phi1), (ut2, p2, phi2)]
        ):
            for a, b in ((lv.utilde, ut), (lv.p, p), (lv.phi, phi)):
                gap = float(np.abs(a - b).max())
                assert gap <= 1e-12 * max(1.0, float(np.abs(b).max()))
                worst = max(worst, gap)
        gaps.append(worst)
        if n == 2:
            # the supporting mesh must actually move (n=1 has no interior
            # velocity dof, so its agreement is structural)
            assert pk.error_norms(traj, pk.zero_case(mu=1.0))["err_p_L2"] > 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        "criterion 06 PASS: init + BE + BDF2 match the dense oracle to 1e-12 "
        "(n=1 gap %.1e, n=2 gap %.1e, %.2fs < 1s)" % (gaps[0], gaps[1], elapsed)
    )


def test_criterion_07_temporal_convergence(temporal_study):
    rows, warnings, elapsed, _ = temporal_study
    rate = rows[-1]["rate_u"]
    assert 1.7 <= rate <= 2.5
    assert elapsed < 600.0
    print(
        "criterion 07 PASS: finest-pair L2 velocity rate %.3f in [1.7, 2.5] "
        "(%.0fs < 600s)" % (rate, elapsed)
    )


def test_criterion_08_splitting_error_scaling(splitting_runs):
    values = []
    for cfg, traj in splitting_runs:
        norms = pk.interpolant_difference_norms(traj)
        values.append(norms["u_minus_utilde_sq"])
        # the traced energy budget dominates the cumulative splitting term
        report = pk.energy_inequality_check(traj.ledger)
        split1 = traj.ledger.rows[1]["split_err_sq"]
        assert norms["u_minus_utilde_sq"] <= traj.dt * (split1 + 0.5 * report.rhs_exp[-1])
    assert values[0] > values[1] > values[2]
    rates = [math.log2(a / b) for a, b in zip(values, values[1:])]
    for rate in rates:
        assert 0.7 <= rate <= 1.3
    print(
        "criterion 08 PASS: dt-weighted splitting energy decreases under "
        "halving with squared rates %.2f, %.2f in [0.7, 1.3]" % tuple(rates)
    )


def test_criterion_09_discrete_gronwall():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260819)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        nu = float(rng.uniform(0.01, 5.0))
        dt = float(rng.uniform(0.01, 0.99)) / nu  # keeps 1 - nu dt > 0
        b = rng.uniform(0.0, 3.0, size=n)
        bound = pk.discrete_gronwall_bound(b, nu, dt)
        extremal = gronwall_equality_sequence(b, nu, dt)
        # equality case: the recursion run as an equality saturates it
        assert np.allclose(extremal, bound, rtol=1e-9, atol=1e-12)
        slack = rng.uniform(0.0, 1.0, size=n)
        a = admissible_sequence(b, nu, dt, slack)
        assert np.all(a <= bound * (1.0 + 1e-12) + 1e-12)
    # monotone-b closed form: equals the general formula for constant b,
    # dominates for nondecreasing b
    b_const = np.full(30, 1.7)
    assert np.allclose(
        pk.gronwall_monotone_bound(b_const, 2.0, 0.05),
        pk.discrete_gronwall_bound(b_const, 2.0, 0.05),
        rtol=1e-12,
    )
    b_inc = np.cumsum(rng.uniform(0.0, 1.0, size=30))
    assert np.all(
        pk.gronwall_monotone_bound(b_inc, 2.0, 0.05)
        >= pk.discrete_gronwall_bound(b_inc, 2.0, 0.05) * (1.0 - 1e-12)
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(
        "criterion 09 PASS: Gronwall bound dominates 1000 seeded recursions, "
        "saturates the equality case, closed form consistent (%.1fs < 5s)"
        % elapsed
    )


def test_criterion_10_time_continuity_modulus(vortex_run):
    _, traj, _ = vortex_run
    dt = traj.dt
    values = [lv.utilde for lv in traj.levels]
    worst = 0.0
    for tau in (0.5 * dt, dt, 2.0 * dt, 4.0 * dt):
        got = pk.time_modulus(traj, tau)
        ref = modulus_sq_uniform_midpoint(values, dt, tau, traj.ops.norm_u_sq)
        gap = abs(got - ref) / max(1.0, abs(ref))
        assert gap <= 1e-12
        worst = max(worst, gap)
    assert pk.time_modulus(traj, 0.0) == 0.0
    assert pk.time_modulus(traj, 0.5 * dt) <= pk.time_modulus(traj, 4.0 * dt)
    print(
        "criterion 10 PASS: omega(tau) matches the midpoint oracle to 1e-12 "
        "(worst gap %.1e), omega(0)=0, monotone pair holds" % worst
    )
