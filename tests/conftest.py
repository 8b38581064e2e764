"""Shared fixtures: cached operator setups and the suite's stock runs.

The expensive runs are session-scoped so the acceptance tests and the
module tests draw on the same trajectories; wall time is recorded where a
test asserts a runtime budget.
"""

import time

import numpy as np
import pytest

import ipcs2d as pk
import ipcs2d.mms


def build_setup(n, deg_u=1, deg_p=1):
    mesh = pk.generate_structured_unit_square(n)
    space_u = pk.build_space(mesh, deg_u, components=2, homogeneous_dirichlet=True)
    space_p = pk.build_space(mesh, deg_p, components=1, zero_mean=True)
    return mesh, space_u, space_p, pk.build_operators(space_u, space_p)


@pytest.fixture(scope="session")
def setup_cache():
    cache = {}

    def get(n, deg_u=1, deg_p=1):
        key = (n, deg_u, deg_p)
        if key not in cache:
            cache[key] = build_setup(n, deg_u, deg_p)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def vortex_run():
    """The 40-step forced reference run shared by the verification tests:
    stream_vortex forcing, n=8, quadratic velocity, dt=0.01."""
    case = pk.stream_vortex_case(mu=1.0)
    cfg = pk.SchemeConfig(
        dt=0.01, T=0.4, mu=1.0, mesh_n=8, degree_u=2, degree_p=1,
        u0=case.u0, f=case.f, case_name=case.name,
    )
    t0 = time.perf_counter()
    traj = pk.run(cfg)
    elapsed = time.perf_counter() - t0
    return cfg, traj, elapsed


@pytest.fixture(scope="session")
def unforced_run():
    """Unforced decay from the vortex initial data (f = 0)."""
    case = pk.stream_vortex_case(mu=1.0)
    cfg = pk.SchemeConfig(
        dt=0.01, T=0.2, mu=1.0, mesh_n=8, degree_u=2, degree_p=1,
        u0=case.u0, f=None,
    )
    return cfg, pk.run(cfg)


@pytest.fixture(scope="session")
def splitting_runs():
    """Coarse-mesh splitting-error runs: one forced problem at three halved
    time steps.  On this mesh the projected initial velocity is far from
    discretely divergence free, so the startup transient dominates the
    cumulative splitting energy and the dt-weighted squared norm scales
    like dt, the regime the splitting bound describes."""
    case = pk.stream_vortex_case(mu=1.0)
    out = []
    for dt in (4e-3, 2e-3, 1e-3):
        cfg = pk.SchemeConfig(
            dt=dt, T=0.05, mu=1.0, mesh_n=4, degree_u=1, degree_p=1,
            u0=case.u0, f=case.f,
        )
        out.append((cfg, pk.run(cfg)))
    return out


@pytest.fixture(scope="session")
def temporal_study():
    """The design-order time-refinement study (n=32, quadratic velocity,
    dt in {T/40 .. T/320}, each run against the run at half its dt), with
    the step count of every run the study makes."""
    case = pk.stream_vortex_case(mu=1.0)
    cfg = pk.SchemeConfig(
        dt=0.5 / 40.0, T=0.5, mu=1.0, mesh_n=32, degree_u=2, degree_p=1,
        u0=case.u0, f=case.f, case_name=case.name,
    )
    steps = []

    def counted_run(config, **kwargs):
        steps.append(config.n_steps)
        return pk.run(config, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ipcs2d.mms, "run", counted_run)
        t0 = time.perf_counter()
        rows, warnings = pk.convergence_study("temporal", cfg, case)
        elapsed = time.perf_counter() - t0
    return rows, warnings, elapsed, steps
