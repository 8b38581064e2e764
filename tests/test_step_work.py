"""Deterministic work counts of a run's steps and of its output.

The README quick-start run (n=16 P2/P1, dt=0.01, 50 steps) with the calls
that dominate a step counted: the Riesz vector of each level is formed
once, by its ledger row, and no step forms one of its own; the velocity
mass is applied once per level (by the step, and by the ledger at level
0); the ledger takes no direct norm of a combination of levels; the
momentum refinement stays within its sweep budget; each step assembles
one convection; the run factors only the Poisson operator and two
momentum matrices (no mass), the momentum ones in single precision; no
signature of u0 or f is read (they are called straight away); and no
stored level keeps an image.  The error norms of that run build no table
of pushed basis gradients and take the exact fields' sines and cosines
once per call, not once per level.
A low-viscosity run (n=8, mu=1e-4, 40 steps) keeps its momentum LU solves
bounded: a stale LU whose sweep stops halving the residual is dropped at
once instead of sweeping on.
The VTK writer builds the level-independent part of a file once per
space pair.  No timing: the counts repeat exactly from run to run.
"""

import gc
import inspect
import tracemalloc

import numpy as np

import ipcs2d as pk
from ipcs2d import assembly, fileio, linsolve, mms, scheme


def test_quickstart_run_work_counts(monkeypatch):
    counts = dict.fromkeys(["riesz", "step_riesz", "mass", "yh_norm", "convection", "signature"], 0)
    factored = []
    ops_class = assembly.OperatorSet
    yh_pair_with_u, yh_norm_sq = ops_class.yh_pair_with_u, ops_class.yh_norm_sq
    apply_free = ops_class.apply_free
    assemble_convection = assembly.assemble_convection
    riesz_slot = scheme.Level.riesz

    def set_riesz(level, value):
        counts["riesz"] += value is not None
        riesz_slot.__set__(level, value)

    def counted_step_riesz(self, base, phi):
        counts["step_riesz"] += 1
        return yh_pair_with_u(self, base, phi)

    def counted_yh_norm(self, base, phi):
        counts["yh_norm"] += 1
        return yh_norm_sq(self, base, phi)

    def counted_apply(self, block, vec):
        counts["mass"] += block is self.M_free
        return apply_free(self, block, vec)

    def counted_convection(*args, **kwargs):
        counts["convection"] += 1
        return assemble_convection(*args, **kwargs)

    factor = linsolve._factor
    signature = inspect.signature

    def counted_factor(A, what, dtype=np.float64):
        factored.append((what, dtype))
        return factor(A, what, dtype)

    def counted_signature(fn):
        counts["signature"] += 1
        return signature(fn)

    monkeypatch.setattr(linsolve, "_factor", counted_factor)
    monkeypatch.setattr(inspect, "signature", counted_signature)
    monkeypatch.setattr(scheme.Level, "riesz", property(riesz_slot.__get__, set_riesz))
    monkeypatch.setattr(ops_class, "yh_pair_with_u", counted_step_riesz)
    monkeypatch.setattr(ops_class, "yh_norm_sq", counted_yh_norm)
    monkeypatch.setattr(ops_class, "apply_free", counted_apply)
    monkeypatch.setattr(assembly, "assemble_convection", counted_convection)

    case = pk.stream_vortex_case(mu=1.0)
    cfg = pk.SchemeConfig(
        dt=0.01, T=0.5, mu=1.0, mesh_n=16, degree_u=2, degree_p=1,
        u0=case.u0, f=case.f, case_name=case.name,
    )
    traj = pk.run(cfg)
    n = traj.n_steps
    assert n == 50
    assert counts["riesz"] == n + 1 and counts["step_riesz"] == 0
    assert counts["mass"] == n + 1
    assert counts["yh_norm"] == 0
    assert sum(traj.momentum_sweeps) <= 200
    assert counts["convection"] == n
    # both momentum factorizations are single precision
    assert factored == [
        ("pressure Poisson", np.float64), ("momentum", np.float32), ("momentum", np.float32)
    ]
    assert counts["signature"] == 0
    # no stored level keeps an image once the run is over
    for level in traj.levels:
        assert level.mass_u is level.gt_u is level.riesz is level.div is None

    # the error norms of the 51 levels build no table of basis gradients
    # pushed through the cells: their traced peak stays below three such
    # tables of the P2 space (0.89 MB), where holding the P2 and P1 tables
    # took it to 1.00 MB
    assert len(traj.levels) == 51 and traj.is_complete()
    geom = mms._error_geometry(traj)
    nq, nloc = geom.rule.points.shape[0], traj.ops.space_u.cell_dofs.shape[1]
    table = geom.detJ.size * nq * nloc * 2 * 8
    tracemalloc.start()
    try:
        expect = pk.error_norms(traj, case)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * table

    # and take sin(pi x), sin(pi y) once, not once per level
    sines = []
    sin = np.sin

    def counted_sin(a, *args, **kwargs):
        sines.append(np.ndim(a))
        return sin(a, *args, **kwargs)

    monkeypatch.setattr(np, "sin", counted_sin)
    for _ in range(2):
        sines.clear()
        assert pk.error_norms(traj, case) == expect
        assert sines.count(2) == 2


def test_low_viscosity_run_work_counts():
    # convection dominates and most steps refactor: a stale LU that swept
    # on until STALE_SWEEPS ran out would take 500 LU solves here, 279 when
    # it goes at its first sweep that does not halve the residual
    case = pk.stream_vortex_case(mu=1e-4)
    cfg = pk.SchemeConfig(
        dt=0.05, T=2.0, mu=1e-4, mesh_n=8, degree_u=2, degree_p=1,
        u0=case.u0, f=case.f, case_name=case.name,
    )
    traj = pk.run(cfg)
    assert traj.n_steps == 40
    assert sum(traj.momentum_sweeps) <= 300
    assert traj.ledger.column("residual_identity").max() <= 1e-13


def test_vtk_output_work_counts(tmp_path, monkeypatch):
    counts = {"geometry": 0, "mesh_bytes": 0, "plan": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(fileio, "CellGeometry", counted("geometry", fileio.CellGeometry))
    monkeypatch.setattr(fileio, "_mesh_bytes", counted("mesh_bytes", fileio._mesh_bytes))
    monkeypatch.setattr(fileio, "_OutputPlan", counted("plan", fileio._OutputPlan))

    case = pk.stream_vortex_case(mu=1.0)
    cfg = pk.SchemeConfig(
        dt=0.05, T=0.2, mu=1.0, mesh_n=4, degree_u=2, degree_p=1, u0=case.u0, f=case.f,
    )
    traj = pk.run(cfg)
    assert len(traj.levels) == 5
    su, sp = traj.ops.space_u, traj.ops.space_p
    for level in traj.levels:
        pk.write_vtk(level, su, sp, tmp_path / ("fields_%d.vtk" % level.m), cellwise=True)
    assert counts == {"geometry": 1, "mesh_bytes": 1, "plan": 1}

    # a second pair on the same mesh builds one more plan; the first keeps its own
    su1 = pk.build_space(su.mesh, 1, components=2, homogeneous_dirichlet=True)
    sp1 = pk.build_space(su.mesh, 1, components=1, zero_mean=True)
    level = pk.Level(0, 0.0, np.zeros(su1.ndofs), np.zeros(sp1.ndofs), np.zeros(sp1.ndofs))
    for _ in range(2):
        pk.write_vtk(level, su1, sp1, tmp_path / "other.vtk")
        pk.write_vtk(traj.final, su, sp, tmp_path / "fields_final.vtk")
    assert counts == {"geometry": 2, "mesh_bytes": 2, "plan": 2}

    # a plan goes with its pressure space
    plans = len(fileio._PLANS)
    del sp1
    gc.collect()
    assert len(fileio._PLANS) == plans - 1
