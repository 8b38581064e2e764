"""Deterministic work counts of a run's steps.

The README quick-start run (n=16 P2/P1, dt=0.01, 50 steps) with the calls
that dominate a step counted: the Riesz vector of each level is formed
once, the velocity mass is applied three times per step, the momentum
refinement stays within its sweep budget and each step assembles one
convection.  No timing: the counts repeat exactly from run to run.
"""

import ipcs2d as pk
from ipcs2d import assembly


def test_quickstart_run_work_counts(monkeypatch):
    counts = {"riesz": 0, "mass": 0, "convection": 0}
    ops_class = assembly.OperatorSet
    yh_pair_with_u = ops_class.yh_pair_with_u
    apply_free = ops_class._apply_free
    assemble_convection = assembly.assemble_convection

    def counted_riesz(self, base, phi):
        counts["riesz"] += 1
        return yh_pair_with_u(self, base, phi)

    def counted_apply(self, block, vec):
        counts["mass"] += block is self.M_free
        return apply_free(self, block, vec)

    def counted_convection(*args, **kwargs):
        counts["convection"] += 1
        return assemble_convection(*args, **kwargs)

    monkeypatch.setattr(ops_class, "yh_pair_with_u", counted_riesz)
    monkeypatch.setattr(ops_class, "_apply_free", counted_apply)
    monkeypatch.setattr(assembly, "assemble_convection", counted_convection)

    case = pk.stream_vortex_case(mu=1.0)
    cfg = pk.SchemeConfig(
        dt=0.01, T=0.5, mu=1.0, mesh_n=16, degree_u=2, degree_p=1,
        u0=case.u0, f=case.f, case_name=case.name,
    )
    traj = pk.run(cfg)
    n = traj.n_steps
    assert n == 50
    assert counts["riesz"] == n + 1
    assert counts["mass"] <= 3 * n + 1
    assert sum(traj.momentum_sweeps) <= 300
    assert counts["convection"] == n
    # no stored level keeps its Riesz vector once the run is over
    assert all(level.riesz is None for level in traj.levels)
