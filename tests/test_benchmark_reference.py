"""The benchmark's correctness gate, in the tier-1 suite: the quick start
and the 16-step n=64 vortex, run through the library as
perfbench/workload.py defines them, reproduce the final ledger row and
error norms that perfbench/reference.json holds, at that file's rtol.  A
change that moves these numbers fails here before it fails the benchmark."""

import json
import os

import pytest

import ipcs2d as pk
from test_benchmark_layers import PERFBENCH, _load


@pytest.mark.parametrize("name", ["quickstart_cli", "vortex_n64_p2p1"])
def test_run_matches_the_benchmark_reference(name, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    spec = _load("workload").WORKLOADS[name]
    with open(os.path.join(PERFBENCH, "reference.json")) as fh:
        reference = json.load(fh)
    want = reference["workloads"][name]
    case = pk.stream_vortex_case(mu=spec["mu"])
    traj = pk.run(
        pk.SchemeConfig(
            dt=spec["dt"], T=spec["T"], mu=spec["mu"], mesh_n=spec["mesh_n"],
            degree_u=spec["degree_u"], degree_p=spec["degree_p"], u0=case.u0, f=case.f,
            case_name=case.name, store_every=spec["store_every"],
        )
    )
    assert traj.n_steps == spec["n_steps"]
    got = {"ledger_final": traj.ledger.rows[-1]}
    if "error_norms" in want:
        got["error_norms"] = pk.error_norms(traj, case)
    off = [
        (group, key, got[group][key], ref)
        for group, values in want.items()
        for key, ref in values.items()
        if not abs(got[group][key] - ref) <= reference["rtol"] * abs(ref)
    ]
    assert off == []
