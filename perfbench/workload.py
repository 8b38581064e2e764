"""One benchmark process: run one ipcs2d workload through the package's
public entry points and write what it measured to a JSON file.

    python3 perfbench/workload.py NAME OUT_DIR RESULT_JSON [--trace] [--set KEY=VALUE]

run.py spawns this with PYTHONPATH=src.  quickstart_cli reads
OUT_DIR/quickstart.cfg, which run.py writes, and calls
ipcs2d.cli.main(["run", cfg]), the function `python -m ipcs2d.cli` runs.
vortex_n64_p2p1 calls ipcs2d.run with a prebuilt operator set, then
energy_inequality_check and error_norms, and writes the ledger and the
stored levels as `ipcs2d run` does.  --set KEY=VALUE overrides a numeric
SchemeConfig field (the benchmark's tests inject a failure with it).  The
exit code is 0 on success and 1 when the run raised SchemeError or
LinearSolveError or the CLI exited nonzero.
"""

import time

START_NS = time.monotonic_ns()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402

# Problem definitions.  dofs, steps and dt are checked against what the
# run reports.  vortex_n64_p2p1 stores every second level: with only the
# endpoints (as convergence_study stores them) its output took 0.13 s per
# process, too short to time steadily.
WORKLOADS = {
    "quickstart_cli": {
        "entry": "cli",
        "mesh_n": 16,
        "degree_u": 2,
        "degree_p": 1,
        "dt": 0.01,
        "T": 0.5,
        "mu": 1.0,
        "store_every": 1,
        "velocity_dofs": 2178,
        "n_steps": 50,
        "vtk_files": 51,
    },
    "vortex_n64_p2p1": {
        "entry": "library",
        "mesh_n": 64,
        "degree_u": 2,
        "degree_p": 1,
        "dt": 0.0125,
        "T": 0.2,
        "mu": 1.0,
        "store_every": 2,
        "velocity_dofs": 33282,
        "n_steps": 16,
        "vtk_files": 9,
    },
}


def quickstart_config(spec, out_dir, overrides):
    """The README quick-start config, writing into out_dir."""
    lines = [
        "# forced vortex on a 16 x 16 structured mesh",
        "mesh_n = %d" % spec["mesh_n"],
        "dt     = %r" % spec["dt"],
        "T      = %r" % spec["T"],
        "mu     = %r" % spec["mu"],
        "case   = stream_vortex",
        "store_every = %d" % spec["store_every"],
        "out_dir = %s" % out_dir,
    ]
    lines += ["%s = %r" % kv for kv in overrides.items()]
    return "\n".join(lines) + "\n"


def _run_cli(pk, spec, out_dir, overrides):
    import ipcs2d.cli

    code = ipcs2d.cli.main(["run", os.path.join(out_dir, "quickstart.cfg")])
    return code, {}


def _run_library(pk, spec, out_dir, overrides):
    case = pk.stream_vortex_case(mu=spec["mu"])
    config = pk.SchemeConfig(
        dt=spec["dt"],
        T=spec["T"],
        mu=spec["mu"],
        mesh_n=spec["mesh_n"],
        degree_u=spec["degree_u"],
        degree_p=spec["degree_p"],
        u0=case.u0,
        f=case.f,
        case_name=case.name,
        store_every=spec["store_every"],
        **overrides,
    )
    space_u = pk.build_space(config.mesh, config.degree_u, components=2, homogeneous_dirichlet=True)
    space_p = pk.build_space(config.mesh, config.degree_p, components=1, zero_mean=True)
    ops = pk.build_operators(space_u, space_p)
    traj = pk.run(config, ops=ops)

    report = pk.energy_inequality_check(traj.ledger)
    errors = pk.error_norms(traj, case)
    values = {
        "velocity_dofs": ops.space_u.ndofs,
        "n_steps": traj.n_steps,
        "dt": traj.dt,
        "energy_ok": bool(report.ok),
        "error_norms": {k: v for k, v in errors.items() if v is not None},
    }

    # the outputs `ipcs2d run` writes for the stored levels
    pk.write_ledger_csv(traj.ledger, os.path.join(out_dir, "ledger.csv"))
    for lv in traj.levels:
        pk.write_vtk(lv, ops.space_u, ops.space_p, os.path.join(out_dir, "fields_%06d.vtk" % lv.m))
    return 0, values


def main(argv):
    name, out_dir, result_path = argv[:3]
    traced = "--trace" in argv
    overrides = {}
    for i, arg in enumerate(argv):
        if arg == "--set":
            key, _, value = argv[i + 1].partition("=")
            overrides[key] = float(value)
    spec = WORKLOADS[name]

    tracer = spans.Tracer()
    with tracer.span("ipcs2d.import"):
        import ipcs2d as pk

        if spec["entry"] == "cli":
            import ipcs2d.cli  # noqa: F401
    spans.install(tracer, traced)

    body = _run_cli if spec["entry"] == "cli" else _run_library
    error = None
    try:
        code, values = body(pk, spec, out_dir, overrides)
    except (pk.SchemeError, pk.LinearSolveError) as exc:
        code, values, error = 1, {}, "%s: %s" % (type(exc).__name__, exc)

    result = {
        "error": error,
        "values": values,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "start_ns": START_NS,
    }
    text = json.dumps(result)
    # second line: when the process is done but for writing and exiting
    with open(result_path, "w") as fh:
        fh.write("%s\n%d\n" % (text, time.monotonic_ns()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
