"""ipcs2d benchmark: run one workload in fresh processes for a fixed time,
check every process's output, and print the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each process (perfbench/workload.py) runs one fixed PDE problem through the
package's public entry points, one process at a time, with BLAS/OpenMP
threads capped at the number of usable cores.  Processes are started until
the next one would end after --seconds.  With --trace 0 every process is
untraced and the last line of stdout holds the end-to-end metrics, the
medians over the processes.  With --trace 1 traced and untraced processes
alternate and the last line holds the per-layer metrics, medians over the
traced processes.  The problems are deterministic; --seed only orders
traced and untraced processes within each pair.

The line before the result is the run record: machine, versions, thread
caps, commit, src/ line count, the problem sizes and every process's
figures.  See perfbench/NOTES.md for why the workloads are what they are.
"""

import argparse
import compileall
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import threading
import time
from importlib import metadata
from statistics import median, median_low

import spans
import workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "ipcs2d")
REFERENCE = os.path.join(HERE, "reference.json")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "output_s": "s",
    "peak_rss_mb": "MB",
}
# Self times of the layers, plus the interpreter's start-up and teardown
# as the parent sees them.
LAYER_TIMES = list(spans.SELF_TIME_METRICS.values()) + ["python.startup_s", "python.exit_s"]
PER_LAYER_UNITS = dict(
    {m: "s" for m in LAYER_TIMES},
    **{m: "count" for m in spans.COUNT_METRICS},
    **{"trace.coverage": "ratio", "trace.overhead_s": "s", "fail_ratio": "ratio"},
)

# The whole run must end within this many seconds of its start.
RUN_LIMIT_S = 170.0
# Columns of ledger.csv compared with the reference; the two residual
# columns are rounding noise, bounded by the run's own gates instead.
LEDGER_CHECKED = [
    "step",
    "t",
    "norm_u_sq",
    "norm_2u_minus_um1_sq",
    "dt2_gradp_sq",
    "E_h",
    "split_err_sq",
    "second_diff_sq",
    "grad_utilde_sq",
    "f_dot_utilde",
]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def read_ledger_final(path):
    """(number of lines, {column: value} of the last row) of a ledger.csv."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return len(lines), dict(zip(header, map(float, lines[-1].split(","))))


def compare(group, got, want, rtol, problems):
    for key, ref in want.items():
        value = got.get(key)
        if value is None or not abs(value - ref) <= rtol * abs(ref):
            problems.append("%s %s = %r, reference %r" % (group, key, value, ref))


def check_outputs(name, result, out_dir):
    """Problems with one process's output; empty when it is correct."""
    spec = workload.WORKLOADS[name]
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    ref = reference["workloads"][name]
    rtol = reference["rtol"]
    problems = []
    values = result["values"]
    if spec["entry"] == "library":
        for key in ("velocity_dofs", "n_steps", "dt"):
            if values[key] != spec[key]:
                problems.append("%s = %r, expected %r" % (key, values[key], spec[key]))
        if not values["energy_ok"]:
            problems.append("energy_inequality_check(...).ok is false")
        compare("error_norms", values["error_norms"], ref["error_norms"], rtol, problems)
    try:
        lines, final = read_ledger_final(os.path.join(out_dir, "ledger.csv"))
    except (OSError, ValueError, IndexError) as exc:
        return problems + ["ledger.csv unreadable: %s" % exc]
    if lines != spec["n_steps"] + 2:
        problems.append("ledger.csv has %d lines, expected %d" % (lines, spec["n_steps"] + 2))
    compare("ledger", final, ref["ledger_final"], rtol, problems)
    vtk = [f for f in os.listdir(out_dir) if f.endswith(".vtk")]
    if len(vtk) != spec["vtk_files"]:
        problems.append("%d VTK files, expected %d" % (len(vtk), spec["vtk_files"]))
    return problems


def spawn(name, traced, work_dir, env, deadline, overrides=None):
    """Run one workload process and wait for it.

    Returns (exit code, result dict or None, spawn_ns, exit_ns, end_ns,
    out_dir); the process is killed at `deadline` (time.monotonic())."""
    spec = workload.WORKLOADS[name]
    overrides = overrides or {}
    out_dir = os.path.join(work_dir, "out")
    os.makedirs(out_dir)
    result_path = os.path.join(work_dir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), name, out_dir, result_path]
    if traced:
        cmd.append("--trace")
    if spec["entry"] == "cli":
        with open(os.path.join(out_dir, "quickstart.cfg"), "w") as fh:
            fh.write(workload.quickstart_config(spec, out_dir, overrides))
    else:
        for key, value in overrides.items():
            cmd += ["--set", "%s=%r" % (key, value)]

    with open(os.path.join(work_dir, "log.txt"), "w") as log:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            exit_ns = time.monotonic_ns()
            killer.cancel()
    try:
        with open(result_path) as fh:
            text, end_ns = fh.read().splitlines()
    except (OSError, ValueError):
        return code, None, spawn_ns, exit_ns, None, out_dir
    return code, json.loads(text), spawn_ns, exit_ns, int(end_ns), out_dir


def run_process(name, traced, work_dir, env, deadline, overrides=None):
    """Spawn one workload process and check its output.

    Returns a dict with "ok" and, when ok, the process's figures; a
    failed process yields no timing."""
    spec = workload.WORKLOADS[name]
    code, result, spawn_ns, exit_ns, end_ns, out_dir = spawn(
        name, traced, work_dir, env, deadline, overrides
    )
    fig = {"traced": traced, "ok": False, "exit_code": code}
    if result is None:
        fig["problems"] = ["no result written (exit code %d)" % code]
        return fig
    if code != 0:
        problems = ["exit code %d: %s" % (code, result["error"] or "see log")]
    else:
        problems = check_outputs(name, result, out_dir)
    if problems:
        fig["problems"] = problems
        return fig

    run_spans = [s for s in result["spans"] if s[0] == "scheme.run"]
    _, run_start, run_end, _ = run_spans[0]
    layers = {spans.SELF_TIME_METRICS[k]: v for k, v in spans.self_times(result["spans"]).items()}
    layers["python.startup_s"] = (result["start_ns"] - spawn_ns) / 1e9
    layers["python.exit_s"] = (exit_ns - end_ns) / 1e9
    fig.update(
        ok=True,
        wall_s=(exit_ns - spawn_ns) / 1e9,
        setup_s=(run_start - spawn_ns) / 1e9,
        steps_per_s=spec["n_steps"] / ((run_end - run_start) / 1e9),
        output_s=layers["fileio.vtk_s"] + layers["fileio.ledger_csv_s"],
        peak_rss_mb=result["peak_rss_mb"],
        layers=layers,
        counts=result["counts"],
    )
    shutil.rmtree(out_dir)
    return fig


def schedule(trace, seed):
    """Endless sequence of traced flags: all False, or with trace pairs of
    one traced and one untraced process in seeded order."""
    rng = random.Random(seed)
    while True:
        pair = [True, False] if trace else [False]
        rng.shuffle(pair)
        yield from pair


def measure(name, trace, seed, seconds, work_root):
    """Run processes of one workload until the next would end after
    `seconds`.  The first process, and with trace the first pair, always
    runs."""
    env = child_env()
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    first = 2 if trace else 1
    processes = []
    durations = []
    for i, traced in enumerate(schedule(trace, seed)):
        expected = max(durations, default=0.0)
        end = start + (seconds if i >= first else RUN_LIMIT_S)
        if time.monotonic() + expected > end:
            break
        t0 = time.monotonic()
        fig = run_process(name, traced, os.path.join(work_root, "p%03d" % i), env, deadline)
        durations.append(time.monotonic() - t0)
        processes.append(fig)
    return processes


def summarize(processes, trace):
    """The result's metrics: medians over the processes that passed."""
    ok = [p for p in processes if p["ok"]]
    untraced = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    if not trace:
        if not untraced:
            return {}
        return {k: {"value": median(p[k] for p in untraced), "unit": u} for k, u in END_TO_END.items()}
    values = {}
    if traced:
        for key in LAYER_TIMES:
            values[key] = median(p["layers"].get(key, 0.0) for p in traced)
        for key in spans.COUNT_METRICS:
            values[key] = median_low(p["counts"][key] for p in traced)
        values["trace.coverage"] = median(sum(p["layers"].values()) / p["wall_s"] for p in traced)
        if untraced:
            values["trace.overhead_s"] = median(p["wall_s"] for p in traced) - median(
                p["wall_s"] for p in untraced
            )
    values["fail_ratio"] = (len(processes) - len(ok)) / len(processes)
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items() if k in values}


def src_lines():
    total = 0
    for fname in sorted(os.listdir(PACKAGE)):
        if fname.endswith(".py"):
            with open(os.path.join(PACKAGE, fname)) as fh:
                total += sum(1 for _ in fh)
    return total


def cache_sizes():
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, index, "size")) as fh:
                sizes["L" + level] = fh.read().strip()
    except OSError:
        pass
    return {k: v for k, v in sizes.items() if k in ("L2", "L3")}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_record(name, args, processes):
    env = child_env()
    spec = workload.WORKLOADS[name]
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "cache": cache_sizes(),
        "python": platform.python_version(),
        "versions": {pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "sympy")},
        "threads": {k: env[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit(),
        "src_lines": src_lines(),
        "velocity_dofs": spec["velocity_dofs"],
        "n_steps": spec["n_steps"],
        "dt": spec["dt"],
        "processes": [
            {k: v for k, v in p.items() if k not in ("layers", "counts")} for p in processes
        ],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workload.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print("error: package source %s not found" % PACKAGE, file=sys.stderr)
        return 2
    compileall.compile_dir(PACKAGE, quiet=1)
    work_root = os.path.join(HERE, ".work", "%d-%d" % (os.getpid(), args.seed))
    try:
        processes = measure(args.workload, args.trace, args.seed, args.seconds, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    for i, p in enumerate(processes):
        for problem in p.get("problems", []):
            print("process %d failed: %s" % (i, problem), file=sys.stderr)
    failed = sum(not p["ok"] for p in processes)
    print(json.dumps({"run_record": run_record(args.workload, args, processes)}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(processes),
                "failed": failed,
                "metrics": summarize(processes, args.trace),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
