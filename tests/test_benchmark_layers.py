"""The traced benchmark wraps package functions by module and name
(perfbench/spans.py); a rename would otherwise break only that benchmark."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, os.path.join(PERFBENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_layers_resolve():
    spans = _load("spans")
    for module, name, _ in spans.LAYERS:
        fn = getattr(importlib.import_module("ipcs2d." + module), name, None)
        assert callable(fn), "ipcs2d.%s.%s" % (module, name)


def test_traced_quickstart_attributes_every_step(tmp_path, monkeypatch):
    # the step must reach the momentum solve and the convection assembly
    # through names the tracer replaces, or their time lands in scheme.step
    monkeypatch.syspath_prepend(PERFBENCH)
    workload = _load("workload")
    spec = workload.WORKLOADS["quickstart_cli"]
    (tmp_path / "quickstart.cfg").write_text(workload.quickstart_config(spec, str(tmp_path), {}))
    result_path = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "workload.py"), "quickstart_cli",
         str(tmp_path), str(result_path), "--trace"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text().splitlines()[0])
    counts = result["counts"]
    assert counts["linsolve.momentum_calls"] == spec["n_steps"]
    assert counts["assembly.convection_calls"] == spec["n_steps"]
    # the run keeps its momentum LU across steps: the Poisson operator,
    # backward Euler and the first BDF2 step factor (the mass needs none)
    assert counts["linsolve.lu_factorizations"] <= 6
    # the free velocity block and the pinned pressure block reach SuperLU in
    # their reverse Cuthill-McKee order: a numbering regression shows here
    assert counts["linsolve.lu_fill_nnz"] <= 100_000
    # every forcing evaluation goes through the case's (wrapped) f: three
    # Gauss nodes per step, 2 n^2 cells, the 7-point rule of P2/P1
    assert counts["mms.forcing_points"] == 3 * spec["n_steps"] * 2 * spec["mesh_n"] ** 2 * 7
    names = {span[0] for span in result["spans"]}
    for name in ("mms.case", "scheme.step", "linsolve.momentum", "diagnostics.record_level"):
        assert name in names
