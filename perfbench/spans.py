"""Spans and counts at the layer boundaries of ipcs2d, set from outside the
package.

`install` replaces public functions of the ipcs2d modules with timing
wrappers.  Modules bind imported names when they load (scheme.py holds its
own reference to linsolve.solve_momentum), so a function is replaced in
every ipcs2d module that refers to it, not only where it is defined.
Spans stay in memory; the workload process writes them out when it ends.

A span is [name, start_ns, end_ns, parent_index] on the monotonic clock,
which the parent process shares, so spans line up with its spawn time.
"""

import contextlib
import functools
import os
import sys
import time

# (module, function, span name).  Probes are the boundaries the untraced
# end-to-end metrics need: entering and leaving scheme.run (set-up time and
# steps per second) and the output writers (output time).  They cost a few
# microseconds per call and are set in every process.
PROBES = [
    ("scheme", "run", "scheme.run"),
    ("fileio", "write_ledger_csv", "fileio.ledger_csv"),
    ("fileio", "write_vtk", "fileio.vtk"),
]

LAYERS = PROBES + [
    ("cli", "main", "cli"),
    ("fileio", "parse_config", "fileio.parse_config"),
    ("mms", "case_by_name", "mms.case"),
    ("mms", "stream_vortex_case", "mms.case"),
    ("mesh", "generate_structured_unit_square", "mesh.generate"),
    ("fe", "build_space", "fe.build_space"),
    ("assembly", "build_operators", "assembly.operators"),
    ("scheme", "init_state", "scheme.init"),
    ("assembly", "project_L2_onto_Uh", "assembly.project"),
    ("scheme", "first_step_backward_euler", "scheme.step"),
    ("scheme", "bdf2_step", "scheme.step"),
    ("assembly", "assemble_convection", "assembly.convection"),
    ("assembly", "assemble_load", "assembly.load"),
    ("linsolve", "solve_momentum", "linsolve.momentum"),
    ("linsolve", "solve_spd", "linsolve.spd"),
    ("diagnostics", "record_level", "diagnostics.record_level"),
    ("diagnostics", "energy_inequality_check", "diagnostics.post"),
    ("mms", "error_norms", "mms.error_norms"),
]

# Span name -> per-layer metric of its summed self time.
SELF_TIME_METRICS = {
    "ipcs2d.import": "ipcs2d.import_s",
    "cli": "cli.self_s",
    "fileio.parse_config": "fileio.parse_config_s",
    "mms.case": "mms.case_s",
    "mesh.generate": "mesh.generate_s",
    "fe.build_space": "fe.build_space_s",
    "assembly.operators": "assembly.operators_s",
    "scheme.run": "scheme.run_self_s",
    "scheme.init": "scheme.init_s",
    "assembly.project": "assembly.project_s",
    "scheme.step": "scheme.step_self_s",
    "assembly.convection": "assembly.convection_s",
    "assembly.load": "assembly.load_s",
    "mms.forcing": "mms.forcing_s",
    "linsolve.momentum": "linsolve.momentum_s",
    "linsolve.spd": "linsolve.spd_s",
    "diagnostics.record_level": "diagnostics.record_level_s",
    "diagnostics.post": "diagnostics.post_s",
    "mms.error_norms": "mms.error_norms_s",
    "fileio.vtk": "fileio.vtk_s",
    "fileio.ledger_csv": "fileio.ledger_csv_s",
}

COUNT_METRICS = [
    "linsolve.momentum_calls",
    "linsolve.momentum_nnz",
    "linsolve.lu_factorizations",
    "linsolve.lu_fill_nnz",
    "linsolve.spd_calls",
    "linsolve.cg_iterations",
    "assembly.convection_calls",
    "mms.forcing_points",
    "fileio.vtk_bytes",
]


class Tracer:
    """Spans and counts of one workload process."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self._open = []

    def begin(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.monotonic_ns(), None, parent])
        self._open.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._open.pop()][2] = time.monotonic_ns()

    @contextlib.contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def wrap(self, name, fn, count=None):
        """fn inside a span; count(counts, args, kwargs, result) runs after
        the span closes, so its cost is not charged to the layer."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end()
            if count is not None:
                count(self.counts, args, kwargs, out)
            return out

        return traced


def self_times(spans):
    """Summed self time in seconds per span name: each span's duration
    minus the durations of its direct children."""
    covered = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start - covered[i]) / 1e9
    return out


def _replace(original, replacement):
    for name, module in list(sys.modules.items()):
        if name == "ipcs2d" or name.startswith("ipcs2d."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _count_momentum(counts, args, kwargs, out):
    counts["linsolve.momentum_calls"] += 1
    counts["linsolve.momentum_nnz"] += args[0].nnz


def _count_spd(counts, args, kwargs, out):
    counts["linsolve.spd_calls"] += 1


def _count_convection(counts, args, kwargs, out):
    counts["assembly.convection_calls"] += 1


def _count_vtk(counts, args, kwargs, out):
    path = args[3] if len(args) > 3 else kwargs["path"]
    counts["fileio.vtk_bytes"] += os.path.getsize(path)


def _count_forcing(counts, args, kwargs, out):
    counts["mms.forcing_points"] += args[1].size


def _trace_forcing(tracer, counts, args, kwargs, case):
    # the forcing callable is made by the case; time it where the case is made
    if case.f is not None:
        case.f = tracer.wrap("mms.forcing", case.f, _count_forcing)


COUNTS = {
    "linsolve.momentum": _count_momentum,
    "linsolve.spd": _count_spd,
    "assembly.convection": _count_convection,
    "fileio.vtk": _count_vtk,
}


def install(tracer, traced):
    """Wrap the probes, and with traced every layer boundary, in the ipcs2d
    modules already imported."""
    for module_name, fn_name, span_name in LAYERS if traced else PROBES:
        module = sys.modules.get("ipcs2d." + module_name)
        if module is None:
            continue
        original = getattr(module, fn_name)
        count = COUNTS.get(span_name)
        if span_name == "mms.case":
            count = functools.partial(_trace_forcing, tracer)
        _replace(original, tracer.wrap(span_name, original, count))
    if not traced:
        return

    linsolve = sys.modules["ipcs2d.linsolve"]
    cg = linsolve._cg

    # solve_spd looks _cg up in its module at call time
    @functools.wraps(cg)
    def counted_cg(*args, **kwargs):
        out = cg(*args, **kwargs)
        tracer.counts["linsolve.cg_iterations"] += out[1]
        return out

    linsolve._cg = counted_cg

    # solve_momentum imports splu from scipy at call time.  SuperLU.nnz is
    # the fill SuperLU stores for L and U; building lu.L and lu.U to count
    # their nonzeros would add 15% to each factorisation at n=64.
    import scipy.sparse.linalg as sla

    splu = sla.splu

    @functools.wraps(splu)
    def counted_splu(*args, **kwargs):
        lu = splu(*args, **kwargs)
        tracer.counts["linsolve.lu_factorizations"] += 1
        tracer.counts["linsolve.lu_fill_nnz"] += lu.nnz
        return lu

    sla.splu = counted_splu
