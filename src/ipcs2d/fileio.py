"""Config files and output writers (ledger CSV, rate tables, VTK).

Config grammar: one "key = value" per line, '#' starts a comment.  Keys:

    mesh_n       grid resolution of the structured unit-square mesh
    degree_u     velocity degree, 1 or 2 (default 2)
    degree_p     pressure degree, 1 or 2 (default 1)
    dt           time step (adjusted down to the nearest divisor of T)
    T            final time
    mu           viscosity (default 1)
    case         manufactured case name, or "custom" (default stream_vortex;
                 "custom" is only constructible through the API, since a
                 text file cannot carry the callables)
    store_every  keep every k-th level in the trajectory (default 1)
    f_cutoff     time beyond which the forcing is treated as zero (default:
                 none — the named cases are closed-form and evaluable past T)
    tol_poisson  relative residual of the pressure/mass solves (default 1e-12)
    tol_momentum relative residual of the momentum solves (default 1e-12)
    out_dir      output directory (default "out")

Field output is legacy ASCII VTK (version 3.0), one file per stored level:
point vectors u_tilde and u_proj, point scalars p.  u_proj is the
end-of-step velocity, whose gradient part lives cell-wise; for point data
it is averaged over incident cells with area weights (a display choice,
never used in norms — the cellwise flag appends the unaveraged per-cell
field as CELL_DATA).  All writers are deterministic for a fixed input.
"""

import math

import numpy as np

from .assembly import CellGeometry
from .diagnostics import CSV_COLUMNS
from .fe import quad_rule
from .mms import case_by_name
from .scheme import MAX_STEPS, SchemeConfig

__all__ = [
    "ConfigError",
    "parse_config",
    "write_ledger_csv",
    "write_rate_table_csv",
    "write_vtk",
]


class ConfigError(ValueError):
    """Malformed or invalid config file; messages carry the line number."""


_INT_KEYS = {"mesh_n", "degree_u", "degree_p", "store_every"}
_FLOAT_KEYS = {"dt", "T", "mu", "f_cutoff", "tol_poisson", "tol_momentum"}
_STR_KEYS = {"case", "out_dir"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS

_DEFAULTS = {
    "degree_u": 2,
    "degree_p": 1,
    "mu": 1.0,
    "store_every": 1,
    "tol_poisson": 1e-12,
    "tol_momentum": 1e-12,
    "case": "stream_vortex",
    "out_dir": "out",
}


def parse_config(path):
    """Parse and validate a config file into a SchemeConfig.

    The manufactured case named by "case" supplies the initial velocity
    and forcing.  Violations (unknown key, malformed value, non-finite
    float, non-positive dt/T/mu, T < dt, more than MAX_STEPS steps, degree
    outside {1, 2}) raise ConfigError anchored to the offending line."""
    values = {}
    where = {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    for ln, raw in enumerate(lines, 1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError("%s:%d: expected 'key = value', got %r" % (path, ln, raw.strip()))
        key, _, val = text.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(
                "%s:%d: unknown key %r (known: %s)" % (path, ln, key, ", ".join(sorted(_ALL_KEYS)))
            )
        if key in values:
            raise ConfigError(
                "%s:%d: duplicate key %r (first set on line %d)" % (path, ln, key, where[key])
            )
        try:
            if key in _INT_KEYS:
                parsed = int(val)
            elif key in _FLOAT_KEYS:
                parsed = float(val)
            else:
                parsed = val
        except ValueError:
            raise ConfigError("%s:%d: malformed value %r for key %r" % (path, ln, val, key)) from None
        if key in _FLOAT_KEYS and not math.isfinite(parsed):
            raise ConfigError("%s:%d: %s must be finite (got %r)" % (path, ln, key, parsed))
        values[key] = parsed
        where[key] = ln

    def check(key, ok, message):
        if key in values and not ok(values[key]):
            raise ConfigError("%s:%d: %s (got %r)" % (path, where[key], message, values[key]))

    check("dt", lambda v: v > 0, "dt must be positive")
    check("T", lambda v: v > 0, "T must be positive")
    check("T", lambda v: v >= values.get("dt", 0.0), "T must be at least dt")
    check("dt", lambda v: values.get("T", v) / v <= MAX_STEPS,
          "dt gives more than %d steps to T" % MAX_STEPS)
    check("mu", lambda v: v > 0, "mu must be positive")
    check("mesh_n", lambda v: v >= 1, "mesh_n must be a positive integer")
    check("f_cutoff", lambda v: v > 0, "f_cutoff must be positive")
    check("degree_u", lambda v: v in (1, 2), "degree_u must be 1 or 2")
    check("degree_p", lambda v: v in (1, 2), "degree_p must be 1 or 2")
    check("store_every", lambda v: v >= 1, "store_every must be a positive integer")
    check("case", lambda v: v != "custom",
          "case 'custom' needs API construction: build SchemeConfig with "
          "u0/f callables directly")

    missing = [k for k in ("mesh_n", "dt", "T") if k not in values]
    if missing:
        raise ConfigError("%s: missing required key(s): %s" % (path, ", ".join(missing)))
    merged = dict(_DEFAULTS)
    merged.update(values)

    case = case_by_name(merged["case"], merged["mu"])
    return SchemeConfig(
        dt=merged["dt"],
        T=merged["T"],
        mu=merged["mu"],
        mesh_n=merged["mesh_n"],
        degree_u=merged["degree_u"],
        degree_p=merged["degree_p"],
        u0=case.u0,
        f=case.f,
        f_cutoff=merged.get("f_cutoff"),
        case_name=case.name,
        tol_poisson=merged["tol_poisson"],
        tol_momentum=merged["tol_momentum"],
        store_every=merged["store_every"],
        out_dir=merged["out_dir"],
    )


def _write_csv(path, columns, rows):
    # the first column is an integer index, the rest full-precision floats
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            parts = [str(row[columns[0]])] + ["%.17g" % row[c] for c in columns[1:]]
            fh.write(",".join(parts) + "\n")


def write_ledger_csv(ledger, path):
    """Serialize the energy ledger, one row per time level, with the
    documented column set."""
    _write_csv(path, CSV_COLUMNS, ledger.rows)


def write_rate_table_csv(rows, path):
    """Serialize a convergence study table."""
    _write_csv(path, ["n", "dt", "err_u_L2", "err_u_H1", "err_p_L2", "rate_u", "rate_p"], rows)


def _vertex_averaged_grad_phi(space_p, phi_coeffs):
    """Gradient of the pressure-space field phi at mesh vertices, averaged
    with area weights over the triangles meeting each vertex (the gradient
    is discontinuous across edges)."""
    mesh = space_p.mesh
    ref_vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    _, dpsi = space_p.ref.eval(ref_vertices)
    geom = CellGeometry(mesh, quad_rule(1))
    coeffs = phi_coeffs[space_p.cell_dofs]
    grad = np.einsum("vie,ced,ci->cvd", dpsi, geom.inv_j, coeffs)
    acc = np.zeros((mesh.n_vertices, 2))
    weight = np.zeros(mesh.n_vertices)
    np.add.at(acc, mesh.triangles.ravel(), (mesh.areas[:, None, None] * grad).reshape(-1, 2))
    np.add.at(weight, mesh.triangles.ravel(), np.repeat(mesh.areas, 3))
    return acc / weight[:, None]


def write_vtk(level, space_u, space_p, path, cellwise=False):
    """Write one stored level as a legacy ASCII VTK unstructured grid.

    Point data: vectors u_tilde and u_proj (end-of-step velocity with the
    vertex-averaged gradient part), scalar p.  With cellwise=True the
    unaveraged end-of-step velocity is appended as cell data, evaluated at
    centroids."""
    mesh = space_u.mesh
    nv = mesh.n_vertices
    ux = space_u.component(level.utilde, 0)[:nv]
    uy = space_u.component(level.utilde, 1)[:nv]
    p = level.p[:nv]
    gphi = _vertex_averaged_grad_phi(space_p, level.u.phi)
    bx = space_u.component(level.u.base, 0)[:nv]
    by = space_u.component(level.u.base, 1)[:nv]
    projx = bx + gphi[:, 0]
    projy = by + gphi[:, 1]

    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("time level %d t=%.17g\n" % (level.m, level.t))
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write("POINTS %d double\n" % nv)
        for x, y in mesh.vertices:
            fh.write("%.17g %.17g 0\n" % (x, y))
        nt = mesh.n_triangles
        fh.write("CELLS %d %d\n" % (nt, 4 * nt))
        for a, b, c in mesh.triangles:
            fh.write("3 %d %d %d\n" % (a, b, c))
        fh.write("CELL_TYPES %d\n" % nt)
        fh.write("5\n" * nt)
        fh.write("POINT_DATA %d\n" % nv)
        fh.write("VECTORS u_tilde double\n")
        for vx, vy in zip(ux, uy):
            fh.write("%.17g %.17g 0\n" % (vx, vy))
        fh.write("VECTORS u_proj double\n")
        for vx, vy in zip(projx, projy):
            fh.write("%.17g %.17g 0\n" % (vx, vy))
        fh.write("SCALARS p double\nLOOKUP_TABLE default\n")
        for v in p:
            fh.write("%.17g\n" % v)
        if cellwise:
            centroid = np.array([[1.0 / 3.0, 1.0 / 3.0]])
            phi_u, _ = space_u.ref.eval(centroid)
            _, dpsi = space_p.ref.eval(centroid)
            geom = CellGeometry(mesh, quad_rule(1))
            cd_u = space_u.cell_dofs
            cbx = np.einsum("qi,ci->c", phi_u, space_u.component(level.u.base, 0)[cd_u])
            cby = np.einsum("qi,ci->c", phi_u, space_u.component(level.u.base, 1)[cd_u])
            cg = np.einsum(
                "qie,ced,ci->cd", dpsi, geom.inv_j, level.u.phi[space_p.cell_dofs]
            )
            fh.write("CELL_DATA %d\n" % nt)
            fh.write("VECTORS u_proj_cell double\n")
            for vx, vy in zip(cbx + cg[:, 0], cby + cg[:, 1]):
                fh.write("%.17g %.17g 0\n" % (vx, vy))
