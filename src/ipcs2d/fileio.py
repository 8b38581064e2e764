"""Config files and output writers (ledger CSV, rate tables, VTK).

Config grammar: one "key = value" per line, '#' starts a comment.  The
keys mesh_n (the resolution of the structured unit-square mesh), dt, T,
mu, degree_u, degree_p, store_every, f_cutoff, tol_poisson and
tol_momentum are SchemeConfig's parameters, with its defaults and the
ranges of scheme.PARAMETER_RULES; mesh_n, dt and T are required.  Two
keys are the file's own: case, the manufactured case that supplies u0
and f (stream_vortex, the default, or zero; "custom" needs the API,
since a text file cannot carry callables), and out_dir, the output
directory (default "out").

Field output is legacy binary VTK (version 3.0), one file per stored
level: point vectors u_tilde and u_proj, point scalars p.  u_proj is the
end-of-step velocity, whose gradient part lives cell-wise; for point data
it is averaged over incident cells with area weights (a display choice,
never used in norms — the cellwise flag appends the unaveraged per-cell
field as CELL_DATA).  All writers are deterministic for a fixed input.

A VTK file's header and keyword lines are ASCII text.  Each data block
follows its keyword line as raw big-endian values, ">f8" for double
(vectors as x, y, 0 rows) and ">i4" for the CELLS and CELL_TYPES
integers, closed by one "\\n"; ParaView reads this layout.  The doubles
are the fields bit for bit.  With data the file's bytes, line its
"POINTS n double" line and start the offset just past that line, numpy
reads the block as

    n = int(line.split()[1])
    xyz = np.frombuffer(data, ">f8", 3 * n, start).reshape(n, 3)
    start += xyz.nbytes + 1                 # past the closing "\\n"

write_vtk keeps one output plan per pressure space, in a weak-keyed
cache private to this module, for the velocity space it was last used
with; a different velocity space rebuilds it.  The plan holds what no
level changes: the encoded mesh blocks from POINTS through POINT_DATA,
the gradient factors from the mesh's inverse Jacobians, the vertex area
weights and the centroid basis values.  It caches inputs and factors,
never a reordered sum, so every value written is bit for bit what the
unoptimised einsums give.  A mesh is read-only, so no plan goes stale.
"""

import inspect
import math
import weakref

import numpy as np

from .diagnostics import CSV_COLUMNS
from .fe import require_one_mesh
from .mms import case_by_name
from .scheme import SchemeConfig, first_failed_rule

__all__ = [
    "ConfigError",
    "parse_config",
    "write_ledger_csv",
    "write_rate_table_csv",
    "write_vtk",
]


class ConfigError(ValueError):
    """Malformed or invalid config file; messages carry the line number."""


# the type of each key's value
_KEYS = dict(mesh_n=int, degree_u=int, degree_p=int, store_every=int, case=str, out_dir=str,
             dt=float, T=float, mu=float, f_cutoff=float, tol_poisson=float, tol_momentum=float)


def parse_config(path):
    """Parse a config file into a SchemeConfig.

    The manufactured case named by "case" supplies the initial velocity
    and forcing; keys left out take SchemeConfig's defaults.  A file that
    cannot be opened or read as UTF-8 text raises ConfigError naming the
    file, a missing mesh_n, dt or T one naming the keys, and every other
    violation (unknown or duplicate key, empty, malformed or non-finite
    value, a value that breaks one of scheme.PARAMETER_RULES, unknown
    case) one anchored to the offending line."""
    values = {}
    where = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError("%s: not a UTF-8 text file (%s)" % (path, exc)) from None
    except OSError as exc:
        raise ConfigError("%s: cannot read the config file (%s)" % (path, exc.strerror)) from None
    for ln, raw in enumerate(lines, 1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError("%s:%d: expected 'key = value', got %r" % (path, ln, raw.strip()))
        key, _, val = text.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KEYS:
            raise ConfigError(
                "%s:%d: unknown key %r (known: %s)" % (path, ln, key, ", ".join(sorted(_KEYS)))
            )
        if key in values:
            raise ConfigError(
                "%s:%d: duplicate key %r (first set on line %d)" % (path, ln, key, where[key])
            )
        try:
            if not val:  # str() would take it
                raise ValueError
            parsed = _KEYS[key](val)
        except ValueError:
            raise ConfigError("%s:%d: malformed value %r for key %r" % (path, ln, val, key)) from None
        if _KEYS[key] is float and not math.isfinite(parsed):
            raise ConfigError("%s:%d: %s must be finite (got %r)" % (path, ln, key, parsed))
        values[key] = parsed
        where[key] = ln

    failed = first_failed_rule(values)
    if failed is not None:
        key, message = failed
        raise ConfigError("%s:%d: %s" % (path, where[key], message))
    if values.get("case") == "custom":
        raise ConfigError(
            "%s:%d: case 'custom' needs API construction: build SchemeConfig with "
            "u0/f callables directly" % (path, where["case"])
        )
    missing = [k for k in ("mesh_n", "dt", "T") if k not in values]
    if missing:
        raise ConfigError("%s: missing required key(s): %s" % (path, ", ".join(missing)))

    out_dir = values.pop("out_dir", "out")
    name = values.pop("case", "stream_vortex")
    mu = values.get("mu", inspect.signature(SchemeConfig).parameters["mu"].default)
    try:
        case = case_by_name(name, mu)
    except ValueError as exc:
        raise ConfigError("%s:%d: %s" % (path, where["case"], exc)) from None
    return SchemeConfig(u0=case.u0, f=case.f, case_name=case.name, out_dir=out_dir, **values)


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


def _block(values, dtype=">f8"):
    # one binary data block: the values, row by row, big-endian, then "\n"
    return np.asarray(values, dtype).tobytes() + b"\n"


def _vectors(xy):
    # (n, 2) values as the block of a VTK vector field, z = 0
    return _block(np.column_stack((xy, np.zeros(len(xy)))))


def _mesh_bytes(mesh):
    """The level-independent middle of a VTK file: POINTS through the
    POINT_DATA line."""
    nv, nt = mesh.n_vertices, mesh.n_triangles
    return b"".join((
        b"POINTS %d double\n" % nv,
        _vectors(mesh.vertices),
        b"CELLS %d %d\n" % (nt, 4 * nt),
        _block(np.column_stack((np.full(nt, 3), mesh.triangles)), ">i4"),
        b"CELL_TYPES %d\n" % nt,
        _block(np.full(nt, 5), ">i4"),
        b"POINT_DATA %d\n" % nv,
    ))


class _OutputPlan:
    """Everything write_vtk needs of one (space_u, space_p) pair that does
    not depend on the level: the encoded mesh blocks, the gradient factors,
    the vertex area weights and the centroid basis values.

    factors[i, e, v, d, c] = dpsi[v, i, e] * inv_j[c, e, d], dpsi being the
    reference gradients of the pressure basis at the reference vertices;
    cells run last, so every array operation has a long inner loop.
    vertex_grad accumulates factors[i, e] * phi[cell_dofs[c, i]] over i,
    then e, from zero: the operations of the unoptimised einsum
    "vie,ced,ci->cvd", in its order, so the sums are equal to the bit.
    The plan keeps space_u, which identifies the pair, but not space_p,
    which keys it in _PLANS.
    """

    def __init__(self, space_u, space_p):
        mesh = space_p.mesh
        ref_vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        _, dpsi = space_p.ref.eval(ref_vertices)
        self.space_u = space_u
        self.nv = mesh.n_vertices
        self.mesh_bytes = _mesh_bytes(mesh)
        self.cell_dofs_p = space_p.cell_dofs
        self.local_dofs_p = np.ascontiguousarray(space_p.cell_dofs.T)
        self.factors = (
            dpsi.transpose(1, 2, 0)[:, :, :, None, None]
            * mesh.inv_j.transpose(1, 2, 0)[None, :, None, :, :]
        )
        self.areas = mesh.areas
        self.vertex_ids = mesh.triangles.ravel()
        # np.bincount adds in input order, as np.add.at does
        self.weight = np.bincount(self.vertex_ids, np.repeat(mesh.areas, 3), self.nv)
        centroid = np.array([[1.0 / 3.0, 1.0 / 3.0]])
        self.phi_u_centroid, _ = space_u.ref.eval(centroid)
        _, self.dpsi_centroid = space_p.ref.eval(centroid)
        self.inv_j = mesh.inv_j

    def vertex_grad(self, phi):
        """Gradient of the pressure-space field phi at the mesh vertices,
        averaged with area weights over the triangles meeting each vertex
        (the gradient is discontinuous across edges)."""
        grad = np.zeros(self.factors.shape[2:])
        term = np.empty_like(grad)
        for factors_i, coeffs_i in zip(self.factors, phi[self.local_dofs_p]):
            for factor in factors_i:
                grad += np.multiply(factor, coeffs_i, out=term)
        # scatter in cell-major order, the order np.add.at took
        weighted = grad * self.areas
        acc = np.column_stack(
            [np.bincount(self.vertex_ids, weighted[:, d].T.ravel(), self.nv) for d in range(2)]
        )
        return acc / self.weight[:, None]

    def cell_velocity(self, level):
        """The unaveraged end-of-step velocity at the cell centroids."""
        su = self.space_u
        cd_u = su.cell_dofs
        cbx = np.einsum("qi,ci->c", self.phi_u_centroid, su.component(level.utilde, 0)[cd_u])
        cby = np.einsum("qi,ci->c", self.phi_u_centroid, su.component(level.utilde, 1)[cd_u])
        cg = np.einsum(
            "qie,ced,ci->cd", self.dpsi_centroid, self.inv_j, level.phi[self.cell_dofs_p]
        )
        return np.column_stack((cbx + cg[:, 0], cby + cg[:, 1]))


# pressure space -> the plan of the velocity space it was last written
# with; an entry goes when its pressure space does
_PLANS = weakref.WeakKeyDictionary()


def _output_plan(space_u, space_p):
    plan = _PLANS.get(space_p)
    if plan is None or plan.space_u is not space_u:
        require_one_mesh(space_u, space_p)
        plan = _PLANS[space_p] = _OutputPlan(space_u, space_p)
    return plan


def write_vtk(level, space_u, space_p, path, cellwise=False):
    """Write one stored level as a legacy binary VTK unstructured grid
    (layout in the module docstring: ASCII keyword lines, each data block
    raw big-endian ">f8" or ">i4" values followed by one "\\n").

    Point data: vectors u_tilde and u_proj (end-of-step velocity with the
    vertex-averaged gradient part), scalar p.  With cellwise=True the
    unaveraged end-of-step velocity is appended as cell data, evaluated at
    centroids.  The first call for a (space_u, space_p) pair builds its
    output plan; later calls reuse it."""
    plan = _output_plan(space_u, space_p)
    nv = plan.nv
    # (nv, 2) vertex values; vertices are the first nv scalar dofs
    utilde = level.utilde.reshape(2, space_u.n_scalar)[:, :nv].T
    proj = utilde + plan.vertex_grad(level.phi)

    with open(path, "wb") as fh:
        fh.write(b"# vtk DataFile Version 3.0\n")
        fh.write(b"time level %d t=%.17g\n" % (level.m, level.t))
        fh.write(b"BINARY\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(plan.mesh_bytes)
        fh.write(b"VECTORS u_tilde double\n" + _vectors(utilde))
        fh.write(b"VECTORS u_proj double\n" + _vectors(proj))
        fh.write(b"SCALARS p double\nLOOKUP_TABLE default\n" + _block(level.p[:nv]))
        if cellwise:
            fh.write(b"CELL_DATA %d\n" % space_u.mesh.n_triangles)
            fh.write(b"VECTORS u_proj_cell double\n" + _vectors(plan.cell_velocity(level)))
