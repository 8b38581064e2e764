"""Config parsing and the CSV / VTK writers."""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ipcs2d as pk
from ipcs2d import fileio
from ipcs2d.diagnostics import CSV_COLUMNS
from vtk_binary import read_vtk, read_vtk_file

LEDGER_HEADER = (
    "step,t,norm_u_sq,norm_2u_minus_um1_sq,dt2_gradp_sq,E_h,split_err_sq,"
    "second_diff_sq,grad_utilde_sq,f_dot_utilde,residual_identity,"
    "residual_pythagoras"
)


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


MINIMAL = """
# smallest viable run description
mesh_n = 4
dt = 0.05
T = 0.5
"""


def test_minimal_config_fills_defaults(tmp_path):
    cfg = pk.parse_config(write_config(tmp_path, MINIMAL))
    assert cfg.dt == 0.05 and cfg.T == 0.5 and cfg.n_steps == 10
    assert cfg.mesh.n_vertices == 25
    assert cfg.degree_u == 2 and cfg.degree_p == 1
    assert cfg.mu == 1.0
    assert cfg.case_name == "stream_vortex"
    assert cfg.store_every == 1
    assert cfg.tol_poisson == 1e-12 and cfg.tol_momentum == 1e-12
    assert cfg.out_dir == "out"
    assert cfg.f_cutoff is None
    assert callable(cfg.u0) and callable(cfg.f)
    assert cfg.warnings == []


def test_config_dt_adjustment_is_recorded(tmp_path):
    cfg = pk.parse_config(
        write_config(tmp_path, "mesh_n = 2\ndt = 0.05\nT = 0.49\n")
    )
    assert math.isclose(cfg.dt, 0.049)
    assert len(cfg.warnings) == 1 and "adjusted" in cfg.warnings[0]


def test_config_optional_keys_are_honored(tmp_path):
    text = (
        "mesh_n = 8\ndt = 0.01\nT = 0.2\nmu = 0.5\ndegree_u = 1\n"
        "degree_p = 2\ncase = zero\nstore_every = 4\nf_cutoff = 0.5\n"
        "tol_poisson = 1e-10\nout_dir = results\n"
    )
    cfg = pk.parse_config(write_config(tmp_path, text))
    assert cfg.mu == 0.5
    assert cfg.degree_u == 1 and cfg.degree_p == 2
    assert cfg.case_name == "zero"
    assert cfg.store_every == 4
    assert cfg.f_cutoff == 0.5
    assert cfg.tol_poisson == 1e-10
    assert cfg.out_dir == "results"


@pytest.mark.parametrize(
    "text,match",
    [
        ("mesh_n = 4\ndt = 0\nT = 1\n", "dt must be positive"),
        ("mesh_n = 4\ndt = 0.1\nT = -1\n", "T must be positive"),
        ("mesh_n = 4\ndt = 0.1\nT = 1\nmu = 0\n", "mu must be positive"),
        ("mesh_n = 0\ndt = 0.1\nT = 1\n", "mesh_n must be a positive integer"),
        ("mesh_n = 4\ndt = 0.1\nT = 1\nviscosity = 1\n", "unknown key 'viscosity'"),
        ("mesh_n = 4\ndt = 0.1\ndt = 0.2\nT = 1\n", "duplicate key 'dt'"),
        ("mesh_n = 4\ndt = abc\nT = 1\n", "malformed value 'abc'"),
        ("mesh_n = 4\ndt 0.1\nT = 1\n", "expected 'key = value'"),
        ("mesh_n = 4\ndt = 0.1\nT = 1\ndegree_u = 3\n", "degree_u must be 1 or 2"),
        ("mesh_n = 4\ndt = 0.1\nT = 1\nstore_every = 0\n", "store_every"),
        ("mesh_n = 4\ndt = 0.1\nT = 1\nf_cutoff = 0\n", "f_cutoff must be positive"),
        ("mesh_n = 4\ndt = 0.1\nT = 1\ncase = custom\n", "needs API construction"),
        ("mesh_n = 4\ndt = 0.1\nT = 1\ncase = poiseuille\n", "unknown case"),
        ("mesh_n = 4\ncase = nope\ndt = 0.1\nT = 1\n", ":2: unknown case 'nope'"),
        ("mesh_n = 4\ndt = 0.1\nT = 1\ntol_momentum = 0\n", ":4: tol_momentum must be positive"),
        ("mesh_n = 4\ndt = 0.1\ntol_poisson = -1\nT = 1\n", ":3: tol_poisson must be positive"),
        ("dt = 0.1\n", "missing required key"),
        ("mesh_n = 4\ndt = 0.1\nT = inf\n", ":3: T must be finite"),
        ("mesh_n = 4\ndt = nan\nT = 1\n", ":2: dt must be finite"),
        ("mesh_n = 4\ndt = 0.1\nT = 1\ntol_momentum = inf\n", ":4: tol_momentum must be finite"),
        ("mesh_n = 4\ndt = 0.01\nT = 0.001\n", ":3: T must be at least dt"),
        ("mesh_n = 4\ndt = 1e-300\nT = 1\n", ":2: dt gives more than 10000000 steps"),
        ("mesh_n = 1025\ndt = 0.1\nT = 1\n", ":1: mesh_n must be at most 1024"),
        ("dt = 0.1\nT = 1\nmesh_n = 100000\n", ":3: mesh_n must be at most 1024"),
    ],
)
def test_config_violations_raise(tmp_path, text, match):
    with pytest.raises(pk.ConfigError, match=match):
        pk.parse_config(write_config(tmp_path, text))


@pytest.mark.parametrize("key", sorted(fileio._KEYS))
def test_config_rejects_an_empty_value_at_its_line(tmp_path, key):
    required = dict(mesh_n="4", dt="0.1", T="1")
    lines = ["%s = %s" % item for item in required.items() if item[0] != key] + ["%s =" % key]
    expect = "%s:%d: malformed value '' for key %r" % ("run.cfg", len(lines), key)
    with pytest.raises(pk.ConfigError, match=re.escape(expect)):
        pk.parse_config(write_config(tmp_path, "\n".join(lines) + "\n"))


def test_undecodable_config_names_the_file(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("# d\xe9bit\nmesh_n = 4\ndt = 0.1\nT = 1\n".encode("latin-1"))
    with pytest.raises(pk.ConfigError, match="latin1.cfg: not a UTF-8 text file"):
        pk.parse_config(str(path))


def test_unreadable_config_is_a_config_error(tmp_path):
    with pytest.raises(pk.ConfigError, match="cannot read the config file"):
        pk.parse_config(str(tmp_path))


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.cfg"


def parse_text_or_config_error(path, text):
    """parse_config of text: a SchemeConfig, or None after a ConfigError;
    any other exception escapes."""
    path.write_text(text, encoding="utf-8")
    try:
        cfg = pk.parse_config(str(path))
    except pk.ConfigError:
        return None
    assert isinstance(cfg, pk.SchemeConfig)
    assert cfg.dt > 0 and cfg.n_steps >= 1 and cfg.tol_poisson > 0 and cfg.tol_momentum > 0
    return cfg


@settings(deadline=None, max_examples=150)
@given(text=st.text(max_size=120))
def test_random_config_text_raises_only_config_error(fuzz_path, text):
    parse_text_or_config_error(fuzz_path, text)


# values for any key: valid and invalid numbers, case names, junk; the
# largest mesh a valid draw can build is 4 x 4
CONFIG_VALUES = [
    "0", "1", "2", "4", "-1", "1025", "2.5", "0.05", "0.5", "1e-300", "-0.1",
    "nan", "inf", "1e-12", "abc", "", "stream_vortex", "zero", "custom", "nope",
]
CONFIG_KEYS = sorted(
    ["mesh_n", "degree_u", "degree_p", "dt", "T", "mu", "case", "store_every",
     "f_cutoff", "tol_poisson", "tol_momentum", "out_dir", "viscosity"]
)
config_lines = st.lists(
    st.tuples(st.sampled_from(CONFIG_KEYS), st.sampled_from(CONFIG_VALUES)), max_size=8
).map(lambda pairs: "".join("%s = %s\n" % kv for kv in pairs))


@settings(deadline=None, max_examples=150)
@given(text=config_lines)
def test_random_config_lines_raise_only_config_error(fuzz_path, text):
    parse_text_or_config_error(fuzz_path, text)


VALID = "mesh_n = 4\ndt = 0.05\nT = 0.5\nmu = 0.5\ncase = zero\ntol_momentum = 1e-11\n"


@st.composite
def mutated_config(draw):
    # digits are never inserted, so no mutation grows mesh_n past 4
    text = VALID
    for _ in range(draw(st.integers(1, 4))):
        lines = text.splitlines(keepends=True)
        kind = draw(st.sampled_from(["delete", "insert", "swap", "duplicate"]))
        at = draw(st.integers(0, max(len(text) - 1, 0)))
        if kind == "delete" and text:
            text = text[:at] + text[at + 1:]
        elif kind == "insert":
            text = text[:at] + draw(st.sampled_from(list("=#.-e \nxé\t"))) + text[at:]
        elif kind == "swap" and len(lines) > 1:
            i = draw(st.integers(0, len(lines) - 2))
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
            text = "".join(lines)
        elif kind == "duplicate" and lines:
            i = draw(st.integers(0, len(lines) - 1))
            text = "".join(lines[: i + 1] + lines[i:])
    return text


@settings(deadline=None, max_examples=150)
@given(text=mutated_config())
def test_mutated_config_raises_only_config_error(fuzz_path, text):
    # the unmutated text builds, so the mutations start from a valid config
    assert parse_text_or_config_error(fuzz_path, VALID) is not None
    parse_text_or_config_error(fuzz_path, text)


def mostly(good, other):
    # one of the good values three draws in four, else a draw of other
    return st.one_of(*[st.sampled_from(good)] * 3, other)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# finite, correctly typed values for every key a config file shares with
# SchemeConfig; the largest mesh a valid draw can build is 4 x 4
SHARED_VALUES = dict(
    mesh_n=mostly([1, 2, 4], st.one_of(st.integers(-2, 4), st.sampled_from([1025, 10**12]))),
    dt=mostly([0.05, 0.1], FINITE),
    T=mostly([0.5, 1.0], FINITE),
    mu=mostly([0.5, 1.0], FINITE),
    degree_u=mostly([1, 2], st.integers(-1, 3)),
    degree_p=mostly([1, 2], st.integers(-1, 3)),
    store_every=mostly([1, 3], st.integers(-2**70, 2**70)),
    f_cutoff=mostly([0.5, 2.0], FINITE),
    tol_poisson=mostly([1e-10, 1e-12], FINITE),
    tol_momentum=mostly([1e-11, 1e-12], FINITE),
)
REQUIRED_KEYS = ("mesh_n", "dt", "T")
AGREED_FIELDS = ("dt", "T", "n_steps", "mu", "degree_u", "degree_p", "tol_poisson",
                 "tol_momentum", "store_every", "f_cutoff")


@settings(deadline=None, max_examples=300)
@given(values=st.fixed_dictionaries(
    {k: SHARED_VALUES[k] for k in REQUIRED_KEYS},
    optional={k: v for k, v in SHARED_VALUES.items() if k not in REQUIRED_KEYS},
))
def test_config_file_and_api_agree(fuzz_path, values):
    # the same values as a config file and as SchemeConfig arguments: both
    # accept them alike, or the file fails at the line of the parameter
    # that SchemeConfig's message names
    fuzz_path.write_text("".join("%s = %r\n" % kv for kv in values.items()))
    try:
        api = pk.SchemeConfig(u0=pk.stream_vortex_case(mu=1.0).u0, **values)
    except ValueError as exc:
        with pytest.raises(pk.ConfigError) as info:
            pk.parse_config(str(fuzz_path))
        found = re.fullmatch(re.escape(str(fuzz_path)) + r":(\d+): (.*)", str(info.value))
        assert found is not None and found.group(2) == str(exc)
        assert list(values)[int(found.group(1)) - 1] in str(exc)
        return
    cfg = pk.parse_config(str(fuzz_path))
    for name in AGREED_FIELDS:
        assert getattr(cfg, name) == getattr(api, name), name


def test_config_errors_carry_the_line_number(tmp_path):
    path = write_config(tmp_path, "mesh_n = 4\ndt = nope\nT = 1\n")
    with pytest.raises(pk.ConfigError, match=":2:"):
        pk.parse_config(path)


def test_config_error_is_a_value_error():
    assert issubclass(pk.ConfigError, ValueError)


@pytest.fixture(scope="module")
def tiny_run():
    case = pk.stream_vortex_case(mu=1.0)
    cfg = pk.SchemeConfig(
        dt=0.05, T=0.15, mu=1.0, mesh_n=2, degree_u=2, degree_p=1,
        u0=case.u0, f=case.f,
    )
    return pk.run(cfg)


def test_ledger_csv_layout(tmp_path, tiny_run):
    traj = tiny_run
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    pk.write_ledger_csv(traj.ledger, path_a)
    pk.write_ledger_csv(traj.ledger, path_b)
    text = path_a.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == LEDGER_HEADER == ",".join(CSV_COLUMNS)
    assert len(lines) == traj.n_steps + 2
    assert path_a.read_bytes() == path_b.read_bytes()
    # rows round-trip: step indices and a spot value
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0
    last = lines[-1].split(",")
    assert int(last[0]) == traj.n_steps
    assert math.isclose(float(last[2]), traj.ledger.rows[-1]["norm_u_sq"], rel_tol=1e-15)


def test_rate_table_csv_layout(tmp_path):
    rows = [
        {"n": 4, "dt": 0.1, "err_u_L2": 1.0, "err_u_H1": 2.0, "err_p_L2": 0.5,
         "rate_u": float("nan"), "rate_p": float("nan")},
        {"n": 8, "dt": 0.05, "err_u_L2": 0.25, "err_u_H1": 1.0, "err_p_L2": 0.125,
         "rate_u": 2.0, "rate_p": 2.0},
    ]
    path = tmp_path / "rates.csv"
    pk.write_rate_table_csv(rows, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "n,dt,err_u_L2,err_u_H1,err_p_L2,rate_u,rate_p"
    assert len(lines) == 3
    parts = lines[1].split(",")
    assert parts[0] == "4" and math.isnan(float(parts[5]))
    assert float(lines[2].split(",")[5]) == 2.0


def test_vtk_zero_state_on_smallest_mesh(tmp_path, setup_cache):
    mesh, su, sp, ops = setup_cache(1, 1, 1)
    from ipcs2d.scheme import Level

    level = Level(0, 0.0, np.zeros(su.ndofs), np.zeros(sp.ndofs), np.zeros(sp.ndofs))
    path = tmp_path / "zero.vtk"
    pk.write_vtk(level, su, sp, path, cellwise=True)
    vtk = read_vtk_file(path)
    assert vtk.lines == [
        "# vtk DataFile Version 3.0", "time level 0 t=0", "BINARY", "DATASET UNSTRUCTURED_GRID",
        "POINTS 4 double", "CELLS 2 8", "CELL_TYPES 2", "POINT_DATA 4",
        "VECTORS u_tilde double", "VECTORS u_proj double", "SCALARS p double",
        "LOOKUP_TABLE default", "CELL_DATA 2", "VECTORS u_proj_cell double",
    ]
    assert np.array_equal(vtk.blocks["POINTS"][:, :2], mesh.vertices)
    assert np.array_equal(vtk.blocks["CELLS"], np.column_stack((np.full(2, 3), mesh.triangles)))
    assert np.array_equal(vtk.blocks["CELL_TYPES"], [5, 5])
    # every value of a zero state is zero
    for name in ("u_tilde", "u_proj", "p", "u_proj_cell"):
        assert not np.any(vtk.blocks[name])
    assert vtk.blocks["POINTS"][:, 2].tolist() == [0.0] * 4


def test_vtk_point_vectors_are_vertex_coefficients(tmp_path, tiny_run):
    traj = tiny_run
    su = traj.ops.space_u
    sp_ = traj.ops.space_p
    nv = su.mesh.n_vertices
    path = tmp_path / "fields.vtk"
    pk.write_vtk(traj.final, su, sp_, path)
    blocks = read_vtk_file(path).blocks
    u = blocks["u_tilde"]
    assert np.array_equal(u[:, 0], su.component(traj.final.utilde, 0)[:nv])
    assert np.array_equal(u[:, 1], su.component(traj.final.utilde, 1)[:nv])
    assert not np.any(u[:, 2])
    assert np.array_equal(blocks["p"], traj.final.p[:nv])


def reference_vertex_grad(sp, phi):
    # the writer's original vertex averaging: one unoptimised einsum for
    # the cell gradients at the vertices, then np.add.at per vertex
    from ipcs2d.assembly import CellGeometry
    from ipcs2d.fe import quad_rule

    mesh = sp.mesh
    _, dpsi = sp.ref.eval(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    geom = CellGeometry(mesh, quad_rule(1))
    grad = np.einsum("vie,ced,ci->cvd", dpsi, geom.inv_j, phi[sp.cell_dofs])
    acc = np.zeros((mesh.n_vertices, 2))
    weight = np.zeros(mesh.n_vertices)
    np.add.at(acc, mesh.triangles.ravel(), (mesh.areas[:, None, None] * grad).reshape(-1, 2))
    np.add.at(weight, mesh.triangles.ravel(), np.repeat(mesh.areas, 3))
    return acc / weight[:, None]


def reference_cell_velocity(level, su, sp):
    # the end-of-step velocity at the cell centroids, by the writer's
    # original einsums
    from ipcs2d.assembly import CellGeometry
    from ipcs2d.fe import quad_rule

    centroid = np.array([[1.0 / 3.0, 1.0 / 3.0]])
    phi_u, _ = su.ref.eval(centroid)
    _, dpsi = sp.ref.eval(centroid)
    geom = CellGeometry(su.mesh, quad_rule(1))
    cbx = np.einsum("qi,ci->c", phi_u, su.component(level.utilde, 0)[su.cell_dofs])
    cby = np.einsum("qi,ci->c", phi_u, su.component(level.utilde, 1)[su.cell_dofs])
    cg = np.einsum("qie,ced,ci->cd", dpsi, geom.inv_j, level.phi[sp.cell_dofs])
    return np.column_stack((cbx + cg[:, 0], cby + cg[:, 1]))


def reference_vtk_bytes(level, su, sp, cellwise):
    # the file from the writer's original, unplanned numerics, encoded one
    # row at a time with struct: the byte-for-byte reference
    mesh = su.mesh
    nv, nt = mesh.n_vertices, mesh.n_triangles
    gphi = reference_vertex_grad(sp, level.phi)
    ux, uy = su.component(level.utilde, 0)[:nv], su.component(level.utilde, 1)[:nv]

    def vectors(xs, ys):
        return b"".join(struct.pack(">ddd", x, y, 0.0) for x, y in zip(xs, ys)) + b"\n"

    out = [b"# vtk DataFile Version 3.0\n", b"time level %d t=%.17g\n" % (level.m, level.t),
           b"BINARY\nDATASET UNSTRUCTURED_GRID\n", b"POINTS %d double\n" % nv,
           vectors(mesh.vertices[:, 0], mesh.vertices[:, 1]), b"CELLS %d %d\n" % (nt, 4 * nt)]
    out += [struct.pack(">4i", 3, a, b, c) for a, b, c in mesh.triangles]
    out += [b"\nCELL_TYPES %d\n" % nt, struct.pack(">i", 5) * nt, b"\nPOINT_DATA %d\n" % nv]
    out += [b"VECTORS u_tilde double\n", vectors(ux, uy)]
    out += [b"VECTORS u_proj double\n", vectors(ux + gphi[:, 0], uy + gphi[:, 1])]
    out += [b"SCALARS p double\nLOOKUP_TABLE default\n"]
    out += [struct.pack(">d", v) for v in level.p[:nv]] + [b"\n"]
    if cellwise:
        cell = reference_cell_velocity(level, su, sp)
        out += [b"CELL_DATA %d\n" % nt, b"VECTORS u_proj_cell double\n"]
        out.append(vectors(cell[:, 0], cell[:, 1]))
    return b"".join(out)


def jittered_unit_square(n, rng):
    # the structured mesh with every interior vertex moved by up to h/5
    base = pk.generate_structured_unit_square(n)
    vertices = base.vertices.copy()
    interior = ~base.boundary_vertex_flags
    vertices[interior] += rng.uniform(-0.2 / n, 0.2 / n, (int(interior.sum()), 2))
    return pk.Mesh(vertices, base.triangles)


@pytest.mark.parametrize("cellwise", [False, True])
def test_vtk_matches_line_by_line_reference(tmp_path, cellwise):
    from ipcs2d.scheme import Level

    rng = np.random.default_rng(17)
    pairs = []
    for mesh in (pk.generate_structured_unit_square(3), jittered_unit_square(3, rng)):
        u1, u2 = (pk.build_space(mesh, k, components=2, homogeneous_dirichlet=True) for k in (1, 2))
        p1, p2 = (pk.build_space(mesh, k, components=1, zero_mean=True) for k in (1, 2))
        # (u2, p1) and (u1, p1) share a pressure space, so its plan is
        # rebuilt whenever the velocity space changes
        pairs += [(u1, p1), (u2, p1), (u2, p2)]
    path = tmp_path / "fields.vtk"
    # several levels through each pair, the pairs written alternately
    for m in range(3):
        for su, sp in pairs:
            level = Level(
                7 + m, 0.35 * (m + 1), rng.standard_normal(su.ndofs),
                rng.standard_normal(sp.ndofs), rng.standard_normal(sp.ndofs),
            )
            pk.write_vtk(level, su, sp, path, cellwise=cellwise)
            assert path.read_bytes() == reference_vtk_bytes(level, su, sp, cellwise)


@pytest.fixture(scope="module")
def vtk_path(tmp_path_factory):
    return tmp_path_factory.mktemp("vtk") / "fields.vtk"


@settings(deadline=None, max_examples=30)
@given(
    n=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    degrees=st.sampled_from([(1, 1), (2, 1), (2, 2)]),
    cellwise=st.booleans(),
)
def test_vtk_round_trip_decodes_to_the_reference_numerics(vtk_path, n, seed, degrees, cellwise):
    from ipcs2d.scheme import Level

    rng = np.random.default_rng(seed)
    mesh = jittered_unit_square(n, rng)
    su = pk.build_space(mesh, degrees[0], components=2, homogeneous_dirichlet=True)
    sp = pk.build_space(mesh, degrees[1], components=1, zero_mean=True)

    def field(size):
        # values across a wide exponent range, so every bit is exercised
        return rng.standard_normal(size) * 10.0 ** rng.integers(-100, 100, size)

    level = Level(int(rng.integers(0, 10**6)), float(field(1)[0]),
                  field(su.ndofs), field(sp.ndofs), field(sp.ndofs))
    pk.write_vtk(level, su, sp, vtk_path, cellwise=cellwise)
    data = vtk_path.read_bytes()
    vtk = read_vtk(data)
    nv, nt = mesh.n_vertices, mesh.n_triangles
    ux, uy = su.component(level.utilde, 0)[:nv], su.component(level.utilde, 1)[:nv]
    gphi = reference_vertex_grad(sp, level.phi)
    b = vtk.blocks
    assert np.array_equal(b["POINTS"], np.column_stack((mesh.vertices, np.zeros(nv))))
    assert np.array_equal(b["CELLS"], np.column_stack((np.full(nt, 3), mesh.triangles)))
    assert np.array_equal(b["CELL_TYPES"], np.full(nt, 5))
    assert np.array_equal(b["u_tilde"], np.column_stack((ux, uy, np.zeros(nv))))
    assert np.array_equal(b["u_proj"], np.column_stack((ux + gphi[:, 0], uy + gphi[:, 1], np.zeros(nv))))
    assert np.array_equal(b["p"], level.p[:nv])
    assert vtk.lines[1] == "time level %d t=%.17g" % (level.m, level.t)
    assert vtk.lines[12:] == (["CELL_DATA %d" % nt, "VECTORS u_proj_cell double"] if cellwise else [])
    if cellwise:
        cell = reference_cell_velocity(level, su, sp)
        assert np.array_equal(b["u_proj_cell"], np.column_stack((cell, np.zeros(nt))))
    # the ASCII lines, then 24 bytes per vector row, 16 per cell, 4 per
    # cell type and 8 per scalar, and one newline per block
    text = sum(len(line) + 1 for line in vtk.lines)
    assert len(data) == text + 80 * nv + 20 * nt + 6 + cellwise * (24 * nt + 1)


def test_vtk_spaces_on_different_meshes_are_rejected(tmp_path):
    from ipcs2d.scheme import Level

    mesh_u, mesh_p = pk.generate_structured_unit_square(2), pk.generate_structured_unit_square(2)
    su = pk.build_space(mesh_u, 1, components=2, homogeneous_dirichlet=True)
    sp = pk.build_space(mesh_p, 1, components=1, zero_mean=True)
    level = Level(0, 0.0, np.zeros(su.ndofs), np.zeros(sp.ndofs), np.zeros(sp.ndofs))
    with pytest.raises(ValueError, match="share one mesh"):
        pk.write_vtk(level, su, sp, tmp_path / "fields.vtk")
