"""Config parsing and the CSV / VTK writers."""

import math

import numpy as np
import pytest

import ipcs2d as pk
from ipcs2d.diagnostics import CSV_COLUMNS

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
        ("dt = 0.1\n", "missing required key"),
        ("mesh_n = 4\ndt = 0.1\nT = inf\n", ":3: T must be finite"),
        ("mesh_n = 4\ndt = nan\nT = 1\n", ":2: dt must be finite"),
        ("mesh_n = 4\ndt = 0.1\nT = 1\ntol_momentum = inf\n", ":4: tol_momentum must be finite"),
        ("mesh_n = 4\ndt = 0.01\nT = 0.001\n", ":3: T must be at least dt"),
        ("mesh_n = 4\ndt = 1e-300\nT = 1\n", ":2: dt gives more than 10000000 steps"),
    ],
)
def test_config_violations_raise(tmp_path, text, match):
    with pytest.raises((pk.ConfigError, ValueError), match=match):
        pk.parse_config(write_config(tmp_path, text))


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
    from ipcs2d.scheme import Level, YhElement

    level = Level(
        0, 0.0, np.zeros(su.ndofs), YhElement(np.zeros(su.ndofs), np.zeros(sp.ndofs)),
        np.zeros(sp.ndofs),
    )
    path = tmp_path / "zero.vtk"
    pk.write_vtk(level, su, sp, path, cellwise=True)
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert "POINTS 4 double" in text
    assert "CELLS 2 8" in text
    assert "CELL_TYPES 2" in text
    assert "POINT_DATA 4" in text
    assert "VECTORS u_tilde double" in text
    assert "VECTORS u_proj double" in text
    assert "SCALARS p double" in text
    assert "CELL_DATA 2" in text
    assert "VECTORS u_proj_cell double" in text
    # every numeric payload row of a zero state is zero
    idx = lines.index("VECTORS u_tilde double")
    for row in lines[idx + 1 : idx + 5]:
        assert [float(v) for v in row.split()] == [0.0, 0.0, 0.0]


def test_vtk_point_vectors_are_vertex_coefficients(tmp_path, tiny_run):
    traj = tiny_run
    su = traj.ops.space_u
    sp_ = traj.ops.space_p
    mesh = su.mesh
    path = tmp_path / "fields.vtk"
    pk.write_vtk(traj.final, su, sp_, path)
    lines = path.read_text().split("\n")
    idx = lines.index("VECTORS u_tilde double")
    ux = su.component(traj.final.utilde, 0)
    uy = su.component(traj.final.utilde, 1)
    for v in range(mesh.n_vertices):
        got = [float(s) for s in lines[idx + 1 + v].split()]
        assert math.isclose(got[0], ux[v], rel_tol=0, abs_tol=1e-12)
        assert math.isclose(got[1], uy[v], rel_tol=0, abs_tol=1e-12)
        assert got[2] == 0.0
    pdx = lines.index("LOOKUP_TABLE default")
    for v in range(mesh.n_vertices):
        assert math.isclose(float(lines[pdx + 1 + v]), traj.final.p[v], abs_tol=1e-15)
