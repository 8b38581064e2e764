"""Command line driver: subcommands, outputs, exit codes."""

import os

import numpy as np
import pytest
from vtk_binary import read_vtk_file

import ipcs2d as pk
from ipcs2d import cli
from ipcs2d.cli import main


def write_cfg(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def test_run_writes_ledger_and_vtk_levels(tmp_path, capsys):
    out = tmp_path / "results"
    cfg = write_cfg(
        tmp_path,
        "mesh_n = 4\ndt = 0.02\nT = 0.1\ndegree_u = 1\nstore_every = 2\n"
        "out_dir = %s\n" % out,
    )
    assert main(["run", cfg]) == 0
    captured = capsys.readouterr()
    assert "completed 5 steps" in captured.out
    ledger = out / "ledger.csv"
    assert ledger.exists()
    assert len(ledger.read_text().strip().split("\n")) == 7  # header + 6 levels
    names = sorted(p.name for p in out.glob("fields_*.vtk"))
    assert names == [
        "fields_000000.vtk",
        "fields_000002.vtk",
        "fields_000004.vtk",
        "fields_000005.vtk",
    ]
    lines = read_vtk_file(out / "fields_000000.vtk").lines
    assert "POINT_DATA 25" in lines
    assert not any(line.startswith("CELL_DATA") for line in lines)


def test_run_cellwise_flag_appends_cell_data(tmp_path):
    out = tmp_path / "cellwise"
    cfg = write_cfg(
        tmp_path,
        "mesh_n = 2\ndt = 0.05\nT = 0.1\ndegree_u = 1\nout_dir = %s\n" % out,
    )
    assert main(["run", cfg, "--cellwise"]) == 0
    vtk = read_vtk_file(out / "fields_000000.vtk")
    assert vtk.lines[-2:] == ["CELL_DATA 8", "VECTORS u_proj_cell double"]
    assert vtk.blocks["u_proj_cell"].shape == (8, 3)


def test_run_vtk_files_decode_to_the_final_level(tmp_path):
    out = tmp_path / "decode"
    cfg = write_cfg(
        tmp_path,
        "mesh_n = 3\ndt = 0.05\nT = 0.15\ndegree_u = 2\nout_dir = %s\n" % out,
    )
    assert main(["run", cfg, "--cellwise"]) == 0
    files = sorted(out.glob("fields_*.vtk"))
    assert len(files) == 4
    decoded = [read_vtk_file(path) for path in files]
    names = ["POINTS", "CELLS", "CELL_TYPES", "u_tilde", "u_proj", "p", "u_proj_cell"]
    assert all(list(vtk.blocks) == names for vtk in decoded)
    # the run is deterministic, so the library gives the CLI's last level
    traj = pk.run(pk.parse_config(cfg))
    final, su = traj.final, traj.ops.space_u
    nv = su.mesh.n_vertices
    assert decoded[-1].lines[1] == "time level %d t=%.17g" % (final.m, final.t)
    u_tilde = decoded[-1].blocks["u_tilde"]
    assert np.array_equal(u_tilde[:, 0], su.component(final.utilde, 0)[:nv])
    assert np.array_equal(u_tilde[:, 1], su.component(final.utilde, 1)[:nv])
    assert np.array_equal(decoded[-1].blocks["p"], final.p[:nv])


def test_verify_reports_residuals_and_passes(tmp_path, capsys):
    out = tmp_path / "verify_out"
    cfg = write_cfg(
        tmp_path,
        "mesh_n = 4\ndt = 0.01\nT = 0.2\ndegree_u = 1\nout_dir = %s\n" % out,
    )
    assert main(["verify", cfg]) == 0
    captured = capsys.readouterr()
    assert "steps: 20" in captured.out
    assert "max identity residual" in captured.out
    assert "max weak-div residual" in captured.out
    assert "energy bound max LHS/RHS" in captured.out
    assert "all identity gates passed" in captured.out


def test_missing_config_is_a_usage_error(capsys):
    assert main(["run", "/no/such/file.cfg"]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: /no/such/file.cfg: cannot read the config file ("
    )


def test_empty_out_dir_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, "mesh_n = 2\ndt = 0.05\nT = 0.1\nout_dir =\n")
    assert main(["run", cfg]) == 2
    assert ":4: malformed value '' for key 'out_dir'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_invalid_config_is_a_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "mesh_n = 4\ndt = 0\nT = 1\n")
    assert main(["verify", cfg]) == 2
    assert "dt must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body,message",
    [
        ("mesh_n = 4\ndt = 0.01\nT = inf\n", ":3: T must be finite"),
        ("mesh_n = 4\ndt = 0.01\nT = 0.001\n", ":3: T must be at least dt"),
        ("mesh_n = 4\ndt = 1e-300\nT = 1\n", ":2: dt gives more than 10000000 steps"),
        ("mesh_n = 100000\ndt = 0.01\nT = 1\n", ":1: mesh_n must be at most 1024"),
        ("mesh_n = 4\ndt = 0.01\nT = 1\ntol_momentum = 0\n", ":4: tol_momentum must be positive"),
        ("mesh_n = 4\ndt = 0.01\nT = 1\ntol_poisson = -1\n", ":4: tol_poisson must be positive"),
        ("mesh_n = 4\ndt = 0.01\nT = 1\ncase = nope\n", ":4: unknown case 'nope'"),
    ],
)
def test_out_of_range_time_is_a_usage_error(tmp_path, capsys, body, message):
    cfg = write_cfg(tmp_path, body)
    assert main(["verify", cfg]) == 2
    assert message in capsys.readouterr().err


def test_undecodable_config_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"mesh_n = 4\ndt = 0.01\nT = 1\n# \xe9\n")
    assert main(["verify", str(path)]) == 2
    assert "latin1.cfg: not a UTF-8 text file" in capsys.readouterr().err


def test_unreachable_solver_tolerance_is_a_failure(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "mesh_n = 4\ndt = 0.05\nT = 0.1\ndegree_u = 1\ntol_momentum = 1e-30\n"
        "out_dir = %s\n" % (tmp_path / "out"),
    )
    assert main(["run", cfg]) == 1
    assert "verification failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run"], ["convergence", "--mode", "spatial"]])
@pytest.mark.parametrize("under_file", [False, True])
def test_out_dir_that_cannot_be_created_is_a_usage_error(
    tmp_path, capsys, monkeypatch, command, under_file
):
    blocker = tmp_path / "taken"
    blocker.write_text("a regular file\n")
    out = blocker / "sub" if under_file else blocker
    cfg = write_cfg(tmp_path, "mesh_n = 4\ndt = 0.02\nT = 0.04\nout_dir = %s\n" % out)
    entered = []

    def refuse(*args, **kwargs):
        entered.append(args)
        raise AssertionError("the run started before out_dir was checked")

    monkeypatch.setattr(cli, "run", refuse)
    monkeypatch.setattr(cli, "convergence_study", refuse)
    assert main([command[0], cfg] + command[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: %s: cannot create out_dir %s" % (cfg, out))
    assert "Traceback" not in err
    assert entered == []


@pytest.mark.parametrize(
    "command, name",
    [
        (["run"], "ledger.csv"),
        (["run"], "fields_000001.vtk"),
        (["convergence", "--mode", "spatial"], "rates_spatial.csv"),
    ],
)
def test_output_file_that_cannot_be_written_is_a_usage_error(tmp_path, capsys, command, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    cfg = write_cfg(
        tmp_path,
        "mesh_n = 4\ndt = 0.02\nT = 0.04\ndegree_u = 1\ncase = zero\nout_dir = %s\n" % out,
    )
    assert main([command[0], cfg] + command[1:]) == 2
    err = capsys.readouterr().err
    assert err == "config error: %s: cannot write %s (Is a directory)\n" % (cfg, out / name)


def test_convergence_writes_rate_table(tmp_path, capsys):
    out = tmp_path / "rates_out"
    cfg = write_cfg(
        tmp_path,
        "mesh_n = 4\ndt = 0.02\nT = 0.04\ndegree_u = 1\ncase = zero\n"
        "out_dir = %s\n" % out,
    )
    assert main(["convergence", cfg, "--mode", "spatial"]) == 0
    captured = capsys.readouterr()
    assert "wrote" in captured.out
    table = out / "rates_spatial.csv"
    lines = table.read_text().strip().split("\n")
    assert lines[0] == "n,dt,err_u_L2,err_u_H1,err_p_L2,rate_u,rate_p"
    assert len(lines) == 5
    assert [row.split(",")[0] for row in lines[1:]] == ["4", "8", "16", "32"]


def test_gronwall_demo(capsys):
    assert main(["gronwall", "--demo"]) == 0
    out = capsys.readouterr().out
    assert "bound dominates recursion: True" in out
    assert "nu*dt" in out


@pytest.mark.parametrize(
    "argv",
    [[], ["frobnicate"], ["run"], ["convergence", "x.cfg"], ["gronwall"]],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
