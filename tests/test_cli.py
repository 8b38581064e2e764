"""Command line driver: subcommands, outputs, exit codes."""

import os

import pytest

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
    assert "CELL_DATA" not in (out / "fields_000000.vtk").read_text()


def test_run_cellwise_flag_appends_cell_data(tmp_path):
    out = tmp_path / "cellwise"
    cfg = write_cfg(
        tmp_path,
        "mesh_n = 2\ndt = 0.05\nT = 0.1\ndegree_u = 1\nout_dir = %s\n" % out,
    )
    assert main(["run", cfg, "--cellwise"]) == 0
    text = (out / "fields_000000.vtk").read_text()
    assert "CELL_DATA 8" in text and "u_proj_cell" in text


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
    assert "config error" in capsys.readouterr().err


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
    ],
)
def test_out_of_range_time_is_a_usage_error(tmp_path, capsys, body, message):
    cfg = write_cfg(tmp_path, body)
    assert main(["verify", cfg]) == 2
    assert message in capsys.readouterr().err


def test_unreachable_solver_tolerance_is_a_failure(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "mesh_n = 4\ndt = 0.05\nT = 0.1\ndegree_u = 1\ntol_momentum = 1e-30\n",
    )
    assert main(["run", cfg]) == 1
    assert "verification failure" in capsys.readouterr().err


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
