"""Command line driver.

Subcommands:
    run <config>                  simulate; write ledger CSV + VTK levels
    convergence <config> --mode temporal|spatial|coupled
                                  refinement study; write rate-table CSV
    verify <config>               run with every identity gate armed and
                                  check the global energy bound; exit
                                  nonzero on any violation
    gronwall --demo               print the discrete Gronwall bound next
                                  to the brute-force extremal recursion
                                  for a seeded random case

Exit codes: 0 success; 1 assertion/solver failure; 2 usage or config
errors (including a missing config file, and an out_dir that cannot be
created, which run and convergence find before they start).  Since they
create out_dir first, a run that then fails leaves it behind, empty.
"""

import argparse
import os
import sys

import numpy as np

from .diagnostics import discrete_gronwall_bound, energy_inequality_check
from .fileio import (
    ConfigError,
    parse_config,
    write_ledger_csv,
    write_rate_table_csv,
    write_vtk,
)
from .linsolve import LinearSolveError
from .mms import convergence_study
from .scheme import SchemeError, run

__all__ = ["main"]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ipcs2d",
        description="Pressure-correction Navier-Stokes solver on the unit "
        "square with discrete energy verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate and write ledger CSV + VTK levels")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument(
        "--cellwise", action="store_true", help="append per-cell end-of-step velocity to the VTK files"
    )

    p_conv = sub.add_parser("convergence", help="refinement study, writes a rate table CSV")
    p_conv.add_argument("config")
    p_conv.add_argument("--mode", required=True, choices=("temporal", "spatial", "coupled"))

    p_ver = sub.add_parser("verify", help="run with all identity gates armed")
    p_ver.add_argument("config")

    p_gr = sub.add_parser("gronwall", help="bound-vs-recursion demonstration")
    p_gr.add_argument("--demo", action="store_true", required=True)
    return parser


def _make_out_dir(args, config):
    # before any work, so that an unusable out_dir costs no run
    out = config.out_dir
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            "%s: cannot create out_dir %s (%s)" % (args.config, out, exc.strerror or exc)
        ) from None
    return out


def _print_warnings(warnings):
    for w in warnings:
        print("warning: %s" % w)


def _cmd_run(args):
    config = parse_config(args.config)
    out = _make_out_dir(args, config)
    traj = run(config)
    _print_warnings(traj.warnings)
    ledger_path = os.path.join(out, "ledger.csv")
    write_ledger_csv(traj.ledger, ledger_path)
    for lv in traj.levels:
        write_vtk(
            lv,
            traj.ops.space_u,
            traj.ops.space_p,
            os.path.join(out, "fields_%06d.vtk" % lv.m),
            cellwise=args.cellwise,
        )
    rows = traj.ledger.rows
    print(
        "completed %d steps (dt=%.17g, T=%g): E_h end %.6e, wrote %s and %d VTK levels to %s"
        % (
            traj.n_steps,
            traj.dt,
            config.T,
            rows[-1]["E_h"],
            ledger_path,
            len(traj.levels),
            out,
        )
    )
    return 0


def _cmd_convergence(args):
    config = parse_config(args.config)
    out = _make_out_dir(args, config)
    rows, warnings = convergence_study(args.mode, config)
    _print_warnings(warnings)
    path = os.path.join(out, "rates_%s.csv" % args.mode)
    write_rate_table_csv(rows, path)
    print("n      dt            err_u_L2      err_u_H1      err_p_L2      rate_u  rate_p")
    for r in rows:
        print(
            "%-6d %-13.6g %-13.6e %-13.6e %-13.6e %-7.3g %-7.3g"
            % (r["n"], r["dt"], r["err_u_L2"], r["err_u_H1"], r["err_p_L2"], r["rate_u"], r["rate_p"])
        )
    print("wrote %s" % path)
    return 0


def _cmd_verify(args):
    config = parse_config(args.config)
    traj = run(config)  # raises SchemeError on any per-step gate violation
    _print_warnings(traj.warnings)
    ledger = traj.ledger
    print("steps: %d (dt=%.17g)" % (traj.n_steps, traj.dt))
    print("max identity residual:    %.3e" % ledger.column("residual_identity").max())
    print("max splitting residual:   %.3e" % ledger.column("residual_pythagoras").max())
    print("max weak-div residual:    %.3e" % ledger.column("residual_weak_div").max())
    print("max convection residual:  %.3e" % ledger.column("residual_skew").max())
    if traj.dt <= 1.0 / 6.0:
        report = energy_inequality_check(ledger)
        print(
            "energy bound max LHS/RHS: %.6f (raw Gronwall form: %.6f)"
            % (report.max_ratio, report.max_ratio_gronwall)
        )
        print("intermediate-velocity bound max ratio: %.6f" % report.max_utilde_ratio)
        if report.energy_monotone is not None:
            print("unforced energy monotone: %s" % report.energy_monotone)
        if not report.ok:
            print("FAIL: global energy bound violated")
            return 1
    else:
        print("energy bound skipped: traced constant needs dt <= 1/6")
    print("all identity gates passed")
    return 0


def _cmd_gronwall(args):
    rng = np.random.default_rng(20240817)
    nu = float(rng.uniform(0.5, 3.0))
    dt = float(rng.uniform(0.01, 0.9 / nu))
    n = 12
    b = rng.uniform(0.0, 2.0, size=n)
    bounds = discrete_gronwall_bound(b, nu, dt)
    # extremal sequence: the recursion run as an equality
    a = np.empty(n)
    acc = 0.0
    for i in range(n):
        a[i] = (b[i] + nu * dt * acc) / (1.0 - nu * dt)
        acc += a[i]
    print("nu = %.6g, dt = %.6g, nu*dt = %.6g" % (nu, dt, nu * dt))
    print("n   b_n           recursion a_n  bound_n")
    for i in range(n):
        print("%-3d %-13.6e %-14.6e %-13.6e" % (i + 1, b[i], a[i], bounds[i]))
    ok = bool(np.all(bounds >= a * (1.0 - 1e-12)))
    print("bound dominates recursion: %s" % ok)
    return 0 if ok else 1


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "convergence": _cmd_convergence,
        "verify": _cmd_verify,
        "gronwall": _cmd_gronwall,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (SchemeError, LinearSolveError) as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
