"""Manufactured solutions, exact-error norms, and convergence studies.

A manufactured case carries closed-form velocity/pressure fields and the
forcing that makes them solve the momentum equation

    f = du/dt + (u . grad) u - mu lap(u) + grad p,

derived symbolically at construction.  The stock case drives a decaying
vortex from the stream function psi = sin^2(pi x) sin^2(pi y) cos(t), so
the velocity is divergence free with homogeneous boundary values by
construction and the pressure cos(pi x) cos(pi y) cos(t) has zero mean.

Error norms evaluate the discrete fields against the exact ones with a
quadrature two degrees above the FE degree.  Velocity errors are reported
for both discrete velocities: the intermediate field and the end-of-step
field (base plus cellwise pressure-gradient correction).  The H1 seminorm
error uses the intermediate field, the only one with a conforming
gradient.
"""

import math

import numpy as np
import sympy

from .assembly import CellGeometry, eval_at_quad, eval_grad_at_quad
from .fe import quad_rule
from .mesh import generate_structured_unit_square
from .scheme import SchemeConfig, run

__all__ = [
    "ManufacturedCase",
    "stream_vortex_case",
    "zero_case",
    "case_by_name",
    "error_norms",
    "convergence_study",
]


class ManufacturedCase:
    """Closed-form exact fields of a forced flow.

    u(t, x, y) -> (u1, u2); p(t, x, y) -> scalar; f(t, x, y) -> (f1, f2);
    grad_u(t, x, y) -> (d1u1, d2u1, d1u2, d2u2); u0(x, y) = u(0, x, y).
    All callables broadcast over array x, y."""

    def __init__(self, name, mu, u, p, f, grad_u):
        self.name = name
        self.mu = mu
        self.u = u
        self.p = p
        self.f = f
        self.grad_u = grad_u

    def u0(self, x, y):
        return self.u(0.0, x, y)


def _broadcast1(fn):
    def call(t, x, y):
        x = np.asarray(x, dtype=float)
        return np.asarray(fn(t, x, y), dtype=float) * np.ones_like(x)

    return call


def _broadcastn(fn):
    def call(t, x, y):
        x = np.asarray(x, dtype=float)
        return tuple(np.asarray(v, dtype=float) * np.ones_like(x) for v in fn(t, x, y))

    return call


def _case_from_expressions(name, mu, u1e, u2e, pe, t, x, y):
    f1e = (
        u1e.diff(t)
        + u1e * u1e.diff(x)
        + u2e * u1e.diff(y)
        - mu * (u1e.diff(x, 2) + u1e.diff(y, 2))
        + pe.diff(x)
    )
    f2e = (
        u2e.diff(t)
        + u1e * u2e.diff(x)
        + u2e * u2e.diff(y)
        - mu * (u2e.diff(x, 2) + u2e.diff(y, 2))
        + pe.diff(y)
    )
    args = (t, x, y)
    # one function per vector field, its common subexpressions evaluated once
    lam_all = lambda *es: _broadcastn(sympy.lambdify(args, es, modules="numpy", cse=True))
    u = lam_all(u1e, u2e)
    p = _broadcast1(sympy.lambdify(args, pe, modules="numpy"))
    f = lam_all(sympy.simplify(f1e), sympy.simplify(f2e))
    grad_u = lam_all(u1e.diff(x), u1e.diff(y), u2e.diff(x), u2e.diff(y))
    return ManufacturedCase(name, mu, u, p, f, grad_u)


def stream_vortex_case(mu=1.0):
    """Decaying vortex: u = (d/dy, -d/dx) of sin^2(pi x) sin^2(pi y) cos(t)
    with pressure cos(pi x) cos(pi y) cos(t)."""
    if mu <= 0:
        raise ValueError("viscosity mu must be positive")
    t, x, y = sympy.symbols("t x y")
    psi = sympy.sin(sympy.pi * x) ** 2 * sympy.sin(sympy.pi * y) ** 2 * sympy.cos(t)
    u1 = psi.diff(y)
    u2 = -psi.diff(x)
    p = sympy.cos(sympy.pi * x) * sympy.cos(sympy.pi * y) * sympy.cos(t)
    return _case_from_expressions("stream_vortex", mu, u1, u2, p, t, x, y)


def zero_case(mu=1.0):
    """Identically zero flow; useful as a smoke case (all discrete fields
    and all errors must vanish exactly)."""
    t, x, y = sympy.symbols("t x y")
    zero = sympy.Integer(0)
    return _case_from_expressions("zero", mu, zero, zero, zero, t, x, y)


_CASES = {"stream_vortex": stream_vortex_case, "zero": zero_case}


def case_by_name(name, mu=1.0):
    if name not in _CASES:
        raise ValueError(
            "unknown case %r (available: %s)" % (name, ", ".join(sorted(_CASES)))
        )
    return _CASES[name](mu)


def _error_geometry(traj):
    degree = max(traj.ops.space_u.degree, traj.ops.space_p.degree) + 2
    return CellGeometry(traj.config.mesh, quad_rule(degree))


def _field_errors_at(traj, case, geom, level):
    ops = traj.ops
    w = geom.rule.weights
    X = geom.phys[..., 0]
    Y = geom.phys[..., 1]
    t = level.t

    ue1, ue2 = case.u(t, X, Y)
    utilde = eval_at_quad(ops.space_u, geom, level.utilde)
    base = eval_at_quad(ops.space_u, geom, level.u.base)
    gphi = eval_grad_at_quad(ops.space_p, geom, level.u.phi)
    uh = base + gphi

    def l2sq(d1, d2):
        return float(np.einsum("q,cq,c->", w, d1 * d1 + d2 * d2, geom.detJ))

    err_u_sq = l2sq(uh[..., 0] - ue1, uh[..., 1] - ue2)
    err_utilde_sq = l2sq(utilde[..., 0] - ue1, utilde[..., 1] - ue2)

    g11, g12, g21, g22 = case.grad_u(t, X, Y)
    gut = eval_grad_at_quad(ops.space_u, geom, level.utilde)
    err_h1_sq = float(
        np.einsum(
            "q,cq,c->",
            w,
            (gut[..., 0, 0] - g11) ** 2
            + (gut[..., 0, 1] - g12) ** 2
            + (gut[..., 1, 0] - g21) ** 2
            + (gut[..., 1, 1] - g22) ** 2,
            geom.detJ,
        )
    )

    pe = case.p(t, X, Y)
    ph = eval_at_quad(ops.space_p, geom, level.p)
    err_p_sq = float(np.einsum("q,cq,c->", w, (ph - pe) ** 2, geom.detJ))
    return err_u_sq, err_utilde_sq, err_h1_sq, err_p_sq


def error_norms(traj, case):
    """Errors of a trajectory against the exact fields of a case.

    Returns a dict with the final-time errors err_u_L2, err_utilde_L2,
    err_u_H1 (seminorm, intermediate field), err_p_L2, and — when every
    level was stored — the squared-in-time L2(0,T; L2) velocity errors
    err_u_L2L2 / err_utilde_L2L2 of the piecewise-constant-in-time
    interpolants (None otherwise)."""
    geom = _error_geometry(traj)
    eu, eut, eh1, ep = _field_errors_at(traj, case, geom, traj.final)
    out = {
        "err_u_L2": math.sqrt(eu),
        "err_utilde_L2": math.sqrt(eut),
        "err_u_H1": math.sqrt(eh1),
        "err_p_L2": math.sqrt(ep),
        "err_u_L2L2": None,
        "err_utilde_L2L2": None,
    }
    if traj.is_complete():
        acc_u = 0.0
        acc_ut = 0.0
        for lv in traj.levels[1:]:
            eu, eut, _, _ = _field_errors_at(traj, case, geom, lv)
            acc_u += eu
            acc_ut += eut
        out["err_u_L2L2"] = math.sqrt(traj.dt * acc_u)
        out["err_utilde_L2L2"] = math.sqrt(traj.dt * acc_ut)
    return out


def _study_grid(mode, config):
    T = config.T
    if mode == "temporal":
        # fixed fine mesh so the spatial error is subdominant
        return [(32, 2, 1, T / m) for m in (40, 80, 160, 320)]
    if mode == "spatial":
        # the configured dt is the fixed (small) time step
        return [(n, config.degree_u, config.degree_p, config.dt) for n in (4, 8, 16, 32)]
    if mode == "coupled":
        # dt proportional to h with linear velocity elements, so the
        # refinement path satisfies h^(k+1) = o(dt)
        return [(n, 1, 1, config.dt * 4.0 / n) for n in (4, 8, 16, 32)]
    raise ValueError("mode must be temporal, spatial or coupled, got %r" % (mode,))


def convergence_study(mode, config, case=None):
    """Run the refinement study of one mode and return (rows, warnings).

    temporal: n=32, quadratic velocity, dt in {T/40, T/80, T/160, T/320};
    spatial: n in {4, 8, 16, 32} at the config's fixed dt and degrees;
    coupled: n in {4, 8, 16, 32}, linear velocity, dt halving with h.

    Spatial and coupled modes measure errors against the exact case
    fields.  Temporal mode measures against a reference run on the same
    mesh with the finest dt quartered: against exact fields the sequence
    would flatten at the fixed spatial error of the n=32 mesh, while the
    same-mesh reference isolates the time-stepping error whose order is
    under study (err_u_L2 is then the end-of-step velocity difference in
    the L2 norm, err_u_H1 the intermediate-velocity gradient difference,
    err_p_L2 the pressure difference).

    The case defaults to the one named in the config.  Each row holds the
    final-time errors and the observed rates against the previous row
    (velocity rates from err_u_L2, pressure from err_p_L2), computed as
    log(e_prev/e_cur) / log(param_prev/param_cur) with the refinement
    parameter dt in temporal mode and h otherwise.  A non-monotone error
    sequence is reported in warnings, not fatal.  Every run keeps the
    per-step identity checks armed, so a study doubles as a soak test."""
    if case is None:
        if config.case_name is None:
            raise ValueError("no case given and the config names none")
        case = case_by_name(config.case_name, config.mu)

    rows = []
    warnings = []
    prev = None
    ops_cache = {}
    mesh_cache = {}
    grid = _study_grid(mode, config)

    def run_one(n, deg_u, deg_p, dt):
        if n not in mesh_cache:
            mesh_cache[n] = generate_structured_unit_square(n)
        run_cfg = SchemeConfig(
            dt=dt,
            T=config.T,
            mu=config.mu,
            mesh=mesh_cache[n],
            degree_u=deg_u,
            degree_p=deg_p,
            u0=case.u0,
            f=case.f,
            case_name=case.name,
            tol_poisson=config.tol_poisson,
            tol_momentum=config.tol_momentum,
            store_every=max(1, 10**9),  # only the endpoints matter here
        )
        key = (n, deg_u, deg_p)
        traj = run(run_cfg, ops=ops_cache.get(key))
        ops_cache[key] = traj.ops
        return run_cfg, traj

    reference = None
    if mode == "temporal":
        n, deg_u, deg_p, dt_fine = grid[-1]
        reference = run_one(n, deg_u, deg_p, dt_fine / 4.0)[1].final

    for n, deg_u, deg_p, dt in grid:
        run_cfg, traj = run_one(n, deg_u, deg_p, dt)
        if mode == "temporal":
            ops = traj.ops
            lv = traj.final
            du_sq = ops.yh_norm_sq(
                lv.u.base - reference.u.base, lv.u.phi - reference.u.phi
            )
            errs = {
                "err_u_L2": math.sqrt(max(0.0, du_sq)),
                "err_u_H1": math.sqrt(max(0.0, ops.grad_u_sq(lv.utilde - reference.utilde))),
                "err_p_L2": math.sqrt(max(0.0, ops.norm_p_sq(lv.p - reference.p))),
            }
        else:
            errs = error_norms(traj, case)
        param = dt if mode == "temporal" else run_cfg.mesh.h
        row = {
            "n": n,
            "dt": run_cfg.dt,
            "err_u_L2": errs["err_u_L2"],
            "err_u_H1": errs["err_u_H1"],
            "err_p_L2": errs["err_p_L2"],
            "rate_u": float("nan"),
            "rate_p": float("nan"),
        }
        if prev is not None:
            p_param, p_row = prev
            ratio = p_param / param
            for rate_key, err_key in (("rate_u", "err_u_L2"), ("rate_p", "err_p_L2")):
                e0, e1 = p_row[err_key], row[err_key]
                if e0 > 0 and e1 > 0 and ratio > 0 and ratio != 1:
                    row[rate_key] = math.log(e0 / e1) / math.log(ratio)
            if p_row["err_u_L2"] < row["err_u_L2"]:
                warnings.append(
                    "velocity error grew from %.3e to %.3e between rows %d and %d"
                    % (p_row["err_u_L2"], row["err_u_L2"], len(rows) - 1, len(rows))
                )
        prev = (param, row)
        rows.append(row)
    return rows, warnings
