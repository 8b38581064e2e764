"""Manufactured solutions, exact-error norms, and convergence studies.

A manufactured case carries closed-form velocity/pressure fields and the
forcing that makes them solve the momentum equation

    f = du/dt + (u . grad) u - mu lap(u) + grad p.

Each callable builds every factor from the sines and cosines of pi x and
pi y; the derivation is in the stream_vortex_case docstring.  A run
evaluates the forcing at the same quadrature points three times a step,
and only its time factors change, so the forcing keeps the spatial fields
of its last read-only point set and recombines them with sin t, cos t and
cos^2 t.  The exact fields keep the sines and cosines of that set alike.

The stock case drives a decaying vortex from the stream function
psi = sin^2(pi x) sin^2(pi y) cos(t), so the velocity is divergence free
with homogeneous boundary values by construction and the pressure
cos(pi x) cos(pi y) cos(t) has zero mean.

Error norms evaluate the discrete fields against the exact ones with a
quadrature two degrees above the FE degree.  Velocity errors are reported
for both discrete velocities: the intermediate field and the end-of-step
field (the intermediate one plus the cellwise pressure-gradient
correction).  The H1 seminorm error uses the intermediate field, the only
one with a conforming gradient.
"""

import math
import weakref

import numpy as np

from .assembly import CellGeometry, eval_at_quad, eval_grad_at_quad
from .fe import quad_rule
from .mesh import generate_structured_unit_square
from .scheme import SchemeConfig, first_failed_rule, run

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
    All callables broadcast over array x, y.  A viscosity mu that
    SchemeConfig would reject raises ValueError with its message."""

    def __init__(self, name, mu, u, p, f, grad_u):
        failed = first_failed_rule({"mu": mu})
        if failed is not None:
            raise ValueError(failed[1])
        self.name = name
        self.mu = mu
        self.u = u
        self.p = p
        self.f = f
        self.grad_u = grad_u

    def u0(self, x, y):
        return self.u(0.0, x, y)


def _read_only(a):
    # an array no write can reach: read-only, and so is every array it views
    return isinstance(a, np.ndarray) and not a.flags.writeable and (
        a.base is None or _read_only(a.base))


def stream_vortex_case(mu):
    """Decaying vortex: u = (d/dy, -d/dx) of sin^2(pi x) sin^2(pi y) cos(t)
    with pressure cos(pi x) cos(pi y) cos(t).

    With s = sin(pi .), c = cos(pi .) and the double angles S = 2 s c =
    sin(2 pi .) and 1 - 2 s^2 = cos(2 pi .) in x and y:

        u         = pi cos t (sx^2 Sy, -Sx sy^2)
        grad u    = pi^2 cos t (Sx Sy, 2 sx^2 (1 - 2 sy^2),
                                -2 (1 - 2 sx^2) sy^2, -Sx Sy)
        (u.grad)u = 2 pi^3 cos^2 t sx^2 sy^2 (Sx, Sy)
        lap u     = 2 pi^3 cos t (Sy (1 - 4 sx^2), Sx (4 sy^2 - 1))
        grad p    = -pi cos t (sx cy, cx sy)

    with du/dt = -pi sin t (sx^2 Sy, -Sx sy^2), and
    f = du/dt + (u.grad)u - mu lap u + grad p.  Each component of f is
    therefore sin t A + cos^2 t C + cos t D with fields of x and y alone:

        A = pi (-sx^2 Sy, Sx sy^2)
        C = 2 pi^3 sx^2 sy^2 (Sx, Sy)
        D = -2 pi^3 mu (Sy (1 - 4 sx^2), Sx (4 sy^2 - 1)) - pi (sx cy, cx sy)

    f keeps these six fields for the last read-only point set the case
    saw, while those points live, so repeated calls at one such set (an OperatorSet's
    rule points) compute them once; u, grad_u and p keep the six sines and
    cosines of that set the same way (error_norms evaluates them at one set
    for every level).  Writeable points are evaluated afresh.  The values
    are the same, bit for bit, as those of a fresh case."""
    pi = math.pi

    def trig(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        sx, cx, sy, cy = np.sin(pi * x), np.cos(pi * x), np.sin(pi * y), np.cos(pi * y)
        return sx, cx, 2.0 * sx * cx, sy, cy, 2.0 * sy * cy

    # weak references to the last read-only (x, y) seen and what one kind
    # of callable computed there: the six sines and cosines (u, grad_u, p)
    # or the six forcing fields (f); no write reaches points read-only
    # together with every array they view.  The values go when the points
    # do, so a projection's or an error rule's points are not kept for a run.
    memo = []

    def forget(ref):
        if memo and (memo[0] is ref or memo[1] is ref):
            memo.clear()

    def remembered(kind, compute, x, y):
        frozen = _read_only(x) and _read_only(y)
        if frozen and memo and memo[0]() is x and memo[1]() is y and memo[2] == kind:
            return memo[3]
        memo.clear()
        values = compute(x, y)
        if frozen:
            memo[:] = [weakref.ref(x, forget), weakref.ref(y, forget), kind, values]
        return values

    def forcing_fields(x, y):
        sx, cx, Sx, sy, cy, Sy = trig(x, y)
        sx2, sy2 = sx * sx, sy * sy
        convect = 2.0 * pi**3 * sx2 * sy2
        diffuse = 2.0 * pi**3 * mu
        return [  # A, C, D of the first component, then of the second
            -pi * sx2 * Sy, convect * Sx, -diffuse * Sy * (1.0 - 4.0 * sx2) - pi * sx * cy,
            pi * Sx * sy2, convect * Sy, -diffuse * Sx * (4.0 * sy2 - 1.0) - pi * cx * sy,
        ]

    def u(t, x, y):
        sx, _, Sx, sy, _, Sy = remembered("trig", trig, x, y)
        a = pi * np.cos(t)
        return a * sx * sx * Sy, -a * Sx * sy * sy

    def grad_u(t, x, y):
        sx, _, Sx, sy, _, Sy = remembered("trig", trig, x, y)
        a = pi * pi * np.cos(t)
        g11 = a * Sx * Sy
        return (
            g11,
            2.0 * a * sx * sx * (1.0 - 2.0 * sy * sy),
            -2.0 * a * (1.0 - 2.0 * sx * sx) * sy * sy,
            -g11,
        )

    def p(t, x, y):
        _, cx, _, _, cy, _ = remembered("trig", trig, x, y)
        return cx * cy * np.cos(t)

    def f(t, x, y):
        a1, c1, d1, a2, c2, d2 = remembered("forcing", forcing_fields, x, y)
        st, ct = np.sin(t), np.cos(t)
        ct2 = ct * ct
        return st * a1 + ct2 * c1 + ct * d1, st * a2 + ct2 * c2 + ct * d2

    return ManufacturedCase("stream_vortex", mu, u, p, f, grad_u)


def zero_case(mu):
    """Identically zero flow; useful as a smoke case (all discrete fields
    and all errors must vanish exactly)."""

    def zeros(n):
        return lambda t, x, y: tuple(np.zeros(np.shape(x)) for _ in range(n))

    return ManufacturedCase(
        "zero", mu, zeros(2), lambda t, x, y: np.zeros(np.shape(x)), zeros(2), zeros(4)
    )


_CASES = {"stream_vortex": stream_vortex_case, "zero": zero_case}


def case_by_name(name, mu):
    if name not in _CASES:
        raise ValueError(
            "unknown case %r (available: %s)" % (name, ", ".join(sorted(_CASES)))
        )
    return _CASES[name](mu)


def _l2_sq(geom, sq):
    # quadrature integral of a pointwise square
    return float(np.einsum("q,cq,c->", geom.rule.weights, sq, geom.detJ))


def _velocity_errors_at(traj, case, geom, level):
    """Squared L2 errors of the end-of-step and the intermediate velocity
    of a level."""
    ops = traj.ops
    ue1, ue2 = case.u(level.t, geom.x, geom.y)
    utilde = eval_at_quad(ops.space_u, geom, level.utilde)
    uh = utilde + eval_grad_at_quad(ops.space_p, geom, level.phi)

    def sq(v):
        d1, d2 = v[..., 0] - ue1, v[..., 1] - ue2
        return d1 * d1 + d2 * d2

    return _l2_sq(geom, sq(uh)), _l2_sq(geom, sq(utilde))


def _gradient_and_pressure_errors_at(traj, case, geom, level):
    """Squared H1-seminorm error of the intermediate velocity and squared
    L2 error of the pressure."""
    ops = traj.ops
    g11, g12, g21, g22 = case.grad_u(level.t, geom.x, geom.y)
    gut = eval_grad_at_quad(ops.space_u, geom, level.utilde)
    sq = (
        (gut[..., 0, 0] - g11) ** 2
        + (gut[..., 0, 1] - g12) ** 2
        + (gut[..., 1, 0] - g21) ** 2
        + (gut[..., 1, 1] - g22) ** 2
    )
    ph = eval_at_quad(ops.space_p, geom, level.p)
    return _l2_sq(geom, sq), _l2_sq(geom, (ph - case.p(level.t, geom.x, geom.y)) ** 2)


def error_norms(traj, case):
    """Errors of a trajectory against the exact fields of a case.

    Returns a dict with the final-time errors err_u_L2, err_utilde_L2,
    err_u_H1 (seminorm, intermediate field), err_p_L2, and — when every
    level was stored — the squared-in-time L2(0,T; L2) velocity errors
    err_u_L2L2 / err_utilde_L2L2 of the piecewise-constant-in-time
    interpolants (None otherwise).  Gradients are evaluated by
    eval_grad_at_quad, level by level, with no table of basis gradients
    pushed through the cells: such tables were the memory peak of a run
    at n=64 (4.7 MB for P2, 2.4 MB for P1)."""
    ops = traj.ops
    degree = max(ops.space_u.degree, ops.space_p.degree) + 2
    geom = CellGeometry(ops.space_u.mesh, quad_rule(degree))
    eu, eut = _velocity_errors_at(traj, case, geom, traj.final)
    eh1, ep = _gradient_and_pressure_errors_at(traj, case, geom, traj.final)
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
            eu, eut = _velocity_errors_at(traj, case, geom, lv)
            acc_u += eu
            acc_ut += eut
        out["err_u_L2L2"] = math.sqrt(traj.dt * acc_u)
        out["err_utilde_L2L2"] = math.sqrt(traj.dt * acc_ut)
    return out


def _study_grid(mode, config):
    T = config.T
    if mode == "temporal":
        # one fine mesh, whose spatial error cancels in each difference
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

    temporal: n=32 P2/P1, dt in {T/40, ..., T/320}, consecutive differences;
    spatial: n in {4, 8, 16, 32} at the config's dt and degrees;
    coupled: n in {4, 8, 16, 32}, P1/P1, dt = 4 dt/n.
    No mode reads mesh_n; temporal ignores dt and both degrees as well,
    coupled both degrees.

    Spatial and coupled rows hold errors against the exact case fields.
    A temporal row holds the final-time differences between a run and the
    run at half its dt, and carries the coarser dt: an error C dt^p gives
    a difference C (1 - 2^-p) dt^p, the same order with no reference run
    (the observed order of Richardson extrapolation).  err_u_L2 is then
    the end-of-step velocity difference in L2, err_u_H1 the
    intermediate-velocity gradient difference, err_p_L2 the pressure's.

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
    last = None
    ops_cache = {}
    for n, deg_u, deg_p, dt in _study_grid(mode, config):
        key = (n, deg_u, deg_p)
        ops = ops_cache.get(key)
        run_cfg = SchemeConfig(
            dt=dt,
            T=config.T,
            mu=config.mu,
            mesh=generate_structured_unit_square(n) if ops is None else ops.space_u.mesh,
            degree_u=deg_u,
            degree_p=deg_p,
            u0=case.u0,
            f=case.f,
            case_name=case.name,
            tol_poisson=config.tol_poisson,
            tol_momentum=config.tol_momentum,
            store_every=10**9,  # only the endpoints matter here
        )
        traj = run(run_cfg, ops=ops)
        ops = ops_cache[key] = traj.ops
        if mode == "temporal":
            # a row pairs the previous run with this one, at half its dt
            pair, last = last, (dt, run_cfg, traj.final)
            if pair is None:
                continue
            param, run_cfg, lv = pair
            fine = traj.final
            du, dphi = lv.utilde - fine.utilde, lv.phi - fine.phi
            errs = {
                "err_u_L2": math.sqrt(max(0.0, ops.yh_norm_sq(du, dphi))),
                "err_u_H1": math.sqrt(max(0.0, ops.grad_u_sq(du))),
                "err_p_L2": math.sqrt(max(0.0, ops.norm_p_sq(lv.p - fine.p))),
            }
        else:
            errs = error_norms(traj, case)
            param = run_cfg.mesh.h
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
