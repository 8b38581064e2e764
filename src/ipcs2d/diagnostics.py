"""Energy bookkeeping and the discrete estimates the scheme satisfies.

Every time level is logged to an EnergyLedger row holding the squared
norms entering the discrete energy balance, together with the relative
residuals of three per-step identities:

  * level 0:   |u0|^2 + dt^2 |grad p0|^2 = |utilde0|^2
  * level 1:   (1/dt) (|u1|^2 + |utilde1 - u0|^2 - |u0|^2)
                 + dt (|grad p1|^2 - |grad p0|^2)
                 + 2 mu |grad utilde1|^2 = 2 (f1, utilde1)
  * level m:   (1/dt) (|u^m|^2 - |u^{m-1}|^2
                 + |2u^m - u^{m-1}|^2 - |2u^{m-1} - u^{m-2}|^2
                 + |u^m - 2u^{m-1} + u^{m-2}|^2 + 3 |utilde^m - u^m|^2)
                 + (4 dt/3) (|grad p^m|^2 - |grad p^{m-1}|^2)
                 + 4 mu |grad utilde^m|^2 = 4 (f^m, utilde^m)

plus the orthogonality |utilde|^2 = |u|^2 + |u - utilde|^2 and the weak
divergence of the end-of-step field.  The assembly quadrature is exact for
every integrand involved, so all three hold to rounding.

Summing the level identities telescopes into a global energy inequality.
The a-priori bound asserted here carries an explicit constant obtained by
walking the weighted sum of the identities through Cauchy-Schwarz/Young
absorption and the discrete Gronwall lemma implemented below (rate nu = 2,
requiring dt <= 1/6): for every M >= 1,

    E^M + sum_{j>=2} |second diff|^2 + 2 sum_{j>=2} |split|^2
        + 4 mu dt sum_{j>=1} |grad utilde^j|^2 + 3 |utilde1 - u0|^2
    <= exp(3 M dt) * b_M,
    b_M = (10 + 14 dt) |utilde0|^2 + 7 dt |f1|^2
        + 2 dt sum_{j=2}^{M} |f^j|^2,

with E^M = |u^M|^2 + |2u^M - u^{M-1}|^2 + (4 dt^2/3) |grad p^M|^2 and all
forcing norms taken in the same quadrature as the load vectors, which
makes the Cauchy-Schwarz steps exact discretely.  The Gronwall factor
(1 - 2 dt)^{-M}, which the implementation also reports, is sharper than
the displayed exponential for dt <= 1/6.
"""

import math

import numpy as np

__all__ = [
    "CSV_COLUMNS",
    "EnergyLedger",
    "record_level",
    "step_identity_residual",
    "EnergyReport",
    "energy_inequality_check",
    "interpolant_difference_norms",
    "time_modulus",
    "discrete_gronwall_bound",
    "gronwall_monotone_bound",
]

CSV_COLUMNS = [
    "step",
    "t",
    "norm_u_sq",
    "norm_2u_minus_um1_sq",
    "dt2_gradp_sq",
    "E_h",
    "split_err_sq",
    "second_diff_sq",
    "grad_utilde_sq",
    "f_dot_utilde",
    "residual_identity",
    "residual_pythagoras",
]


class EnergyLedger:
    """Per-level rows of energy quantities and identity residuals.

    rows[m] is a dict with the CSV_COLUMNS keys plus in-memory extras
    (gradp_sq, utilde_norm_sq, f_norm_sq, residual_weak_div, residual_skew).
    The scalar utilde1_minus_u0_sq is kept separately; it enters the energy
    bound but belongs to no single level."""

    def __init__(self, dt, mu):
        self.dt = dt
        self.mu = mu
        self.rows = []
        self.utilde1_minus_u0_sq = 0.0

    def column(self, name):
        return np.array([row[name] for row in self.rows])


def _relative_residual(lhs_terms, rhs_terms):
    scale = max((abs(t) for t in lhs_terms + rhs_terms), default=0.0)
    if scale == 0.0:
        return 0.0
    return abs(sum(lhs_terms) - sum(rhs_terms)) / scale


def _level_norms(ops, window):
    """Squared norms of the newest level of window (= [level m-2 or None,
    level m-1 or None, level m]), keyed by their ledger column names.  At
    level 1 the jump |utilde^1 - u^0|^2 of the start-up identity is added
    as utilde1_minus_u0_sq.  |u^m|^2 and |utilde^m|^2 come from the
    level's Riesz vector (Level.riesz_vector)."""
    prev2, prev, cur = window
    ut, phi = cur.utilde, cur.phi
    # ut . r = |ut|^2 + (ut, grad phi), as ut vanishes where r holds G phi
    ut_r = float(ut @ cur.riesz_vector(ops))
    ut_g = float(ut @ (ops.G @ phi))
    split_sq = ops.grad_p_sq(phi)
    u_sq = ut_r + ut_g + split_sq
    norms = {
        "norm_u_sq": u_sq,
        # reporting convention at level 0: the missing level -1 field is
        # taken to be u^0 itself
        "norm_2u_minus_um1_sq": u_sq
        if prev is None
        else ops.yh_norm_sq(2.0 * ut - prev.utilde, 2.0 * phi - prev.phi),
        "split_err_sq": split_sq,
        "second_diff_sq": 0.0
        if prev2 is None
        else ops.yh_norm_sq(ut - 2.0 * prev.utilde + prev2.utilde, phi - 2.0 * prev.phi + prev2.phi),
        "grad_utilde_sq": ops.grad_u_sq(ut),
        "gradp_sq": ops.grad_p_sq(cur.p),
        "utilde_norm_sq": ut_r - ut_g,
    }
    if cur.m == 1:
        norms["utilde1_minus_u0_sq"] = ops.yh_norm_sq(ut - prev.utilde, -prev.phi)
    return norms


def _identity_residual(m, new, old, dt, mu, f_dot):
    """Relative residual of the energy identity (module docstring) of the
    step arriving at level m.  new and old are the _level_norms of levels m
    and m-1 (old is unused at level 0); f_dot = (f^m, utilde^m)."""
    if m == 0:
        lhs = [new["norm_u_sq"], dt * dt * new["gradp_sq"]]
        return _relative_residual(lhs, [new["utilde_norm_sq"]])
    if m == 1:
        lhs = [
            new["norm_u_sq"] / dt,
            new["utilde1_minus_u0_sq"] / dt,
            -old["norm_u_sq"] / dt,
            dt * new["gradp_sq"],
            -dt * old["gradp_sq"],
            2.0 * mu * new["grad_utilde_sq"],
        ]
        return _relative_residual(lhs, [2.0 * f_dot])
    lhs = [
        new["norm_u_sq"] / dt,
        -old["norm_u_sq"] / dt,
        new["norm_2u_minus_um1_sq"] / dt,
        -old["norm_2u_minus_um1_sq"] / dt,
        new["second_diff_sq"] / dt,
        3.0 * new["split_err_sq"] / dt,
        (4.0 * dt / 3.0) * new["gradp_sq"],
        -(4.0 * dt / 3.0) * old["gradp_sq"],
        4.0 * mu * new["grad_utilde_sq"],
    ]
    return _relative_residual(lhs, [4.0 * f_dot])


def record_level(ledger, ops, dt, mu, window, f_dot, f_norm_sq):
    """Compute and append the ledger row of the newest level in window
    (= [level m-2 or None, level m-1 or None, level m]); the previous row
    of the ledger must be level m-1.  Returns the row.

    The level's Riesz vector is computed here, once, and kept in its
    riesz for the next two steps."""
    cur = window[2]
    cur.riesz = cur.riesz_vector(ops)
    row = _level_norms(ops, window)
    residual_identity = _identity_residual(
        cur.m, row, ledger.rows[-1] if ledger.rows else None, dt, mu, f_dot
    )
    if cur.m == 1:
        ledger.utilde1_minus_u0_sq = row.pop("utilde1_minus_u0_sq")
    u_sq = row["norm_u_sq"]

    wd = ops.weak_divergence(cur.utilde, cur.phi)
    if u_sq > 0.0:
        residual_weak_div = float(np.max(np.abs(wd) / (math.sqrt(u_sq) * ops.grad_psi_norms)))
    else:
        residual_weak_div = float(np.max(np.abs(wd))) if wd.size else 0.0

    dt2_gradp_sq = (4.0 / 3.0) * dt * dt * row["gradp_sq"]
    row.update(
        step=cur.m,
        t=cur.t,
        dt2_gradp_sq=dt2_gradp_sq,
        E_h=u_sq + row["norm_2u_minus_um1_sq"] + dt2_gradp_sq,
        f_dot_utilde=f_dot,
        residual_identity=residual_identity,
        residual_pythagoras=_relative_residual(
            [u_sq, row["split_err_sq"]], [row["utilde_norm_sq"]]
        ),
        # extras below are not serialized
        f_norm_sq=f_norm_sq,
        residual_weak_div=residual_weak_div,
        residual_skew=cur.skew,
    )
    ledger.rows.append(row)
    return row


def step_identity_residual(window, ops, F, dt, mu):
    """Relative residual of the per-step energy identity of the step
    arriving at the newest level of window (= [level m-2, level m-1,
    level m], m >= 2).  F is the load vector of the arrival level.
    Self-contained recomputation from the level fields; the run ledger
    records the same quantity incrementally."""
    prev2, prev, cur = window
    if cur.m < 2 or prev.m != cur.m - 1 or (prev2 is not None and prev2.m != cur.m - 2):
        raise ValueError("need consecutive levels arriving at m >= 2")
    if prev2 is None:
        raise ValueError("the window must carry the previous level of window[1]")
    old = _level_norms(ops, [None, prev2, prev])
    new = _level_norms(ops, window)
    return _identity_residual(cur.m, new, old, dt, mu, float(F @ cur.utilde))


def _safe_ratio(num, den):
    # 0/0 counts as satisfied (identically zero runs); >0/0 as violated
    out = np.full_like(np.asarray(num, dtype=float), np.inf)
    np.divide(num, den, out=out, where=den > 0)
    out[(den <= 0) & (num <= 0)] = 0.0
    return out


class EnergyReport:
    """Outcome of the global energy bound check.

    Arrays are indexed by M = 1..N: lhs collects the full dissipative left
    side, rhs_exp the displayed exponential bound, rhs_gronwall the
    sharper raw Gronwall factor it was derived from.  ok requires the
    bound (both forms), the intermediate-velocity bound, and, for unforced
    runs, monotone decay of the energy."""

    def __init__(self, M, lhs, rhs_exp, rhs_gronwall, utilde_sq, energy, forced):
        self.M = M
        self.lhs = lhs
        self.rhs_exp = rhs_exp
        self.rhs_gronwall = rhs_gronwall
        self.ratio = _safe_ratio(lhs, rhs_exp)
        self.ratio_gronwall = _safe_ratio(lhs, rhs_gronwall)
        self.max_ratio = float(self.ratio.max())
        self.max_ratio_gronwall = float(self.ratio_gronwall.max())
        self.utilde_ratio = _safe_ratio(utilde_sq, 3.0 * rhs_exp)
        self.max_utilde_ratio = float(self.utilde_ratio.max())
        self.energy = energy
        self.forced = forced
        if forced:
            self.energy_monotone = None
        else:
            self.energy_monotone = bool(
                np.all(np.diff(energy) <= 1e-12 * np.maximum(energy[:-1], 1e-300))
            )

    @property
    def ok(self):
        bounds = (
            self.max_ratio <= 1.0
            and self.max_ratio_gronwall <= 1.0
            and self.max_utilde_ratio <= 1.0
        )
        if self.forced:
            return bounds
        return bounds and self.energy_monotone


def energy_inequality_check(ledger):
    """Assert the explicit a-priori energy bound for every reachable M.

    The constant is the one traced through the telescoped step identities
    and gronwall_monotone_bound with rate nu = 2 (see the module
    docstring); nothing is fitted.  Requires dt <= 1/6, the regime where
    the absorption steps and the exponential majorization of the Gronwall
    factor are valid, and at least one completed step."""
    dt, mu = ledger.dt, ledger.mu
    n = len(ledger.rows) - 1
    if n < 1:
        raise ValueError("energy check needs at least one completed step")
    if dt > 1.0 / 6.0 + 1e-15:
        raise ValueError(
            "the traced energy constant requires dt <= 1/6, got dt = %g" % dt
        )

    utilde0_sq = ledger.rows[0]["utilde_norm_sq"]
    f_sq = ledger.column("f_norm_sq")
    E = ledger.column("E_h")
    sd = ledger.column("second_diff_sq")
    split = ledger.column("split_err_sq")
    g = ledger.column("grad_utilde_sq")
    utilde_sq = ledger.column("utilde_norm_sq")

    Ms = np.arange(1, n + 1)
    b = (10.0 + 14.0 * dt) * utilde0_sq + 7.0 * dt * f_sq[1] + 2.0 * dt * np.concatenate(
        [[0.0], np.cumsum(f_sq[2:])]
    )
    rhs_gronwall = gronwall_monotone_bound(b, 2.0, dt)
    rhs_exp = np.exp(3.0 * Ms * dt) * b

    cum_sd = np.concatenate([[0.0], np.cumsum(sd[2:])])
    cum_split = np.concatenate([[0.0], np.cumsum(split[2:])])
    cum_g = np.cumsum(g[1:])
    lhs = (
        E[1:]
        + cum_sd
        + 2.0 * cum_split
        + 4.0 * mu * dt * cum_g
        + 3.0 * ledger.utilde1_minus_u0_sq
    )
    forced = bool(np.any(f_sq > 0.0))
    return EnergyReport(Ms, lhs, rhs_exp, rhs_gronwall, utilde_sq[1:], E[1:], forced)


def _require_complete(traj):
    if not traj.is_complete():
        raise ValueError(
            "this diagnostic needs the full trajectory; rerun with store_every=1"
        )


def interpolant_difference_norms(traj):
    """Squared L2(0,T; L2) distances between the piecewise-constant
    in-time interpolants of the computed fields: end-of-step vs
    intermediate velocity, end-of-step vs its two-level extrapolant, and
    extrapolated end-of-step vs extrapolated intermediate.

    The interpolants are constant on each (t^m, t^{m+1}], so the time
    integrals collapse to dt-weighted sums; the extrapolated fields use
    the level-1 values on the first interval."""
    _require_complete(traj)
    ops, dt = traj.ops, traj.dt
    levels = traj.levels
    n = traj.n_steps

    u_minus_utilde = 0.0
    for lv in levels[1:]:
        u_minus_utilde += ops.grad_p_sq(lv.phi)

    u_minus_ubar = 0.0
    ubar_minus_uhat = 0.0
    for m in range(1, n):
        a, bq, c = levels[m + 1], levels[m], levels[m - 1]
        u_minus_ubar += ops.yh_norm_sq(
            a.utilde - 2.0 * bq.utilde + c.utilde, a.phi - 2.0 * bq.phi + c.phi
        )
        # (2u^m - u^{m-1}) - (2utilde^m - utilde^{m-1}) is a pure gradient
        ubar_minus_uhat += ops.grad_p_sq(2.0 * bq.phi - c.phi)
    if n >= 1:
        ubar_minus_uhat += ops.grad_p_sq(levels[1].phi)

    return {
        "u_minus_utilde_sq": dt * u_minus_utilde,
        "u_minus_ubar_sq": dt * u_minus_ubar,
        "ubar_minus_uhat_sq": dt * ubar_minus_uhat,
    }


def time_modulus(traj, tau):
    """Integral continuity modulus of the intermediate-velocity
    interpolant: integral over t in (0, T - tau) of
    |utilde_h(t + tau) - utilde_h(t)|^2.

    The interpolant is piecewise constant, so the integrand is piecewise
    constant with breakpoints at the grid times and their shifts by tau;
    the closed form sums exact subinterval contributions.  Requires
    0 <= tau < T and a full trajectory."""
    _require_complete(traj)
    dt, ops = traj.dt, traj.ops
    n = traj.n_steps
    T = n * dt
    if not 0 <= tau < T:
        raise ValueError("tau must lie in [0, T), got tau=%g with T=%g" % (tau, T))
    if tau == 0.0:
        return 0.0

    fields = [lv.utilde for lv in traj.levels]

    def index(s):
        if s <= 0.0:
            return 0
        return min(n, max(0, math.ceil(s / dt - 1e-12)))

    cut = T - tau
    points = {0.0, cut}
    for m in range(n + 1):
        for candidate in (m * dt, m * dt - tau):
            if 0.0 < candidate < cut:
                points.add(candidate)
    points = sorted(points)

    cache = {}
    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        if b - a <= 0.0:
            continue
        s = 0.5 * (a + b)
        i, j = index(s), index(s + tau)
        if i == j:
            continue
        key = (i, j)
        if key not in cache:
            d = fields[j] - fields[i]
            cache[key] = ops.norm_u_sq(d)
        total += (b - a) * cache[key]
    return total


def _gronwall_args(b, nu, dt):
    # validated b and the ratio r = 1/(1 - nu dt) of both bound forms
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.size == 0:
        raise ValueError("b must be a nonempty 1-d array")
    if not np.all(np.isfinite(b)):
        raise ValueError("b must be finite")
    if np.any(b < 0):
        raise ValueError("the lemma requires nonnegative b")
    if not (0 <= nu < np.inf and 0 < dt < np.inf):
        raise ValueError("need finite nu >= 0 and dt > 0, got nu=%r, dt=%r" % (nu, dt))
    if 1.0 - nu * dt <= 0.0:
        raise ValueError("the lemma requires nu * dt < 1, got %g" % (nu * dt))
    return b, 1.0 / (1.0 - nu * dt)


def _finite_bound(bounds):
    if not np.all(np.isfinite(bounds)):
        raise ValueError("the Gronwall bound exceeds the float range")
    return bounds


def discrete_gronwall_bound(b, nu, dt):
    """Bound sequence of the implicit discrete Gronwall lemma.

    For nonnegative b and any sequence a with
        a_{n+1} <= b_{n+1} + nu dt sum_{j=1}^{n+1} a_j,
    requiring nu dt < 1, the lemma gives (0-based input/output, entry i
    bounding a_{i+1}):
        bound_i = b_i + nu dt sum_{k<=i} r^{i-k+1} b_k,  r = 1/(1 - nu dt).
    Non-finite b, nu or dt, and a bound beyond the float range, raise
    ValueError.
    """
    b, r = _gronwall_args(b, nu, dt)
    bounds = np.empty_like(b)
    s = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i, bi in enumerate(b):
            s = r * (s + bi)
            bounds[i] = bi + nu * dt * s
    return _finite_bound(bounds)


def gronwall_monotone_bound(b, nu, dt):
    """Closed form of the Gronwall bound for nondecreasing b.

    Entry i bounds a_{i+1} by b_i * (1 - nu dt)^{-(i+1)}; it dominates the
    general bound entrywise exactly when b is nondecreasing, which is
    validated here."""
    b, r = _gronwall_args(b, nu, dt)
    if np.any(np.diff(b) < 0):
        raise ValueError("closed form needs nondecreasing b")
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_bound(b * r ** np.arange(1, b.size + 1))
