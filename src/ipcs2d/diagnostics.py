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

The ledger is the run's one per-level record; beside its CSV columns a
row keeps extras such as extrap_split_sq = |grad(2 phi^m - phi^{m-1})|^2
and, in row 1, the start-up jump utilde1_minus_u0_sq.  The energy bound
and the interpolant-difference norms read only the ledger.  A diagnostic
that needs every level, on a run stored with store_every > 1, returns
None for that entry of a dict of results (mms.error_norms's err_u_L2L2
and err_utilde_L2L2), and raises ValueError naming store_every=1 when it
is the function's only result (time_modulus).

A row reads the images of its levels (scheme.Level): the step hands the
new level M utilde and G^T utilde, and the row turns them into the Riesz
vector r = M utilde + G phi and the weak divergence d = G^T utilde + N_p
phi, which levels m-1 and m-2 keep while a later row reads them.  Every
norm of a combination sum_k c_k u^k of window levels is then
B . sum c_k r^k + Phi . sum c_k d^k, with B and Phi the combined utilde
and phi, and takes no sparse product.  Every inner product is
linsolve.dot, so the ledger's bits do not depend on the BLAS thread count.

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

from .linsolve import dot

__all__ = [
    "CSV_COLUMNS",
    "EnergyLedger",
    "record_level",
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
    """Per-level rows of energy quantities and identity residuals: the one
    record of a run, which the trajectory diagnostics read.

    rows[m] is a dict with the CSV_COLUMNS keys plus in-memory extras
    (gradp_sq, utilde_norm_sq, extrap_split_sq = |grad(2 phi^m - phi^{m-1})|^2,
    0 at level 0, f_norm_sq, residual_weak_div, residual_skew).  Row 1 also
    holds utilde1_minus_u0_sq, the start-up jump |utilde^1 - u^0|^2."""

    def __init__(self, dt, mu):
        self.dt = dt
        self.mu = mu
        self.rows = []

    def column(self, name):
        return np.array([row[name] for row in self.rows])


def _relative_residual(lhs_terms, rhs_terms):
    scale = max((abs(t) for t in lhs_terms + rhs_terms), default=0.0)
    if scale == 0.0:
        return 0.0
    return abs(sum(lhs_terms) - sum(rhs_terms)) / scale


def _identity_residual(m, new, old, dt, mu, f_dot):
    """Relative residual of the energy identity (module docstring) of the
    step arriving at level m.  new and old are the rows of levels m and
    m-1 (old is unused at level 0); f_dot = (f^m, utilde^m)."""
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


def _combination_sq(coeffs, fields):
    """|sum_k c_k (b_k + grad phi_k)|^2 of the fields (b_k, phi_k, r_k, d_k)
    with images r_k = M b_k + G phi_k and d_k = G^T b_k + N_p phi_k.  With
    B and Phi the combined b and phi, |B + grad Phi|^2 is
    B . (M B + G Phi) + Phi . (G^T B + N_p Phi), so it is
    B . sum c_k r_k + Phi . sum c_k d_k: no sparse product."""
    b, phi, r, d = (sum(c * f[i] for c, f in zip(coeffs, fields)) for i in range(4))
    return dot(b, r) + dot(phi, d)


def _images(level):
    return level.utilde, level.phi, level.riesz, level.div


def record_level(ledger, ops, window, f_dot, f_norm_sq):
    """Compute and append the ledger row of the newest level in window
    (= [level m-2 or None, level m-1 or None, level m]); the previous row
    of the ledger must be level m-1.  Returns the row.

    The row forms the images of level m (scheme.Level): its Riesz vector
    riesz = M utilde + G phi and its weak divergence
    div = G^T utilde + N_p phi, from the mass_u and gt_u the step handed
    over (formed here when the level has none), and then drops mass_u and
    gt_u.  Besides G phi and N_p phi it forms only A utilde and the two
    pressure products N_p p and N_p (2 phi^m - phi^{m-1}).
    Every norm of a combination of window levels, |2u^m - u^{m-1}|^2, the
    second difference and the start-up jump, is read off the images with
    no further sparse product (_combination_sq), and the weak-divergence
    gate reads div.  riesz and div stay on level m and m-1 for the two
    steps and rows that read them; the row drops those of level m-2."""
    prev2, prev, cur = window
    ut, phi = cur.utilde, cur.phi
    mass_u = ops.apply_free(ops.M_free, ut) if cur.mass_u is None else cur.mass_u
    gt_u = ops.G.T @ ut if cur.gt_u is None else cur.gt_u
    g_phi, np_phi = ops.G @ phi, ops.N_p @ phi
    cur.riesz, cur.div = mass_u + g_phi, gt_u + np_phi
    # ut . r = |ut|^2 + (ut, grad phi), as ut vanishes where r holds G phi
    ut_r = dot(ut, cur.riesz)
    ut_g = dot(ut, g_phi)
    split_sq = dot(phi, np_phi)
    u_sq = ut_r + ut_g + split_sq
    here = _images(cur)
    row = {
        "norm_u_sq": u_sq,
        # reporting convention at level 0: the missing level -1 field is
        # taken to be u^0 itself
        "norm_2u_minus_um1_sq": u_sq
        if prev is None
        else _combination_sq((2.0, -1.0), (here, _images(prev))),
        "split_err_sq": split_sq,
        "second_diff_sq": 0.0
        if prev2 is None
        else _combination_sq((1.0, -2.0, 1.0), (here, _images(prev), _images(prev2))),
        "grad_utilde_sq": ops.grad_u_sq(ut),
        "gradp_sq": ops.grad_p_sq(cur.p),
        "utilde_norm_sq": ut_r - ut_g,
        "extrap_split_sq": 0.0 if prev is None else ops.grad_p_sq(2.0 * phi - prev.phi),
    }
    if cur.m == 1:
        # utilde^1 - u^0, whose utilde^1 has images M utilde^1 and G^T utilde^1
        row["utilde1_minus_u0_sq"] = _combination_sq(
            (1.0, -1.0), ((ut, 0.0, mass_u, gt_u), _images(prev))
        )
    cur.mass_u = cur.gt_u = None
    if prev2 is not None:
        prev2.drop_images()
    dt, mu = ledger.dt, ledger.mu
    residual_identity = _identity_residual(
        cur.m, row, ledger.rows[-1] if ledger.rows else None, dt, mu, f_dot
    )

    wd = cur.div
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
        + 3.0 * ledger.rows[1]["utilde1_minus_u0_sq"]
    )
    forced = bool(np.any(f_sq > 0.0))
    return EnergyReport(Ms, lhs, rhs_exp, rhs_gronwall, utilde_sq[1:], E[1:], forced)


def interpolant_difference_norms(traj):
    """Squared L2(0,T; L2) distances between the piecewise-constant
    in-time interpolants of the computed fields: end-of-step vs
    intermediate velocity, end-of-step vs its two-level extrapolant, and
    extrapolated end-of-step vs extrapolated intermediate.

    The interpolants are constant on each (t^m, t^{m+1}], so the time
    integrals collapse to dt-weighted sums of ledger columns, and no
    stored level is needed: u - utilde = grad(phi) gives split_err_sq,
    the second difference second_diff_sq, and the extrapolants differ by
    the gradient in extrap_split_sq.  The extrapolated fields use the
    level-1 values on the first interval."""
    column, dt = traj.ledger.column, traj.dt
    split = column("split_err_sq")
    # Python's sum adds in level order; numpy's pairwise sum would move the last digits
    return {
        "u_minus_utilde_sq": dt * sum(split[1:]),
        "u_minus_ubar_sq": dt * sum(column("second_diff_sq")[2:]),
        "ubar_minus_uhat_sq": dt * (sum(column("extrap_split_sq")[1:-1]) + split[1]),
    }


def time_modulus(traj, tau):
    """Integral continuity modulus of the intermediate-velocity
    interpolant: integral over t in (0, T - tau) of
    |utilde_h(t + tau) - utilde_h(t)|^2.

    The interpolant takes the value utilde^j on ((j-1) dt, j dt].  With
    tau = k dt + theta, 0 <= theta < dt, the shift t + tau lands in level
    j + k for a part dt - theta of that interval and in level j + k + 1
    for the rest, so the integral is

        sum_{j=1}^{n-k} (dt - theta) |utilde^{j+k} - utilde^j|^2
          + sum_{j=1}^{n-k-1} theta |utilde^{j+k+1} - utilde^j|^2.

    Requires 0 <= tau < T and a full trajectory."""
    if not traj.is_complete():
        raise ValueError("this diagnostic needs the full trajectory; rerun with store_every=1")
    dt, ops = traj.dt, traj.ops
    n = traj.n_steps
    T = n * dt
    if not 0 <= tau < T:
        raise ValueError("tau must lie in [0, T), got tau=%g with T=%g" % (tau, T))

    fields = [lv.utilde for lv in traj.levels]
    k = math.floor(tau / dt)
    theta = tau - k * dt
    total = 0.0
    for j in range(1, n - k + 1):
        total += (dt - theta) * ops.norm_u_sq(fields[j + k] - fields[j])
    for j in range(1, n - k):
        total += theta * ops.norm_u_sq(fields[j + k + 1] - fields[j])
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
