"""Second-order pressure-correction time stepping.

The stepper advances two velocity fields: the H1-conforming intermediate
velocity from the momentum solve, and the weakly divergence-free end-of-
step velocity

    u = u_tilde + grad(phi),

which lives in the sum of the velocity space and pressure gradients.  That
sum never gets a global basis; an end-of-step field is carried as the
coefficient pair (u_tilde, phi) of its level, and every inner product the
stepper or its diagnostics needs reduces to the assembled operators.

Each time level is a Level record.  Stepping:
  * level 0 (init_state): L2-project the initial velocity, then solve one
    pressure Poisson problem so the projected-back field is weakly
    divergence free;
  * levels 1..N (step): one routine driven by the leading BDF coefficient
    a0, backward Euler (a0 = 1) for level 1 and the two-step backward
    differentiation formula (a0 = 3/2) after it, followed by a pressure
    increment.  Both velocity components share one scalar momentum block
    on the free dofs, formed on the operator set's fixed pattern.

Each arrival level is logged to an energy ledger and checked against the
GATES: the discrete energy identity of the step, the orthogonality of the
two velocity fields, the weak divergence of the end-of-step field and the
energy neutrality of the convection form.  The assembly quadrature is
exact for every integrand involved, so these hold to rounding; the gates
are always armed, and a violation aborts the run.

Forcing enters through its windowed time average over
[t - dt/2, t + dt/2], integrated with three-point Gauss; the last window
reaches slightly past the final time unless a forcing cutoff declares f
unavailable there.
"""

import math
import sys

import numpy as np
import scipy.sparse as sp

from . import diagnostics
from .assembly import build_operators, project_L2_onto_Uh
from .fe import build_space
from .linsolve import MomentumFactor, dot, solve_momentum
from .mesh import MAX_MESH_N, Mesh, generate_structured_unit_square

__all__ = [
    "SchemeError",
    "SchemeConfig",
    "Level",
    "Trajectory",
    "init_state",
    "step",
    "run",
]

# the most time steps a run may take; a larger T/dt is a mistake, not a run
MAX_STEPS = 10**7
# the largest finite float; bounding by it also rejects integers beyond float range
_FLOAT_MAX = sys.float_info.max

# (ledger column, tolerance, message) of the gates every level must pass;
# residual_skew is rounding noise (3e-18 to 5e-16 across trees that agree to
# rounding), so it is checked against its tolerance, never a parent's maximum.
# The skew form feeds no energy for any advecting field at any scale, so the
# gates hold for a wrong convection too; the error norms are what see it.
GATES = (
    ("residual_identity", 1e-9, "energy identity violated at step %d: relative residual %.3e"),
    ("residual_pythagoras", 1e-10,
     "velocity splitting lost orthogonality at step %d: relative residual %.3e"),
    ("residual_weak_div", 1e-10,
     "end-of-step velocity is not weakly divergence free at step %d: normalized residual %.3e"),
    ("residual_skew", 1e-12, "convection form fed energy into step %d: normalized residual %.3e"),
)


class SchemeError(RuntimeError):
    """A step produced non-finite values or violated a discrete identity."""


class Level:
    """All fields of one time level: the intermediate velocity utilde (a
    velocity-space coefficient vector), the pressure-space vector phi of
    the end-of-step velocity u = utilde + grad(phi), and the pressure p.
    skew records how far the convection form was from contributing zero
    energy in the step that produced the level (normalized; 0 at level 0).

    The level also holds images, operator products of its fields, while
    something reads them:
      * mass_u = M utilde and gt_u = G^T utilde.  step forms both anyway,
        for the skew normalization and the pressure right side, and
        init_state forms gt_u; diagnostics.record_level reads them once
        and drops them;
      * riesz = M utilde + G phi, the Riesz vector of u in U_h
        (riesz_vector), and div = G^T utilde + N_p phi, the weak divergence
        of u, which record_level forms.  The next two ledger rows and steps
        read them; record_level drops them from level m-2 and run from its
        last levels, so stored levels hold None in all four."""

    __slots__ = ("m", "t", "utilde", "phi", "p", "skew", "mass_u", "gt_u", "riesz", "div")

    def __init__(self, m, t, utilde, phi, p, skew=0.0, mass_u=None, gt_u=None):
        self.m = m
        self.t = t
        self.utilde = utilde
        self.phi = phi
        self.p = p
        self.skew = skew
        self.mass_u = mass_u
        self.gt_u = gt_u
        self.riesz = self.div = None

    def riesz_vector(self, ops):
        """r with r . v = (utilde + grad(phi), v) for v in U_h: riesz when
        set, else ops.yh_pair_with_u(utilde, phi)."""
        if self.riesz is not None:
            return self.riesz
        return ops.yh_pair_with_u(self.utilde, self.phi)

    def drop_images(self):
        self.mass_u = self.gt_u = self.riesz = self.div = None


def _positive_finite(value):
    return 0 < value <= _FLOAT_MAX


# (parameters, predicate, message) of every rule on the run parameters, in
# the order they are checked.  The predicate takes the parameters' values
# in the order named; a violation is reported at the first one.
# dt <= T <= _FLOAT_MAX is checked before T / dt, so that an integer
# beyond the float range fails a comparison instead of overflowing the
# division.
PARAMETER_RULES = (
    (("dt",), _positive_finite, "dt must be positive and finite"),
    (("T",), lambda T: T > 0, "T must be positive"),
    (("T", "dt"), lambda T, dt: dt <= T,
     "T must be at least dt: the final time is one step or more"),
    (("T",), lambda T: T <= _FLOAT_MAX, "T must be finite"),
    (("dt", "T"), lambda dt, T: T / dt <= MAX_STEPS,
     "dt gives more than %d steps to T" % MAX_STEPS),
    (("mu",), _positive_finite, "viscosity mu must be positive and finite"),
    (("mesh_n", "mesh"), lambda n, mesh: (n is None) != (mesh is None),
     "exactly one of mesh / mesh_n must be given"),
    (("mesh",), lambda mesh: mesh is None or isinstance(mesh, Mesh),
     "mesh must be a Mesh; read a mesh file with read_mesh(path)"),
    (("mesh_n",), lambda n: n is None or (n >= 1 and n % 1 == 0),
     "mesh_n must be a positive integer"),
    (("mesh_n",), lambda n: n is None or n <= MAX_MESH_N, "mesh_n must be at most %d" % MAX_MESH_N),
    (("degree_u",), lambda k: k in (1, 2), "degree_u must be 1 or 2"),
    (("degree_p",), lambda k: k in (1, 2), "degree_p must be 1 or 2"),
    (("u0",), lambda u0: u0 is not None, "an initial velocity u0(x, y) is required"),
    (("store_every",), lambda k: k >= 1 and k % 1 == 0, "store_every must be a positive integer"),
    (("f_cutoff",), lambda t: t is None or t > 0, "f_cutoff must be positive when given"),
    (("tol_poisson",), _positive_finite, "tol_poisson must be positive and finite"),
    (("tol_momentum",), _positive_finite, "tol_momentum must be positive and finite"),
)


def first_failed_rule(params):
    """(parameter, message) of the first of PARAMETER_RULES that the
    parameter values in the dict params break, or None.  A rule is checked
    only when params holds every parameter it reads; the message ends with
    the offending value."""
    for names, ok, message in PARAMETER_RULES:
        if all(name in params for name in names) and not ok(*(params[name] for name in names)):
            return names[0], "%s (got %r)" % (message, params[names[0]])
    return None


class SchemeConfig:
    """Run parameters.

    Exactly one of mesh / mesh_n selects the triangulation.  u0(x, y) and
    f(t, x, y) return component pairs for array arguments; f may be None
    for unforced runs.  The forcing is applied through its average over
    [t - dt/2, t + dt/2]; the last window reaches past T, so f must be
    evaluable slightly beyond the final time (closed-form forcings are).
    If it is not, set f_cutoff to the time beyond which f is treated as
    zero, which scales clipped windows down proportionally.  dt is
    adjusted to divide T exactly (recorded in the run warnings).
    tol_poisson and tol_momentum are failure thresholds: a pressure/mass
    or momentum solve refines to rounding level (see linsolve) and fails if
    its relative residual is then above its tol.  Arguments that break one
    of PARAMETER_RULES raise ValueError with its message.
    """

    def __init__(
        self,
        dt,
        T,
        mu=1.0,
        mesh=None,
        mesh_n=None,
        degree_u=2,
        degree_p=1,
        u0=None,
        f=None,
        f_cutoff=None,
        case_name=None,
        tol_poisson=1e-12,
        tol_momentum=1e-12,
        store_every=1,
        out_dir=None,
    ):
        # the arguments by name, before any other local is bound
        failed = first_failed_rule(locals())
        if failed is not None:
            raise ValueError(failed[1])

        self.mesh = mesh if mesh is not None else generate_structured_unit_square(mesh_n)
        self.degree_u = degree_u
        self.degree_p = degree_p
        self.T = float(T)
        self.mu = float(mu)
        self.u0 = u0
        self.f = f
        self.f_cutoff = f_cutoff
        self.case_name = case_name
        self.tol_poisson = tol_poisson
        self.tol_momentum = tol_momentum
        self.store_every = int(store_every)
        self.out_dir = out_dir

        self.warnings = []
        ratio = self.T / float(dt)
        n_steps = round(ratio) if abs(ratio - round(ratio)) < 1e-9 else math.ceil(ratio)
        self.n_steps = int(n_steps)
        self.dt = self.T / self.n_steps
        if abs(self.dt - dt) > 1e-12 * dt:
            self.warnings.append(
                "dt adjusted from %g to %g so that %d steps reach T=%g exactly"
                % (dt, self.dt, self.n_steps, self.T)
            )


class Trajectory:
    """Stored levels, energy ledger and operators of one run, with the
    momentum solver statistics of every step m = 1..N at index m - 1: the
    LU solves it took (momentum_sweeps) and whether it factored the matrix
    (momentum_refactored)."""

    def __init__(self, config, ops, dt, n_steps):
        self.config = config
        self.ops = ops
        self.dt = dt
        self.n_steps = n_steps
        self.levels = []
        self.ledger = diagnostics.EnergyLedger(dt, config.mu)
        self.warnings = list(config.warnings)
        self.momentum_sweeps = []
        self.momentum_refactored = []

    @property
    def final(self):
        return self.levels[-1]

    def is_complete(self):
        """True when every time level was stored (store_every == 1)."""
        return len(self.levels) == self.n_steps + 1


def _check_finite(vec, what, m):
    if not np.all(np.isfinite(vec)):
        raise SchemeError("%s is non-finite at step %d" % (what, m))


def init_state(ops, u0, dt, tol_poisson=1e-12):
    """Level 0: project the initial velocity onto the velocity space, then
    make it weakly divergence free through one pressure Poisson solve.

    The returned end-of-step field satisfies the orthogonal splitting
    |u|^2 + dt^2 |grad p|^2 = |u_tilde|^2 exactly."""
    utilde0 = project_L2_onto_Uh(ops.space_u, u0, ops, tol=tol_poisson)
    _check_finite(utilde0, "projected initial velocity", 0)
    gt_u = ops.G.T @ utilde0
    p0 = ops.solve_poisson(gt_u / dt, tol_poisson)
    return Level(0, 0.0, utilde0, -dt * p0, p0, gt_u=gt_u)


def _skew_residual(B, w_advect, x, utilde_sq):
    # the skew-symmetrized convection must pair to zero against the field
    # it transports; normalize by the natural magnitude of the form.  B is
    # the free scalar block, x the free values of one component per column
    # and utilde_sq = x . M x the squared norm of the field.  B x is formed
    # by one product per column, faster than scipy's multi-vector product,
    # into the C-ordered array that product returns, so the sum is the same
    Bx = np.empty(x.shape)
    for j in range(x.shape[1]):
        Bx[:, j] = B @ x[:, j]
    value = abs(float(np.sum(x * Bx)))
    scale = float(np.max(np.abs(w_advect))) * utilde_sq
    return value / scale if scale > 0.0 else value


def step(
    prev, cur, ops, dt, mu, F, tol_momentum=1e-12, tol_poisson=1e-12, factor=None, older=None
):
    """Level m+1 from level m (cur) and level m-1 (prev); F is the load
    vector of the arrival level.

    prev None selects the backward Euler start-up: a0 = 1, advected by
    utilde^m, history r^m (the Riesz vector of u^m).  Otherwise BDF2:
    a0 = 3/2, advected by 2 utilde^m - utilde^{m-1}, history
    2 r^m - r^{m-1}/2; the extrapolated advecting field keeps the momentum
    system linear while the convection stays second-order consistent.
    Both use mass coefficient a0/dt, momentum right side
    F - G p^m + history/dt, pressure right side (a0/dt) G^T utilde and
    phi = -(dt/a0) dp, which zeroes the weak divergence G^T utilde + N_p phi.

    factor, a linsolve.MomentumFactor, carries the momentum LU from step
    to step: only the convection changes while (a0, dt, mu) stay fixed, so
    the LU of an earlier step, refined to rounding, solves this one, and
    the matrix is refactored only when that fails or the key changes (at
    the switch to BDF2).  older, level m-2, may be given once prev is
    given: the refinement of a stale LU then starts from the quadratic
    extrapolation 3 utilde^m - 3 utilde^{m-1} + utilde^{m-2}, whose
    residual is far below that of zero.  A run has level m-2 at every step
    that can reuse a stale LU, since the first BDF2 step refactors.
    Without a factor every step factors afresh.  Either way solve_momentum
    runs once per step.  The Riesz vectors of cur and prev are read from
    the levels (Level.riesz_vector), which a run's ledger has already
    computed.  The new level carries the images M utilde and G^T utilde
    that the step forms (Level), for the ledger to read.

    The momentum matrix lives on the fixed pattern of the free scalar
    block: ops.free_convection(w) assembles the convection onto the
    pattern that ops.M_free and ops.A_free share, so the matrix data is a
    sum of three arrays.  The skew residual is taken on that block too."""
    r = cur.riesz_vector(ops)
    if prev is None:
        a0, w_advect, history = 1.0, cur.utilde, r
    else:
        a0, w_advect = 1.5, 2.0 * cur.utilde - prev.utilde
        history = 2.0 * r - 0.5 * prev.riesz_vector(ops)
    m = cur.m + 1

    B = ops.free_convection(w_advect)
    # every operator is block diagonal, one scalar block per component, and
    # both components have the same free dofs: one factorization, two
    # columns.  The sum is formed in place, in the order (a0/dt) M + B + mu A
    data = (a0 / dt) * ops.M_free.data
    data += B.data
    data += mu * ops.A_free.data
    S = sp.csr_matrix((data, B.indices, B.indptr), shape=B.shape)
    rhs = ops.free_values(F - ops.G @ cur.p + history / dt)
    x0 = None
    if older is not None:
        x0 = ops.free_values(3.0 * (cur.utilde - prev.utilde) + older.utilde)
    x = solve_momentum(S, rhs, tol=tol_momentum, factor=factor, key=(a0, dt, mu), x0=x0)
    # the rest of the step runs next to the momentum LU without them
    del S, data, rhs, x0
    utilde = ops.from_free(x)
    _check_finite(utilde, "intermediate velocity", m)
    mass_u, gt_u = ops.apply_free(ops.M_free, utilde), ops.G.T @ utilde

    dp = ops.solve_poisson((a0 / dt) * gt_u, tol_poisson)
    skew = _skew_residual(B, w_advect, x, dot(utilde, mass_u))
    return Level(m, m * dt, utilde, -(dt / a0) * dp, cur.p + dp, skew, mass_u, gt_u)


# the traced benchmark (perfbench/spans.py) wraps the step under these names
first_step_backward_euler = bdf2_step = step


def _check_gates(row, m):
    for column, tol, message in GATES:
        if row[column] > tol:
            raise SchemeError(message % (m, row[column]))


def run(config, ops=None):
    """Run the scheme to final time, returning the trajectory.

    Levels are stored every config.store_every steps (level 0 and the
    final level always); the energy ledger records every level regardless.
    A level that fails one of the GATES raises SchemeError.  The run owns
    one MomentumFactor, so its steps share a momentum LU and two runs never
    do.  Given ops must be built on config.mesh, in config's degrees
    (ValueError otherwise)."""
    if ops is None:
        space_u = build_space(
            config.mesh, config.degree_u, components=2, homogeneous_dirichlet=True
        )
        space_p = build_space(config.mesh, config.degree_p, components=1, zero_mean=True)
        ops = build_operators(space_u, space_p)
    elif ops.space_u.mesh is not config.mesh or (ops.space_u.degree, ops.space_p.degree) != (
        config.degree_u, config.degree_p
    ):
        raise ValueError("the operator set must be built on the config's mesh and degrees")

    dt = config.dt
    N = config.n_steps
    traj = Trajectory(config, ops, dt, N)
    factor = MomentumFactor()

    window = [None, None, init_state(ops, config.u0, dt, tol_poisson=config.tol_poisson)]
    row = diagnostics.record_level(traj.ledger, ops, window, 0.0, 0.0)
    _check_gates(row, 0)
    traj.levels.append(window[2])

    for m in range(1, N + 1):
        if config.f is not None:
            F, f_norm_sq = ops.load(
                config.f, (m - 0.5) * dt, (m + 0.5) * dt, cutoff=config.f_cutoff
            )
        else:
            F, f_norm_sq = np.zeros(ops.space_u.ndofs), 0.0
        level = step(
            window[1], window[2], ops, dt, config.mu, F,
            config.tol_momentum, config.tol_poisson, factor, window[0],
        )
        traj.momentum_sweeps.append(factor.sweeps)
        traj.momentum_refactored.append(factor.refactored)
        window = [window[1], window[2], level]
        row = diagnostics.record_level(traj.ledger, ops, window, dot(F, level.utilde), f_norm_sq)
        _check_gates(row, m)
        if m % config.store_every == 0 or m == N:
            traj.levels.append(level)

    for level in window[1:]:
        level.drop_images()
    return traj
