"""Linear solves used by the time stepper.

Every solve verifies its final residual with a fresh matrix-vector
product and raises LinearSolveError (carrying the achieved residual)
instead of returning a silently inaccurate solution.  One refine-and-
verify routine, a sequence of sweeps x <- x + LU^-1 (b - A x) from
x = 0 or from a start vector, serves every direct solve:

  * solve_direct: sparse LU (minimum degree ordering on A^T + A, diagonal
    pivot threshold 0.1), one factorization for all columns of b, refined
    with up to three correction sweeps until the residual meets tol;
  * solve_momentum: the momentum system of a step.  Given the run's
    MomentumFactor it reuses the LU of an earlier step: only the
    convection changes from step to step, so a stale LU is still a good
    preconditioner.  A stale factor starts from the caller's start vector
    (a step passes its extrapolated advecting field) when that has a
    smaller residual than x = 0, and sweeps until the residual is at most
    tol |b| and the last sweep no longer halved it, i.e. until rounding
    level (stopping at tol alone would leave an error the energy ledger
    shows); tol is only the failure threshold.  It has STALE_SWEEPS
    sweeps.  When they run out, or a sweep gives non-finite values, the
    stale LU is dropped, the matrix refactored once and solved as by
    solve_direct; a fresh factor that misses tol raises.  The factor is
    also rebuilt whenever its key, the (a0, dt, mu) of the step, changes;
  * factor_poisson: the pure-Neumann pressure Poisson operator, projected
    onto zero row sums and factored once with one dof pinned; each solve
    projects the right side onto the complement of the constant kernel
    and shifts the solution to zero mass-weighted mean.

solve_spd is conjugate gradients for symmetric positive (semi-)definite
systems with the same zero-mean handling, written out so the iteration
cap (10 times the system size) is exactly as documented.
"""

import numpy as np

__all__ = [
    "LinearSolveError",
    "MomentumFactor",
    "solve_spd",
    "solve_direct",
    "solve_momentum",
    "factor_poisson",
]

# sweeps a stale momentum factor may take before the matrix is refactored
STALE_SWEEPS = 10


class LinearSolveError(RuntimeError):
    """Solve failed to reach its tolerance; .residual holds the relative
    residual that was achieved."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def _cg(A, b, x, tol_abs, max_iter):
    """Plain conjugate gradients from initial guess x; returns (x, iters)."""
    r = b - A @ x
    p = r.copy()
    rs = float(r @ r)
    it = 0
    while np.sqrt(rs) > tol_abs:
        if it >= max_iter:
            return x, it, False
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0 or not np.isfinite(pAp):
            raise LinearSolveError(
                "conjugate gradients hit a non-positive curvature direction "
                "(operator is not positive definite on this subspace)",
                residual=np.sqrt(rs),
            )
        alpha = rs / pAp
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
        it += 1
    return x, it, True


def solve_spd(A, b, tol=1e-12, zero_mean=False, mass=None):
    """Conjugate gradient solve of a symmetric positive (semi-)definite
    system to relative residual tol.

    zero_mean handles the pure-Neumann pressure Poisson operator, whose
    kernel is the constant vector: the right side is projected onto the
    complement of that kernel, and the returned solution has zero
    mass-weighted mean (plain mean when no mass matrix is supplied).

    The iteration count is capped at 10 times the system size; the final
    residual is recomputed from scratch, and failure to meet the tolerance
    raises LinearSolveError with the achieved residual attached.
    """
    b = np.asarray(b, dtype=float).copy()
    n = b.size
    if zero_mean:
        b -= b.mean()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n)
    tol_abs = tol * bnorm
    budget = 10 * n
    x = np.zeros(n)
    used = 0
    # restart on the recomputed residual: the recurrence residual can
    # drift from the true one after many iterations
    while True:
        x, it, converged = _cg(A, b, x, tol_abs, budget - used)
        used += max(it, 1)
        true_res = float(np.linalg.norm(b - A @ x))
        if not np.isfinite(true_res):
            raise LinearSolveError("conjugate gradients produced non-finite values")
        if true_res <= tol_abs:
            break
        if used >= budget:
            raise LinearSolveError(
                "conjugate gradients failed to reach relative residual %.1e "
                "within %d iterations (achieved %.3e)" % (tol, budget, true_res / bnorm),
                residual=true_res / bnorm,
            )
    if zero_mean:
        if mass is not None:
            ones = np.ones(n)
            w = mass @ ones
            x -= float(w @ x) / float(w @ ones)
        else:
            x -= x.mean()
    return x


def _refine(solve, A, b, tol, what, sweeps=4, to_rounding=False, x0=None):
    """Sweeps x <- x + solve(b - A x), at most sweeps of them, until the
    fresh residual |b - A x| is at most tol |b| (Frobenius norm over the
    columns of a multi-column b) and, with to_rounding, the last sweep no
    longer halved it; raises LinearSolveError otherwise.  The sweeps start
    from x0 when it is given and |b - A x0| < |b|, else from x = 0."""
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b)
    x, r = 0.0, b
    if x0 is not None:
        r0 = b - A @ x0
        if float(np.linalg.norm(r0)) < bnorm:
            x, r = x0, r0
    x = x + solve(r)
    last = np.inf
    for done in range(1, sweeps + 1):
        r = b - A @ x
        res = float(np.linalg.norm(r))
        if not np.isfinite(res):
            raise LinearSolveError("%s solve produced non-finite values" % what)
        if res <= tol * bnorm and not (to_rounding and res < 0.5 * last):
            return x
        if done == sweeps:
            break
        x = x + solve(r)
        last = res
    raise LinearSolveError(
        "%s solve stalled at relative residual %.3e (tolerance %.1e)"
        % (what, res / bnorm, tol),
        residual=res / bnorm,
    )


def _factor(A, what):
    from scipy.sparse.linalg import splu

    try:
        # threshold pivoting keeps the minimum degree order when convection
        # dominates; the fresh residual check guards the accuracy
        return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1)
    except RuntimeError as exc:
        raise LinearSolveError("%s matrix factorization failed: %s" % (what, exc)) from exc


def solve_direct(A, b, tol=1e-12, what="linear"):
    """Direct sparse LU solve to relative residual tol, with iterative
    refinement as a safety margin.  b may hold one right side per column;
    they share the factorization.  Raises LinearSolveError, naming the
    system as what, when the factorization cannot deliver the tolerance
    (singular system, catastrophic conditioning)."""
    b = np.asarray(b, dtype=float)
    if not np.any(b):
        return np.zeros_like(b)
    return _refine(_factor(A, what).solve, A, b, tol, what)


class MomentumFactor:
    """The momentum LU one run keeps across its steps.

    key is the (a0, dt, mu) the LU was built for.  sweeps (LU solves) and
    refactored describe the latest solve_momentum call."""

    def __init__(self):
        self.lu = None
        self.key = None
        self.sweeps = 0
        self.refactored = False

    def _sweep(self, r):
        self.sweeps += 1
        return self.lu.solve(r)


def solve_momentum(A, b, tol=1e-12, factor=None, key=None, x0=None):
    """Solve the momentum system of one step, reusing factor's LU while key
    matches (see the module docstring); without factor, A is factored as by
    solve_direct.  A stale LU refines from the start vector x0 when it is
    given and its residual is below |b|; a fresh one always starts from 0.
    Every step calls it once, so a traced run (perfbench/spans.py) counts
    one momentum solve per step."""
    if factor is None:
        factor = MomentumFactor()
    b = np.asarray(b, dtype=float)
    factor.sweeps, factor.refactored = 0, False
    if not np.any(b):
        return np.zeros_like(b)
    if factor.lu is not None and factor.key == key:
        try:
            return _refine(
                factor._sweep, A, b, tol, "momentum", STALE_SWEEPS, to_rounding=True, x0=x0
            )
        except LinearSolveError:
            pass
    # drop the stale LU first, so that one momentum LU is alive at a time
    factor.lu = None
    factor.lu, factor.key, factor.refactored = _factor(A, "momentum"), key, True
    return _refine(factor._sweep, A, b, tol, "momentum")


def factor_poisson(N, mass):
    """Factor the pure-Neumann Poisson operator N once, with its first dof
    pinned to zero, and return solve(b, tol).

    N is first projected onto zero row sums, so that the constants are its
    kernel to rounding whatever order assembled it.  Like
    solve_spd(N, b, tol, zero_mean=True, mass=mass), the solve projects b
    onto the complement of the constant kernel, verifies the residual
    against the unpinned (projected) N, and shifts the solution to zero
    mass-weighted mean."""
    N = N.tocsr(copy=True)
    N.setdiag(N.diagonal() - N @ np.ones(N.shape[0]))
    lu = _factor(N[1:, 1:], "pressure Poisson")
    w = mass @ np.ones(N.shape[0])

    def pinned(r):
        x = np.zeros_like(r)
        x[1:] = lu.solve(r[1:])
        return x

    def solve(b, tol=1e-12):
        x = _refine(pinned, N, b - b.mean(), tol, "pressure Poisson")
        return x - float(w @ x) / float(w.sum())

    return solve
