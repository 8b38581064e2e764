"""Linear solves used by the time stepper.

Every solve verifies its final residual with a fresh matrix-vector
product and raises LinearSolveError (carrying the achieved residual)
instead of returning a silently inaccurate solution.  One refine-and-
verify routine serves both direct solvers:

  * solve_direct: sparse LU (minimum degree ordering on A^T + A), one
    factorization for all columns of b; solve_momentum is its entry for
    the momentum system of a step;
  * factor_poisson: the pure-Neumann pressure Poisson operator factored
    once with one dof pinned; each solve projects the right side onto the
    complement of the constant kernel and shifts the solution to zero
    mass-weighted mean.

solve_spd is conjugate gradients for symmetric positive (semi-)definite
systems with the same zero-mean handling, written out so the iteration
cap (10 times the system size) is exactly as documented.
"""

import numpy as np

__all__ = ["LinearSolveError", "solve_spd", "solve_direct", "solve_momentum", "factor_poisson"]


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


def _refine(solve, A, b, tol, what):
    """solve(b), refined with up to three correction sweeps until the fresh
    residual |b - A x| is at most tol |b| (Frobenius norm over the columns
    of a multi-column b); raises LinearSolveError otherwise."""
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b)
    x = solve(b)
    for _ in range(3):
        r = b - A @ x
        res = float(np.linalg.norm(r))
        if not np.isfinite(res):
            raise LinearSolveError("%s solve produced non-finite values" % what)
        if res <= tol * bnorm:
            return x
        x = x + solve(r)
    res = float(np.linalg.norm(b - A @ x))
    if res <= tol * bnorm:
        return x
    raise LinearSolveError(
        "%s solve stalled at relative residual %.3e (tolerance %.1e)"
        % (what, res / bnorm, tol),
        residual=res / bnorm,
    )


def _factor(A, what):
    from scipy.sparse.linalg import splu

    try:
        return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
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


def solve_momentum(A, b, tol=1e-12):
    """solve_direct of the momentum system of one step.  It keeps its own
    name so that a traced run (perfbench/spans.py) counts one momentum
    solve per step."""
    return solve_direct(A, b, tol, "momentum")


def factor_poisson(N, mass):
    """Factor the pure-Neumann Poisson operator N once, with its first dof
    pinned to zero, and return solve(b, tol).

    Like solve_spd(N, b, tol, zero_mean=True, mass=mass), the solve
    projects b onto the complement of the constant kernel, verifies the
    residual against the unpinned N, and shifts the solution to zero
    mass-weighted mean."""
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
