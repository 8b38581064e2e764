"""Linear solves used by the time stepper.

Every solve is a sequence of sweeps x <- x + P^-1 (b - A x) from x = 0
or a start vector, where P^-1 is an LU solve or, for the mass, a fixed
polynomial in diag(M)^-1 M.  One rule (_refine) stops them all: after
each sweep a solve stops when the fresh residual r = b - A x is at
rounding level or its budget runs out, SWEEPS sweeps, or STALE_SWEEPS for
a stale momentum factor.  Rounding level means that every column's
normwise backward error |r|_inf / (|A|_inf |x|_inf + |b|_inf) is at most
EPS (Higham, Accuracy and Stability of Numerical Algorithms, ch. 12), the
test mixed-precision refinement stops on (Carson & Higham, SIAM J. Sci.
Comput. 40, 2018), or that the sweep did not halve |r|.  The solve
returns x only if it stopped at rounding level with |r| <= tol |b|, and
otherwise raises LinearSolveError carrying the achieved relative
residual; stopping at tol would leave an error the energy ledger shows.

  * solve_mass: the velocity mass system, with no factorization.  On
    affine cells the spectrum of diag(M)^-1 M lies inside that of one
    element's diag(M_e)^-1 M_e, whatever the mesh, and so does that of any
    principal block such as the free dofs (Wathen, IMA J. Numer. Anal. 7,
    1987): [1/2, 2] for P1 and [(5 - sqrt 7)/6, (8 + sqrt 19)/6] =
    [0.392375, 2.059816] for P2 (MASS_SPECTRUM).  Each sweep is
    CHEBYSHEV_STEPS steps of Chebyshev semi-iteration on that interval
    (Wathen & Rees, ETNA 34, 2009): sparse matrix-vector products and
    elementwise arithmetic only, no inner product, so the error falls by a
    fixed factor per sweep on every mesh;
  * solve_momentum: the momentum system of a step, by sparse LU (minimum
    degree ordering on A^T + A, diagonal pivot threshold 0.1), one
    factorization for all columns of b.  Minimum degree is sensitive to the
    numbering it starts from (George & Liu, Computer Solution of Large
    Sparse Positive Definite Systems, 1981); the operator set numbers the
    free velocity block in its reverse Cuthill-McKee order (rcm_order)
    once, so the matrix arrives in that order and the LU size does not
    depend on how the mesh numbers its vertices.  The LU is held in single
    precision, which halves the bytes of its values, and refined against
    double-precision residuals, so the solution is as accurate as with a
    double-precision LU (mixed-precision iterative refinement:
    Langou et al., SC'06; Carson & Higham).  Each sweep casts its residual
    to float32 and adds the float32 correction to the float64 iterate.  A
    fresh float32 factor cuts the residual by about 1e-6 per sweep on the
    stock blocks, so where a float64 LU reached rounding in one solve it
    takes three to five.  Given the run's MomentumFactor it reuses the LU
    of an earlier step: only the convection changes from step to step, so
    a stale LU is still a good preconditioner.  A stale factor starts from
    the caller's start vector (a step passes an extrapolation of its
    earlier velocities) when that has a smaller residual than x = 0.  When
    its solve fails, which it does at once if a sweep no longer halves the
    residual above tol, the stale LU is dropped and the matrix refactored
    once.  A float32 factor can fail too: an entry beyond the float32
    range makes it singular or non-finite, and once cond(A) 2^-24 nears 1
    its sweeps no longer contract.  The same matrix is then factored once
    more in float64, and the MomentumFactor stays in float64 for the rest
    of its run.  The factor is also rebuilt whenever its key, the
    (a0, dt, mu) of the step, changes;
  * factor_poisson: the pure-Neumann pressure Poisson operator, given
    with zero row sums and factored once with one dof pinned, the pinned
    block renumbered the same way, by its reverse Cuthill-McKee order,
    found once and applied inside each LU solve; each solve projects the
    right side onto the complement of the constant kernel,
    spreads what rounding leaves inconsistent along the mass weights, and
    shifts the solution to zero mass-weighted mean.  This LU stays in
    float64.  It is a fifth of the momentum LU (207,692 against 1,114,708
    entries at n = 64 P2/P1), so float32 would save about 0.8 MB, while
    its sweeps, which would contract by about cond(N) 2^-24, would have to
    reach a tol_poisson that the double-precision rounding floor already
    nears at n = 160.

Multi-column right sides, residuals and solutions are Fortran-ordered,
one contiguous column per velocity component, the layout SuperLU reads
and writes.

solve_spd is conjugate gradients for symmetric positive (semi-)definite
systems with the same zero-mean handling, written out so the iteration
cap (10 times the system size) is exactly as documented.

Every inner product here and in the energy bookkeeping is dot(a, b), one
reduction whose bits do not depend on the BLAS thread count.
"""

import numpy as np

__all__ = [
    "LinearSolveError",
    "MomentumFactor",
    "solve_spd",
    "solve_mass",
    "solve_momentum",
    "factor_poisson",
    "rcm_order",
    "dot",
]

# sweeps a pressure Poisson, mass or fresh momentum solve may take
SWEEPS = 5
# sweeps a stale momentum factor may take before the matrix is refactored
STALE_SWEEPS = 10
# unit roundoff bound of the backward-error stop, 2**-52
EPS = float(np.finfo(float).eps)
# bounds on the spectrum of diag(M_e)^-1 M_e of the affine Lagrange
# element mass of each velocity degree, the ends of its exact spectrum
MASS_SPECTRUM = {1: (0.5, 2.0), 2: ((5.0 - 7.0**0.5) / 6.0, (8.0 + 19.0**0.5) / 6.0)}
# Chebyshev steps per mass sweep; each sweep cuts the error by at least
# 2 / (c^16 + c^-16), c = (sqrt(kappa) + 1) / (sqrt(kappa) - 1): 4.6e-8 for
# P1 (kappa = 4) and 6.3e-7 for P2 (kappa = 5.25)
CHEBYSHEV_STEPS = 16
# rows per block of the infinity norm of a sparse matrix (_inf_norm)
NORM_ROWS = 4096


class LinearSolveError(RuntimeError):
    """Solve failed to reach its tolerance; .residual holds the relative
    residual that was achieved."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def dot(a, b):
    """The inner product of two arrays of one shape: numpy's pairwise sum
    of their elementwise product.  Every inner product that feeds the
    energy ledger, its gates or the error norms is taken this way.  A 1-D
    a @ b goes to BLAS ddot, which splits vectors of more than about 10^4
    entries across its threads, so its last bits depend on the BLAS thread
    count; this sum does not.  It also avoids a BLAS reduction right after
    a sparse product, which can stall with several BLAS threads."""
    return float(np.sum(a * b))


def _cg(A, b, x, tol_abs, max_iter):
    """Plain conjugate gradients from initial guess x; returns (x, iters)."""
    r = b - A @ x
    p = r.copy()
    rs = dot(r, r)
    it = 0
    while np.sqrt(rs) > tol_abs:
        if it >= max_iter:
            return x, it, False
        Ap = A @ p
        pAp = dot(p, Ap)
        if pAp <= 0.0 or not np.isfinite(pAp):
            raise LinearSolveError(
                "conjugate gradients hit a non-positive curvature direction "
                "(operator is not positive definite on this subspace)",
                residual=np.sqrt(rs),
            )
        alpha = rs / pAp
        x += alpha * p
        r -= alpha * Ap
        rs_new = dot(r, r)
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
    bnorm = _norm(b)
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
        true_res = _norm(b - A @ x)
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
            x -= dot(w, x) / dot(w, ones)
        else:
            x -= x.mean()
    return x


def _residual(A, b, x):
    # b - A x by one single-vector product per column of b: faster here than
    # scipy's multi-vector product, which adds in the same order.  The
    # columns are contiguous (Fortran order), so the column maxima of
    # _refine and the LU solves read them without a strided pass
    if b.ndim == 1:
        return b - A @ x
    r = np.empty(b.shape, order="F")
    for j in range(b.shape[1]):
        np.subtract(b[:, j], A @ x[:, j], out=r[:, j])
    return r


def _norm(r):
    # the Frobenius norm, by the thread-count independent dot
    return float(np.sqrt(dot(r, r)))


def _inf_norm(A):
    # max row sum of |A| for a CSR A with no empty row, NORM_ROWS rows at a
    # time: a momentum solve takes it while the LU is alive, and |A.data|
    # of the whole block would be 1.5 MB at n = 64 P2
    ptr, n = A.indptr, A.shape[0]
    norm = 0.0
    for start in range(0, n, NORM_ROWS):
        rows = ptr[start : start + NORM_ROWS + 1]
        sums = np.add.reduceat(np.abs(A.data[rows[0] : rows[-1]]), rows[:-1] - rows[0])
        norm = max(norm, float(sums.max()))
    return norm


def _refine(solve, A, b, tol, what, sweeps, x0=None):
    """Sweeps x <- x + solve(b - A x), at most sweeps of them (ValueError
    for sweeps < 1), from x0 when it is given and |b - A x0| < |b|, else
    from x = 0, stopped by the rule of the module docstring; |r| is the
    Frobenius norm over the columns of a multi-column b, and |A|_inf of the
    CSR matrix A, with no empty row, is summed in blocks of rows once per
    call (_inf_norm)."""
    if sweeps < 1:
        raise ValueError("%s solve needs at least one sweep, got sweeps=%r" % (what, sweeps))
    bnorm = _norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b)
    x, r, last = 0.0, b, bnorm
    if x0 is not None:
        r0 = _residual(A, b, x0)
        norm0 = _norm(r0)
        if norm0 < bnorm:
            x, r, last = x0, r0, norm0
    a_norm, b_inf = _inf_norm(A), np.abs(b).max(axis=0)
    for _ in range(sweeps):
        x = x + solve(r)
        r = _residual(A, b, x)
        res = _norm(r)
        if not np.isfinite(res):
            raise LinearSolveError("%s solve produced non-finite values" % what)
        if res >= 0.5 * last or np.all(
            np.abs(r).max(axis=0) <= EPS * (a_norm * np.abs(x).max(axis=0) + b_inf)
        ):
            if res <= tol * bnorm:
                return x
            break
        last = res
    raise LinearSolveError(
        "%s solve stalled at relative residual %.3e (tolerance %.1e)"
        % (what, res / bnorm, tol),
        residual=res / bnorm,
    )


def rcm_order(A):
    """Reverse Cuthill-McKee order of the structurally symmetric sparse
    matrix A (Cuthill & McKee 1969; George & Liu 1981): the rows of A
    renumbered so that each sits near its neighbours, whatever numbering A
    came in.  Minimum degree started from it fills the LU less."""
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    if A.shape[0] == 0:
        return np.zeros(0, dtype=np.int32)
    return reverse_cuthill_mckee(A, symmetric_mode=True)


def _factor(A, what, dtype=np.float64):
    # the LU of A held in dtype; the CSC copy SuperLU reads is made in that
    # dtype straight from A, and an entry beyond its range becomes inf
    from scipy.sparse.linalg import splu

    with np.errstate(over="ignore"):
        A = A.astype(dtype, copy=False).tocsc()
    try:
        # threshold pivoting keeps the minimum degree order when convection
        # dominates; the fresh residual check guards the accuracy
        return splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1)
    except (RuntimeError, MemoryError) as exc:
        raise LinearSolveError(
            "%s matrix factorization of %d dofs failed: %s"
            % (what, A.shape[0], str(exc) or type(exc).__name__)
        ) from exc


def solve_mass(M, b, degree, tol=1e-12):
    """Solve M x = b for the velocity mass M of a P1 or P2 space (degree),
    or any principal block of it, to rounding by Chebyshev sweeps on
    diag(M)^-1 M (see the module docstring).  b may hold one right side
    per column.  Raises LinearSolveError when the residual misses tol."""
    lo, hi = MASS_SPECTRUM[degree]
    theta, delta = 0.5 * (hi + lo), 0.5 * (hi - lo)
    sigma = theta / delta
    b = np.asarray(b, dtype=float)
    inv_diag = 1.0 / M.diagonal()

    def sweep(r):
        # Chebyshev semi-iteration for M x = r from x = 0 (Saad, Iterative
        # Methods for Sparse Linear Systems, alg. 12.1), one row per column
        # of r: a product per column is faster than one of all columns
        r = np.array(r.T, ndmin=2)
        rho = 1.0 / sigma
        d = (inv_diag * r) / theta
        x = d.copy()
        for _ in range(CHEBYSHEV_STEPS - 1):
            for r_j, d_j in zip(r, d):
                r_j -= M @ d_j
            rho_next = 1.0 / (2.0 * sigma - rho)
            d *= rho_next * rho
            d += (2.0 * rho_next / delta) * (inv_diag * r)
            rho = rho_next
            x += d
        return x.T.reshape(b.shape)

    return _refine(sweep, M, b, tol, "mass", SWEEPS)


class MomentumFactor:
    """The momentum LU one run keeps across its steps.

    key is the (a0, dt, mu) the LU was built for and dtype the precision
    it is held in: float32, or float64 once a float32 factor of the run
    failed to refine.  sweeps (LU solves) and refactored describe the
    latest solve_momentum call."""

    def __init__(self):
        self.lu = None
        self.key = None
        self.dtype = np.float32
        self.sweeps = 0
        self.refactored = False

    def _sweep(self, r):
        self.sweeps += 1
        # the residual in the factor's dtype (SuperLU's single-precision
        # solve takes float32 right sides only), the correction back in
        # float64, the precision of the iterate
        with np.errstate(over="ignore"):
            r = np.asarray(r, dtype=self.dtype, order="F")
        return self.lu.solve(r).astype(np.float64, copy=False)


def solve_momentum(A, b, tol=1e-12, factor=None, key=None, x0=None):
    """Solve the momentum system of one step, reusing factor's LU while key
    matches (see the module docstring); without factor, A is factored
    afresh.  The LU is factored in factor.dtype, float32 at first; when a
    float32 factor fails to factor or its solve fails, A is factored once
    more in float64, and factor keeps float64 from then on.  A stale LU
    refines from the start vector x0 when it is given and its residual is
    below |b|; a fresh one always starts from 0.  Every step calls it
    once, so a traced run (perfbench/spans.py) counts one momentum solve
    per step."""
    if factor is None:
        factor = MomentumFactor()
    b = np.asarray(b, dtype=float)
    factor.sweeps, factor.refactored = 0, False
    if not np.any(b):
        return np.zeros_like(b)
    if factor.lu is not None and factor.key == key:
        try:
            return _refine(factor._sweep, A, b, tol, "momentum", STALE_SWEEPS, x0)
        except LinearSolveError:
            pass
    while True:
        # drop the stale LU first, so that one momentum LU is alive at a time
        factor.lu = None
        try:
            factor.lu = _factor(A, "momentum", factor.dtype)
            factor.key, factor.refactored = key, True
            return _refine(factor._sweep, A, b, tol, "momentum", SWEEPS)
        except LinearSolveError:
            if factor.dtype == np.float64:
                raise
            factor.dtype = np.float64


def factor_poisson(N, mass):
    """Factor the pure-Neumann Poisson operator N once, with its first dof
    pinned to zero, and return solve(b, tol).

    N must have zero row sums, so that the constants are its kernel to
    rounding (OperatorSet projects its N_p so once it is assembled); no
    copy of N is kept.  Like solve_spd(N, b, tol, zero_mean=True,
    mass=mass), the solve projects b onto the complement of the constant
    kernel, verifies the residual against the unpinned N, and shifts the
    solution to zero mass-weighted mean.  N's column sums stay of rounding
    size, so b is inconsistent by rounding; rather than leave that in the
    pinned row, each correction cancels the row with a multiple of the
    pinned solve of w = mass @ 1.  The pinned block N[1:, 1:] is factored
    in its reverse Cuthill-McKee order, and each LU solve reads and writes
    its dofs in that order."""
    N = N.tocsr()
    pinned = N[1:, 1:]
    order = rcm_order(pinned)
    lu = _factor(pinned[order][:, order], "pressure Poisson")
    del pinned
    # dofs of the pinned block in the order of its LU
    order += 1
    w = mass @ np.ones(N.shape[0])
    row0 = N[0].toarray().ravel()
    x_w = np.zeros_like(w)
    x_w[order] = lu.solve(w[order])
    rho_w = w[0] - dot(row0, x_w)

    def spread(r):
        x = np.zeros_like(r)
        x[order] = lu.solve(r[order])
        x -= (r[0] - dot(row0, x)) / rho_w * x_w
        return x

    def solve(b, tol=1e-12):
        x = _refine(spread, N, b - b.mean(), tol, "pressure Poisson", SWEEPS)
        return x - dot(w, x) / float(w.sum())

    return solve
