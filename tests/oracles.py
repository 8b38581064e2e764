"""Independent dense reference implementations backing the test suite.

Everything here is written directly from the discrete equations, with its
own quadrature and dense linear algebra.  The only conventions shared with
the package are the ones both sides need to agree on for coefficient
vectors to be comparable at all: P1 scalar dofs are vertex indices, vector
fields stack component-major ((c, i) -> c*nv + i), and the forcing enters
through its three-point Gauss window average.

The full-space velocity matrices are the one exception: the package
assembles only their scalar block on the free dofs, so full_space_matrix
sums the package's own element matrices into the full block-diagonal
matrix by an independent scatter, COO triplets summed by scipy.  Likewise
the package keeps no divergence coupling D, only G; divergence_coupling
integrates D point by point on the package's rule and cell geometry.  The
package numbers the free block in its own (reverse Cuthill-McKee) order;
free_block and block_ordered_product slice and multiply the full matrices
in that order, so that sums run in the package's order and compare bit for
bit.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.special import roots_jacobi

from ipcs2d.assembly import _mass_elem, _stiffness_elem, assemble_convection


def conical_product_rule():
    """9-point triangle rule from a collapsed Gauss tensor grid.

    Gauss-Jacobi in the collapsed direction absorbs the Duffy weight, so
    the rule integrates bivariate polynomials of total degree <= 5 exactly.
    Constructed at runtime; shares no tabulated constants with the package.
    """
    x_eta, w_eta = np.polynomial.legendre.leggauss(3)
    eta = 0.5 * (x_eta + 1.0)
    w_eta = 0.5 * w_eta
    x_xi, w_xi = roots_jacobi(3, 1.0, 0.0)
    xi = 0.5 * (x_xi + 1.0)
    w_xi = 0.25 * w_xi
    pts = np.empty((9, 2))
    wts = np.empty(9)
    k = 0
    for i in range(3):
        for j in range(3):
            pts[k, 0] = xi[i]
            pts[k, 1] = eta[j] * (1.0 - xi[i])
            wts[k] = w_xi[i] * w_eta[j]
            k += 1
    return pts, wts


def coo_sum(row_dofs, col_dofs, elem, shape):
    """CSR matrix of the element matrices elem[c, i, j], each entry added
    at (row_dofs[c, i], col_dofs[c, j]) through one COO matrix.  The
    triplets are put in (row, column) order first, stably, so that tocsr
    sums each entry's duplicates in element order; unsorted, it sorts them
    itself, unstably, and may round differently.  elem may come flat per
    cell, (M, nloc_row * nloc_col)."""
    elem = elem.reshape(row_dofs.shape + col_dofs.shape[1:])
    rows = np.broadcast_to(row_dofs[:, :, None], elem.shape).ravel()
    cols = np.broadcast_to(col_dofs[:, None, :], elem.shape).ravel()
    order = np.lexsort((cols, rows))
    return sp.coo_matrix((elem.ravel()[order], (rows[order], cols[order])), shape=shape).tocsr()


def full_space_matrix(space, elem):
    """The block-diagonal matrix of a space from its scalar element
    matrices (M, nloc, nloc): the scalar block summed by coo_sum, once per
    component."""
    n = space.n_scalar
    block = coo_sum(space.cell_dofs, space.cell_dofs, elem, (n, n))
    return sp.block_diag([block] * space.components, format="csr")


def full_space_scatter(space):
    """full_space_matrix of space as the scatter argument of
    assembly.assemble_convection.  Like a _Scatter it takes the element
    matrices whole, scatter(elem), or as the factors of elem = a @ b, one
    row of a per cell, which assemble_convection passes so that the
    package can multiply them in blocks of cells; here they are
    multiplied in one product."""

    def scatter(a, b=None):
        return full_space_matrix(space, a if b is None else a @ b)

    return scatter


def full_velocity_matrices(ops):
    """Full two-component velocity mass and stiffness of an operator set,
    on its assembly rule."""
    su = ops.space_u
    return tuple(full_space_matrix(su, elem(su, ops.geom)) for elem in (_mass_elem, _stiffness_elem))


def full_convection(ops, w):
    """Full two-component convection matrix B(w) of an operator set."""
    return assemble_convection(
        ops.space_u, w, ops.geom, full_space_scatter(ops.space_u), ops._conv_tensor
    )


def free_block(ops, matrix):
    """The free scalar block of a velocity matrix (full, or its scalar
    block), rows and columns in the operator set's block order, with
    sorted indices: the CSR layout of ops.M_free."""
    index = ops._free_index[0]
    block = sp.csr_matrix(matrix)[index][:, index]
    block.sort_indices()
    return block


def block_ordered_product(ops, matrix, vec):
    """matrix @ vec for a full velocity matrix, each row summed in the
    column order of the free block: the free dofs of each component in
    block order, then the Dirichlet dofs, whose zero entries of vec add
    nothing."""
    order = np.concatenate([ops._free_index.ravel(), np.flatnonzero(~ops.space_u.free)])
    permuted = sp.csr_matrix(matrix)[order][:, order]
    permuted.sort_indices()
    out = np.empty_like(vec)
    out[order] = permuted @ vec[order]
    return out


def divergence_coupling(ops):
    """The divergence coupling D[(c, i), q] = (psi_q, d_c phi_i) of an
    operator set's spaces, integrated point by point on its rule with the
    pushed-forward velocity gradients and summed by coo_sum.  The package
    keeps only G: on the free velocity rows, integration by parts makes
    D = -G."""
    su, sq, geom = ops.space_u, ops.space_p, ops.geom
    psi, _ = sq.ref.eval(geom.rule.points)
    _, dphi = su.ref.eval(geom.rule.points)
    gphi = dphi @ geom.inv_j[:, None]
    elem = np.einsum("q,qs,cqid,c->cisd", geom.rule.weights, psi, gphi, geom.detJ)
    shape = (su.n_scalar, sq.n_scalar)
    blocks = [coo_sum(su.cell_dofs, sq.cell_dofs, elem[..., c], shape) for c in range(2)]
    return sp.vstack(blocks, format="csr")


_REF_GRADS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


class DenseScheme:
    """Dense P1/P1 realization of the projection scheme on a triangle mesh.

    Assembly is explicit per-triangle/per-point looping, all solves are
    dense (numpy.linalg.solve), and the zero-mean pressure Poisson problem
    is pinned with a Lagrange multiplier instead of a post-shift.
    """

    def __init__(self, vertices, triangles, boundary):
        self.x = np.asarray(vertices, dtype=float)
        self.tri = np.asarray(triangles, dtype=int)
        self.nv = len(self.x)
        self.free = ~np.asarray(boundary, dtype=bool)
        self.qp, self.qw = conical_product_rule()
        self.lam = np.stack(
            [1.0 - self.qp[:, 0] - self.qp[:, 1], self.qp[:, 0], self.qp[:, 1]],
            axis=1,
        )
        nt = len(self.tri)
        self.det = np.empty(nt)
        self.grads = np.empty((nt, 3, 2))
        self.xq = np.empty((nt, len(self.qw), 2))
        for t in range(nt):
            v = self.x[self.tri[t]]
            jac = np.column_stack([v[1] - v[0], v[2] - v[0]])
            self.det[t] = np.linalg.det(jac)
            self.grads[t] = np.linalg.solve(jac.T, _REF_GRADS.T).T
            self.xq[t] = v[0] + self.qp @ jac.T
        self._assemble_static()

    def _assemble_static(self):
        nv = self.nv
        Ms = np.zeros((nv, nv))
        As = np.zeros((nv, nv))
        D = np.zeros((2 * nv, nv))
        G = np.zeros((2 * nv, nv))
        for t in range(len(self.tri)):
            idx = self.tri[t]
            gr = self.grads[t]
            for q in range(len(self.qw)):
                w = self.qw[q] * self.det[t]
                for a in range(3):
                    for b in range(3):
                        Ms[idx[a], idx[b]] += w * self.lam[q, a] * self.lam[q, b]
                        As[idx[a], idx[b]] += w * (gr[a] @ gr[b])
                        for c in range(2):
                            D[c * nv + idx[a], idx[b]] += (
                                w * self.lam[q, b] * gr[a, c]
                            )
                            G[c * nv + idx[a], idx[b]] += (
                                w * self.lam[q, a] * gr[b, c]
                            )
        self.Ms = Ms
        self.As = As
        self.D = D
        self.G = G
        self.M2 = np.kron(np.eye(2), Ms)
        self.A2 = np.kron(np.eye(2), As)

    def convection(self, w):
        """Skew-stabilized transport matrix ((w.grad)u, v) + ((div w) u, v)/2."""
        nv = self.nv
        Bs = np.zeros((nv, nv))
        for t in range(len(self.tri)):
            idx = self.tri[t]
            gr = self.grads[t]
            wloc = np.stack([w[idx], w[nv + idx]], axis=1)
            divw = wloc[:, 0] @ gr[:, 0] + wloc[:, 1] @ gr[:, 1]
            for q in range(len(self.qw)):
                wq = self.qw[q] * self.det[t]
                wvec = self.lam[q] @ wloc
                for a in range(3):
                    for b in range(3):
                        Bs[idx[a], idx[b]] += wq * self.lam[q, a] * (
                            wvec @ gr[b] + 0.5 * divw * self.lam[q, b]
                        )
        return np.kron(np.eye(2), Bs)

    def vector_load(self, g):
        """Entries (g, phi_i e_c) for a vector-valued spatial function g."""
        nv = self.nv
        rhs = np.zeros(2 * nv)
        for t in range(len(self.tri)):
            idx = self.tri[t]
            for q in range(len(self.qw)):
                w = self.qw[q] * self.det[t]
                gx, gy = g(self.xq[t, q, 0], self.xq[t, q, 1])
                for a in range(3):
                    rhs[idx[a]] += w * gx * self.lam[q, a]
                    rhs[nv + idx[a]] += w * gy * self.lam[q, a]
        return rhs

    def averaged_load(self, f, t_lo, t_hi):
        """Load of the window average of f over [t_lo, t_hi], Gauss-3 in time."""
        xg, wg = np.polynomial.legendre.leggauss(3)
        mids = 0.5 * (t_hi + t_lo) + 0.5 * (t_hi - t_lo) * xg
        rhs = np.zeros(2 * self.nv)
        for tk, wk in zip(mids, wg):
            rhs += 0.5 * wk * self.vector_load(lambda x, y: f(tk, x, y))
        return rhs

    def poisson_zero_mean(self, rhs):
        """Solve the all-Neumann pressure Poisson problem with mean pinned."""
        nv = self.nv
        c = self.Ms @ np.ones(nv)
        kkt = np.zeros((nv + 1, nv + 1))
        kkt[:nv, :nv] = self.As
        kkt[:nv, nv] = c
        kkt[nv, :nv] = c
        return np.linalg.solve(kkt, np.append(rhs, 0.0))[:nv]

    def solve_momentum(self, S, rhs):
        free2 = np.concatenate([self.free, self.free])
        out = np.zeros(2 * self.nv)
        if free2.any():
            out[free2] = np.linalg.solve(S[np.ix_(free2, free2)], rhs[free2])
        return out

    def inertia(self, base, phi):
        """Dual vector of the end-of-step velocity: (u, v) = M*base + G*phi."""
        return self.M2 @ base + self.G @ phi

    def init_levels(self, u0, dt):
        """Project the initial velocity and recover the starting pressure."""
        utilde0 = self.solve_momentum(self.M2, self.vector_load(u0))
        p0 = self.poisson_zero_mean(self.G.T @ utilde0 / dt)
        return utilde0, p0, -dt * p0

    def backward_euler(self, utilde0, p0, phi0, f, dt, mu):
        S = self.M2 / dt + self.convection(utilde0) + mu * self.A2
        rhs = (
            self.averaged_load(f, 0.5 * dt, 1.5 * dt)
            + self.D @ p0
            + self.inertia(utilde0, phi0) / dt
        )
        utilde1 = self.solve_momentum(S, rhs)
        dp = self.poisson_zero_mean(-(self.D.T @ utilde1) / dt)
        return utilde1, p0 + dp, -dt * dp

    def bdf2_step(self, hist, f, dt, mu, m):
        """Advance to level m from hist = (utilde2back, phi2back, utilde1back,
        p1back, phi1back), all end-of-step pairs carried as (base, phi)."""
        ut_a, phi_a, ut_b, p_b, phi_b = hist
        what = 2.0 * ut_b - ut_a
        S = 1.5 * self.M2 / dt + self.convection(what) + mu * self.A2
        rhs = (
            self.averaged_load(f, (m - 0.5) * dt, (m + 0.5) * dt)
            + self.D @ p_b
            + (4.0 * self.inertia(ut_b, phi_b) - self.inertia(ut_a, phi_a))
            / (2.0 * dt)
        )
        utilde = self.solve_momentum(S, rhs)
        dp = self.poisson_zero_mean(-1.5 * (self.D.T @ utilde) / dt)
        return utilde, p_b + dp, -(2.0 * dt / 3.0) * dp


def gronwall_equality_sequence(b, nu, dt):
    """Forward solve of the recursion a_i = b_i + nu*dt*sum_{j<=i} a_j.

    This is the sequence that saturates the discrete Gronwall inequality;
    solving for a_i gives a_i = (b_i + nu*dt*sum_{j<i} a_j) / (1 - nu*dt).
    """
    b = np.asarray(b, dtype=float)
    if nu * dt >= 1.0:
        raise ValueError("recursion needs nu*dt < 1")
    a = np.empty_like(b)
    acc = 0.0
    for i, bi in enumerate(b):
        a[i] = (bi + nu * dt * acc) / (1.0 - nu * dt)
        acc += a[i]
    return a


def admissible_sequence(b, nu, dt, slack):
    """A sequence satisfying a_i <= b_i + nu*dt*sum_{j<=i} a_j.

    Built by subtracting the nonnegative slack from the saturating
    recursion step by step, which keeps the inequality valid pointwise.
    """
    b = np.asarray(b, dtype=float)
    slack = np.asarray(slack, dtype=float)
    if np.any(slack < 0.0):
        raise ValueError("slack must be nonnegative")
    a = np.empty_like(b)
    acc = 0.0
    for i in range(len(b)):
        a[i] = (b[i] + nu * dt * acc - slack[i]) / (1.0 - nu * dt)
        acc += a[i]
    return a


def piecewise_index(t, dt, nlevels):
    """Level index of the piecewise-constant-in-time interpolant at time t.

    The interpolant takes level m on ((m-1)*dt, m*dt] and level 0 at t <= 0.
    Callers keep sample times away from the breakpoints, so no float
    tie-breaking is attempted.
    """
    if t <= 0.0:
        return 0
    return min(nlevels - 1, math.ceil(t / dt))


def modulus_sq_uniform_midpoint(values, dt, tau, norm_sq, refine=8):
    """Composite-midpoint quadrature of the squared interpolant modulus.

    Integrates ||u(s + tau) - u(s)||^2 over s in [0, T - tau] on a uniform
    grid of dt/refine cells.  Exact whenever every cell lies inside one
    constancy interval of the integrand, which holds for tau a multiple of
    dt/2 with refine a multiple of 4.
    """
    n = len(values)
    span = (n - 1) * dt - tau
    if span <= 0.0:
        return 0.0
    k = int(round(span / (dt / refine)))
    h = span / k
    total = 0.0
    for j in range(k):
        s = (j + 0.5) * h
        a = piecewise_index(s, dt, n)
        b = piecewise_index(s + tau, dt, n)
        total += h * norm_sq(values[b] - values[a])
    return total


def modulus_sq_segment_midpoint(values, dt, tau, norm_sq):
    """Squared interpolant modulus via midpoints of constancy segments.

    Cuts [0, T - tau] at every point where s or s + tau crosses a level
    boundary; the integrand is constant between cuts, so one midpoint
    sample per segment integrates it exactly for arbitrary tau.
    """
    n = len(values)
    span = (n - 1) * dt - tau
    if span <= 0.0:
        return 0.0
    cuts = {0.0, span}
    for m in range(n + 1):
        for t in (m * dt, m * dt - tau):
            if 0.0 < t < span:
                cuts.add(t)
    cuts = sorted(cuts)
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        s = 0.5 * (lo + hi)
        a = piecewise_index(s, dt, n)
        b = piecewise_index(s + tau, dt, n)
        total += (hi - lo) * norm_sq(values[b] - values[a])
    return total
