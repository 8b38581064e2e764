"""Sparse operator assembly for the velocity/pressure pair.

All element integrals are computed with a single quadrature rule exact for
the highest-degree integrand among the assembled forms: mass (2k),
skew-symmetrized convection (3k-1), the velocity/pressure couplings (k+l)
and the pressure mass (2l).  Every bilinear identity the time stepper
relies on therefore holds to rounding, not to quadrature error.

Layout: vector coefficient vectors are component-major (entry c*n + i is
component c of scalar dof i), so vector mass/stiffness/convection are
block-diagonal repetitions of scalar blocks.  Vectors keep full length with
zeros at Dirichlet entries; constrained rows/columns are eliminated only
inside the linear solves.
"""

import numpy as np
import scipy.sparse as sp

from .fe import quad_rule
from .linsolve import factor_poisson, solve_direct

__all__ = [
    "CellGeometry",
    "assembly_rule",
    "assemble_mass",
    "assemble_stiffness",
    "assemble_convection",
    "assemble_couplings",
    "assemble_load",
    "build_operators",
    "OperatorSet",
    "project_L2_onto_Uh",
    "eval_at_quad",
    "eval_grad_at_quad",
]

_GAUSS3_NODES = np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
_GAUSS3_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


class CellGeometry:
    """Affine map data per triangle for one quadrature rule.

    detJ : (M,) Jacobian determinants (twice the areas, positive)
    inv_j : (M, 2, 2) inverse Jacobians; a reference gradient g maps to the
        physical gradient via g @ inv_j[c]
    phys : (M, nq, 2) physical coordinates of the rule points
    """

    def __init__(self, mesh, rule):
        v = mesh.vertices
        t = mesh.triangles
        p0 = v[t[:, 0]]
        e1 = v[t[:, 1]] - p0
        e2 = v[t[:, 2]] - p0
        self.detJ = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        inv = np.empty((len(t), 2, 2))
        inv[:, 0, 0] = e2[:, 1]
        inv[:, 0, 1] = -e2[:, 0]
        inv[:, 1, 0] = -e1[:, 1]
        inv[:, 1, 1] = e1[:, 0]
        self.inv_j = inv / self.detJ[:, None, None]
        q = rule.points
        self.phys = (
            p0[:, None, :]
            + q[None, :, 0, None] * e1[:, None, :]
            + q[None, :, 1, None] * e2[:, None, :]
        )
        self.rule = rule


def assembly_rule(degree_u, degree_p):
    """Quadrature exact for every assembled form of the (k, l) pair."""
    k, l = degree_u, degree_p
    return quad_rule(max(2 * k, 3 * k - 1, k + l, 2 * l))


def _phys_grads(space, geom):
    # gphi[c, q, i, d] = reference gradient pushed through cell c
    _, dphi = space.ref.eval(geom.rule.points)
    return dphi @ geom.inv_j[:, None]


class _Scatter:
    """COO -> CSR map of one space's element matrices, computed once: the
    CSR slot of every entry, the pattern repeated once per component."""

    def __init__(self, space):
        cd = space.cell_dofs
        nloc = cd.shape[1]
        n, k = space.n_scalar, space.components
        key = np.repeat(cd, nloc, axis=1).ravel() * n + np.tile(cd, (1, nloc)).ravel()
        keys, self.slot = np.unique(key, return_inverse=True)
        self.nnz = keys.size
        row_end = np.searchsorted(keys, n * np.arange(1, n + 1))
        self.indices = np.concatenate([keys % n + c * n for c in range(k)])
        self.indptr = np.concatenate([[0]] + [row_end + c * self.nnz for c in range(k)])
        self.shape = (k * n, k * n)
        self.k = k

    def __call__(self, elem):
        # elem: (M, nloc, nloc) element matrices -> CSR, block diagonal for
        # vector spaces; index arrays are copied, as callers may edit them
        data = np.bincount(self.slot, weights=elem.ravel(), minlength=self.nnz)
        return sp.csr_matrix(
            (np.tile(data, self.k), self.indices.copy(), self.indptr.copy()), shape=self.shape
        )


def assemble_mass(space, geom=None):
    """L2 mass matrix of the space (block diagonal for vector spaces)."""
    if geom is None:
        geom = CellGeometry(space.mesh, quad_rule(2 * space.degree))
    phi, _ = space.ref.eval(geom.rule.points)
    w = geom.rule.weights
    elem = np.einsum("q,qi,qj,c->cij", w, phi, phi, geom.detJ)
    return _Scatter(space)(elem)

def assemble_stiffness(space, geom=None):
    """H1 seminorm (grad, grad) matrix of the space."""
    if geom is None:
        geom = CellGeometry(space.mesh, quad_rule(max(2 * (space.degree - 1), 1)))
    gphi = _phys_grads(space, geom)
    w = geom.rule.weights
    elem = np.einsum("q,cqid,cqjd,c->cij", w, gphi, gphi, geom.detJ)
    return _Scatter(space)(elem)


def assemble_convection(space_u, w_coeffs, geom=None, grads=None, scatter=None):
    """Skew-symmetrized convection matrix B(w) with entries

        B[i, j] = ((w . grad) phi_j, phi_i) + 1/2 ((div w) phi_j, phi_i)

    acting blockwise on both velocity components.  For w and v with
    homogeneous boundary values, v^T B(w) v integrates to exactly zero,
    and the quadrature is exact for the cubic-in-k integrand, so the
    cancellation holds to rounding.  grads (the pushed-forward basis
    gradients of geom) and scatter (the space's _Scatter) are recomputed
    when not given."""
    if geom is None:
        geom = CellGeometry(space_u.mesh, assembly_rule(space_u.degree, 1))
    grads = _phys_grads(space_u, geom) if grads is None else grads
    scatter = _Scatter(space_u) if scatter is None else scatter
    M, nq, nloc, _ = grads.shape
    phi, _ = space_u.ref.eval(geom.rule.points)
    wphi = geom.rule.weights[:, None] * phi
    # (phi_i phi_j) per rule point, weighted
    phi2 = (wphi[:, :, None] * phi[:, None, :]).reshape(nq, nloc * nloc)
    # w_cd[c, i, d]: component d of w at local dof i of cell c
    w_cd = np.stack([space_u.component(w_coeffs, d)[space_u.cell_dofs] for d in range(2)], -1)
    w_at_q = phi @ w_cd
    div_w = (grads.reshape(M, nq, 2 * nloc) @ w_cd.reshape(M, 2 * nloc, 1))[..., 0]
    conv = grads[..., 0] * w_at_q[..., 0, None] + grads[..., 1] * w_at_q[..., 1, None]
    elem = wphi.T @ conv + 0.5 * (div_w @ phi2).reshape(M, nloc, nloc)
    return scatter(elem * geom.detJ[:, None, None])


def assemble_couplings(space_u, space_p, geom=None):
    """Velocity/pressure coupling matrices, both of shape (dim U, dim P):

        D[(c,i), q] = (psi_q, d_c phi_i)     so (div u, psi_q) = (D^T u)_q
        G[(c,i), q] = (phi_i, d_c psi_q)     so (u, grad psi_q) = (G^T u)_q

    Integration by parts makes D = -G in every row whose velocity dof is
    interior; boundary rows differ by the boundary term and are never used
    (velocity vectors are zero there)."""
    if geom is None:
        geom = CellGeometry(space_u.mesh, assembly_rule(space_u.degree, space_p.degree))
    phi_u, _ = space_u.ref.eval(geom.rule.points)
    phi_p, _ = space_p.ref.eval(geom.rule.points)
    gphi_u = _phys_grads(space_u, geom)
    gphi_p = _phys_grads(space_p, geom)
    w = geom.rule.weights

    elem_d = np.einsum("q,qs,cqid,c->cisd", w, phi_p, gphi_u, geom.detJ)
    elem_g = np.einsum("q,qi,cqsd,c->cisd", w, phi_u, gphi_p, geom.detJ)

    cd_u = space_u.cell_dofs
    cd_p = space_p.cell_dofs
    nu, npp = cd_u.shape[1], cd_p.shape[1]
    rows_s = np.repeat(cd_u, npp, axis=1).ravel()
    cols = np.tile(cd_p, (1, nu)).ravel()
    shape = (2 * space_u.n_scalar, space_p.n_scalar)

    def scatter(elem):
        parts = []
        for c in range(2):
            parts.append(
                sp.coo_matrix(
                    (elem[..., c].ravel(), (rows_s + c * space_u.n_scalar, cols)),
                    shape=shape,
                )
            )
        return (parts[0] + parts[1]).tocsr()

    return scatter(elem_d), scatter(elem_g)


def _time_average_weights(t_lo, t_hi, cutoff):
    """Gauss nodes/coefficients for the windowed time average of f.

    The average keeps the full window length in the denominator while the
    integration stops at the cutoff (f vanishes beyond final time), so a
    partially clipped window scales the average down proportionally."""
    if t_hi <= t_lo:
        raise ValueError("empty averaging window [%g, %g]" % (t_lo, t_hi))
    b = t_hi if cutoff is None else min(t_hi, cutoff)
    if b <= t_lo:
        return np.zeros(0), np.zeros(0)
    mid = 0.5 * (t_lo + b)
    half = 0.5 * (b - t_lo)
    nodes = mid + half * _GAUSS3_NODES
    coeffs = half * _GAUSS3_WEIGHTS / (t_hi - t_lo)
    return nodes, coeffs


def _load_vector(space_u, geom, vals):
    # (vals, phi_i) for every velocity basis function; vals: (M, nq, 2)
    # vector field at the rule points of every cell
    phi, _ = space_u.ref.eval(geom.rule.points)
    elem = np.einsum("q,cqd,qi,c->cid", geom.rule.weights, vals, phi, geom.detJ)
    out = np.zeros(2 * space_u.n_scalar)
    for c in range(2):
        np.add.at(space_u.component(out, c), space_u.cell_dofs.ravel(), elem[..., c].ravel())
    return out


def assemble_load(space_u, f, t_lo, t_hi, cutoff=None, geom=None):
    """Load vector of the window-averaged forcing together with the squared
    quadrature norm of the averaged field.

    f(t, x, y) must return the two force components for array x, y.  The
    average over [t_lo, t_hi] uses three-point Gauss in time; integration
    is clipped at the cutoff while the denominator keeps the full window,
    and the norm uses the same spatial rule as the load so the discrete
    Cauchy-Schwarz pairing with velocity fields is exact.

    Returns (F, f_norm_sq)."""
    if geom is None:
        geom = CellGeometry(space_u.mesh, assembly_rule(space_u.degree, 1))
    nodes, coeffs = _time_average_weights(t_lo, t_hi, cutoff)
    x = geom.phys[..., 0]
    y = geom.phys[..., 1]
    fbar = np.zeros(geom.phys.shape[:2] + (2,))
    for tk, ck in zip(nodes, coeffs):
        fx, fy = f(tk, x, y)
        fbar[..., 0] += ck * np.asarray(fx, dtype=float)
        fbar[..., 1] += ck * np.asarray(fy, dtype=float)

    w = geom.rule.weights
    f_norm_sq = float(np.einsum("q,cqd,cqd,c->", w, fbar, fbar, geom.detJ))
    return _load_vector(space_u, geom, fbar), f_norm_sq


def eval_at_quad(space, geom, coeffs):
    """Field values at the rule points of every cell.

    Scalar spaces give (M, nq); vector spaces give (M, nq, 2)."""
    phi, _ = space.ref.eval(geom.rule.points)
    cd = space.cell_dofs
    if space.components == 1:
        return np.einsum("qi,ci->cq", phi, coeffs[cd])
    return np.stack(
        [np.einsum("qi,ci->cq", phi, space.component(coeffs, c)[cd]) for c in range(2)],
        axis=-1,
    )


def eval_grad_at_quad(space, geom, coeffs):
    """Field gradients at the rule points of every cell.

    Scalar spaces give (M, nq, 2); vector spaces give (M, nq, 2, 2) with
    entry [..., c, d] = d_d u_c."""
    gphi = _phys_grads(space, geom)
    cd = space.cell_dofs
    if space.components == 1:
        return np.einsum("cqid,ci->cqd", gphi, coeffs[cd])
    return np.stack(
        [np.einsum("cqid,ci->cqd", gphi, space.component(coeffs, c)[cd]) for c in range(2)],
        axis=-2,
    )


class OperatorSet:
    """Assembled operators of one velocity/pressure space pair.

    M_u, A_u : vector mass and stiffness on the velocity space
    D, G : coupling matrices (see assemble_couplings)
    N_p, M_p : pressure stiffness and mass
    solve_poisson(b, tol) : zero-mean solve with N_p, factored once

    plus the inner products the projection scheme and its energy ledger
    need.  Fields of the composite space U_h + grad(P_h) are handled as
    coefficient pairs (base, phi) without a global basis: all pairings
    reduce to the matrices above."""

    def __init__(self, space_u, space_p):
        self.space_u = space_u
        self.space_p = space_p
        self.rule = assembly_rule(space_u.degree, space_p.degree)
        self.geom = CellGeometry(space_u.mesh, self.rule)
        self.M_u = assemble_mass(space_u, self.geom)
        self.A_u = assemble_stiffness(space_u, self.geom)
        self.D, self.G = assemble_couplings(space_u, space_p, self.geom)
        self.M_p = assemble_mass(space_p, self.geom)
        self.N_p = assemble_stiffness(space_p, self.geom)
        self.grads_u = _phys_grads(space_u, self.geom)
        self.scatter_u = _Scatter(space_u)
        self.solve_poisson = factor_poisson(self.N_p, self.M_p)
        # |grad psi_q| per pressure basis function, for normalized
        # divergence residuals
        self.grad_psi_norms = np.sqrt(self.N_p.diagonal())

    def convection(self, w_coeffs):
        return assemble_convection(self.space_u, w_coeffs, self.geom, self.grads_u, self.scatter_u)

    def load(self, f, t_lo, t_hi, cutoff=None):
        return assemble_load(self.space_u, f, t_lo, t_hi, cutoff, self.geom)

    # -- inner products ------------------------------------------------------

    def norm_u_sq(self, vec):
        return float(vec @ (self.M_u @ vec))

    def grad_u_sq(self, vec):
        return float(vec @ (self.A_u @ vec))

    def norm_p_sq(self, vec):
        return float(vec @ (self.M_p @ vec))

    def grad_p_sq(self, vec):
        return float(vec @ (self.N_p @ vec))

    def yh_norm_sq(self, base, phi):
        """Squared L2 norm of base + grad(phi)."""
        return float(
            base @ (self.M_u @ base) + 2.0 * (base @ (self.G @ phi)) + phi @ (self.N_p @ phi)
        )

    def yh_pair_with_u(self, base, phi):
        """Riesz vector r with r . v = (base + grad(phi), v) for v in U_h."""
        return self.M_u @ base + self.G @ phi

    def weak_divergence(self, base, phi):
        """(base + grad(phi), grad psi_q) for every pressure basis function."""
        return self.G.T @ base + self.N_p @ phi

    def coupling_gap(self):
        """max |D + G| over rows of interior velocity dofs (identically
        zero up to rounding for conforming assembly)."""
        free = self.space_u.free
        diff = (self.D + self.G).tocsr()[free]
        return float(np.abs(diff.toarray()).max()) if diff.nnz else 0.0


def build_operators(space_u, space_p):
    """Assemble the full operator set of a velocity/pressure pair."""
    return OperatorSet(space_u, space_p)


def project_L2_onto_Uh(space_u, g, ops=None, tol=1e-12):
    """L2 projection of a vector field onto the velocity space.

    g(x, y) must return the two components for array x, y.  The right side
    is integrated with the degree-6 rule (the integrand is not polynomial
    in general); the mass solve runs on the interior dofs only, so the
    result satisfies the homogeneous boundary condition exactly.
    """
    geom = CellGeometry(space_u.mesh, quad_rule(6))
    x = geom.phys[..., 0]
    y = geom.phys[..., 1]
    gx, gy = g(x, y)
    gvals = np.stack(
        [np.asarray(gx, dtype=float) * np.ones_like(x), np.asarray(gy, dtype=float) * np.ones_like(x)],
        axis=-1,
    )
    rhs = _load_vector(space_u, geom, gvals)
    M_u = ops.M_u if ops is not None else assemble_mass(space_u)
    # both components share the scalar mass block and its free dofs
    n = space_u.n_scalar
    free = space_u.free[:n]
    out = np.zeros((2, n))
    out[:, free] = solve_direct(M_u[:n, :n][free][:, free], rhs.reshape(2, n)[:, free].T, tol, "mass").T
    return out.ravel()
