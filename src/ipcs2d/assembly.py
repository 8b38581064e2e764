"""Sparse operator assembly for the velocity/pressure pair.

All element integrals are computed with a single quadrature rule exact for
the highest-degree integrand among the assembled forms: mass (2k),
skew-symmetrized convection (3k-1), the velocity/pressure couplings (k+l)
and the pressure mass (2l).  Every bilinear identity the time stepper
relies on therefore holds to rounding, not to quadrature error.

Layout: vector coefficient vectors are component-major (entry c*n + i is
component c of scalar dof i), so vector mass/stiffness/convection are
block-diagonal repetitions of scalar blocks.  Velocity vectors keep full
length with zeros at Dirichlet entries.  OperatorSet stores each velocity
operator once, as its scalar block on the free dofs on one fixed CSR
pattern (M_free, A_free and free_convection), and its inner products read
only the free entries, so no solve or pairing slices a matrix.
"""

import inspect

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
    CSR slot of every entry, the pattern repeated once per component.

    With a boolean mask over the scalar dofs, the map is restricted to the
    scalar block of the masked rows and columns, numbered in order: one
    component, whatever the space has.  Entries outside the block go to a
    spare slot past the end, which is dropped.  With a column space cols,
    the map is the rectangular scalar block of the space's scalar dofs by
    the scalar dofs of cols.  Slots and index arrays are int32."""

    def __init__(self, space, mask=None, cols=None):
        k = space.components if cols is None else 1
        cols = space if cols is None else cols
        cd, n, cd_col, m = space.cell_dofs, space.n_scalar, cols.cell_dofs, cols.n_scalar
        key = np.repeat(cd, cd_col.shape[1], axis=1).ravel() * m
        key += np.tile(cd_col, (1, cd.shape[1])).ravel()
        keys, slot = np.unique(key, return_inverse=True)
        del key
        if mask is not None:
            # renumbering the masked dofs in order keeps the keys sorted
            rows, columns = np.divmod(keys, n)
            keep = mask[rows] & mask[columns]
            number = np.cumsum(mask) - 1
            n = m = int(mask.sum())
            k = 1
            keys = number[rows[keep]] * n + number[columns[keep]]
            spare = np.cumsum(keep) - 1
            spare[~keep] = keys.size
            slot = spare[slot]
        self.slot = slot.astype(np.int32)
        self.nnz = keys.size
        row_end = np.searchsorted(keys, m * np.arange(1, n + 1))
        self.indices = np.concatenate([keys % m + c * m for c in range(k)]).astype(np.int32)
        self.indptr = np.concatenate(
            [[0]] + [row_end + c * self.nnz for c in range(k)]
        ).astype(np.int32)
        self.shape = (k * n, k * m)
        self.k = k

    def __call__(self, elem, share=False):
        # elem: (M, nloc, nloc) element matrices -> CSR, block diagonal for
        # vector spaces.  Index arrays are copied, as callers may edit them,
        # unless share is set for a matrix whose indices nobody edits
        data = np.bincount(self.slot, weights=elem.ravel(), minlength=self.nnz + 1)[: self.nnz]
        if self.k > 1:
            data = np.tile(data, self.k)
        if share:
            return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)
        return sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()), shape=self.shape)


def _mass_elem(space, geom):
    phi, _ = space.ref.eval(geom.rule.points)
    return np.einsum("q,qi,qj,c->cij", geom.rule.weights, phi, phi, geom.detJ)


def _stiffness_elem(gphi, geom):
    # gphi: the pushed-forward basis gradients of geom (_phys_grads)
    return np.einsum("q,cqid,cqjd,c->cij", geom.rule.weights, gphi, gphi, geom.detJ)


def assemble_mass(space, geom=None):
    """L2 mass matrix of the space (block diagonal for vector spaces)."""
    if geom is None:
        geom = CellGeometry(space.mesh, quad_rule(2 * space.degree))
    return _Scatter(space)(_mass_elem(space, geom))


def assemble_stiffness(space, geom=None):
    """H1 seminorm (grad, grad) matrix of the space."""
    if geom is None:
        geom = CellGeometry(space.mesh, quad_rule(max(2 * (space.degree - 1), 1)))
    return _Scatter(space)(_stiffness_elem(_phys_grads(space, geom), geom))


def _convection_tensor(space, rule):
    """Reference tensor R[(e, k), (i, j)] of the convection, shape
    (2 nloc, nloc^2):

        R = sum_q w_q phi_i (phi_k d_e phi_j + 1/2 d_e phi_k phi_j)

    with reference derivatives d_e.  On an affine cell the element matrix
    is w_hat . R, w_hat the cell's advecting field in the reference frame
    (assemble_convection)."""
    phi, dphi = space.ref.eval(rule.points)
    w = rule.weights
    R = np.einsum("q,qi,qk,qje->ekij", w, phi, phi, dphi)
    R += 0.5 * np.einsum("q,qi,qke,qj->ekij", w, phi, dphi, phi)
    nloc = phi.shape[1]
    return R.reshape(2 * nloc, nloc * nloc)


def assemble_convection(space_u, w_coeffs, geom=None, scatter=None, tensor=None):
    """Skew-symmetrized convection matrix B(w) with entries

        B[i, j] = ((w . grad) phi_j, phi_i) + 1/2 ((div w) phi_j, phi_i)

    acting blockwise on both velocity components.  For w and v with
    homogeneous boundary values, v^T B(w) v integrates to exactly zero,
    and the quadrature is exact for the cubic-in-k integrand, so the
    cancellation holds to rounding.

    All element matrices come from one matrix product: the advecting
    field of each cell c pulled back to the reference frame,
    w_hat[c, e, k] = detJ_c sum_d inv_j[c, e, d] w_d[c, k], times the
    reference tensor of geom's rule (Kirby & Logg, ACM TOMS 2006).
    scatter (a _Scatter of the space) and tensor (_convection_tensor) are
    computed when not given."""
    if geom is None:
        geom = CellGeometry(space_u.mesh, assembly_rule(space_u.degree, 1))
    tensor = _convection_tensor(space_u, geom.rule) if tensor is None else tensor
    scatter = _Scatter(space_u) if scatter is None else scatter
    adj = geom.detJ[:, None, None] * geom.inv_j
    w_hat = sum(
        adj[:, :, d, None] * space_u.component(w_coeffs, d)[space_u.cell_dofs][:, None, :]
        for d in range(2)
    )
    return scatter(w_hat.reshape(len(w_hat), -1) @ tensor)


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

    scatter = _Scatter(space_u, cols=space_p)
    return tuple(
        sp.vstack([scatter(elem[..., c]) for c in range(2)], format="csr")
        for elem in (elem_d, elem_g)
    )


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
    elem = np.einsum("q,cqd,qi,c->cid", geom.rule.weights, vals, phi, geom.detJ, optimize=True)
    out = np.zeros(2 * space_u.n_scalar)
    for c in range(2):
        np.add.at(space_u.component(out, c), space_u.cell_dofs.ravel(), elem[..., c].ravel())
    return out


def _eval_user_field(fn, name, x, y, t=None):
    """Values of a user vector field at the points x, y, shape x.shape + (2,).

    fn is called as fn(x, y), or as fn(t, x, y) when t is given.  A value
    that is not a callable of those arguments, or a result other than two
    finite components broadcastable to x.shape, raises ValueError naming
    the callable, the expected shape and the time."""
    args = (x, y) if t is None else (t, x, y)
    where = "%s(x, y)" % name if t is None else "%s(t, x, y) at t=%r" % (name, float(t))
    expected = "%s must return two finite components of shape %s" % (where, x.shape)
    if not callable(fn):
        raise ValueError("%s: %s is %r, not a callable" % (expected, name, fn))
    try:
        inspect.signature(fn).bind(*args)
    except TypeError as exc:
        raise ValueError(
            "%s: it cannot be called with %d arguments (%s)" % (expected, len(args), exc)
        ) from None
    except ValueError:
        pass  # no signature to inspect; the call itself decides
    out = fn(*args)
    try:
        comps = tuple(out)
    except TypeError:
        raise ValueError("%s: got a %s" % (expected, type(out).__name__)) from None
    if len(comps) != 2:
        raise ValueError("%s: got %d values" % (expected, len(comps)))
    vals = np.empty(x.shape + (2,))
    for c, comp in enumerate(comps):
        try:
            vals[..., c] = comp
        except (TypeError, ValueError) as exc:
            raise ValueError("%s: component %d: %s" % (expected, c, exc)) from None
    if not np.all(np.isfinite(vals)):
        raise ValueError("%s: got non-finite values" % expected)
    return vals


def assemble_load(space_u, f, t_lo, t_hi, cutoff=None, geom=None):
    """Load vector of the window-averaged forcing together with the squared
    quadrature norm of the averaged field.

    f(t, x, y) must return the two finite force components for array x, y
    (otherwise ValueError, naming f and t).  The average over [t_lo, t_hi]
    uses three-point Gauss in time; integration is clipped at the cutoff
    while the denominator keeps the full window, and the norm uses the same
    spatial rule as the load so the discrete Cauchy-Schwarz pairing with
    velocity fields is exact.

    Returns (F, f_norm_sq)."""
    if geom is None:
        geom = CellGeometry(space_u.mesh, assembly_rule(space_u.degree, 1))
    nodes, coeffs = _time_average_weights(t_lo, t_hi, cutoff)
    x = geom.phys[..., 0]
    y = geom.phys[..., 1]
    fbar = np.zeros(geom.phys.shape[:2] + (2,))
    for tk, ck in zip(nodes, coeffs):
        fbar += ck * _eval_user_field(f, "f", x, y, tk)

    w = geom.rule.weights
    f_norm_sq = float(np.einsum("q,cqd,cqd,c->", w, fbar, fbar, geom.detJ, optimize=True))
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

    M_free, A_free : velocity mass and stiffness, stored once as their
        scalar block on the free (interior) velocity dofs, the block every
        momentum and mass solve uses; both have the one CSR pattern of
        free_convection(w), so the momentum matrix of a step is a sum of
        data arrays.  They share their index arrays, which must not be
        edited in place
    D, G : coupling matrices (see assemble_couplings)
    N_p, M_p : pressure stiffness and mass
    solve_poisson(b, tol) : zero-mean solve with N_p, factored once

    plus the inner products the projection scheme and its energy ledger
    need.  Velocity vectors vanish at Dirichlet entries, and the velocity
    inner products read only the free entries.  Fields of the composite
    space U_h + grad(P_h) are handled as coefficient pairs (base, phi)
    without a global basis: all pairings reduce to the matrices above."""

    def __init__(self, space_u, space_p):
        self.space_u = space_u
        self.space_p = space_p
        self.geom = CellGeometry(space_u.mesh, assembly_rule(space_u.degree, space_p.degree))
        self._conv_tensor = _convection_tensor(space_u, self.geom.rule)
        # free entries of each velocity component, one row per component
        self._free_index = np.flatnonzero(space_u.free).reshape(2, -1)
        self.scatter_free = _Scatter(space_u, space_u.free[: space_u.n_scalar])
        self.M_free = self.scatter_free(_mass_elem(space_u, self.geom), share=True)
        self.A_free = self.scatter_free(
            _stiffness_elem(_phys_grads(space_u, self.geom), self.geom), share=True
        )
        self.D, self.G = assemble_couplings(space_u, space_p, self.geom)
        scatter_p = _Scatter(space_p)
        self.M_p = scatter_p(_mass_elem(space_p, self.geom))
        self.N_p = scatter_p(_stiffness_elem(_phys_grads(space_p, self.geom), self.geom))
        self.solve_poisson = factor_poisson(self.N_p, self.M_p)
        # |grad psi_q| per pressure basis function, for normalized
        # divergence residuals
        self.grad_psi_norms = np.sqrt(self.N_p.diagonal())

    def free_convection(self, w_coeffs):
        """The scalar block of assemble_convection(w_coeffs) on the free
        dofs, assembled straight onto the pattern of M_free and A_free."""
        return assemble_convection(
            self.space_u, w_coeffs, self.geom, self.scatter_free, self._conv_tensor
        )

    def load(self, f, t_lo, t_hi, cutoff=None):
        return assemble_load(self.space_u, f, t_lo, t_hi, cutoff, self.geom)

    # -- inner products ------------------------------------------------------

    def _apply_free(self, block, vec):
        # block (M_free or A_free) applied to both components of vec, as a
        # full-length vector that is zero in the Dirichlet rows
        out = np.zeros(vec.shape)
        for index in self._free_index:
            out[index] = block @ vec.take(index)
        return out

    def norm_u_sq(self, vec):
        return float(vec @ self._apply_free(self.M_free, vec))

    def grad_u_sq(self, vec):
        return float(vec @ self._apply_free(self.A_free, vec))

    def norm_p_sq(self, vec):
        return float(vec @ (self.M_p @ vec))

    def grad_p_sq(self, vec):
        return float(vec @ (self.N_p @ vec))

    def yh_norm_sq(self, base, phi):
        """Squared L2 norm of base + grad(phi)."""
        return float(
            base @ self._apply_free(self.M_free, base)
            + 2.0 * (base @ (self.G @ phi))
            + phi @ (self.N_p @ phi)
        )

    def yh_pair_with_u(self, base, phi):
        """Riesz vector r with r . v = (base + grad(phi), v) for v in U_h.
        The mass acts on the free rows only: Dirichlet rows hold G phi."""
        return self._apply_free(self.M_free, base) + self.G @ phi

    def weak_divergence(self, base, phi):
        """(base + grad(phi), grad psi_q) for every pressure basis function."""
        return self.G.T @ base + self.N_p @ phi

    def coupling_gap(self):
        """max |D + G| over rows of interior velocity dofs (identically
        zero up to rounding for conforming assembly)."""
        diff = (self.D + self.G).tocsr()[self.space_u.free]
        return float(np.abs(diff.data).max()) if diff.nnz else 0.0


def build_operators(space_u, space_p):
    """Assemble the full operator set of a velocity/pressure pair."""
    return OperatorSet(space_u, space_p)


def project_L2_onto_Uh(space_u, g, ops, tol=1e-12):
    """L2 projection of a vector field onto the velocity space.

    g(x, y) must return the two finite components for array x, y
    (otherwise ValueError, naming g as u0, the initial velocity the scheme
    projects with it).  The right side is integrated with the degree-6
    rule (the integrand is not polynomial in general); the mass solve runs
    on the interior dofs only, with ops.M_free of the space's OperatorSet,
    so the result satisfies the homogeneous boundary condition exactly.
    """
    geom = CellGeometry(space_u.mesh, quad_rule(6))
    x = geom.phys[..., 0]
    y = geom.phys[..., 1]
    rhs = _load_vector(space_u, geom, _eval_user_field(g, "u0", x, y))
    # both components share the scalar mass block and its free dofs
    n = space_u.n_scalar
    free = space_u.free[:n]
    out = np.zeros((2, n))
    out[:, free] = solve_direct(ops.M_free, rhs.reshape(2, n)[:, free].T, tol, "mass").T
    return out.ravel()
