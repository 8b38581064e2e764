"""Sparse operator assembly for the velocity/pressure pair.

All element integrals are computed with a single quadrature rule exact for
the highest-degree integrand among the assembled forms: mass (2k),
skew-symmetrized convection (3k-1), the velocity/pressure coupling (k+l)
and the pressure mass (2l).  Every bilinear identity the time stepper
relies on therefore holds to rounding, not to quadrature error.

The cells are affine, so every constant form (mass, stiffness, coupling)
and the convection come from reference tensors (Kirby & Logg, ACM TOMS 2006):
a per-cell geometric factor times a tensor summed over the rule points once.

Layout: vector coefficient vectors are component-major (entry c*n + i is
component c of scalar dof i), so vector mass/stiffness/convection are
block-diagonal repetitions of scalar blocks, and only the scalar block is
ever assembled.  Velocity vectors keep full length with zeros at
Dirichlet entries.  OperatorSet stores each velocity operator once, as its
scalar block on the free dofs on one fixed CSR pattern (M_free, A_free
and free_convection), and its inner products read only the free entries,
so no solve or pairing slices a matrix.  The free dofs are numbered in the
reverse Cuthill-McKee order of that pattern, so the momentum LU does not
depend on how the mesh numbers its vertices.

The dense products of a step (the convection's element matrices, the
load's and the gradients at the rule points) run in blocks of cells
(_row_products), each gemm of at most GEMM_ONE_THREAD = 2^18 multiply-adds
m n k.  OpenBLAS runs a gemm that small on the calling thread
(interface/gemm.c: 65536 times GEMM_MULTITHREAD_THRESHOLD, 4 by default);
a larger one may wake its worker threads, and with two of them a whole-
mesh product at n = 64 took 8 ms instead of 0.2 ms in some processes.
Each block's element matrices are added into the output as they are
formed (np.add.at, in cell order, the additions one np.bincount of all of
them makes), so no array of every cell's element matrices is built.
"""

import inspect

import numpy as np
import scipy.sparse as sp

from .fe import quad_rule, require_one_mesh
from .linsolve import dot, factor_poisson, rcm_order, solve_mass

__all__ = [
    "CellGeometry",
    "assembly_rule",
    "assemble_convection",
    "assemble_load",
    "build_operators",
    "OperatorSet",
    "project_L2_onto_Uh",
    "eval_at_quad",
    "eval_grad_at_quad",
]

# the most multiply-adds m n k of a gemm OpenBLAS keeps on the calling thread
GEMM_ONE_THREAD = 2**18

_GAUSS3_NODES = np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
_GAUSS3_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


class CellGeometry:
    """The rule points of one quadrature rule on every triangle.

    detJ, inv_j, adj : the mesh's own read-only arrays (Mesh documents them)
    phys : (M, nq, 2) physical coordinates of the rule points, read-only
    x, y : views of phys's two coordinates, held once: every load passes f the same arrays
    """

    def __init__(self, mesh, rule):
        self.detJ, self.inv_j, self.adj = mesh.detJ, mesh.inv_j, mesh.adj
        e1, e2 = mesh.jac[:, None, :, 0], mesh.jac[:, None, :, 1]
        q = rule.points
        p0 = mesh.vertices[mesh.triangles[:, 0], None, :]
        self.phys = p0 + q[None, :, 0, None] * e1 + q[None, :, 1, None] * e2
        self.phys.flags.writeable = False
        self.x, self.y = self.phys[..., 0], self.phys[..., 1]
        self.rule = rule


def assembly_rule(degree_u, degree_p):
    """Quadrature exact for every assembled form of the (k, l) pair."""
    k, l = degree_u, degree_p
    return quad_rule(max(2 * k, 3 * k - 1, k + l, 2 * l))


class _Scatter:
    """COO -> CSR map of one space's element matrices onto the scalar block
    of its scalar dofs, computed once: the CSR slot of every entry.  Both
    velocity components share that block, so no vector matrix is built.

    With a boolean mask over the scalar dofs, the map is restricted to the
    block of the masked rows and columns.  Entries outside the block go to
    a spare slot past the end, which is dropped.  The block's dofs are
    numbered in the reverse Cuthill-McKee order of the block's own CSR
    pattern (rcm_order): position k of the block holds the masked dof
    self.order[k].  With a column space cols, the map is the rectangular
    block of the space's scalar dofs by the scalar dofs of cols.  Slots
    (one row per cell) and index arrays are int32.  The index arrays are
    read-only, and every matrix the map builds shares them: an in-place
    edit of one raises ValueError.

    A call takes the element matrices whole, or as two factors a @ b with
    one row of a per cell; the product is then formed and added in blocks
    of cells (_add_products), so that each gemm stays on the calling
    thread and only one block of element matrices is alive at a time."""

    def __init__(self, space, mask=None, cols=None):
        cols = space if cols is None else cols
        cd, n, cd_col, m = space.cell_dofs, space.n_scalar, cols.cell_dofs, cols.n_scalar
        key = np.repeat(cd, cd_col.shape[1], axis=1).ravel() * m
        key += np.tile(cd_col, (1, cd.shape[1])).ravel()
        keys, slot = np.unique(key, return_inverse=True)
        del key
        if mask is not None:
            rows, columns = np.divmod(keys, n)
            keep = mask[rows] & mask[columns]
            number = np.cumsum(mask) - 1
            n = m = int(mask.sum())
            keys = number[rows[keep]] * n + number[columns[keep]]
            pattern = (np.ones(keys.size, np.int8),) + _csr_index(keys, n, n)
            self.order = rcm_order(sp.csr_matrix(pattern, shape=(n, n)))
            # relabel the keys to the block numbers and sort them
            number = np.empty(n, dtype=np.int64)
            number[self.order] = np.arange(n)
            keys = number[keys // n] * n + number[keys % n]
            sort = np.argsort(keys)
            keys = keys[sort]
            # each kept entry goes to the slot of its key, the rest past the end
            spare = np.full(keep.size, keys.size)
            spare[np.flatnonzero(keep)[sort]] = np.arange(keys.size)
            slot = spare[slot]
        self.slot = slot.astype(np.int32).reshape(len(cd), -1)
        self.nnz = keys.size
        self.indices, self.indptr = _csr_index(keys, n, m)
        self.indices.flags.writeable = self.indptr.flags.writeable = False
        self.shape = (n, m)

    def __call__(self, a, b=None):
        # a: (M, nloc, nloc_col) element matrices, or with b (M, k) factors of
        # the flat element matrices a @ b -> CSR on the shared pattern; the
        # spare slot past the end takes the entries outside a masked block
        data = np.zeros(self.nnz + 1)
        if b is None:
            np.add.at(data, self.slot.ravel(), a.ravel())
        else:
            _add_products(data, self.slot, a, b)
        return sp.csr_matrix((data[: self.nnz], self.indices, self.indptr), shape=self.shape)


def _row_products(a, b):
    """a @ b in blocks of cells: yields (start, stop, a[start:stop] @ b).

    a is (cells, ..., k) and b (k, n); each cell gives a[c].size // k rows
    of the product, and each block's product has a multiple of 8 rows, as
    many as keep its gemm's m n k at most GEMM_ONE_THREAD, so that OpenBLAS
    runs it on the calling thread.  A row of the product does not depend on
    the block it is formed in: the blocks hold the bits of one whole-mesh
    product."""
    k, n = b.shape
    rows = max(8, GEMM_ONE_THREAD // (k * n) // 8 * 8)
    cells = rows // int(np.prod(a.shape[1:-1]))
    for start in range(0, len(a), cells):
        stop = min(start + cells, len(a))
        yield start, stop, a[start:stop].reshape(-1, k) @ b


def _add_products(out, slot, a, b):
    """out[slot] += a @ b, slot holding one row per cell of a, added block
    by block (_row_products) with np.add.at as each block is formed: the
    additions of np.bincount(slot, a @ b), in its order."""
    for start, stop, block in _row_products(a, b):
        np.add.at(out, slot[start:stop].ravel(), block.ravel())
    return out


def _csr_index(keys, n, m):
    # int32 CSR index arrays of n rows with entries at the sorted keys row * m + column
    indices = (keys % m).astype(np.int32)
    indptr = np.append(0, np.searchsorted(keys, m * np.arange(1, n + 1))).astype(np.int32)
    return indices, indptr


def _mass_elem(space, geom):
    """Element mass matrices detJ_c T, T[i, j] = sum_q w_q phi_i phi_j."""
    phi, _ = space.ref.eval(geom.rule.points)
    T = np.einsum("q,qi,qj->ij", geom.rule.weights, phi, phi)
    return geom.detJ[:, None, None] * (0.5 * (T + T.T))  # exactly symmetric


def _stiffness_elem(space, geom):
    """Element stiffness matrices sum_ef K_c[e, f] T[e, f], T[e, f, i, j] = sum_q w_q
    d_e phi_i d_f phi_j, K_c = detJ_c inv_j inv_j^T = adj adj^T / detJ_c.  Summed over
    (0, 0), (1, 1) and (0, 1) + (1, 0), every element matrix is exactly symmetric."""
    _, dphi = space.ref.eval(geom.rule.points)
    T = np.einsum("q,qie,qjf->efij", geom.rule.weights, dphi, dphi)
    T = 0.5 * (T + T.transpose(1, 0, 3, 2))
    r0, r1 = geom.adj[:, 0], geom.adj[:, 1]
    K = np.array([(r0 * r0).sum(1), (r1 * r1).sum(1), (r0 * r1).sum(1)]) / geom.detJ
    return sum(k[:, None, None] * t for k, t in zip(K, (T[0, 0], T[1, 1], T[0, 1] + T[1, 0])))


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


def assemble_convection(space_u, w_coeffs, geom, scatter, tensor):
    """Skew-symmetrized convection matrix B(w) with entries

        B[i, j] = ((w . grad) phi_j, phi_i) + 1/2 ((div w) phi_j, phi_i)

    over the scalar basis, the block that acts on each velocity component.
    For w and v with homogeneous boundary values, v^T B(w) v integrates to
    exactly zero, and the quadrature is exact for the cubic-in-k integrand,
    so the cancellation holds to rounding.

    The element matrix of each cell c is the advecting field of the cell
    pulled back to the reference frame,
    w_hat[c, e, k] = detJ_c sum_d inv_j[c, e, d] w_d[c, k], times tensor,
    the _convection_tensor of geom's rule (Kirby & Logg, ACM TOMS 2006).
    scatter (a _Scatter of the space) is called as scatter(w_hat, tensor)
    and forms that product in blocks of cells, placing each block's
    element matrices as it goes."""
    w_hat = sum(
        geom.adj[:, :, d, None] * space_u.component(w_coeffs, d)[space_u.cell_dofs][:, None, :]
        for d in range(2)
    )
    return scatter(w_hat.reshape(len(w_hat), -1), tensor)


def _coupling_elems(space_u, space_p, geom):
    """Element matrices of the coupling G, (M, nloc_u, nloc_p, 2):
    elem[c, i, s, d] = sum_e adj[c, e, d] T[e, i, s], T = sum_q w_q phi_i d_e psi_s."""
    phi_u, _ = space_u.ref.eval(geom.rule.points)
    _, dphi_p = space_p.ref.eval(geom.rule.points)
    t = np.einsum("q,qi,qse->eis", geom.rule.weights, phi_u, dphi_p)
    return sum(geom.adj[:, e, None, None] * t[e, ..., None] for e in (0, 1))


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


class _LoadForm:
    """The load (v, phi_i) of every velocity basis function phi_i, for a
    vector field v given at the rule points of every cell of one geometry.

    What no field changes is computed once: w_phi[q, i] = w_q phi_i(x_q),
    w_det[c, q] = detJ_c w_q (the quadrature weights of the physical cells)
    and the int32 slot of every element load entry.  A call contracts the
    field, scaled by detJ, with w_phi, (2M x nq)(nq x nloc), in blocks of
    cells that keep each gemm on the calling thread, and adds each block's
    loads into the vector as it is formed (_add_products)."""

    def __init__(self, space_u, geom):
        phi, _ = space_u.ref.eval(geom.rule.points)
        self.w_phi = geom.rule.weights[:, None] * phi
        self.w_det = geom.detJ[:, None] * geom.rule.weights
        self.detJ = geom.detJ
        n = space_u.n_scalar
        # element entry (c, d, i) is component d of the cell's local dof i
        slot = space_u.cell_dofs[:, None, :] + n * np.arange(2)[:, None]
        self.slot = slot.reshape(len(slot), -1).astype(np.int32)
        self.size = 2 * n

    def __call__(self, vals):
        # vals: (M, nq, 2) vector field at the rule points of every cell;
        # the product's rows are its (cell, component) pairs
        scaled = (vals * self.detJ[:, None, None]).transpose(0, 2, 1)
        return _add_products(np.zeros(self.size), self.slot, scaled, self.w_phi)

    def norm_sq(self, vals):
        """Squared quadrature L2 norm of the field."""
        sq = vals[..., 0] * vals[..., 0] + vals[..., 1] * vals[..., 1]
        return float(np.sum(self.w_det * sq))


def _eval_user_field(fn, name, x, y, t=None):
    """Values of a user vector field at the points x, y, shape x.shape + (2,).

    fn is called as fn(x, y), or as fn(t, x, y) when t is given.  A value
    that is not a callable of those arguments, or a result other than two
    finite components broadcastable to x.shape, raises ValueError naming
    the callable, the expected shape and the time.  fn is called straight
    away; its signature is read only when the call raises TypeError, to
    tell a wrong callable from an error inside it (which is re-raised)."""
    args = (x, y) if t is None else (t, x, y)
    where = "%s(x, y)" % name if t is None else "%s(t, x, y) at t=%r" % (name, float(t))
    expected = "%s must return two finite components of shape %s" % (where, x.shape)
    try:
        out = fn(*args)
    except TypeError:
        if not callable(fn):
            raise ValueError("%s: %s is %r, not a callable" % (expected, name, fn)) from None
        try:
            inspect.signature(fn).bind(*args)
        except TypeError as exc:
            raise ValueError(
                "%s: it cannot be called with %d arguments (%s)" % (expected, len(args), exc)
            ) from None
        except ValueError:
            pass  # no signature to inspect
        raise
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
    if not np.isfinite(vals).all():
        raise ValueError("%s: got non-finite values" % expected)
    return vals


def assemble_load(f, t_lo, t_hi, cutoff, geom, form):
    """Load vector of the window-averaged forcing together with the squared
    quadrature norm of the averaged field.

    f(t, x, y) must return the two finite force components for array x, y
    (otherwise ValueError, naming f and t).  The average over [t_lo, t_hi]
    uses three-point Gauss in time; integration is clipped at the cutoff
    (None for none) while the denominator keeps the full window, and the
    norm uses the same spatial rule as the load so the discrete
    Cauchy-Schwarz pairing with velocity fields is exact.  form is the
    _LoadForm of geom.  The values of each time node are checked as they
    arrive, so that a non-finite node is named at its time, and the
    average is checked again, for overflow.

    Returns (F, f_norm_sq)."""
    nodes, coeffs = _time_average_weights(t_lo, t_hi, cutoff)
    x, y = geom.x, geom.y
    fbar = np.zeros(x.shape + (2,))
    for tk, ck in zip(nodes, coeffs):
        vals = _eval_user_field(f, "f", x, y, tk)
        vals *= ck
        fbar += vals
    if not np.isfinite(fbar).all():
        raise ValueError("f(t, x, y) averaged over [%r, %r] is not finite" % (t_lo, t_hi))
    return form(fbar), form.norm_sq(fbar)


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
    entry [..., c, d] = d_d u_c.  A matrix product, (cM x nloc)(nloc x 2nq)
    for c components, contracts the cell coefficients of every component
    with the reference basis gradients, in blocks of cells that keep each
    gemm on the calling thread (_row_products), and each reference
    gradient g goes to the physical one g @ inv_j[c] by four multiply-adds
    as its block is formed: no table of the basis gradients pushed through
    every cell, (M, nq, nloc, 2), and no whole-mesh array of reference
    gradients is built."""
    _, dphi = space.ref.eval(geom.rule.points)
    nq, nloc, _ = dphi.shape
    comps = [coeffs] if space.components == 1 else [space.component(coeffs, c) for c in (0, 1)]
    local = np.stack([u[space.cell_dofs] for u in comps], axis=1)
    table = dphi.transpose(1, 0, 2).reshape(nloc, 2 * nq)
    grad = np.empty(local.shape[:2] + (nq, 2))
    for start, stop, ref in _row_products(local, table):
        # reference gradients of every component, (cells, components, nq, 2)
        ref = ref.reshape(-1, len(comps), nq, 2)
        inv_j, out = geom.inv_j[start:stop, None, None], grad[start:stop]
        for d in (0, 1):
            out[..., d] = ref[..., 0] * inv_j[..., 0, d] + ref[..., 1] * inv_j[..., 1, d]
    grad = np.moveaxis(grad, 1, 2)
    return grad[:, :, 0] if space.components == 1 else grad


class OperatorSet:
    """Assembled operators of one velocity/pressure space pair.

    M_free, A_free : velocity mass and stiffness, stored once as their
        scalar block on the free (interior) velocity dofs, the block every
        momentum and mass solve uses; both have the one CSR pattern of
        free_convection(w), so the momentum matrix of a step is a sum of
        data arrays.  The block's dofs are numbered in the reverse
        Cuthill-McKee order of that pattern (scatter_free.order, found
        once), so the momentum LU's minimum degree ordering starts from a
        banded numbering whatever the mesh's; free_values and from_free
        gather and scatter in that order, so no step permutes anything
    G : the one velocity/pressure coupling, of shape (dim U, dim P):

            G[(c,i), q] = (phi_i, d_c psi_q)     so (u, grad psi_q) = (G^T u)_q

        and, velocity vectors being zero on the boundary, (div u, psi_q) = -(G^T u)_q
    N_p, M_p : pressure stiffness and mass; N_p is projected onto zero row
        sums once it is assembled (its diagonal less its row sums), so that
        the constants are its kernel to rounding whatever order assembled it
    solve_poisson(b, tol) : zero-mean solve with N_p, factored once

    plus the inner products the projection scheme and its energy ledger
    need, each taken by linsolve.dot.  Every matrix but G (two stacked
    blocks) shares the read-only index arrays of the _Scatter that built
    it.  Velocity vectors vanish at Dirichlet entries, and the velocity
    inner products read only the free entries.  Fields of the composite
    space U_h + grad(P_h) are handled as coefficient pairs (base, phi)
    without a global basis: all pairings reduce to the matrices above.
    Geometry is read from space_u.mesh; a pair of spaces the set cannot
    serve raises ValueError."""

    def __init__(self, space_u, space_p):
        require_one_mesh(space_u, space_p)
        if space_u.components != 2 or space_p.components != 1:
            raise ValueError(
                "need a two-component velocity space and a scalar pressure space, got %d and %d "
                "components" % (space_u.components, space_p.components)
            )
        if not space_u.homogeneous_dirichlet:
            raise ValueError(
                "the velocity space must vanish on the boundary (homogeneous_dirichlet=True)"
            )
        if not space_p.zero_mean:
            raise ValueError("the pressure space must be used modulo constants (zero_mean=True)")
        self.space_u = space_u
        self.space_p = space_p
        self.geom = CellGeometry(space_u.mesh, assembly_rule(space_u.degree, space_p.degree))
        self._conv_tensor = _convection_tensor(space_u, self.geom.rule)
        self.scatter_free = _Scatter(space_u, space_u.free[: space_u.n_scalar])
        # free entries of each velocity component in block order, one row per
        # component; C order, so that free_values gives contiguous columns
        free = np.flatnonzero(space_u.free).reshape(2, -1)
        self._free_index = np.ascontiguousarray(free[:, self.scatter_free.order])
        self.M_free = self.scatter_free(_mass_elem(space_u, self.geom))
        self.A_free = self.scatter_free(_stiffness_elem(space_u, self.geom))
        # one scalar block per velocity component, stacked
        scatter_up = _Scatter(space_u, cols=space_p)
        elem = _coupling_elems(space_u, space_p, self.geom)
        self.G = sp.vstack([scatter_up(elem[..., c]) for c in range(2)], format="csr")
        scatter_p = _Scatter(space_p)
        self.M_p = scatter_p(_mass_elem(space_p, self.geom))
        self.N_p = scatter_p(_stiffness_elem(space_p, self.geom))
        self.N_p.setdiag(self.N_p.diagonal() - self.N_p @ np.ones(space_p.ndofs))
        self.solve_poisson = factor_poisson(self.N_p, self.M_p)
        self._load_form = _LoadForm(space_u, self.geom)
        # |grad psi_q| per pressure basis function, for normalized
        # divergence residuals
        self.grad_psi_norms = np.sqrt(self.N_p.diagonal())

    def free_convection(self, w_coeffs):
        """assemble_convection(w_coeffs) on the free dofs, assembled
        straight onto the pattern of M_free and A_free."""
        return assemble_convection(
            self.space_u, w_coeffs, self.geom, self.scatter_free, self._conv_tensor
        )

    def load(self, f, t_lo, t_hi, cutoff=None):
        """assemble_load on this set's rule, whose load form is built once."""
        return assemble_load(f, t_lo, t_hi, cutoff, self.geom, self._load_form)

    def free_values(self, vec):
        """The free entries of a velocity vector in block order, one
        contiguous column per component (Fortran order): the layout of the
        scalar free blocks' right sides."""
        return vec[self._free_index].T

    def from_free(self, x):
        """The velocity vector with free entries x (one column per
        component, as free_values gives them) and zero Dirichlet entries."""
        out = np.zeros(self.space_u.ndofs)
        out[self._free_index] = x.T
        return out

    # -- inner products ------------------------------------------------------

    def apply_free(self, block, vec):
        """block (M_free or A_free) applied to both components of the
        velocity vector vec, as a full-length vector that is zero in the
        Dirichlet rows."""
        out = np.zeros(vec.shape)
        for index in self._free_index:
            out[index] = block @ vec.take(index)
        return out

    def norm_u_sq(self, vec):
        return dot(vec, self.apply_free(self.M_free, vec))

    def grad_u_sq(self, vec):
        return dot(vec, self.apply_free(self.A_free, vec))

    def norm_p_sq(self, vec):
        return dot(vec, self.M_p @ vec)

    def grad_p_sq(self, vec):
        return dot(vec, self.N_p @ vec)

    def yh_norm_sq(self, base, phi):
        """Squared L2 norm of base + grad(phi)."""
        return (
            dot(base, self.apply_free(self.M_free, base))
            + 2.0 * dot(base, self.G @ phi)
            + dot(phi, self.N_p @ phi)
        )

    def yh_pair_with_u(self, base, phi):
        """Riesz vector r with r . v = (base + grad(phi), v) for v in U_h.
        The mass acts on the free rows only: Dirichlet rows hold G phi."""
        return self.apply_free(self.M_free, base) + self.G @ phi


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
    It needs no factorization: linsolve.solve_mass refines Chebyshev
    sweeps on diag(M_free)^-1 M_free, whose spectrum the element bounds of
    the velocity degree enclose, to rounding, both components at once.
    """
    geom = CellGeometry(space_u.mesh, quad_rule(6))
    rhs = _LoadForm(space_u, geom)(_eval_user_field(g, "u0", geom.x, geom.y))
    # both components share the scalar mass block and its free dofs
    return ops.from_free(solve_mass(ops.M_free, ops.free_values(rhs), space_u.degree, tol))
