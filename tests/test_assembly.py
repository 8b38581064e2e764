"""Operator assembly against independent dense references and closed forms."""

import numpy as np
import pytest

import ipcs2d as pk
from ipcs2d.assembly import CellGeometry, eval_grad_at_quad

from conftest import build_setup
from oracles import DenseScheme


def unit_right_triangle_mesh():
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    return pk.Mesh(verts, [[0, 1, 2]], boundary_vertex_flags=[True] * 3)


def scalar_loads(space, g_comp, rule):
    """(g, phi_i) for every scalar basis function, assembled with plain
    per-triangle loops: an arithmetic path independent of the package's
    vectorized assembly."""
    mesh = space.mesh
    vals, _ = pk.ReferenceElement(space.degree).eval(rule.points)
    v0 = mesh.vertices[mesh.triangles[:, 0]]
    e1 = mesh.vertices[mesh.triangles[:, 1]] - v0
    e2 = mesh.vertices[mesh.triangles[:, 2]] - v0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    out = np.zeros(space.n_scalar)
    for c in range(mesh.n_triangles):
        xq = v0[c] + np.outer(rule.points[:, 0], e1[c]) + np.outer(
            rule.points[:, 1], e2[c]
        )
        gq = np.asarray(g_comp(xq[:, 0], xq[:, 1]), dtype=float)
        out[space.cell_dofs[c]] += det[c] * ((rule.weights * gq) @ vals)
    return out


def evaluate_fe(space, scalar_coeffs, x, y):
    """Point evaluation of a scalar FE field by barycentric cell search."""
    mesh = space.mesh
    for c, tri in enumerate(mesh.triangles):
        v = mesh.vertices[tri]
        mat = np.column_stack([v[1] - v[0], v[2] - v[0]])
        xi, eta = np.linalg.solve(mat, np.array([x, y]) - v[0])
        if xi >= -1e-12 and eta >= -1e-12 and xi + eta <= 1.0 + 1e-12:
            vals, _ = pk.ReferenceElement(space.degree).eval([(xi, eta)])
            return float(vals[0] @ scalar_coeffs[space.cell_dofs[c]])
    raise AssertionError("point (%g, %g) not located in any cell" % (x, y))


@pytest.mark.parametrize("n,deg", [(2, 1), (3, 1), (3, 2)])
def test_mass_row_sums_are_nodal_integrals(n, deg, setup_cache):
    mesh, su, _, ops = setup_cache(n, deg, 1)
    n_scalar = su.n_scalar
    M_scalar = pk.assemble_mass(su, ops.geom)[:n_scalar, :n_scalar]
    row_sums = np.asarray(M_scalar @ np.ones(n_scalar))
    # brute force: P1 basis integrates to area/3 per incident cell, P2
    # vertex functions to 0 and edge functions to area/3
    expect = np.zeros(n_scalar)
    for c in range(mesh.n_triangles):
        area = mesh.areas[c]
        dofs = su.cell_dofs[c]
        if deg == 1:
            expect[dofs] += area / 3.0
        else:
            expect[dofs[3:]] += area / 3.0
    assert np.allclose(row_sums, expect, atol=1e-14)
    assert np.isclose(row_sums.sum(), 1.0)


def test_element_mass_unit_right_triangle():
    mesh = unit_right_triangle_mesh()
    s = pk.build_space(mesh, 1)
    M = pk.assemble_mass(s).toarray()
    area = 0.5
    expect = (area / 12.0) * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    assert np.allclose(M, expect, atol=1e-15)


def test_constant_function_has_unit_mass_norm(setup_cache):
    _, su, sp, ops = setup_cache(3, 2, 1)
    ones_p = np.ones(sp.ndofs)
    assert np.isclose(float(ones_p @ (ops.M_p @ ones_p)), 1.0)
    ones_u = np.ones(su.ndofs)
    # two unit components
    assert np.isclose(float(ones_u @ (pk.assemble_mass(su, ops.geom) @ ones_u)), 2.0)


@pytest.mark.parametrize("deg", [1, 2])
def test_stiffness_kernel_and_energy(deg, setup_cache):
    _, su, _, ops = setup_cache(3, deg, 1)
    n_scalar = su.n_scalar
    A = pk.assemble_stiffness(su, ops.geom)[:n_scalar, :n_scalar]
    const = np.ones(n_scalar)
    assert np.abs(A @ const).max() < 1e-13
    lin = su.dof_points[:, 0].copy()
    assert np.isclose(float(lin @ (A @ lin)), 1.0)
    rng = np.random.default_rng(5)
    for _ in range(5):
        v = rng.standard_normal(n_scalar)
        assert float(v @ (A @ v)) >= -1e-13


def in_space(space, vec):
    out = vec.copy()
    out[~space.free] = 0.0
    return out


@pytest.mark.parametrize("n,deg", [(2, 1), (4, 1), (3, 2)])
def test_convection_skew_and_antisymmetry(n, deg, setup_cache):
    _, su, _, ops = setup_cache(n, deg, 1)
    rng = np.random.default_rng(11)
    M = pk.assemble_mass(su, ops.geom)
    for _ in range(10):
        w = in_space(su, rng.standard_normal(su.ndofs))
        u = in_space(su, rng.standard_normal(su.ndofs))
        v = in_space(su, rng.standard_normal(su.ndofs))
        B = pk.assemble_convection(su, w, ops.geom)
        scale = np.abs(w).max() * float(v @ (M @ v))
        assert abs(float(v @ (B @ v))) <= 1e-12 * scale
        pair_scale = np.abs(w).max() * np.sqrt(
            float(u @ (M @ u)) * float(v @ (M @ v))
        )
        assert abs(float(v @ (B @ u)) + float(u @ (B @ v))) <= 1e-12 * pair_scale


def test_zero_advecting_field_gives_zero_operator(setup_cache):
    _, su, _, ops = setup_cache(3, 2, 1)
    B = pk.assemble_convection(su, np.zeros(su.ndofs), ops.geom)
    assert np.abs(B.toarray()).max() == 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_operators_match_dense_reference(n, setup_cache):
    mesh, su, sp, ops = setup_cache(n, 1, 1)
    dense = DenseScheme(mesh.vertices, mesh.triangles, mesh.boundary_vertex_flags)
    assert np.abs(dense.M2 - pk.assemble_mass(su, ops.geom).toarray()).max() < 1e-14
    assert np.abs(dense.A2 - pk.assemble_stiffness(su, ops.geom).toarray()).max() < 1e-13
    assert np.abs(dense.Ms - ops.M_p.toarray()).max() < 1e-14
    assert np.abs(dense.As - ops.N_p.toarray()).max() < 1e-13
    assert np.abs(dense.D - ops.D.toarray()).max() < 1e-14
    assert np.abs(dense.G - ops.G.toarray()).max() < 1e-14
    rng = np.random.default_rng(n)
    w = in_space(su, rng.standard_normal(su.ndofs))
    assert np.abs(dense.convection(w) - pk.assemble_convection(su, w, ops.geom).toarray()).max() < 1e-13


def test_operator_set_keeps_no_full_velocity_matrix(setup_cache):
    import scipy.sparse as sps

    _, su, _, ops = setup_cache(4, 2, 1)
    full = [
        name
        for name, value in vars(ops).items()
        if sps.issparse(value) and value.shape == (su.ndofs, su.ndofs)
    ]
    assert full == []


def test_operator_set_builds_without_coo(monkeypatch):
    import scipy.sparse as sps

    def refuse(*args, **kwargs):
        raise AssertionError("a COO matrix was built")

    monkeypatch.setattr(sps, "coo_matrix", refuse)
    _, su, sp, ops = build_setup(3, 2, 1)
    assert ops.D.shape == ops.G.shape == (su.ndofs, sp.ndofs)


@pytest.mark.parametrize("n,deg", [(3, 1), (4, 2)])
def test_velocity_inner_products_equal_the_full_products(n, deg, setup_cache):
    # on vectors that vanish at the Dirichlet dofs the free-block products
    # are the full-matrix products bit for bit
    _, su, sp, ops = setup_cache(n, deg, 1)
    M = pk.assemble_mass(su, ops.geom)
    A = pk.assemble_stiffness(su, ops.geom)
    rng = np.random.default_rng(n)
    for _ in range(5):
        v = in_space(su, rng.standard_normal(su.ndofs))
        phi = rng.standard_normal(sp.ndofs)
        assert ops.norm_u_sq(v) == float(v @ (M @ v))
        assert ops.grad_u_sq(v) == float(v @ (A @ v))
        full = v @ (M @ v) + 2.0 * (v @ (ops.G @ phi)) + phi @ (ops.N_p @ phi)
        assert ops.yh_norm_sq(v, phi) == float(full)
        # only the free entries are read
        noisy = v + ~su.free * rng.standard_normal(su.ndofs)
        assert ops.norm_u_sq(noisy) == ops.norm_u_sq(v)
        assert ops.grad_u_sq(noisy) == ops.grad_u_sq(v)


@pytest.mark.parametrize("n,deg", [(3, 1), (4, 2)])
def test_yh_pair_with_u_free_rows_equal_the_full_product(n, deg, setup_cache):
    _, su, sp, ops = setup_cache(n, deg, 1)
    M = pk.assemble_mass(su, ops.geom)
    rng = np.random.default_rng(n)
    base = in_space(su, rng.standard_normal(su.ndofs))
    phi = rng.standard_normal(sp.ndofs)
    r = ops.yh_pair_with_u(base, phi)
    assert np.array_equal(r[su.free], (M @ base + ops.G @ phi)[su.free])
    # the mass acts on the free block only: Dirichlet rows hold G phi alone
    assert np.array_equal(r[~su.free], (ops.G @ phi)[~su.free])


def coo_couplings(space_u, space_p, geom):
    # D and G through one COO matrix each, duplicates summed by tocsr.  The
    # entries are put in (row, column) order first, stably, so tocsr sums
    # each entry's duplicates in element order; unsorted, it sorts them
    # itself, unstably, and may round differently
    import scipy.sparse as sps

    phi_u, dphi_u = space_u.ref.eval(geom.rule.points)
    phi_p, dphi_p = space_p.ref.eval(geom.rule.points)
    gphi_u = dphi_u @ geom.inv_j[:, None]
    gphi_p = dphi_p @ geom.inv_j[:, None]
    w = geom.rule.weights
    elem_d = np.einsum("q,qs,cqid,c->cisd", w, phi_p, gphi_u, geom.detJ)
    elem_g = np.einsum("q,qi,cqsd,c->cisd", w, phi_u, gphi_p, geom.detJ)
    cd_u, cd_p = space_u.cell_dofs, space_p.cell_dofs
    rows = np.repeat(cd_u, cd_p.shape[1], axis=1).ravel()
    cols = np.tile(cd_p, (1, cd_u.shape[1])).ravel()
    n = space_u.n_scalar
    shape = (2 * n, space_p.n_scalar)
    out = []
    for elem in (elem_d, elem_g):
        data = np.concatenate([elem[..., c].ravel() for c in range(2)])
        i, j = np.concatenate([rows, rows + n]), np.concatenate([cols, cols])
        order = np.lexsort((j, i))
        out.append(sps.coo_matrix((data[order], (i[order], j[order])), shape=shape).tocsr())
    return out


@pytest.mark.parametrize("n,deg_u,deg_p", [(3, 1, 1), (4, 2, 1), (3, 2, 2)])
def test_couplings_equal_the_coo_reference(n, deg_u, deg_p, setup_cache):
    _, su, sp, ops = setup_cache(n, deg_u, deg_p)
    for built, ref in zip((ops.D, ops.G), coo_couplings(su, sp, ops.geom)):
        # entry for entry, explicit zeros included
        assert built.shape == ref.shape
        assert np.array_equal(built.indptr, ref.indptr)
        assert np.array_equal(built.indices, ref.indices)
        assert np.array_equal(built.data, ref.data)


@pytest.mark.parametrize("n,deg_u,deg_p", [(2, 1, 1), (3, 2, 1), (3, 2, 2)])
def test_coupling_operators(n, deg_u, deg_p, setup_cache):
    _, su, sp, ops = setup_cache(n, deg_u, deg_p)
    # gradient of the constant pressure function vanishes
    assert np.abs(ops.G @ np.ones(sp.ndofs)).max() < 1e-13
    # integration by parts with boundary-zero velocities: D = -G on free rows
    assert ops.coupling_gap() <= 1e-13


def test_coupling_gap_stays_sparse(setup_cache, monkeypatch):
    # a dense (free rows x pressure dofs) copy would take 1.1 GB at n=64 P2/P1
    import scipy.sparse as sps

    _, su, sp, ops = setup_cache(32, 2, 1)
    expect = abs((ops.D + ops.G).tocsr()[su.free]).max()

    def refuse(self, *args, **kwargs):
        raise AssertionError("coupling_gap densified a sparse matrix")

    for cls in (sps.csr_matrix, sps.csc_matrix, sps.coo_matrix):
        monkeypatch.setattr(cls, "toarray", refuse)
        monkeypatch.setattr(cls, "todense", refuse)
    assert ops.coupling_gap() == expect


@pytest.mark.parametrize("n,deg", [(3, 1), (4, 2)])
def test_free_blocks_equal_the_sliced_operators(n, deg, setup_cache):
    _, su, _, ops = setup_cache(n, deg, 1)
    ns = su.n_scalar
    free = su.free[:ns]
    rng = np.random.default_rng(n)
    w = in_space(su, rng.standard_normal(su.ndofs))
    pairs = [
        (ops.M_free, pk.assemble_mass(su, ops.geom)[:ns, :ns][free][:, free]),
        (ops.A_free, pk.assemble_stiffness(su, ops.geom)[:ns, :ns][free][:, free]),
        (ops.free_convection(w), pk.assemble_convection(su, w, ops.geom)[:ns, :ns][free][:, free]),
    ]
    for block, sliced in pairs:
        # entry for entry, in the same CSR order
        assert block.shape == sliced.shape
        assert np.array_equal(block.indptr, sliced.indptr)
        assert np.array_equal(block.indices, sliced.indices)
        assert np.array_equal(block.data, sliced.data)
        assert block.indices.dtype == np.int32 and block.indptr.dtype == np.int32


def test_weak_divergence_functional_matches_dense_reference(setup_cache):
    mesh, su, sp, ops = setup_cache(3, 1, 1)
    dense = DenseScheme(mesh.vertices, mesh.triangles, mesh.boundary_vertex_flags)
    u = su.interpolate(lambda x, y: (y, 0.0 * x))
    got = ops.G.T @ u
    expect = dense.G.T @ u
    rng = np.random.default_rng(3)
    for q in rng.integers(0, sp.ndofs, size=10):
        assert abs(got[q] - expect[q]) < 1e-14
    assert np.abs((ops.D.T @ u) - (dense.D.T @ u)).max() < 1e-14


def test_load_zero_forcing(setup_cache):
    _, su, _, ops = setup_cache(2, 1, 1)
    F, fsq = ops.load(lambda t, x, y: (0.0 * x, 0.0 * y), 0.0, 0.1)
    assert np.abs(F).max() == 0.0
    assert fsq == 0.0


def test_load_constant_in_time_is_window_independent(setup_cache):
    _, su, _, ops = setup_cache(3, 2, 1)

    def f(t, x, y):
        return (x * (x + y), y * y)

    Fa, qa = ops.load(f, 0.0, 0.1)
    Fb, qb = ops.load(f, 0.35, 0.45)
    assert np.allclose(Fa, Fb, atol=1e-15)
    assert np.isclose(qa, qb)


def test_load_window_clipped_at_cutoff(setup_cache):
    _, su, _, ops = setup_cache(3, 2, 1)

    def f(t, x, y):
        return (2.0 + 0.0 * x, -1.0 + 0.0 * y)

    F_ref, q_ref = ops.load(f, 0.0, 0.1)
    # half the window reaches past the cutoff: the average scales by
    # (cutoff - t_lo) / (t_hi - t_lo) = 1/2, its square by 1/4
    F_clip, q_clip = ops.load(f, 0.95, 1.05, cutoff=1.0)
    assert np.allclose(F_clip, 0.5 * F_ref, rtol=1e-13, atol=1e-16)
    assert np.isclose(q_clip, 0.25 * q_ref, rtol=1e-13)
    # a window entirely beyond the cutoff contributes nothing
    F_gone, q_gone = ops.load(f, 1.0, 1.1, cutoff=1.0)
    assert np.abs(F_gone).max() == 0.0
    assert q_gone == 0.0


def test_gradient_transport_exact_on_skewed_cell():
    verts = np.array([[0.0, 0.0], [2.0, 0.3], [0.4, 1.7]])
    mesh = pk.Mesh(verts, [[0, 1, 2]], boundary_vertex_flags=[True] * 3)
    s1 = pk.build_space(mesh, 1)
    geom = CellGeometry(mesh, pk.quad_rule(2))
    coeffs = s1.interpolate(lambda x, y: 3.0 * x - 2.0 * y + 1.0)
    g = eval_grad_at_quad(s1, geom, coeffs)
    assert np.allclose(g[..., 0], 3.0, atol=1e-13)
    assert np.allclose(g[..., 1], -2.0, atol=1e-13)
    # the Dirichlet energy of the affine function is |grad|^2 * area
    A = pk.assemble_stiffness(s1)
    area = 0.5 * (2.0 * 1.7 - 0.3 * 0.4)
    assert np.isclose(float(coeffs @ (A @ coeffs)), 13.0 * area)

    s2 = pk.build_space(mesh, 2)
    geom2 = CellGeometry(mesh, pk.quad_rule(4))
    c2 = s2.interpolate(lambda x, y: x * x + x * y)
    g2 = eval_grad_at_quad(s2, geom2, c2)
    # reconstruct physical quad points from the cell map
    ref = pk.quad_rule(4).points
    xq = verts[0] + np.outer(ref[:, 0], verts[1] - verts[0]) + np.outer(
        ref[:, 1], verts[2] - verts[0]
    )
    assert np.allclose(g2[0, :, 0], 2.0 * xq[:, 0] + xq[:, 1], atol=1e-12)
    assert np.allclose(g2[0, :, 1], xq[:, 0], atol=1e-12)


def test_projection_idempotent_on_space_members(setup_cache):
    _, su, _, ops = setup_cache(2, 2, 1)
    rng = np.random.default_rng(17)
    coeffs = in_space(su, rng.standard_normal(su.ndofs))
    c0 = su.component(coeffs, 0)
    c1 = su.component(coeffs, 1)

    def g(x, y):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        flat = [
            (evaluate_fe(su, c0, xi, yi), evaluate_fe(su, c1, xi, yi))
            for xi, yi in zip(xs.ravel(), ys.ravel())
        ]
        arr = np.array(flat)
        return arr[:, 0].reshape(xs.shape), arr[:, 1].reshape(ys.shape)

    back = pk.project_L2_onto_Uh(su, g, ops)
    assert np.abs(back - coeffs).max() < 1e-12


def test_projection_orthogonality_and_norm_bound(setup_cache):
    _, su, _, ops = setup_cache(4, 2, 1)

    def g1(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    def g(x, y):
        return (g1(x, y), 0.0 * x)

    coeffs = pk.project_L2_onto_Uh(su, g, ops)
    # defining property: (g - Pg, phi_i) = 0 for every free basis function,
    # with the load side integrated by the projection's own rule
    rule = pk.quad_rule(6)
    rhs = np.concatenate(
        [scalar_loads(su, g1, rule), np.zeros(su.n_scalar)]
    )
    M = pk.assemble_mass(su, ops.geom)
    gap = rhs - M @ coeffs
    scale = max(1.0, np.abs(rhs).max())
    assert np.abs(gap[su.free]).max() <= 1e-11 * scale
    # stability: the projection does not increase the L2 norm (here 1/2)
    norm = np.sqrt(float(coeffs @ (M @ coeffs)))
    assert norm <= 0.5
    assert norm > 0.45


def perturbed_mesh(n, seed):
    """Structured mesh with every interior vertex moved by up to 0.15 h in
    each coordinate, so no two cells share a Jacobian."""
    mesh = pk.generate_structured_unit_square(n)
    rng = np.random.default_rng(seed)
    v = mesh.vertices.copy()
    interior = ~mesh.boundary_vertex_flags
    v[interior] += rng.uniform(-0.15, 0.15, (int(interior.sum()), 2)) / n
    return pk.Mesh(v, mesh.triangles)


def convection_by_quadrature(space, w, rule):
    """Dense scalar convection block, integrated point by point with the
    pushed-forward basis gradients and added cell by cell: an arithmetic
    path independent of the reference tensor and the COO -> CSR slot map."""
    geom = CellGeometry(space.mesh, rule)
    phi, dphi = space.ref.eval(rule.points)
    grads = dphi @ geom.inv_j[:, None]  # (cell, point, basis, d)
    w_cd = np.stack([space.component(w, d)[space.cell_dofs] for d in range(2)], -1)
    w_q = phi @ w_cd
    div_w = np.einsum("cqkd,ckd->cq", grads, w_cd)
    elem = np.einsum("q,qi,cqd,cqjd,c->cij", rule.weights, phi, w_q, grads, geom.detJ)
    elem += 0.5 * np.einsum("q,cq,qi,qj,c->cij", rule.weights, div_w, phi, phi, geom.detJ)
    out = np.zeros((space.n_scalar, space.n_scalar))
    for dofs, block in zip(space.cell_dofs, elem):
        out[np.ix_(dofs, dofs)] += block
    return out


@pytest.mark.parametrize("deg", [1, 2])
def test_reference_tensor_convection_on_a_perturbed_mesh(deg):
    su = pk.build_space(perturbed_mesh(6, deg), deg, components=2, homogeneous_dirichlet=True)
    sp = pk.build_space(su.mesh, 1, components=1, zero_mean=True)
    ops = pk.OperatorSet(su, sp)
    free = su.free[: su.n_scalar]
    rng = np.random.default_rng(deg)
    M = ops.M_free
    for _ in range(5):
        w = in_space(su, rng.standard_normal(su.ndofs))
        B = ops.free_convection(w)
        expect = convection_by_quadrature(su, w, ops.geom.rule)[free][:, free]
        assert np.abs(B.toarray() - expect).max() <= 1e-14 * np.abs(expect).max()
        # the form pairs a field with itself to zero
        v = rng.standard_normal(M.shape[0])
        assert abs(float(v @ (B @ v))) <= 1e-14 * np.abs(w).max() * float(v @ (M @ v))
