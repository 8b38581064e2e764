"""Operator assembly against independent dense references and closed forms."""

import numpy as np
import pytest

import ipcs2d as pk
from ipcs2d import assembly, linsolve
from ipcs2d.assembly import (
    CellGeometry,
    _coupling_elems,
    _mass_elem,
    _stiffness_elem,
    eval_grad_at_quad,
)

from conftest import build_setup
from oracles import (
    DenseScheme,
    block_ordered_product,
    coo_sum,
    divergence_coupling,
    free_block,
    full_convection,
    full_space_matrix,
    full_velocity_matrices,
)


def unit_right_triangle_mesh():
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    return pk.Mesh(verts, [[0, 1, 2]])


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
    M_scalar = full_velocity_matrices(ops)[0][:n_scalar, :n_scalar]
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
    M = full_space_matrix(s, _mass_elem(s, CellGeometry(mesh, pk.quad_rule(2)))).toarray()
    area = 0.5
    expect = (area / 12.0) * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    assert np.allclose(M, expect, atol=1e-15)


def test_constant_function_has_unit_mass_norm(setup_cache):
    _, su, sp, ops = setup_cache(3, 2, 1)
    ones_p = np.ones(sp.ndofs)
    assert np.isclose(float(ones_p @ (ops.M_p @ ones_p)), 1.0)
    ones_u = np.ones(su.ndofs)
    # two unit components
    assert np.isclose(float(ones_u @ (full_velocity_matrices(ops)[0] @ ones_u)), 2.0)


@pytest.mark.parametrize("deg", [1, 2])
def test_stiffness_kernel_and_energy(deg, setup_cache):
    _, su, _, ops = setup_cache(3, deg, 1)
    n_scalar = su.n_scalar
    A = full_velocity_matrices(ops)[1][:n_scalar, :n_scalar]
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
    M = full_velocity_matrices(ops)[0]
    for _ in range(10):
        w = in_space(su, rng.standard_normal(su.ndofs))
        u = in_space(su, rng.standard_normal(su.ndofs))
        v = in_space(su, rng.standard_normal(su.ndofs))
        B = full_convection(ops, w)
        scale = np.abs(w).max() * float(v @ (M @ v))
        assert abs(float(v @ (B @ v))) <= 1e-12 * scale
        pair_scale = np.abs(w).max() * np.sqrt(
            float(u @ (M @ u)) * float(v @ (M @ v))
        )
        assert abs(float(v @ (B @ u)) + float(u @ (B @ v))) <= 1e-12 * pair_scale


def test_zero_advecting_field_gives_zero_operator(setup_cache):
    _, su, _, ops = setup_cache(3, 2, 1)
    B = full_convection(ops, np.zeros(su.ndofs))
    assert np.abs(B.toarray()).max() == 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_operators_match_dense_reference(n, setup_cache):
    mesh, su, sp, ops = setup_cache(n, 1, 1)
    dense = DenseScheme(mesh.vertices, mesh.triangles, mesh.boundary_vertex_flags)
    M, A = full_velocity_matrices(ops)
    assert np.abs(dense.M2 - M.toarray()).max() < 1e-14
    assert np.abs(dense.A2 - A.toarray()).max() < 1e-13
    assert np.abs(dense.Ms - ops.M_p.toarray()).max() < 1e-14
    assert np.abs(dense.As - ops.N_p.toarray()).max() < 1e-13
    assert np.abs(dense.G - ops.G.toarray()).max() < 1e-14
    # the set keeps no D: on the free rows the dense D is -G
    assert not hasattr(ops, "D")
    free = su.free
    assert np.abs(dense.D[free] + ops.G.toarray()[free]).max() < 1e-14
    rng = np.random.default_rng(n)
    w = in_space(su, rng.standard_normal(su.ndofs))
    assert np.abs(dense.convection(w) - full_convection(ops, w).toarray()).max() < 1e-13


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
    assert ops.G.shape == (su.ndofs, sp.ndofs)


@pytest.mark.parametrize("n,deg", [(3, 1), (4, 2)])
def test_velocity_inner_products_equal_the_full_products(n, deg, setup_cache):
    # on vectors that vanish at the Dirichlet dofs the free-block products
    # are the full-matrix products bit for bit, each row summed in block order,
    # each inner product taken as the documented reduction np.sum(a * b)
    _, su, sp, ops = setup_cache(n, deg, 1)
    M, A = full_velocity_matrices(ops)
    rng = np.random.default_rng(n)
    for _ in range(5):
        v = in_space(su, rng.standard_normal(su.ndofs))
        phi = rng.standard_normal(sp.ndofs)
        Mv = block_ordered_product(ops, M, v)
        assert ops.norm_u_sq(v) == float(np.sum(v * Mv))
        assert ops.grad_u_sq(v) == float(np.sum(v * block_ordered_product(ops, A, v)))
        full = np.sum(v * Mv) + 2.0 * np.sum(v * (ops.G @ phi)) + np.sum(phi * (ops.N_p @ phi))
        assert ops.yh_norm_sq(v, phi) == float(full)
        # only the free entries are read
        noisy = v + ~su.free * rng.standard_normal(su.ndofs)
        assert ops.norm_u_sq(noisy) == ops.norm_u_sq(v)
        assert ops.grad_u_sq(noisy) == ops.grad_u_sq(v)


@pytest.mark.parametrize("n,deg", [(3, 1), (4, 2)])
def test_yh_pair_with_u_free_rows_equal_the_full_product(n, deg, setup_cache):
    _, su, sp, ops = setup_cache(n, deg, 1)
    M = full_velocity_matrices(ops)[0]
    rng = np.random.default_rng(n)
    base = in_space(su, rng.standard_normal(su.ndofs))
    phi = rng.standard_normal(sp.ndofs)
    r = ops.yh_pair_with_u(base, phi)
    expect = block_ordered_product(ops, M, base) + ops.G @ phi
    assert np.array_equal(r[su.free], expect[su.free])
    # the mass acts on the free block only: Dirichlet rows hold G phi alone
    assert np.array_equal(r[~su.free], (ops.G @ phi)[~su.free])


def coo_coupling(space_u, space_p, geom):
    # G from the package's element matrices, one COO-summed block per
    # velocity component, stacked
    import scipy.sparse as sps

    shape = (space_u.n_scalar, space_p.n_scalar)
    elem = _coupling_elems(space_u, space_p, geom)
    return sps.vstack(
        [coo_sum(space_u.cell_dofs, space_p.cell_dofs, elem[..., c], shape) for c in range(2)],
        format="csr",
    )


@pytest.mark.parametrize("n,deg_u,deg_p", [(3, 1, 1), (4, 2, 1), (3, 2, 2)])
def test_couplings_equal_the_coo_reference(n, deg_u, deg_p, setup_cache):
    _, su, sp, ops = setup_cache(n, deg_u, deg_p)
    built, ref = ops.G, coo_coupling(su, sp, ops.geom)
    # entry for entry, explicit zeros included
    assert built.shape == ref.shape
    assert np.array_equal(built.indptr, ref.indptr)
    assert np.array_equal(built.indices, ref.indices)
    assert np.array_equal(built.data, ref.data)


def coupling_gap(ops, D):
    """max |D + G| over rows of interior velocity dofs, D the reference
    divergence coupling (identically zero up to rounding for conforming
    assembly)."""
    diff = (D + ops.G).tocsr()[ops.space_u.free]
    return float(np.abs(diff.data).max()) if diff.nnz else 0.0


@pytest.mark.parametrize("n,deg_u,deg_p", [(2, 1, 1), (3, 2, 1), (3, 2, 2)])
def test_coupling_operators(n, deg_u, deg_p, setup_cache):
    _, su, sp, ops = setup_cache(n, deg_u, deg_p)
    # gradient of the constant pressure function vanishes
    assert np.abs(ops.G @ np.ones(sp.ndofs)).max() < 1e-13
    # integration by parts with boundary-zero velocities: D = -G on free rows
    assert coupling_gap(ops, divergence_coupling(ops)) <= 1e-13


def test_coupling_gap_stays_sparse(setup_cache, monkeypatch):
    # a dense (free rows x pressure dofs) copy would take 1.1 GB at n=64 P2/P1
    import scipy.sparse as sps

    _, su, sp, ops = setup_cache(32, 2, 1)
    D = divergence_coupling(ops)
    expect = abs((D + ops.G).tocsr()[su.free]).max()

    def refuse(self, *args, **kwargs):
        raise AssertionError("coupling_gap densified a sparse matrix")

    for cls in (sps.csr_matrix, sps.csc_matrix, sps.coo_matrix):
        monkeypatch.setattr(cls, "toarray", refuse)
        monkeypatch.setattr(cls, "todense", refuse)
    assert coupling_gap(ops, D) == expect


@pytest.mark.parametrize("n,deg", [(3, 1), (4, 2)])
def test_free_blocks_equal_the_sliced_operators(n, deg, setup_cache):
    _, su, _, ops = setup_cache(n, deg, 1)
    ns = su.n_scalar
    free = su.free[:ns]
    rng = np.random.default_rng(n)
    w = in_space(su, rng.standard_normal(su.ndofs))
    M, A = full_velocity_matrices(ops)
    # the block is numbered in the reverse Cuthill-McKee order of its own
    # pattern in the natural numbering
    order = ops.scatter_free.order
    assert np.array_equal(order, linsolve.rcm_order(M[:ns, :ns][free][:, free]))
    assert np.array_equal(ops._free_index[0], np.flatnonzero(free)[order])
    # free values come one contiguous column per component, and back
    x = ops.free_values(w)
    assert x.flags.f_contiguous and np.array_equal(x[:, 1], w[ops._free_index[1]])
    assert np.array_equal(ops.from_free(x), w)
    pairs = [
        (ops.M_free, free_block(ops, M)),
        (ops.A_free, free_block(ops, A)),
        (ops.free_convection(w), free_block(ops, full_convection(ops, w))),
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
    # u vanishes on the boundary, so -G^T u is its divergence
    assert np.abs((-ops.G.T @ u) - (dense.D.T @ u)).max() < 1e-14


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
    mesh = pk.Mesh(verts, [[0, 1, 2]])
    s1 = pk.build_space(mesh, 1)
    geom = CellGeometry(mesh, pk.quad_rule(2))
    coeffs = s1.interpolate(lambda x, y: 3.0 * x - 2.0 * y + 1.0)
    g = eval_grad_at_quad(s1, geom, coeffs)
    assert np.allclose(g[..., 0], 3.0, atol=1e-13)
    assert np.allclose(g[..., 1], -2.0, atol=1e-13)
    # the Dirichlet energy of the affine function is |grad|^2 * area
    A = full_space_matrix(s1, _stiffness_elem(s1, geom))
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


def test_cell_geometry_shares_the_mesh_affine_map():
    mesh = pk.generate_structured_unit_square(3)
    geom = CellGeometry(mesh, pk.quad_rule(4))
    assert geom.detJ is mesh.detJ and geom.inv_j is mesh.inv_j and geom.adj is mesh.adj
    assert not geom.phys.flags.writeable


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
    M = full_velocity_matrices(ops)[0]
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


@pytest.mark.parametrize(
    "case", ["jittered-pressure-mesh", "other-size-pressure-mesh", "one-component-velocity",
             "two-component-pressure", "no-velocity-boundary-condition",
             "pressure-without-zero-mean"],
)
def test_operator_set_rejects_spaces_it_cannot_serve(case):
    mesh = pk.generate_structured_unit_square(4)
    su = pk.build_space(mesh, 2, components=2, homogeneous_dirichlet=True)
    sp = pk.build_space(mesh, 1, components=1, zero_mean=True)
    one_mesh = "the velocity and pressure spaces must share one mesh"
    if case == "jittered-pressure-mesh":  # same connectivity, moved vertices
        sp, match = pk.build_space(perturbed_mesh(4, 0), 1, zero_mean=True), one_mesh
    elif case == "other-size-pressure-mesh":
        sp, match = pk.build_space(pk.generate_structured_unit_square(3), 1, zero_mean=True), one_mesh
    elif case == "one-component-velocity":
        su = pk.build_space(mesh, 2, components=1, homogeneous_dirichlet=True)
        match = "two-component velocity space .* got 1 and 1 components"
    elif case == "two-component-pressure":
        sp = pk.build_space(mesh, 1, components=2, zero_mean=True)
        match = "scalar pressure space, got 2 and 2 components"
    elif case == "no-velocity-boundary-condition":
        su, match = pk.build_space(mesh, 2, components=2), "must vanish on the boundary"
    else:
        sp, match = pk.build_space(mesh, 1, components=1), r"modulo constants \(zero_mean=True\)"
    with pytest.raises(ValueError, match=match):
        pk.OperatorSet(su, sp)


def load_by_einsum(space_u, geom, vals):
    """(vals, phi_i) for every velocity basis function, and the squared
    quadrature norm of vals: the einsum contraction and np.add.at scatter
    that _LoadForm replaces."""
    phi, _ = space_u.ref.eval(geom.rule.points)
    elem = np.einsum("q,cqd,qi,c->cid", geom.rule.weights, vals, phi, geom.detJ, optimize=True)
    out = np.zeros(2 * space_u.n_scalar)
    for c in range(2):
        np.add.at(space_u.component(out, c), space_u.cell_dofs.ravel(), elem[..., c].ravel())
    norm_sq = float(np.einsum("q,cqd,cqd,c->", geom.rule.weights, vals, vals, geom.detJ, optimize=True))
    return out, norm_sq


@pytest.mark.parametrize("deg_u", [1, 2])
def test_load_matches_the_einsum_reference(deg_u):
    su = pk.build_space(perturbed_mesh(6, deg_u), deg_u, components=2, homogeneous_dirichlet=True)
    sp = pk.build_space(su.mesh, 1, components=1, zero_mean=True)
    ops = pk.OperatorSet(su, sp)
    case = pk.stream_vortex_case(mu=0.5)
    x, y = ops.geom.phys[..., 0], ops.geom.phys[..., 1]
    for t_lo in (0.0, 0.35):
        nodes, coeffs = assembly._time_average_weights(t_lo, t_lo + 0.1, None)
        fbar = sum(ck * np.stack(case.f(tk, x, y), axis=-1) for tk, ck in zip(nodes, coeffs))
        F_ref, q_ref = load_by_einsum(su, ops.geom, fbar)
        F, q = ops.load(case.f, t_lo, t_lo + 0.1)
        assert np.abs(F - F_ref).max() <= 1e-15 * np.abs(F_ref).max()
        assert abs(q - q_ref) <= 1e-14 * q_ref


def test_load_reads_no_signature_and_names_the_first_bad_node(setup_cache, monkeypatch):
    _, _, _, ops = setup_cache(2, 1, 1)
    binds = []
    signature = assembly.inspect.signature
    monkeypatch.setattr(assembly.inspect, "signature", lambda fn: binds.append(fn) or signature(fn))

    def f(t, x, y):
        return (x, y)

    for m in range(3):
        ops.load(f, 0.1 * m, 0.1 * m + 0.1)
    assert binds == []
    # a callable that is not finite only on its first call fails at its
    # first node, named at its time, without being called again
    calls = []

    def flaky(t, x, y):
        calls.append(t)
        return (np.full_like(x, np.nan if len(calls) == 1 else 1.0), y)

    with pytest.raises(ValueError, match="got non-finite values") as excinfo:
        ops.load(flaky, 0.0, 0.1)
    assert len(calls) == 1
    assert "f(t, x, y) at t=%r must" % float(calls[0]) in str(excinfo.value)


@pytest.mark.parametrize("deg", [1, 2])
def test_mass_bounds_are_the_element_spectrum(deg):
    # Wathen's bounds: the extreme eigenvalues of diag(M_e)^-1 M_e
    rule = pk.quad_rule(2 * deg)
    phi, _ = pk.ReferenceElement(deg).eval(rule.points)
    T = np.einsum("q,qi,qj->ij", rule.weights, phi, phi)
    d = np.sqrt(np.diag(T))
    eig = np.linalg.eigvalsh(T / np.outer(d, d))
    lo, hi = linsolve.MASS_SPECTRUM[deg]
    assert abs(eig[0] - lo) <= 1e-12 and abs(eig[-1] - hi) <= 1e-12
    # they enclose the spectrum of the free block on a jittered mesh
    su = pk.build_space(perturbed_mesh(4, deg), deg, components=2, homogeneous_dirichlet=True)
    ops = pk.OperatorSet(su, pk.build_space(su.mesh, 1, components=1, zero_mean=True))
    M = ops.M_free.toarray()
    d = np.sqrt(np.diag(M))
    eig = np.linalg.eigvalsh(M / np.outer(d, d))
    assert lo - 1e-12 <= eig[0] and eig[-1] <= hi + 1e-12


@pytest.mark.parametrize("deg", [1, 2])
@pytest.mark.parametrize("jitter", [False, True])
def test_projection_matches_a_dense_mass_solve(deg, jitter, monkeypatch):
    mesh = perturbed_mesh(6, deg) if jitter else pk.generate_structured_unit_square(6)
    su = pk.build_space(mesh, deg, components=2, homogeneous_dirichlet=True)
    ops = pk.OperatorSet(su, pk.build_space(mesh, 1, components=1, zero_mean=True))
    factors = []
    monkeypatch.setattr(linsolve, "_factor", lambda *args: factors.append(args))
    g = pk.stream_vortex_case(mu=1.0).u0
    got = pk.project_L2_onto_Uh(su, g, ops)
    assert factors == []
    geom = CellGeometry(mesh, pk.quad_rule(6))
    rhs, _ = load_by_einsum(su, geom, np.stack(g(geom.phys[..., 0], geom.phys[..., 1]), axis=-1))
    n = su.n_scalar
    free = su.free[:n]
    # the dense solve in the natural numbering of the free dofs
    M = full_velocity_matrices(ops)[0][:n, :n][free][:, free].toarray()
    expect = np.zeros((2, n))
    expect[:, free] = np.linalg.solve(M, rhs.reshape(2, n)[:, free].T).T
    assert np.abs(got - expect.ravel()).max() <= 1e-13 * np.abs(expect).max()


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
    index = ops._free_index[0]
    rng = np.random.default_rng(deg)
    M = ops.M_free
    for _ in range(5):
        w = in_space(su, rng.standard_normal(su.ndofs))
        B = ops.free_convection(w)
        # the free block, rows and columns in block order
        expect = convection_by_quadrature(su, w, ops.geom.rule)[np.ix_(index, index)]
        assert np.abs(B.toarray() - expect).max() <= 1e-14 * np.abs(expect).max()
        # the form pairs a field with itself to zero
        v = rng.standard_normal(M.shape[0])
        assert abs(float(v @ (B @ v))) <= 1e-14 * np.abs(w).max() * float(v @ (M @ v))


def element_matrices_by_quadrature(space_u, space_p, geom):
    """Element mass and stiffness matrices of both spaces and the coupling
    element matrices, integrated point by point with the pushed-forward
    basis gradients: the arithmetic the reference tensors replace."""
    w = geom.rule.weights
    out, phi, gphi = {}, {}, {}
    for name, space in (("u", space_u), ("p", space_p)):
        phi[name], dphi = space.ref.eval(geom.rule.points)
        gphi[name] = dphi @ geom.inv_j[:, None]
        out["mass_" + name] = np.einsum("q,qi,qj,c->cij", w, phi[name], phi[name], geom.detJ)
        out["stiffness_" + name] = np.einsum(
            "q,cqid,cqjd,c->cij", w, gphi[name], gphi[name], geom.detJ
        )
    out["G"] = np.einsum("q,qi,cqsd,c->cisd", w, phi["u"], gphi["p"], geom.detJ)
    return out


@pytest.mark.parametrize("deg_u,deg_p", [(1, 1), (2, 1), (2, 2)])
@pytest.mark.parametrize("jitter", [False, True])
def test_reference_tensor_elements_match_pointwise_quadrature(deg_u, deg_p, jitter):
    mesh = perturbed_mesh(5, deg_u + deg_p) if jitter else pk.generate_structured_unit_square(5)
    su = pk.build_space(mesh, deg_u, components=2, homogeneous_dirichlet=True)
    sp = pk.build_space(mesh, deg_p, components=1, zero_mean=True)
    geom = CellGeometry(mesh, assembly.assembly_rule(deg_u, deg_p))
    expect = element_matrices_by_quadrature(su, sp, geom)
    got = {
        "mass_u": _mass_elem(su, geom),
        "mass_p": _mass_elem(sp, geom),
        "stiffness_u": _stiffness_elem(su, geom),
        "stiffness_p": _stiffness_elem(sp, geom),
        "G": _coupling_elems(su, sp, geom),
    }
    for name, elem in got.items():
        ref = expect[name]
        assert elem.shape == ref.shape, name
        assert np.abs(elem - ref).max() <= 2e-15 * np.abs(ref).max(), name
    for name in ("mass_u", "mass_p", "stiffness_u", "stiffness_p"):
        # the symmetric forms are symmetric bit for bit
        assert np.array_equal(got[name], got[name].transpose(0, 2, 1)), name


def test_operator_set_pushes_no_gradient_to_the_rule_points(monkeypatch):
    # every constant form comes from a reference tensor, so building the
    # set evaluates no gradient at the rule points of its cells
    calls = []
    eval_grad = assembly.eval_grad_at_quad

    def counted(*args):
        calls.append(args)
        return eval_grad(*args)

    monkeypatch.setattr(assembly, "eval_grad_at_quad", counted)
    mesh = perturbed_mesh(3, 0)
    su = pk.build_space(mesh, 2, components=2, homogeneous_dirichlet=True)
    sp = pk.build_space(mesh, 1, components=1, zero_mean=True)
    pk.OperatorSet(su, sp)
    assert calls == []


def test_dense_products_run_in_one_thread_blocks_with_the_bits_of_one_product(monkeypatch):
    # every dense product of a run and of its error norms goes through
    # assembly._row_products in blocks that OpenBLAS keeps on the calling
    # thread; the blocks give the bits of one whole-mesh product, scattered
    # by one np.bincount
    calls = []
    row_products = assembly._row_products

    def recorded(a, b):
        call = {"a": a, "b": b, "shapes": []}
        calls.append(call)
        for start, stop, block in row_products(a, b):
            call["shapes"].append((block.shape[0], b.shape[0], block.shape[1]))
            yield start, stop, block

    monkeypatch.setattr(assembly, "_row_products", recorded)
    case = pk.stream_vortex_case(mu=1.0)
    cfg = pk.SchemeConfig(
        dt=0.01, T=0.04, mu=1.0, mesh_n=40, degree_u=2, degree_p=1,
        u0=case.u0, f=case.f, case_name=case.name,
    )
    traj = pk.run(cfg)
    pk.error_norms(traj, case)
    ops = traj.ops
    products = [m * k * n for call in calls for m, k, n in call["shapes"]]
    assert len(calls) >= 3 * 4 and max(products) <= assembly.GEMM_ONE_THREAD == 2**18
    convection = [call for call in calls if call["b"] is ops._conv_tensor]
    assert len(convection) == 4 and all(len(call["shapes"]) > 1 for call in convection)

    def one_shot(a, b):
        return a.reshape(-1, b.shape[0]) @ b

    # convection: one product, one bincount over the slots of every entry
    calls.clear()
    B = ops.free_convection(traj.final.utilde)
    (call,) = calls
    scatter = ops.scatter_free
    data = np.bincount(
        scatter.slot.ravel(), one_shot(call["a"], call["b"]).ravel(), scatter.nnz + 1
    )[: scatter.nnz]
    assert np.array_equal(B.data, data)

    # load of the averaged forcing
    calls.clear()
    F, _ = ops.load(case.f, 0.005, 0.015)
    (call,) = calls
    form = ops._load_form
    expect = np.bincount(form.slot.ravel(), one_shot(call["a"], call["b"]).ravel(), form.size)
    assert np.array_equal(F, expect)

    # gradients of a vector and a scalar field at the error rule's points
    geom = CellGeometry(ops.space_u.mesh, pk.quad_rule(4))
    for space, coeffs in [(ops.space_u, traj.final.utilde), (ops.space_p, traj.final.p)]:
        calls.clear()
        grad = eval_grad_at_quad(space, geom, coeffs)
        (call,) = calls
        nq = geom.rule.weights.size
        ref = one_shot(call["a"], call["b"]).reshape(len(geom.detJ), -1, nq, 2)
        inv_j = geom.inv_j[:, None, None]
        expect = np.empty(ref.shape)
        for d in (0, 1):
            expect[..., d] = ref[..., 0] * inv_j[..., 0, d] + ref[..., 1] * inv_j[..., 1, d]
        expect = np.moveaxis(expect, 1, 2)
        assert np.array_equal(grad, expect if space.components == 2 else expect[:, :, 0])
