"""Linear solver contracts: exactness on known systems, error reporting."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

import ipcs2d as pk
from ipcs2d import LinearSolveError, assembly, linsolve
from ipcs2d.linsolve import STALE_SWEEPS, MomentumFactor, factor_poisson, solve_momentum, solve_spd

from oracles import DenseScheme, full_convection, full_velocity_matrices


def test_identity_system_returns_rhs():
    rng = np.random.default_rng(0)
    b = rng.standard_normal(40)
    x = solve_spd(sp.identity(40, format="csr"), b)
    assert np.allclose(x, b, atol=1e-12)


def test_zero_rhs_returns_zero():
    A = sp.identity(12, format="csr")
    assert np.abs(solve_spd(A, np.zeros(12))).max() == 0.0
    assert np.abs(solve_momentum(A, np.zeros(12))).max() == 0.0


def test_pressure_poisson_matches_dense_kkt(setup_cache):
    mesh, _, spp, ops = setup_cache(4, 1, 1)
    dense = DenseScheme(mesh.vertices, mesh.triangles, mesh.boundary_vertex_flags)
    c = spp.interpolate(lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
    b = ops.N_p @ c  # compatible right side by construction
    # conjugate gradients, and the operator set's factored solve
    for x in (solve_spd(ops.N_p, b, zero_mean=True, mass=ops.M_p), ops.solve_poisson(b)):
        x_dense = dense.poisson_zero_mean(b)
        assert np.abs(x - x_dense).max() < 1e-10
        # both equal c shifted to mass-weighted zero mean
        w = ops.M_p @ np.ones(spp.ndofs)
        c_shift = c - float(w @ c) / float(w.sum())
        assert np.abs(x - c_shift).max() < 1e-10
        assert abs(float(w @ x)) < 1e-12


def test_momentum_solve_on_scaled_mass(setup_cache):
    _, su, _, ops = setup_cache(3, 1, 1)
    dt = 0.05
    free = su.free
    S = (1.5 / dt) * full_velocity_matrices(ops)[0]
    Sff = S.tocsr()[free][:, free]
    rng = np.random.default_rng(1)
    rhs = rng.standard_normal(int(free.sum()))
    x = solve_momentum(Sff, rhs)
    assert np.allclose(x, np.linalg.solve(Sff.toarray(), rhs), atol=1e-11)


def test_random_diagonally_dominant_systems():
    rng = np.random.default_rng(7)
    n = 60
    B = rng.standard_normal((n, n)) * 0.1
    A_sym = sp.csr_matrix(B + B.T + n * np.eye(n))
    b = rng.standard_normal(n)
    assert np.abs(solve_spd(A_sym, b) - np.linalg.solve(A_sym.toarray(), b)).max() < 1e-10
    A_gen = sp.csr_matrix(B + n * np.eye(n))
    x0 = rng.standard_normal(n)
    assert np.abs(solve_momentum(A_gen, A_gen @ x0) - x0).max() < 1e-10


def test_momentum_columns_share_one_factorization():
    rng = np.random.default_rng(3)
    n = 60
    A = sp.csr_matrix(rng.standard_normal((n, n)) * 0.1 + n * np.eye(n))
    B = rng.standard_normal((n, 2))
    X = solve_momentum(A, B)
    for k in range(2):
        x = solve_momentum(A, B[:, k])
        assert np.abs(X[:, k] - x).max() <= 1e-14 * np.abs(x).max()


def test_two_column_failure_reports_stacked_residual(monkeypatch):
    class HalfStep:
        # a deliberately poor factorization of diag(2, 4): r / 4 is exact
        # for the second unknown and halves the residual of the first
        def solve(self, r):
            return r / 4.0

    # solve_momentum looks splu up at call time
    monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda *args, **kwargs: HalfStep())
    errors = []
    for A, b in (
        (sp.diags([2.0, 4.0]).tocsr(), np.eye(2)),
        (sp.diags([2.0, 4.0, 2.0, 4.0]).tocsr(), np.array([1.0, 0.0, 0.0, 1.0])),
    ):
        with pytest.raises(LinearSolveError, match="stalled") as info:
            solve_momentum(A, b, tol=1e-3)
        errors.append(info.value.residual)
    # first column: residual 1/4 after the solve and one correction, which
    # no more than halves it, so the solve stops short of tol; second
    # column: exact.  Relative to the Frobenius norm sqrt(2) of b
    assert errors[0] == errors[1] == pytest.approx(1.0 / (4.0 * np.sqrt(2.0)), rel=1e-15)


def test_two_column_residual_equals_the_multi_vector_product(setup_cache):
    from ipcs2d.linsolve import _residual

    _, su, _, ops = setup_cache(16, 2, 1)
    rng = np.random.default_rng(3)
    n = ops.M_free.shape[0]
    B = ops.free_convection(rng.standard_normal(su.ndofs))
    S = sp.csr_matrix((150.0 * ops.M_free.data + B.data + ops.A_free.data, B.indices, B.indptr))
    b, x = rng.standard_normal((2, n, 2))
    for A in (ops.M_free, S):
        r = _residual(A, b, x)
        assert np.array_equal(r, b - A @ x)
        # one contiguous column per component, as SuperLU reads them
        assert r.flags.f_contiguous
        assert np.array_equal(_residual(A, b[:, 0], x[:, 0]), b[:, 0] - A @ x[:, 0])


def test_refine_goes_on_past_tol_to_rounding():
    from ipcs2d.linsolve import EPS, _refine

    A = sp.diags([1.0, 2.0, 4.0]).tocsr()
    b = np.ones(3)
    sweeps = []

    def solve(r):
        # cuts the residual 1000-fold per sweep
        sweeps.append(np.linalg.norm(r))
        return (1.0 - 1e-3) * r / A.diagonal()

    x = _refine(solve, A, b, 1e-6, "x", 8)
    # tol is met after two sweeps; the solve sweeps on until the normwise
    # backward error is at rounding level
    assert len(sweeps) >= 5
    r = b - A @ x
    assert np.abs(r).max() <= EPS * (4.0 * np.abs(x).max() + 1.0)


def test_refine_rejects_fewer_than_one_sweep():
    from ipcs2d.linsolve import _refine

    A = sp.identity(3, format="csr")
    for sweeps in (0, -1):
        with pytest.raises(ValueError, match="sweeps=%d" % sweeps):
            _refine(lambda r: r, A, np.ones(3), 1e-12, "x", sweeps=sweeps)


def test_row_sum_norm_equals_scipys_row_sums(setup_cache):
    # _refine takes |A|_inf as np.add.reduceat of |A.data| over the row
    # starts, with no copy of A; with no empty row (every mass and momentum
    # row holds its diagonal) that is abs(A).sum(axis=1).max() bit for bit
    _, su, _, ops = setup_cache(32, 2, 1)
    rng = np.random.default_rng(7)
    B = ops.free_convection(rng.standard_normal(su.ndofs))
    S = sp.csr_matrix((80.0 * ops.M_free.data + B.data + ops.A_free.data, B.indices, B.indptr))
    for A in (ops.M_free, S):
        assert np.all(np.diff(A.indptr) > 0)
        assert np.add.reduceat(np.abs(A.data), A.indptr[:-1]).max() == abs(A).sum(axis=1).max()


def _counting_splu(monkeypatch):
    # (dtype, shape) of every factored matrix; solve_momentum looks splu up
    # at call time
    calls = []
    splu = scipy.sparse.linalg.splu

    def counted(A, *args, **kwargs):
        calls.append((A.dtype, A.shape))
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted)
    return calls


def _random_system(n=60, seed=11):
    rng = np.random.default_rng(seed)
    A = sp.csr_matrix(rng.standard_normal((n, n)) * 0.1 + n * np.eye(n))
    return A, rng.standard_normal((n, 2))


def test_stale_factor_of_another_matrix_refactors_once(monkeypatch):
    A, b = _random_system()
    factor = MomentumFactor()
    # an LU of 2A halves the residual per sweep: its first sweep no more
    # than halves it, short of tol, so the solve drops it and factors A
    solve_momentum(2.0 * A, b, tol=1e-12, factor=factor, key="k")
    assert factor.refactored and factor.key == "k"
    calls = _counting_splu(monkeypatch)
    x = solve_momentum(A, b, tol=1e-12, factor=factor, key="k")
    assert len(calls) == 1
    # one stale sweep; the fresh float32 factor takes a solve and two
    # corrections to rounding
    assert factor.refactored and factor.sweeps == 1 + 3
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)
    # the fresh factor of A now serves A again without a factorization
    solve_momentum(A, b, tol=1e-12, factor=factor, key="k")
    assert len(calls) == 1 and not factor.refactored


def test_stale_factor_sweeps_to_rounding_not_to_tol(monkeypatch):
    A, b = _random_system()
    factor = MomentumFactor()
    solve_momentum(A, b, factor=factor, key=1)
    calls = _counting_splu(monkeypatch)
    # a nearby matrix: the stale LU converges, and keeps sweeping past the
    # loose tol until the residual stops halving
    A2 = A + sp.diags(np.full(A.shape[0], 0.5))
    x = solve_momentum(A2, b, tol=1e-3, factor=factor, key=1)
    assert calls == [] and not factor.refactored
    assert 3 < factor.sweeps <= STALE_SWEEPS
    assert np.linalg.norm(b - A2 @ x) <= 1e-14 * np.linalg.norm(b)
    # a new key refactors at once, without sweeping the old LU
    solve_momentum(A2, b, factor=factor, key=2)
    assert len(calls) == 1 and factor.refactored and factor.sweeps == 3


def test_stale_factor_that_stops_halving_is_dropped_at_once():
    A, b = _random_system()
    exact = scipy.sparse.linalg.splu(A.tocsc())

    class Slow:
        # a stale LU whose sweeps cut the residual by 0.6 only
        sweeps = 0

        def solve(self, r):
            self.sweeps += 1
            return 0.4 * exact.solve(r.astype(np.float64))

    slow = Slow()
    factor = MomentumFactor()
    factor.lu, factor.key = slow, 1
    x = solve_momentum(A, b, tol=1e-12, factor=factor, key=1)
    # dropped after its first sweep, not after STALE_SWEEPS of them
    assert slow.sweeps == 1
    assert factor.refactored and factor.lu is not slow
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)


def test_start_vector_gives_the_same_solution_on_a_stale_factor():
    A, b = _random_system()
    A2 = A + sp.diags(np.full(A.shape[0], 0.5))
    exact = np.linalg.solve(A2.toarray(), b)
    rng = np.random.default_rng(3)
    near = exact + 1e-4 * rng.standard_normal(exact.shape)
    xs, sweeps = {}, {}
    for name, x0 in (("zero", None), ("near", near), ("far", 1e3 * exact)):
        factor = MomentumFactor()
        solve_momentum(A, b, factor=factor, key=1)
        xs[name] = solve_momentum(A2, b, factor=factor, key=1, x0=x0)
        assert not factor.refactored
        sweeps[name] = factor.sweeps
        assert np.abs(xs[name] - xs["zero"]).max() <= 1e-13 * np.abs(xs["zero"]).max()
    # a start with a smaller residual than zero saves sweeps; one with a
    # larger residual is ignored
    assert sweeps["near"] < sweeps["zero"] == sweeps["far"]


def test_non_finite_stale_sweep_refactors():
    class Broken:
        def solve(self, r):
            return np.full_like(r, np.nan)

    A, b = _random_system()
    factor = MomentumFactor()
    factor.lu, factor.key = Broken(), 1
    x = solve_momentum(A, b, factor=factor, key=1)
    # one stale sweep, then a solve and two corrections of the fresh factor
    assert factor.refactored and factor.sweeps == 4
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)


def _vortex_block(ops, su, scale=1.0):
    # the BDF2 momentum block of the projected vortex at dt = 0.0125, mu = 1
    w = pk.project_L2_onto_Uh(su, pk.stream_vortex_case(mu=1.0).u0, ops)
    B = ops.free_convection(scale * w)
    return sp.csr_matrix(
        ((1.5 / 0.0125) * ops.M_free.data + B.data + ops.A_free.data, B.indices, B.indptr)
    )


def test_float32_factor_solves_as_a_float64_lu(setup_cache, monkeypatch):
    _, su, _, ops = setup_cache(16, 2, 1)
    rng = np.random.default_rng(4)
    b = np.asfortranarray(rng.standard_normal((ops.M_free.shape[0], 2)))
    # a fresh factor, then a stale one on the block of another convection
    blocks = [_vortex_block(ops, su, scale) for scale in (1.0, 1.05)]
    exact = [scipy.sparse.linalg.splu(S.tocsc()).solve(b) for S in blocks]
    calls = _counting_splu(monkeypatch)
    factor = MomentumFactor()
    for S, x_lu, fresh in zip(blocks, exact, (True, False)):
        x = solve_momentum(S, b, factor=factor, key=1)
        assert factor.refactored == fresh and factor.dtype == np.float32
        assert np.abs(x - x_lu).max() <= 1e-13 * np.abs(x_lu).max()
    assert [dtype for dtype, _ in calls] == [np.float32]


def _shifted_stiffness(ops):
    # A - s M just above its smallest generalized eigenvalue: condition
    # number about 1e9, where a float32 LU's sweeps no longer contract
    import scipy.linalg

    M, A = ops.M_free.toarray(), ops.A_free.toarray()
    lowest = scipy.linalg.eigh(A, M, eigvals_only=True, subset_by_index=[0, 0])[0]
    K = ops.A_free - (1.0 - 1e-7) * lowest * ops.M_free
    assert np.linalg.cond(K.toarray()) >= 1e9
    return sp.csr_matrix(K)


def test_blocks_beyond_float32_solve_in_float64(setup_cache, monkeypatch):
    _, su, _, ops = setup_cache(16, 2, 1)
    rng = np.random.default_rng(8)
    x_true = rng.standard_normal((ops.M_free.shape[0], 2))
    calls = _counting_splu(monkeypatch)
    # entries past the float32 range, and a condition number of about 1e9
    for A in (1e39 * _vortex_block(ops, su), _shifted_stiffness(ops)):
        b = A @ x_true
        calls.clear()
        factor = MomentumFactor()
        x = solve_momentum(A, b, factor=factor, key=1)
        assert [dtype for dtype, _ in calls] == [np.float32, np.float64]
        assert factor.refactored and factor.dtype == np.float64
        assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)
        # the factor stays in float64: its stale solves, and its next factorization
        solve_momentum(A, b, factor=factor, key=1)
        assert len(calls) == 2 and not factor.refactored and factor.dtype == np.float64
        solve_momentum(A, b, factor=factor, key=2)
        assert [dtype for dtype, _ in calls[2:]] == [np.float64]


def test_zero_right_side_needs_no_factor():
    A, b = _random_system()
    factor = MomentumFactor()
    assert not solve_momentum(A, np.zeros_like(b), factor=factor, key=1).any()
    assert factor.lu is None and factor.sweeps == 0 and not factor.refactored


def test_stale_then_fresh_failure_reports_the_fresh_residual(monkeypatch):
    class HalfStep:
        # as in test_two_column_failure_reports_stacked_residual
        def solve(self, r):
            return r / 4.0

    class WrongSign:
        # a stale factor whose sweeps make the residual grow
        def solve(self, r):
            return -r / 4.0

    monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda *args, **kwargs: HalfStep())
    A, b = sp.diags([2.0, 4.0]).tocsr(), np.eye(2)
    factor = MomentumFactor()
    factor.lu, factor.key = WrongSign(), 1
    with pytest.raises(LinearSolveError, match="momentum solve stalled") as info:
        solve_momentum(A, b, tol=1e-3, factor=factor, key=1)
    # the stale factor's first sweep does not shrink the residual; the
    # fresh float32 one takes the solve and one correction, and so does the
    # float64 one after it, which then fails as without a factor
    assert factor.refactored and factor.sweeps == 1 + 4
    assert factor.dtype == np.float64
    assert info.value.residual == pytest.approx(1.0 / (4.0 * np.sqrt(2.0)), rel=1e-15)


def test_convection_dominated_block_keeps_its_fill(setup_cache):
    # without a diagonal pivot threshold, partial pivoting on the mu=1e-3
    # block leaves the minimum degree order and stores 1.15 times the fill
    _, su, _, ops = setup_cache(32, 2, 1)
    from ipcs2d.linsolve import _factor

    w = pk.project_L2_onto_Uh(su, pk.stream_vortex_case(mu=1.0).u0, ops)
    B = full_convection(ops, w)
    M, A = full_velocity_matrices(ops)
    n = su.n_scalar
    free = su.free[:n]
    dt = 0.0125
    fill = {}
    for mu in (1.0, 1e-3):
        S = ((1.5 / dt) * M[:n, :n] + B[:n, :n] + mu * A[:n, :n])[free][:, free]
        fill[mu] = _factor(S, "momentum").nnz
    assert fill[1e-3] <= 1.05 * fill[1.0]


def test_poisson_factor_ignores_row_sum_rounding(setup_cache, monkeypatch):
    # the operator set projects N_p onto zero row sums once it is assembled,
    # and factor_poisson factors that N_p with no copy of its own
    _, su, spp, ops = setup_cache(8, 1, 1)
    c = spp.interpolate(lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
    b = ops.N_p @ c
    # symmetric pressure element matrices with entries, and so row sums,
    # off by 1e-12, as another contraction order of the element matrices
    # may leave them
    rng = np.random.default_rng(5)
    stiffness = assembly._stiffness_elem

    def rounded(space, geom):
        elem = stiffness(space, geom)
        if space.components == 2:
            return elem
        noise = 1e-12 * rng.standard_normal(elem.shape) * elem
        return elem + noise + noise.transpose(0, 2, 1)

    monkeypatch.setattr(assembly, "_stiffness_elem", rounded)
    perturbed = pk.OperatorSet(su, spp)
    N = perturbed.N_p
    assert not np.array_equal(N.data, ops.N_p.data)
    assert np.abs(N @ np.ones(spp.ndofs)).max() <= 1e-14 * N.diagonal().max()
    x = perturbed.solve_poisson(b, 1e-12)
    assert np.abs(x - ops.solve_poisson(b)).max() <= 1e-10 * np.abs(x).max()


def test_poisson_inconsistency_is_spread_along_the_mass_weights(setup_cache):
    _, _, spp, ops = setup_cache(8, 1, 1)
    # a perturbation with zero row sums but column sums of about 1e-7 of the
    # diagonal: a zero-sum right side is then inconsistent, as rounding leaves
    # it on fine meshes, only more
    rng = np.random.default_rng(3)
    E = sp.random(spp.ndofs, spp.ndofs, density=0.05, random_state=rng, format="csr")
    E = 1e-7 * ops.N_p.diagonal().max() * (E - sp.diags(E @ np.ones(spp.ndofs)))
    N = (ops.N_p + E).tocsr()
    b = ops.M_p @ spp.interpolate(lambda x, y: np.cos(3 * x) * np.exp(y))
    b -= b.mean()
    x = factor_poisson(N, ops.M_p)(b, 1e-3)
    r = b - N @ x
    w = ops.M_p @ np.ones(spp.ndofs)
    assert np.linalg.norm(r) > 1e-12 * np.linalg.norm(b)
    # the residual is a multiple of w, not a spike in the pinned row
    assert np.abs(r - (r @ w) / (w @ w) * w).max() <= 1e-3 * np.abs(r).max()


def test_poisson_solve_meets_tol_where_a_pinned_row_stalled(setup_cache):
    # a pressure right side (a0/dt) G^T u as a BDF2 step forms it, n = 72,
    # P2/P1: a pinned solve stalled here at 1.3e-12, all of it in the
    # pinned row (numpy 2.4, scipy 1.17)
    _, su, _, ops = setup_cache(72, 2, 1)
    u = su.interpolate(lambda x, y: (np.sin(3 * x) * np.cos(2 * y), x * y * (1 - x)))
    b = (1.5 / 0.0125) * (ops.G.T @ u)
    x = ops.solve_poisson(b, 1e-12)
    b -= b.mean()
    assert np.linalg.norm(b - ops.N_p @ x) <= 1e-12 * np.linalg.norm(b)


def test_negative_definite_system_is_reported():
    b = np.ones(5)
    with pytest.raises(LinearSolveError, match="non-positive curvature"):
        solve_spd(-sp.identity(5, format="csr"), b)


def test_singular_momentum_system_is_reported():
    A = sp.diags([1.0, 1.0, 0.0]).tocsr()
    with pytest.raises(LinearSolveError):
        solve_momentum(A, np.ones(3))


def test_error_carries_achieved_residual():
    try:
        solve_spd(-sp.identity(4, format="csr"), np.ones(4))
    except LinearSolveError as err:
        assert err.residual is None or err.residual > 0
    else:
        raise AssertionError("expected LinearSolveError")


@pytest.mark.parametrize(
    "error, tail",
    [(RuntimeError("Factor is exactly singular"), "Factor is exactly singular"), (MemoryError(), "MemoryError")],
)
def test_failed_factorization_names_the_matrix_and_its_order(error, tail, monkeypatch):
    # splu may fail for lack of memory as well as on a singular matrix;
    # either way the error says which matrix of how many dofs, and why:
    # the exception's message, or its type when the message is empty
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(scipy.sparse.linalg, "splu", fail)
    A, b = _random_system(n=17)
    with pytest.raises(LinearSolveError, match="^momentum matrix factorization of 17 dofs failed: ") as info:
        solve_momentum(A, b)
    assert str(info.value).endswith("failed: " + tail)
    assert info.value.__cause__ is error
    with pytest.raises(LinearSolveError, match="^pressure Poisson matrix factorization of 8 dofs"):
        factor_poisson(sp.identity(9, format="csr"), sp.identity(9, format="csr"))


def shuffled(mesh, seed):
    """The mesh with its vertices and its triangles in random order, as a
    mesh file may number them."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(mesh.vertices))
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    perm_t = rng.permutation(mesh.n_triangles)
    flags = mesh.boundary_vertex_flags[perm]
    return pk.Mesh(mesh.vertices[perm], inv[mesh.triangles][perm_t], flags)


def test_lu_fill_does_not_depend_on_the_vertex_numbering(monkeypatch):
    # the free velocity block is renumbered by its own reverse Cuthill-McKee
    # order before minimum degree sees it, so a mesh numbered at random
    # factors about as sparsely as the structured one, and runs the same
    fills = []
    factor = linsolve._factor

    def counted(A, what, *dtype):
        lu = factor(A, what, *dtype)
        if what == "momentum":
            fills.append(lu.nnz)
        return lu

    monkeypatch.setattr(linsolve, "_factor", counted)
    case = pk.stream_vortex_case(mu=1.0)
    structured = pk.generate_structured_unit_square(32)
    runs = []
    for mesh in (structured, shuffled(structured, 5)):
        fills.clear()
        cfg = pk.SchemeConfig(
            dt=0.01, T=0.03, mu=1.0, mesh=mesh, degree_u=2, degree_p=1, u0=case.u0, f=case.f,
        )
        traj = pk.run(cfg)
        assert traj.n_steps == 3 and len(fills) == 2
        runs.append((max(fills), traj.ledger.column("E_h")))
    (fill, energy), (fill_shuffled, energy_shuffled) = runs
    assert fill_shuffled <= 1.25 * fill
    assert np.abs(energy_shuffled - energy).max() <= 1e-12 * np.abs(energy).max()
