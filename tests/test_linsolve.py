"""Linear solver contracts: exactness on known systems, error reporting."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

import ipcs2d as pk
from ipcs2d import LinearSolveError
from ipcs2d.linsolve import STALE_SWEEPS, MomentumFactor, factor_poisson, solve_momentum, solve_spd

from oracles import DenseScheme


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
    S = (1.5 / dt) * pk.assemble_mass(su, ops.geom)
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
    # first column: residual 1/2^4 after the solve and three corrections;
    # second column: exact.  Relative to the Frobenius norm sqrt(2) of b
    assert errors[0] == errors[1] == pytest.approx(1.0 / (16.0 * np.sqrt(2.0)), rel=1e-15)


def _counting_splu(monkeypatch):
    # solve_momentum looks splu up at call time
    calls = []
    splu = scipy.sparse.linalg.splu

    def counted(A, *args, **kwargs):
        calls.append(A.shape)
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
    # an LU of 2A halves the error per sweep: it never reaches rounding
    # within its sweeps, so the solve drops it and factors A
    solve_momentum(2.0 * A, b, tol=1e-12, factor=factor, key="k")
    assert factor.refactored and factor.key == "k"
    calls = _counting_splu(monkeypatch)
    x = solve_momentum(A, b, tol=1e-12, factor=factor, key="k")
    assert len(calls) == 1
    assert factor.refactored and factor.sweeps == STALE_SWEEPS + 1
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
    assert len(calls) == 1 and factor.refactored and factor.sweeps == 1


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
    assert factor.refactored and factor.sweeps == 2
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)


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
    # the stale factor spends its sweeps; the fresh one takes the solve and
    # three corrections, then fails as without a factor
    assert factor.refactored and factor.sweeps == STALE_SWEEPS + 4
    assert info.value.residual == pytest.approx(1.0 / (16.0 * np.sqrt(2.0)), rel=1e-15)


def test_convection_dominated_block_keeps_its_fill(setup_cache):
    # without a diagonal pivot threshold, partial pivoting on the mu=1e-3
    # block leaves the minimum degree order and stores 1.15 times the fill
    _, su, _, ops = setup_cache(32, 2, 1)
    from ipcs2d.linsolve import _factor

    w = pk.project_L2_onto_Uh(su, pk.stream_vortex_case(mu=1.0).u0, ops)
    B = pk.assemble_convection(su, w, ops.geom)
    M, A = pk.assemble_mass(su, ops.geom), pk.assemble_stiffness(su, ops.geom)
    n = su.n_scalar
    free = su.free[:n]
    dt = 0.0125
    fill = {}
    for mu in (1.0, 1e-3):
        S = ((1.5 / dt) * M[:n, :n] + B[:n, :n] + mu * A[:n, :n])[free][:, free]
        fill[mu] = _factor(S, "momentum").nnz
    assert fill[1e-3] <= 1.05 * fill[1.0]


def test_poisson_factor_ignores_row_sum_rounding(setup_cache):
    _, _, spp, ops = setup_cache(8, 1, 1)
    c = spp.interpolate(lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
    b = ops.N_p @ c
    # row sums off by 1e-12 of the diagonal, as another contraction order
    # of the element matrices may leave them
    rng = np.random.default_rng(5)
    N = ops.N_p + sp.diags(1e-12 * rng.standard_normal(spp.ndofs) * ops.N_p.diagonal())
    x = factor_poisson(N, ops.M_p)(b, 1e-12)
    assert np.abs(x - ops.solve_poisson(b)).max() <= 1e-10 * np.abs(x).max()


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
