"""Linear solver contracts: exactness on known systems, error reporting."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

import ipcs2d as pk
from ipcs2d import LinearSolveError
from ipcs2d.linsolve import solve_momentum, solve_spd

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
    S = (1.5 / dt) * ops.M_u
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
