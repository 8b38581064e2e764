"""Reference elements, quadrature rules, and dof management."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ipcs2d as pk
from ipcs2d.mesh import _LOCAL_EDGES


def reference_point(a, b):
    # fold the unit square onto the reference triangle
    if a + b > 1.0:
        a, b = 1.0 - a, 1.0 - b
    return a, b


# the reference nodes: the vertices, then the midpoints of the local edges
# in the order of the mesh's table, the order of a degree 2 space's cell_dofs
VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
NODES = np.vstack([VERTICES, [0.5 * (VERTICES[a] + VERTICES[b]) for a, b in _LOCAL_EDGES]])


def test_p1_vertex_kronecker():
    vals, _ = pk.ReferenceElement(1).eval([(0.0, 0.0)])
    assert np.allclose(vals[0], [1.0, 0.0, 0.0])
    vals, _ = pk.ReferenceElement(1).eval(NODES[:3])
    assert np.array_equal(vals, np.eye(3))


def test_p2_edge_midpoint_kronecker():
    vals, _ = pk.ReferenceElement(2).eval([(0.5, 0.0)])
    assert np.allclose(vals[0, :3], 0.0, atol=1e-15)
    # local node 5 sits at (1/2, 0), the edge opposite vertex 2
    assert np.isclose(vals[0, 5], 1.0)
    assert np.allclose(vals[0, 3:5], 0.0, atol=1e-15)
    vals, _ = pk.ReferenceElement(2).eval(NODES)
    assert np.array_equal(vals, np.eye(6))


def test_partition_of_unity_barycenter():
    for degree in (1, 2):
        vals, _ = pk.ReferenceElement(degree).eval([(1.0 / 3.0, 1.0 / 3.0)])
        assert np.isclose(vals.sum(), 1.0)


@settings(deadline=None, max_examples=50)
@given(
    st.integers(min_value=1, max_value=2),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_partition_of_unity_everywhere(degree, a, b):
    x, y = reference_point(a, b)
    vals, grads = pk.ReferenceElement(degree).eval([(x, y)])
    assert abs(vals.sum() - 1.0) < 1e-13
    assert np.abs(grads.sum(axis=1)).max() < 1e-12


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=1, max_value=2),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_basis_gradients_match_finite_differences(degree, a, b, angle):
    x, y = reference_point(0.5 * a, 0.5 * b)
    d = np.array([math.cos(angle), math.sin(angle)])
    eps = 1e-6
    vp, _ = pk.ReferenceElement(degree).eval([(x + eps * d[0], y + eps * d[1])])
    vm, _ = pk.ReferenceElement(degree).eval([(x - eps * d[0], y - eps * d[1])])
    _, grads = pk.ReferenceElement(degree).eval([(x, y)])
    fd = (vp[0] - vm[0]) / (2.0 * eps)
    assert np.abs(grads[0] @ d - fd).max() < 1e-8


def test_reference_integrals():
    r = pk.quad_rule(2)
    assert np.isclose(r.weights.sum(), 0.5)
    assert np.isclose(float(r.weights @ r.points[:, 0]), 1.0 / 6.0)
    r5 = pk.quad_rule(5)
    val = float(r5.weights @ (r5.points[:, 0] ** 2 * r5.points[:, 1] ** 2))
    assert abs(val - 1.0 / 180.0) <= 1e-15


def test_rules_exact_to_stated_degree():
    # reference-triangle monomial integrals: int x^a y^b = a! b! / (a+b+2)!
    for degree in range(1, 7):
        r = pk.quad_rule(degree)
        assert r.degree >= degree
        assert (r.weights > 0).all()
        assert (r.points >= -1e-14).all()
        assert (r.points.sum(axis=1) <= 1.0 + 1e-14).all()
        for a in range(r.degree + 1):
            for b in range(r.degree + 1 - a):
                exact = (
                    math.factorial(a)
                    * math.factorial(b)
                    / math.factorial(a + b + 2)
                )
                got = float(r.weights @ (r.points[:, 0] ** a * r.points[:, 1] ** b))
                assert abs(got - exact) < 1e-15, (degree, a, b)


def test_quad_rule_rejects_unstocked_degree():
    with pytest.raises(ValueError):
        pk.quad_rule(7)


def test_reference_element_rejects_bad_degree():
    with pytest.raises(ValueError):
        pk.ReferenceElement(3)


def test_dof_counts_n2():
    mesh = pk.generate_structured_unit_square(2)
    assert pk.build_space(mesh, 1).ndofs == 9
    # quadratic adds one dof per edge: 3n^2 + 2n = 16 edges at n=2
    assert pk.build_space(mesh, 2).ndofs == 9 + 16
    sv = pk.build_space(mesh, 1, components=2, homogeneous_dirichlet=True)
    assert sv.ndofs == 18
    assert int(sv.free.sum()) == 2


def test_p1_space_shares_the_mesh_arrays():
    mesh = pk.generate_structured_unit_square(2)
    s = pk.build_space(mesh, 1, components=2, homogeneous_dirichlet=True)
    assert s.cell_dofs is mesh.triangles and s.dof_points is mesh.vertices


def test_dirichlet_dofs_sit_on_the_boundary():
    mesh = pk.generate_structured_unit_square(3)
    s = pk.build_space(mesh, 2, components=2, homogeneous_dirichlet=True)
    pts = s.dof_points
    on_boundary = (
        (np.abs(pts[:, 0]) < 1e-12)
        | (np.abs(pts[:, 0] - 1.0) < 1e-12)
        | (np.abs(pts[:, 1]) < 1e-12)
        | (np.abs(pts[:, 1] - 1.0) < 1e-12)
    )
    free_scalar = s.free[: s.n_scalar]
    assert np.array_equal(free_scalar, ~on_boundary)
    # both components carry the same constraint pattern
    assert np.array_equal(s.free[s.n_scalar :], free_scalar)


def test_interpolation_reproduces_polynomials_at_dofs():
    mesh = pk.generate_structured_unit_square(2)
    s1 = pk.build_space(mesh, 1)
    c = s1.interpolate(lambda x, y: 2.0 * x - y + 0.5)
    assert np.allclose(c, 2.0 * s1.dof_points[:, 0] - s1.dof_points[:, 1] + 0.5)
    s2 = pk.build_space(mesh, 2)
    c2 = s2.interpolate(lambda x, y: x * y)
    assert np.allclose(c2, s2.dof_points[:, 0] * s2.dof_points[:, 1])


def test_interpolation_zeroes_constrained_entries():
    mesh = pk.generate_structured_unit_square(2)
    sv = pk.build_space(mesh, 1, components=2, homogeneous_dirichlet=True)
    c = sv.interpolate(lambda x, y: (y, 0.0 * x))
    c0 = sv.component(c, 0)
    free = sv.free[: sv.n_scalar]
    assert np.allclose(c0[free], sv.dof_points[free, 1])
    assert np.allclose(c0[~free], 0.0)
