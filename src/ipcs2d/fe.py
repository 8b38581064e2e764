"""Lagrange reference elements, triangle quadrature, and dof management.

Reference triangle: vertices (0,0), (1,0), (0,1), barycentric coordinates
l0 = 1-x-y, l1 = x, l2 = y.  The degree 1 basis is l_i.  The degree 2
basis is l_i (2 l_i - 1) at vertex i and 4 l_a l_b at local node 3+i, the
midpoint of the edge (a, b) = mesh._LOCAL_EDGES[i] opposite vertex i, the
table that also numbers mesh.triangle_edges and so the cell_dofs of a
degree 2 space.  Gradients follow by the product rule.

Vector spaces store coefficients component-major: entry c*n_scalar + i is
component c of scalar dof i.  Coefficient vectors always have full length,
with zeros at constrained entries; constraints are applied at solve time.
"""

import numpy as np

from .mesh import _LOCAL_EDGES

__all__ = [
    "ReferenceElement",
    "QuadratureRule",
    "quad_rule",
    "FESpace",
    "build_space",
]

# gradients of the barycentric coordinates, constant on the triangle
_GRAD_LAMBDA = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


class ReferenceElement:
    """Scalar Lagrange basis of degree 1 or 2 on the reference triangle."""

    def __init__(self, degree):
        if degree not in (1, 2):
            raise ValueError("only degree 1 and 2 elements are supported, got %r" % (degree,))
        self.degree = degree

    def eval(self, points):
        """Basis values and gradients at reference points.

        points: (npts, 2).  Returns (values, grads) with shapes
        (npts, 3 or 6) and (npts, 3 or 6, 2).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x, y = pts[:, 0], pts[:, 1]
        lam = np.stack([1.0 - x - y, x, y], axis=1)
        if self.degree == 1:
            return lam, np.broadcast_to(_GRAD_LAMBDA, (len(pts), 3, 2)).copy()
        a, b = np.array(_LOCAL_EDGES).T
        vals = np.hstack([lam * (2 * lam - 1), 4 * lam[:, a] * lam[:, b]])
        grads = np.hstack(
            [
                (4 * lam - 1)[..., None] * _GRAD_LAMBDA,
                4 * (lam[:, b, None] * _GRAD_LAMBDA[a] + lam[:, a, None] * _GRAD_LAMBDA[b]),
            ]
        )
        return vals, grads


class QuadratureRule:
    """Symmetric quadrature on the reference triangle.

    Weights sum to the reference area 1/2, so a physical cell integral is
    det(J) * sum_q w_q f(x_q).
    """

    def __init__(self, points, weights, degree):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.degree = degree


def _orbit3(a):
    # the three permutations of barycentric (a, a, 1-2a), returned as (x, y)
    b = 1.0 - 2.0 * a
    return [(a, a), (b, a), (a, b)]


def _orbit6(a, b):
    c = 1.0 - a - b
    return [(a, b), (b, a), (a, c), (c, a), (b, c), (c, b)]


def _build_rules():
    rules = {}
    rules[1] = QuadratureRule([[1 / 3, 1 / 3]], [0.5], 1)

    rules[2] = QuadratureRule(_orbit3(1 / 6), [1 / 6] * 3, 2)

    a1, w1 = 0.445948490915965, 0.223381589678011
    a2, w2 = 0.091576213509771, 0.109951743655322
    rules[4] = QuadratureRule(
        _orbit3(a1) + _orbit3(a2), [w1 / 2] * 3 + [w2 / 2] * 3, 4
    )

    a1, w1 = 0.470142064105115, 0.132394152788506
    a2, w2 = 0.101286507323456, 0.125939180544827
    rules[5] = QuadratureRule(
        [[1 / 3, 1 / 3]] + _orbit3(a1) + _orbit3(a2),
        [0.225 / 2] + [w1 / 2] * 3 + [w2 / 2] * 3,
        5,
    )

    a1, w1 = 0.249286745170910, 0.116786275726379
    a2, w2 = 0.063089014491502, 0.050844906370207
    b1, b2, w3 = 0.310352451033785, 0.053145049844816, 0.082851075618374
    rules[6] = QuadratureRule(
        _orbit3(a1) + _orbit3(a2) + _orbit6(b1, b2),
        [w1 / 2] * 3 + [w2 / 2] * 3 + [w3 / 2] * 6,
        6,
    )
    return rules


_RULES = _build_rules()


def quad_rule(degree):
    """Smallest stocked rule exact for polynomials of the given total
    degree.  Rules of degree 1, 2, 4, 5 and 6 are stocked; requests above
    6 are rejected rather than silently under-integrated."""
    if degree > 6:
        raise ValueError("no stocked quadrature rule is exact to degree %d (max 6)" % degree)
    for d in (1, 2, 4, 5, 6):
        if degree <= d:
            return _RULES[d]
    raise AssertionError


class FESpace:
    """Scalar or vector Lagrange space on a triangulation.

    Fields
    ------
    mesh, degree, components
    n_scalar : number of scalar dofs (vertices, plus edges for degree 2)
    ndofs : components * n_scalar
    cell_dofs : (n_triangles, n_local) scalar dof ids, local order matching
        the reference element nodes
    dof_points : (n_scalar, 2) coordinates of the scalar dof nodes
    dirichlet : (ndofs,) bool mask of constrained entries (all components
        of every boundary node when homogeneous_dirichlet is set)
    free : inverse mask
    zero_mean : the space is used modulo constants (pressure)

    A degree 1 space shares the mesh's read-only triangles (as cell_dofs),
    vertices (as dof_points) and boundary vertex flags; it copies none.
    """

    def __init__(self, mesh, degree, components, homogeneous_dirichlet, zero_mean):
        if components not in (1, 2):
            raise ValueError("components must be 1 or 2")
        self.mesh = mesh
        self.degree = degree
        self.components = components
        self.ref = ReferenceElement(degree)
        self.zero_mean = bool(zero_mean)
        self.homogeneous_dirichlet = bool(homogeneous_dirichlet)

        nv = mesh.n_vertices
        if degree == 1:
            self.n_scalar = nv
            self.cell_dofs = mesh.triangles
            self.dof_points = mesh.vertices
            scalar_bnd = mesh.boundary_vertex_flags
        else:
            self.n_scalar = nv + mesh.n_edges
            self.cell_dofs = np.hstack([mesh.triangles, nv + mesh.triangle_edges])
            midpoints = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
            self.dof_points = np.vstack([mesh.vertices, midpoints])
            scalar_bnd = np.concatenate([mesh.boundary_vertex_flags, mesh.boundary_edge_flags])

        self.ndofs = components * self.n_scalar
        if homogeneous_dirichlet:
            self.dirichlet = np.tile(scalar_bnd, components)
        else:
            self.dirichlet = np.zeros(self.ndofs, dtype=bool)
        self.free = ~self.dirichlet

    def component(self, coeffs, c):
        """View of component c of a coefficient vector."""
        return coeffs[c * self.n_scalar : (c + 1) * self.n_scalar]

    def interpolate(self, g):
        """Nodal interpolant of a callable.

        Scalar space: g(x, y) -> array.  Vector space: g(x, y) -> pair of
        arrays.  Dirichlet entries are zeroed afterwards when the space is
        constrained, so the result is a valid coefficient vector.
        """
        x = self.dof_points[:, 0]
        y = self.dof_points[:, 1]
        vals = g(x, y)
        if self.components == 1:
            out = np.asarray(vals, dtype=float) * np.ones_like(x)
        else:
            out = np.concatenate(
                [np.asarray(v, dtype=float) * np.ones_like(x) for v in vals]
            )
        out[self.dirichlet] = 0.0
        return out


def build_space(mesh, degree, components=1, homogeneous_dirichlet=False, zero_mean=False):
    """Construct a Lagrange space of degree 1 or 2.

    Velocity spaces use components=2 with homogeneous_dirichlet=True;
    pressure spaces are scalar with zero_mean=True.  dof counts follow the
    standard Lagrange layout (vertices for degree 1, vertices + edge
    midpoints for degree 2).
    """
    return FESpace(mesh, degree, components, homogeneous_dirichlet, zero_mean)


def require_one_mesh(space_u, space_p):
    """Raise ValueError unless the two spaces are built on one mesh."""
    if space_u.mesh is not space_p.mesh:
        raise ValueError("the velocity and pressure spaces must share one mesh")
