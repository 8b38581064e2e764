"""Conforming triangulations of polygonal domains.

Any conforming mesh of positively oriented triangles will do:
SchemeConfig(mesh=...) takes one, and so does read_mesh.  The Dirichlet
boundary is the whole of the domain's boundary, taken from the topology:
the edges that belong to one triangle, and their end vertices.  Only
generate_structured_unit_square (every grid cell split along the
lower-left to upper-right diagonal) assumes the unit square.

External meshes use a small text format::

    vertices <N>
    x y          (N lines)
    triangles <M>
    i j k        (M lines, 0-based, counter-clockwise)
    boundary <B> (optional section, written by earlier versions; it must
    v             list exactly the vertices on boundary edges)

A mesh copies its inputs and holds only read-only arrays, so it is
immutable after construction and safe to share between concurrent
readers.
"""

import numpy as np

__all__ = [
    "Mesh",
    "MeshFormatError",
    "generate_structured_unit_square",
    "read_mesh",
    "write_mesh",
]

# local edge i of a triangle (v0, v1, v2) is the edge opposite vertex i
_LOCAL_EDGES = ((1, 2), (2, 0), (0, 1))

# the finest structured grid: 2 * 1024^2 triangles and 8.4M quadratic
# velocity dofs; a larger n is a mistake, not a run
MAX_MESH_N = 1024


class MeshFormatError(ValueError):
    """Raised for malformed mesh files or non-conforming triangulations."""


class Mesh:
    """Triangulation with edge topology, boundary data and size metrics.

    Parameters
    ----------
    vertices : (N, 2) float array of vertex coordinates.
    triangles : (M, 3) array of integer vertex indices, counter-clockwise,
        with M >= 1.

    Construction copies both inputs and validates real finite vertices,
    integer indices in range, every vertex in some triangle, positive
    orientation and edge conformity (every edge shared by one or two
    triangles, a shared edge run once in each direction); each failure
    raises MeshFormatError.  It precomputes the edge table for quadratic
    dof numbering and each cell's affine map x = v0 + jac[c] @ q: jac
    (M, 2, 2) has the edges v1 - v0 and v2 - v0 as columns, detJ its
    determinants (twice the areas), adj the adjugates detJ * inv_j and
    inv_j the inverses, so a reference gradient g maps to g @ inv_j[c].
    The boundary edges are those of one triangle; boundary_vertex_flags
    marks their end vertices.  Every array attribute is read-only, and
    the other layers share them rather than copy or recompute them.
    """

    def __init__(self, vertices, triangles):
        vertices, triangles = np.asarray(vertices), np.asarray(triangles)
        for name, a in (("vertices", vertices), ("triangles", triangles)):
            if a.dtype.kind not in "iuf":
                raise MeshFormatError("%s must be an array of real numbers, got dtype %s" % (name, a.dtype))
        self.vertices = np.array(vertices, dtype=float, order="C")
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshFormatError("vertices must be an (N, 2) array")
        if triangles.ndim != 2 or triangles.shape[1] != 3 or not len(triangles):
            raise MeshFormatError("triangles must be an (M, 3) array with M >= 1, got shape %s"
                                  % (triangles.shape,))
        nv = len(self.vertices)
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if bad.size:
            raise MeshFormatError("vertex %d has non-finite coordinates %s" % (bad[0], self.vertices[bad[0]]))
        # 1.7 and nan fail the rounding test, inf the range test
        ok = (triangles >= 0) & (triangles < nv) & (np.round(triangles) == triangles)
        bad = np.flatnonzero(~ok.all(axis=1))
        if bad.size:
            raise MeshFormatError("triangle %d has vertex indices %s; each must be an integer in [0, %d)"
                                  % (bad[0], triangles[bad[0]], nv))
        self.triangles = np.array(triangles, dtype=np.int64, order="C")

        self._check_orientation()
        self._build_edges()
        bad = np.flatnonzero(np.bincount(self.triangles.ravel(), minlength=nv) == 0)
        if bad.size:
            raise MeshFormatError("vertex %d belongs to no triangle; a Lagrange space needs every vertex in one"
                                  % bad[0])

        self.boundary_vertex_flags = np.zeros(nv, dtype=bool)
        self.boundary_vertex_flags[self.boundary_edges.ravel()] = True
        self._compute_metrics()
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    # -- validation ----------------------------------------------------------

    def _check_orientation(self):
        corners = self.vertices[self.triangles.T]
        edges = corners[1:] - corners[0]  # v1 - v0 and v2 - v0, each (M, 2)
        self.jac = edges.transpose(1, 2, 0)
        e1, e2 = edges
        self.detJ = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        self.areas = 0.5 * self.detJ
        bad = np.flatnonzero(~(self.detJ > 0.0))
        if bad.size:
            raise MeshFormatError(
                "triangle %d has non-positive signed area %.3e "
                "(vertices must be counter-clockwise)" % (bad[0], self.areas[bad[0]])
            )
        self.adj = np.stack([e2[:, 1], -e2[:, 0], -e1[:, 1], e1[:, 0]], axis=1).reshape(-1, 2, 2)
        self.inv_j = self.adj / self.detJ[:, None, None]

    def _build_edges(self):
        # edges numbered in first-seen order over (triangle, local edge),
        # which keeps the numbering deterministic
        runs = self.triangles[:, np.array(_LOCAL_EDGES)].reshape(-1, 2)
        ends = np.sort(runs, axis=-1)
        _, first, inverse, count = np.unique(
            ends[:, 0] * len(self.vertices) + ends[:, 1],
            return_index=True, return_inverse=True, return_counts=True,
        )
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        self.edges = ends[first[order]]
        self.triangle_edges = rank[inverse.ravel()].reshape(self.triangles.shape)
        count = count[order]
        # counter-clockwise triangles run an edge once, or twice in opposite
        # directions; two that run it alike overlap
        ascending = np.bincount(inverse.ravel(), weights=runs[:, 0] < runs[:, 1])[order]
        bad = np.flatnonzero((count > 2) | ((count == 2) & (ascending != 1)))
        if bad.size:
            cells = np.flatnonzero((self.triangle_edges == bad[0]).any(axis=1))
            raise MeshFormatError(
                "edge (%d, %d) is shared by %d triangles %s; a conforming mesh runs an edge "
                "once, or twice in opposite directions" % (*self.edges[bad[0]], len(cells), cells.tolist())
            )
        self.boundary_edge_flags = count == 1
        self.boundary_edges = self.edges[self.boundary_edge_flags]

    def _compute_metrics(self):
        # side i is opposite vertex i; sides 1 and 2 are -/+ the columns of jac
        v, t = self.vertices, self.triangles
        sides = np.linalg.norm(
            np.stack([v[t[:, 2]] - v[t[:, 1]], self.jac[:, :, 1], self.jac[:, :, 0]], axis=1), axis=2
        )
        self.diameters = sides.max(axis=1)
        self.h = float(self.diameters.max())
        # inscribed-circle diameter 2r with r = area / semiperimeter
        incircle = 2.0 * self.areas / (0.5 * sides.sum(axis=1))
        self.quasi_uniformity = float(self.h / incircle.min())
        # law of cosines per corner, smallest angle over all elements
        a, b, c = sides[:, 0], sides[:, 1], sides[:, 2]
        angles = []
        for opp, e1, e2 in ((a, b, c), (b, c, a), (c, a, b)):
            cosv = np.clip((e1**2 + e2**2 - opp**2) / (2 * e1 * e2), -1.0, 1.0)
            angles.append(np.arccos(cosv))
        self.min_angle = float(np.degrees(np.min(angles)))

    # -- queries -------------------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @property
    def n_edges(self):
        return len(self.edges)


def generate_structured_unit_square(n):
    """Uniform n-by-n grid of the unit square, each cell split along the
    lower-left to upper-right diagonal.

    Produces (n+1)^2 vertices and 2 n^2 congruent right isoceles triangles
    with mesh size h = sqrt(2)/n, for 1 <= n <= MAX_MESH_N; any other n
    raises ValueError with the mesh_n message of scheme.PARAMETER_RULES.
    """
    from .scheme import first_failed_rule  # scheme imports this module

    failed = first_failed_rule({"mesh_n": n})
    if failed is not None:
        raise ValueError(failed[1])
    n = int(n)
    side = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(side, side, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    # grid cells row by row, from the lower-left vertex v00: (v00, v10, v11), (v00, v11, v01)
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    v01 = v00 + (n + 1)
    return Mesh(vertices, np.stack([v00, v00 + 1, v01 + 1, v00, v01 + 1, v01], 1).reshape(-1, 3))


def read_mesh(path):
    """Read a mesh from the text format, validating conformity.

    Parse errors, content after the boundary section included, carry the
    1-based line number, and a file that is not UTF-8 text is rejected
    with its name; non-conforming meshes (flipped triangles, edges
    over-shared or run alike) with the offending element named, and a
    boundary section listing other vertices than the ends of the boundary
    edges with its header line.  A vertex that no triangle uses is
    rejected by Mesh, and a path that cannot be read (missing, a
    directory, no permission) raises MeshFormatError with the OS reason.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise MeshFormatError("%s: not a UTF-8 text file (%s)" % (path, exc)) from None
    except OSError as exc:
        raise MeshFormatError("%s: cannot read the mesh file (%s)" % (path, exc.strerror)) from None
    # (line number, text) of the content lines, last first so pop() reads in order
    content = [(ln, raw.strip()) for ln, raw in enumerate(lines, 1)]
    content = [(ln, text) for ln, text in reversed(content) if text and not text.startswith("#")]

    def next_line(expected):
        if not content:
            raise MeshFormatError("line %d: expected %s, got end of file" % (len(lines), expected))
        ln, text = content.pop()
        return ln, text, text.split()

    def section(keyword, what, form, bound=None):
        # header "<keyword> <count>", then count records matching form:
        # finite floats, or with bound, vertex indices in [0, bound)
        header = "'%s <count>'" % keyword
        ln, text, parts = next_line(header)
        if len(parts) != 2 or parts[0] != keyword:
            raise MeshFormatError("line %d: expected %s, got %r" % (ln, header, text))
        try:
            count = int(parts[1])
        except ValueError:
            count = -1
        if count < 0:
            raise MeshFormatError("line %d: malformed count in %r" % (ln, text))
        convert = float if bound is None else int
        records = []
        for i in range(count):
            ln, text, parts = next_line("%s %d of %d" % (what, i, count))
            if len(parts) != len(form.split()):
                raise MeshFormatError("line %d: expected '%s', got %r" % (ln, form, text))
            try:
                records.append([convert(p) for p in parts])
            except ValueError:
                raise MeshFormatError("line %d: malformed %s %d in %r" % (ln, what, i, text)) from None
            if bound is None and not np.all(np.isfinite(records[-1])):
                raise MeshFormatError("line %d: non-finite %s %d in %r" % (ln, what, i, text))
            if bound is not None and not all(0 <= v < bound for v in records[-1]):
                raise MeshFormatError("line %d: index out of range in %s %d" % (ln, what, i))
        return records

    vertices = section("vertices", "vertex", "x y")
    triangles = section("triangles", "triangle", "i j k", len(vertices))
    # files written by earlier versions end with a boundary section
    header = content[-1] if content else None
    listed = section("boundary", "boundary vertex", "v", len(vertices)) if content else None
    if content:
        ln, text = content[-1]
        raise MeshFormatError("line %d: unexpected content after the boundary section: %r"
                              % (ln, text))

    mesh = Mesh(np.array(vertices, dtype=float).reshape(-1, 2),
                np.array(triangles, dtype=np.int64).reshape(-1, 3))
    if listed is not None:
        flags = mesh.boundary_vertex_flags
        wrong = sorted({i for (i,) in listed} ^ set(np.flatnonzero(flags)))
        if wrong:
            raise MeshFormatError("line %d: %r must list exactly the vertices on boundary edges; vertex %d %s"
                                  % (*header, wrong[0], "is missing" if flags[wrong[0]] else "is on none"))
    return mesh


def write_mesh(mesh, path):
    """Serialize a mesh in the text format; the round trip is exact."""
    with open(path, "w") as fh:
        fh.write("vertices %d\n" % mesh.n_vertices)
        for vx, vy in mesh.vertices:
            fh.write("%.17g %.17g\n" % (vx, vy))
        fh.write("triangles %d\n" % mesh.n_triangles)
        for a, b, c in mesh.triangles:
            fh.write("%d %d %d\n" % (a, b, c))
