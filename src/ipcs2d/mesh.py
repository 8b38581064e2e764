"""Conforming triangulations of the unit square.

The solver operates on meshes of the unit square made of positively
oriented triangles.  Structured meshes split every grid cell along the
lower-left to upper-right diagonal, so all elements are congruent right
isoceles triangles and the square is covered exactly.

External meshes use a small text format::

    vertices <N>
    x y          (N lines)
    triangles <M>
    i j k        (M lines, 0-based, counter-clockwise)
    boundary <B> (optional section; without it, boundary vertices are
    v             inferred as those with a coordinate in {0, 1})

A mesh is immutable after construction and safe to share between
concurrent readers.
"""

import numpy as np

__all__ = [
    "Mesh",
    "MeshFormatError",
    "generate_structured_unit_square",
    "read_mesh",
    "write_mesh",
    "mesh_metrics",
]

# local edge i of a triangle (v0, v1, v2) is the edge opposite vertex i
_LOCAL_EDGES = ((1, 2), (2, 0), (0, 1))

_COORD_TOL = 1e-12

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
    triangles : (M, 3) int array of vertex indices, counter-clockwise.
    boundary_vertex_flags : optional (N,) bool array; inferred from the
        coordinates (a coordinate equal to 0 or 1) when omitted.

    Construction validates positive orientation, edge conformity (every
    edge shared by one or two triangles) and boundary consistency, and
    precomputes the edge table used for quadratic dof numbering.
    """

    def __init__(self, vertices, triangles, boundary_vertex_flags=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshFormatError("vertices must be an (N, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshFormatError("triangles must be an (M, 3) array")
        nv = len(self.vertices)
        if self.triangles.size and (self.triangles.min() < 0 or self.triangles.max() >= nv):
            raise MeshFormatError("triangle vertex index out of range")

        self._check_orientation()
        self._build_edges()

        used = np.zeros(nv, dtype=bool)
        used[self.triangles.ravel()] = True
        self.unused_vertices = np.flatnonzero(~used)

        if boundary_vertex_flags is None:
            on_line = (np.abs(self.vertices) < _COORD_TOL) | (np.abs(self.vertices - 1.0) < _COORD_TOL)
            boundary_vertex_flags = on_line.any(axis=1)
        self.boundary_vertex_flags = np.asarray(boundary_vertex_flags, dtype=bool)
        if self.boundary_vertex_flags.shape != (nv,):
            raise MeshFormatError("boundary flags must have one entry per vertex")
        self._check_boundary_consistency()
        self._compute_metrics()

    # -- validation ----------------------------------------------------------

    def _signed_areas(self):
        v = self.vertices
        t = self.triangles
        d1 = v[t[:, 1]] - v[t[:, 0]]
        d2 = v[t[:, 2]] - v[t[:, 0]]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def _check_orientation(self):
        areas = self._signed_areas()
        bad = np.flatnonzero(areas <= 0.0)
        if bad.size:
            raise MeshFormatError(
                "triangle %d has non-positive signed area %.3e "
                "(vertices must be counter-clockwise)" % (bad[0], areas[bad[0]])
            )
        self.areas = areas

    def _build_edges(self):
        # edges numbered in first-seen order over (triangle, local edge),
        # which keeps the numbering deterministic
        ends = np.sort(self.triangles[:, np.array(_LOCAL_EDGES)], axis=-1).reshape(-1, 2)
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
        bad = np.flatnonzero(count > 2)
        if bad.size:
            raise MeshFormatError(
                "edge %s is shared by %d triangles; a conforming mesh allows 1 or 2"
                % (tuple(self.edges[bad[0]]), count[bad[0]])
            )
        self.boundary_edge_flags = count == 1
        self.boundary_edges = self.edges[self.boundary_edge_flags]

    def _check_boundary_consistency(self):
        # every endpoint of a topological boundary edge must be flagged
        ends = np.unique(self.boundary_edges.ravel())
        missing = ends[~self.boundary_vertex_flags[ends]]
        if missing.size:
            raise MeshFormatError(
                "vertex %d lies on a boundary edge but is not marked as a "
                "boundary vertex; add a boundary section to the mesh file" % missing[0]
            )

    def _compute_metrics(self):
        v = self.vertices
        t = self.triangles
        sides = np.stack(
            [np.linalg.norm(v[t[:, b]] - v[t[:, a]], axis=1) for a, b in _LOCAL_EDGES], axis=1
        )
        self.diameters = sides.max(axis=1) if len(t) else np.zeros(0)
        self.h = float(self.diameters.max()) if len(t) else 0.0
        # inscribed-circle diameter 2r with r = area / semiperimeter
        if len(t):
            incircle = 2.0 * self.areas / (0.5 * sides.sum(axis=1))
            self.quasi_uniformity = float(self.h / incircle.min())
            # law of cosines per corner, smallest angle over all elements
            a, b, c = sides[:, 0], sides[:, 1], sides[:, 2]
            angles = []
            for opp, e1, e2 in ((a, b, c), (b, c, a), (c, a, b)):
                cosv = np.clip((e1**2 + e2**2 - opp**2) / (2 * e1 * e2), -1.0, 1.0)
                angles.append(np.arccos(cosv))
            self.min_angle = float(np.degrees(np.min(angles)))
        else:
            self.quasi_uniformity = 0.0
            self.min_angle = 0.0

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

    @property
    def total_area(self):
        return float(self.areas.sum())


def generate_structured_unit_square(n):
    """Uniform n-by-n grid of the unit square, each cell split along the
    lower-left to upper-right diagonal.

    Produces (n+1)^2 vertices and 2 n^2 congruent right isoceles triangles
    with mesh size h = sqrt(2)/n, for 1 <= n <= MAX_MESH_N.
    """
    if not (n >= 1 and n % 1 == 0):
        raise ValueError("grid resolution n must be a positive integer, got %r" % (n,))
    if n > MAX_MESH_N:
        raise ValueError("grid resolution n=%d exceeds the limit of %d" % (n, MAX_MESH_N))
    n = int(n)
    side = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(side, side, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    triangles = []
    for iy in range(n):
        for ix in range(n):
            v00 = iy * (n + 1) + ix
            v10 = v00 + 1
            v01 = v00 + (n + 1)
            v11 = v01 + 1
            triangles.append((v00, v10, v11))
            triangles.append((v00, v11, v01))
    return Mesh(vertices, np.array(triangles, dtype=np.int64))


def mesh_metrics(mesh):
    """Size metrics of a mesh: h is the longest edge over all triangles,
    min_angle is in degrees, quasi_uniformity is h divided by the smallest
    inscribed-circle diameter.  Unused vertices are reported but excluded
    from the geometric quantities (those are per-triangle)."""
    return {
        "h": mesh.h,
        "min_angle": mesh.min_angle,
        "quasi_uniformity": mesh.quasi_uniformity,
        "n_vertices": mesh.n_vertices,
        "n_triangles": mesh.n_triangles,
        "n_unused_vertices": int(len(mesh.unused_vertices)),
    }


def read_mesh(path):
    """Read a mesh from the text format, validating conformity.

    Parse errors carry the 1-based line number, and a file that is not
    UTF-8 text is rejected with its name; non-conforming meshes (flipped
    triangles, over-shared edges) are rejected with the offending element
    named.  Vertices not referenced by any triangle are accepted and
    reported through ``mesh.unused_vertices``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise MeshFormatError("%s: not a UTF-8 text file (%s)" % (path, exc)) from None
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
    flags = None
    if content:
        flags = np.zeros(len(vertices), dtype=bool)
        for (idx,) in section("boundary", "boundary vertex", "v", len(vertices)):
            flags[idx] = True

    return Mesh(
        np.array(vertices, dtype=float).reshape(-1, 2),
        np.array(triangles, dtype=np.int64).reshape(-1, 3),
        boundary_vertex_flags=flags,
    )


def write_mesh(mesh, path):
    """Serialize a mesh in the text format (always with an explicit
    boundary section, so round trips are exact)."""
    with open(path, "w") as fh:
        fh.write("vertices %d\n" % mesh.n_vertices)
        for vx, vy in mesh.vertices:
            fh.write("%.17g %.17g\n" % (vx, vy))
        fh.write("triangles %d\n" % mesh.n_triangles)
        for a, b, c in mesh.triangles:
            fh.write("%d %d %d\n" % (a, b, c))
        marked = np.flatnonzero(mesh.boundary_vertex_flags)
        fh.write("boundary %d\n" % len(marked))
        for idx in marked:
            fh.write("%d\n" % idx)
