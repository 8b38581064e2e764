"""Mesh construction, size metrics, and the text file format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ipcs2d as pk


def total_area(mesh):
    return float(mesh.areas.sum())


def test_smallest_grid_counts():
    m = pk.generate_structured_unit_square(1)
    assert m.n_vertices == 4
    assert m.n_triangles == 2
    assert np.isclose(total_area(m), 1.0)


def test_n2_counts():
    m = pk.generate_structured_unit_square(2)
    assert m.n_vertices == 9
    assert m.n_triangles == 8
    assert int(m.boundary_vertex_flags.sum()) == 8


def test_h_is_diagonal_length():
    assert np.isclose(pk.generate_structured_unit_square(1).h, np.sqrt(2.0))
    assert np.isclose(pk.generate_structured_unit_square(4).h, np.sqrt(2.0) / 4.0)


def test_min_angle_right_isoceles():
    assert np.isclose(pk.generate_structured_unit_square(1).min_angle, 45.0)


def test_uniform_mesh_diameters_brute_force():
    m = pk.generate_structured_unit_square(4)
    diams = []
    for tri in m.triangles:
        v = m.vertices[tri]
        diams.append(
            max(np.linalg.norm(v[i] - v[j]) for i in range(3) for j in range(i))
        )
    diams = np.array(diams)
    assert np.allclose(diams, diams[0])
    assert np.allclose(m.diameters, diams)
    assert np.isclose(m.h, diams.max())


def test_quasi_uniformity_refinement_invariant():
    a = pk.generate_structured_unit_square(1).quasi_uniformity
    b = pk.generate_structured_unit_square(8).quasi_uniformity
    assert np.isclose(a, b)


@pytest.mark.parametrize(
    "n,fragment",
    [
        (0, "must be a positive integer"),
        (2.5, "must be a positive integer"),
        (1025, "mesh_n must be at most 1024"),
        (100000, "mesh_n must be at most 1024"),
        (float("inf"), "must be a positive integer"),
        (float("-inf"), "must be a positive integer"),
        (float("nan"), "must be a positive integer"),
    ],
)
def test_structured_grid_resolution_is_bounded(monkeypatch, n, fragment):
    # rejected before anything is allocated: the grid is never laid out
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was laid out")

    monkeypatch.setattr(np, "linspace", no_grid)
    with pytest.raises(ValueError, match=fragment):
        pk.generate_structured_unit_square(n)


@pytest.mark.parametrize("n", [0, 2.5, 1025])
def test_structured_grid_and_config_reject_mesh_n_alike(n):
    with pytest.raises(ValueError) as direct:
        pk.generate_structured_unit_square(n)
    with pytest.raises(ValueError) as config:
        pk.SchemeConfig(dt=0.1, T=1.0, mesh_n=n, u0=lambda x, y: (x, y))
    assert str(direct.value) == str(config.value)
    assert str(direct.value).startswith("mesh_n must be ")
    assert str(direct.value).endswith("(got %r)" % (n,))


@settings(deadline=None, max_examples=12)
@given(st.integers(min_value=1, max_value=12))
def test_structured_counts(n):
    m = pk.generate_structured_unit_square(n)
    assert m.n_vertices == (n + 1) ** 2
    assert m.n_triangles == 2 * n * n
    assert int(m.boundary_vertex_flags.sum()) == 4 * n
    assert m.n_edges == 3 * n * n + 2 * n
    assert np.isclose(total_area(m), 1.0)
    assert np.isclose(m.areas.sum(), 1.0)


def test_mesh_file_round_trip(tmp_path):
    m = pk.generate_structured_unit_square(1)
    path = tmp_path / "m.txt"
    pk.write_mesh(m, str(path))
    m2 = pk.read_mesh(str(path))
    assert np.array_equal(m2.vertices, m.vertices)
    assert np.array_equal(m2.triangles, m.triangles)
    assert np.array_equal(m2.boundary_vertex_flags, m.boundary_vertex_flags)


def with_boundary_section(path, listed):
    """Append the boundary section that earlier versions wrote at the end
    of every mesh file, listing the vertices in listed."""
    path.write_text(path.read_text() + "boundary %d\n" % len(listed) + "".join("%d\n" % i for i in listed))


def test_mesh_file_round_trip_with_boundary_section(tmp_path):
    # write_mesh writes no section; a file that has one still reads when
    # it lists exactly the ends of the boundary edges
    m = pk.generate_structured_unit_square(3)
    path = tmp_path / "m3.txt"
    pk.write_mesh(m, str(path))
    assert "boundary" not in path.read_text()
    with_boundary_section(path, np.flatnonzero(m.boundary_vertex_flags))
    m2 = pk.read_mesh(str(path))
    assert np.array_equal(m2.vertices, m.vertices)
    assert np.array_equal(m2.triangles, m.triangles)
    assert np.array_equal(m2.boundary_vertex_flags, m.boundary_vertex_flags)


@pytest.mark.parametrize(
    "listed, fragment",
    [
        ([0, 1, 2, 3, 5, 6, 7], "'boundary 7' must list exactly the vertices on boundary edges; vertex 8 is missing"),
        (range(9), "'boundary 9' must list exactly the vertices on boundary edges; vertex 4 is on none"),
        ([], "'boundary 0' must list exactly the vertices on boundary edges; vertex 0 is missing"),
    ],
    ids=["omits-a-boundary-vertex", "lists-an-interior-vertex", "empty"],
)
def test_boundary_section_must_list_the_ends_of_boundary_edges(tmp_path, listed, fragment):
    # n=2: 9 vertices, 8 triangles, the section header on line 20;
    # vertex 4 is the only interior one
    path = tmp_path / "legacy.txt"
    pk.write_mesh(pk.generate_structured_unit_square(2), str(path))
    with_boundary_section(path, listed)
    with pytest.raises(pk.MeshFormatError, match="^line 20: " + fragment + "$"):
        pk.read_mesh(str(path))


def test_flipped_triangle_names_the_triangle(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "vertices 4\n0 0\n1 0\n1 1\n0 1\n"
        "triangles 2\n0 1 2\n0 3 2\n"  # second triangle is clockwise
    )
    with pytest.raises(pk.MeshFormatError, match="triangle 1"):
        pk.read_mesh(str(path))


def test_dangling_vertex_flagged_unused(tmp_path):
    # no Lagrange space can use vertex 4, so neither way in accepts it
    verts = [[0, 0], [1, 0], [1, 1], [0, 1], [0.25, 0.5]]
    triangles = [[0, 1, 2], [0, 2, 3]]
    with pytest.raises(pk.MeshFormatError, match="^vertex 4 belongs to no triangle"):
        pk.Mesh(verts, triangles)
    path = tmp_path / "dangle.txt"
    path.write_text(
        "vertices 5\n0 0\n1 0\n1 1\n0 1\n0.25 0.5\n"
        "triangles 2\n0 1 2\n0 2 3\n"
    )
    with pytest.raises(pk.MeshFormatError, match="^vertex 4 belongs to no triangle"):
        pk.read_mesh(str(path))


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("vertices x\n", "malformed count"),
        ("vertices 3\n0 0\n1 0\n", "expected vertex"),
        ("vertices 3\n0 0\n1 0\nzap\n", "expected 'x y'"),
        ("vertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 5\n", "out of range"),
        ("vertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1\n", "expected 'i j k'"),
        ("vertices -1\n", "line 1: malformed count"),
        ("vertices 3\n0 0\n1 0\n0 1\ntriangles -2\n", "line 5: malformed count"),
        ("vertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2\nboundary x\n", "line 7: malformed count"),
        ("vertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2\nboundary -1\n", "line 7: malformed count"),
        ("vertices 3\n0 0\n1 nan\n0 1\ntriangles 1\n0 1 2\n", "line 3: non-finite vertex"),
        ("vertices 3\n0 0\n1 0\n-inf 1\ntriangles 1\n0 1 2\n", "line 4: non-finite vertex"),
        ("vertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 99999999999999999999\n", "line 6: .*out of range"),
        ("vertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 -99999999999999999999 1\n", "line 6: .*out of range"),
        ("vertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2\nboundary 1\n99999999999999999999\n", "line 8: .*out of range"),
        ("vertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2\nboundary 3\n0\n1\n2\nvertices 99\ngarbage here\n",
         "line 11: unexpected content after the boundary section: 'vertices 99'"),
        ("vertices 0\ntriangles 0\n", "an \\(M, 3\\) array with M >= 1"),
        ("vertices 3\n0 0\n1 0\n0 1\ntriangles 0\n", "an \\(M, 3\\) array with M >= 1"),
    ],
)
def test_malformed_files_rejected(tmp_path, content, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(pk.MeshFormatError, match=fragment):
        pk.read_mesh(str(path))


def test_non_utf8_file_names_the_file(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("vertices 3\n0 0\n1 0\n0 1\n# café\n".encode("latin-1"))
    with pytest.raises(pk.MeshFormatError, match="latin1.txt: not a UTF-8 text file"):
        pk.read_mesh(str(path))


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.txt"


def read_text_or_mesh_error(path, text):
    """read_mesh of text: a Mesh, or None after a MeshFormatError; any
    other exception escapes."""
    path.write_text(text, encoding="utf-8")
    try:
        return pk.read_mesh(str(path))
    except pk.MeshFormatError:
        return None


@settings(deadline=None, max_examples=150)
@given(text=st.text(max_size=120))
def test_random_mesh_text_raises_only_mesh_format_error(fuzz_path, text):
    read_text_or_mesh_error(fuzz_path, text)


VALID_MESH = (
    "vertices 5\n0 0\n1 0\n1 1\n0 1\n0.5 0.5\n"
    "triangles 4\n0 1 4\n1 2 4\n2 3 4\n3 0 4\n"
    "boundary 4\n0\n1\n2\n3\n"
)
MESH_TOKENS = ["0", "1", "5", "-1", "0.5", "nan", "-inf", "1e400", "99999999999999999999", "x", ""]


@st.composite
def mutated_mesh(draw):
    text = VALID_MESH
    for _ in range(draw(st.integers(1, 4))):
        lines = text.splitlines(keepends=True)
        kind = draw(st.sampled_from(["delete", "insert", "token", "swap", "duplicate"]))
        at = draw(st.integers(0, max(len(text) - 1, 0)))
        if kind == "delete" and text:
            text = text[:at] + text[at + 1:]
        elif kind == "insert":
            text = text[:at] + draw(st.sampled_from(list("0123456789-.e #\nxé\t"))) + text[at:]
        elif kind == "token" and lines:
            i = draw(st.integers(0, len(lines) - 1))
            parts = lines[i].split() or [""]
            parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(MESH_TOKENS))
            lines[i] = " ".join(parts) + "\n"
            text = "".join(lines)
        elif kind == "swap" and len(lines) > 1:
            i = draw(st.integers(0, len(lines) - 2))
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
            text = "".join(lines)
        elif kind == "duplicate" and lines:
            i = draw(st.integers(0, len(lines) - 1))
            text = "".join(lines[: i + 1] + lines[i:])
    return text


@settings(deadline=None, max_examples=300)
@given(text=mutated_mesh())
def test_mutated_mesh_raises_only_mesh_format_error(fuzz_path, text):
    # the unmutated text loads, so the mutations start from a valid mesh
    assert read_text_or_mesh_error(fuzz_path, VALID_MESH) is not None
    read_text_or_mesh_error(fuzz_path, text)


def test_constructor_rejects_bad_shapes():
    with pytest.raises(pk.MeshFormatError):
        pk.Mesh(np.zeros((3, 3)), [[0, 1, 2]])
    with pytest.raises(pk.MeshFormatError):
        pk.Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2, 0]])
    with pytest.raises(pk.MeshFormatError):
        pk.Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 3]])
    with pytest.raises(pk.MeshFormatError, match=r"an \(M, 3\) array with M >= 1, got shape \(0, 3\)"):
        pk.Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], np.zeros((0, 3), dtype=np.int64))
    # numpy's own conversion errors must not escape, even for numeric strings
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(pk.MeshFormatError, match="^vertices must be an array of real numbers, got dtype <U1$"):
        pk.Mesh([["a", "b"], ["1", "0"], ["0", "1"]], [[0, 1, 2]])
    with pytest.raises(pk.MeshFormatError, match="^triangles must be an array of real numbers, got dtype <U1$"):
        pk.Mesh(verts, [["0", "1", "2"]])
    with pytest.raises(pk.MeshFormatError, match="^vertices must be an array of real numbers, got dtype complex128$"):
        pk.Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0 + 0j]], [[0, 1, 2]])


def test_mesh_copies_its_inputs():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    t = np.array([[0, 1, 2], [0, 2, 3]])
    m = pk.Mesh(v, t)
    kept = [m.vertices.copy(), m.triangles.copy(), m.areas.copy()]
    v[2] = [5.0, 5.0]
    t[1] = [0, 3, 2]  # clockwise: a folded mesh
    for array, before in zip([m.vertices, m.triangles, m.areas], kept):
        assert np.array_equal(array, before)


def test_every_mesh_array_is_read_only():
    m = pk.generate_structured_unit_square(2)
    arrays = {name: a for name, a in vars(m).items() if isinstance(a, np.ndarray)}
    assert {"vertices", "triangles", "areas", "jac", "detJ", "adj", "inv_j", "edges"} <= set(arrays)
    for name, array in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = array[(0,) * array.ndim]


def test_mesh_affine_map():
    # columns of jac are the edges from v0; detJ, adj and inv_j follow from it
    m = pk.Mesh([[0.0, 0.0], [2.0, 0.5], [0.5, 1.0], [-1.0, 0.25]], [[0, 1, 2], [0, 2, 3]])
    v, t = m.vertices, m.triangles
    assert np.array_equal(m.jac[:, :, 0], v[t[:, 1]] - v[t[:, 0]])
    assert np.array_equal(m.jac[:, :, 1], v[t[:, 2]] - v[t[:, 0]])
    assert np.allclose(m.detJ, np.linalg.det(m.jac)) and np.array_equal(m.areas, 0.5 * m.detJ)
    assert np.allclose(m.inv_j @ m.jac, np.eye(2)) and np.allclose(m.adj, m.detJ[:, None, None] * m.inv_j)


def test_unreadable_path_is_a_mesh_format_error(tmp_path):
    with pytest.raises(pk.MeshFormatError, match=r"missing.txt: cannot read the mesh file \(No such file or directory\)$"):
        pk.read_mesh(str(tmp_path / "missing.txt"))
    with pytest.raises(pk.MeshFormatError, match=r": cannot read the mesh file \(Is a directory\)$"):
        pk.read_mesh(str(tmp_path))


@pytest.mark.parametrize("index", [1.7, np.nan, np.inf, -np.inf, -1, 4])
def test_constructor_rejects_an_index_that_is_not_a_vertex_by_triangle(index):
    # a fractional index must not run as its integer part, nor nan
    # escape as numpy's own ValueError
    verts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    with pytest.raises(pk.MeshFormatError, match=r"triangle 1 has vertex indices .*; each must be an integer in \[0, 4\)"):
        pk.Mesh(verts, [[0, 1, 2], [0, 2, index]])


@pytest.mark.parametrize("dtype", [np.int32, np.uint8, float])
def test_constructor_takes_integer_valued_indices_of_any_dtype(dtype):
    verts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    triangles = np.array([[0, 1, 2], [0, 2, 3]])
    taken = pk.Mesh(verts, triangles.astype(dtype)).triangles
    assert taken.dtype == np.int64 and np.array_equal(taken, triangles)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_constructor_rejects_non_finite_vertex_by_index(bad):
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [bad, 1.0]]
    with pytest.raises(pk.MeshFormatError, match="vertex 3 has non-finite coordinates"):
        pk.Mesh(verts, [[0, 1, 2], [1, 3, 2]])


def test_constructor_rejects_triangle_with_nan_area():
    # finite vertices whose edge vectors overflow: the signed area is
    # inf - inf = nan, which no comparison with 0 admits
    verts = [[-1e308, -1e308], [1e308, 1e308], [1e308, -1e308]]
    with pytest.raises(pk.MeshFormatError, match="triangle 0 has non-positive signed area nan"):
        with np.errstate(over="ignore", invalid="ignore"):
            pk.Mesh(verts, [[0, 1, 2]])


def test_constructor_rejects_flat_triangle():
    verts = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    with pytest.raises(pk.MeshFormatError, match="triangle 0"):
        pk.Mesh(verts, [[0, 1, 2]])


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(min_value=1, max_value=5),
    scale=st.tuples(*[st.floats(min_value=1e-3, max_value=1e3)] * 2),
    shift=st.tuples(*[st.floats(min_value=-1e6, max_value=1e6)] * 2),
)
def test_write_read_round_trip_is_exact(tmp_path_factory, n, scale, shift):
    # arbitrary doubles through an affine map must come back bit for bit
    base = pk.generate_structured_unit_square(n)
    mesh = pk.Mesh(base.vertices * np.array(scale) + np.array(shift), base.triangles)
    path = tmp_path_factory.getbasetemp() / "round_trip.txt"
    pk.write_mesh(mesh, str(path))
    back = pk.read_mesh(str(path))
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.boundary_vertex_flags, mesh.boundary_vertex_flags)


def edge_table_by_loop(triangles):
    """Edge numbering in first-seen order over (triangle, local edge), one
    dictionary lookup at a time: the reference for Mesh's vectorized table."""
    index, pairs, count = {}, [], []
    triangle_edges = np.empty_like(triangles)
    for c, tri in enumerate(triangles):
        for le, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
            key = (min(tri[a], tri[b]), max(tri[a], tri[b]))
            if key not in index:
                index[key] = len(pairs)
                pairs.append(key)
                count.append(0)
            count[index[key]] += 1
            triangle_edges[c, le] = index[key]
    return np.array(pairs, dtype=np.int64).reshape(-1, 2), triangle_edges, np.array(count) == 1


@pytest.mark.parametrize("n", [1, 2, 5, 9])
@pytest.mark.parametrize("relabel", [False, True])
def test_edge_table_matches_the_loop_reference(n, relabel):
    m = pk.generate_structured_unit_square(n)
    vertices, triangles = m.vertices, m.triangles
    if relabel:
        rng = np.random.default_rng(n)
        perm = rng.permutation(len(vertices))
        vertices = vertices[perm]
        triangles = np.argsort(perm)[triangles][rng.permutation(len(triangles))]
        triangles = np.roll(triangles, rng.integers(0, 3), axis=1)
    mesh = pk.Mesh(vertices, triangles)
    edges, triangle_edges, boundary = edge_table_by_loop(mesh.triangles)
    assert np.array_equal(mesh.edges, edges) and mesh.edges.dtype == np.int64
    assert np.array_equal(mesh.triangle_edges, triangle_edges)
    assert mesh.triangle_edges.dtype == np.int64
    assert np.array_equal(mesh.boundary_edge_flags, boundary)
    assert np.array_equal(mesh.boundary_edges, edges[boundary])


@pytest.mark.parametrize(
    "triangles, message",
    [
        ([[0, 1, 2], [0, 1, 2]], r"edge \(1, 2\) is shared by 2 triangles \[0, 1\]"),
        ([[0, 1, 2], [1, 2, 0]], r"edge \(1, 2\) is shared by 2 triangles \[0, 1\]"),
        ([[0, 1, 2], [0, 1, 3]], r"edge \(0, 1\) is shared by 2 triangles \[0, 1\]"),
    ],
    ids=["copy", "rotated-copy", "folded-neighbour"],
)
def test_triangles_that_run_an_edge_alike_overlap(triangles, message):
    # two copies of a triangle would make a mesh with no boundary edge
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]
    with pytest.raises(pk.MeshFormatError, match=message + "; a conforming mesh runs an edge once"):
        pk.Mesh(verts, triangles)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
def test_boundary_vertices_are_the_ends_of_boundary_edges(n):
    # on the unit square the topology flags what the coordinates did; on a
    # jittered, relabelled copy the flags follow the vertices
    mesh = pk.generate_structured_unit_square(n)
    v = mesh.vertices
    on_line = ((np.abs(v) < 1e-12) | (np.abs(v - 1.0) < 1e-12)).any(axis=1)
    assert np.array_equal(mesh.boundary_vertex_flags, on_line)
    rng = np.random.default_rng(n)
    jittered = v.copy()
    jittered[~on_line] += rng.uniform(-0.2 / n, 0.2 / n, (int((~on_line).sum()), 2))
    perm = rng.permutation(len(v))
    triangles = np.argsort(perm)[mesh.triangles][rng.permutation(mesh.n_triangles)]
    moved = pk.Mesh(jittered[perm], np.roll(triangles, rng.integers(0, 3), axis=1))
    ends = np.zeros(len(v), dtype=bool)
    ends[moved.boundary_edges.ravel()] = True
    assert np.array_equal(moved.boundary_vertex_flags, ends)
    assert np.array_equal(moved.boundary_vertex_flags, on_line[perm])


def test_over_shared_edge_names_the_edge_and_its_count():
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 1.0]]
    with pytest.raises(pk.MeshFormatError, match=r"edge \(.*0.*1.*\) is shared by 3 triangles"):
        pk.Mesh(verts, [[0, 1, 2], [0, 1, 3], [0, 1, 4]])


def structured_triangles_by_loop(n):
    """Two triangles per grid cell, one cell at a time, row by row: the
    reference for the vectorized generator."""
    triangles = []
    for iy in range(n):
        for ix in range(n):
            v00 = iy * (n + 1) + ix
            v10 = v00 + 1
            v01 = v00 + (n + 1)
            v11 = v01 + 1
            triangles.append((v00, v10, v11))
            triangles.append((v00, v11, v01))
    return np.array(triangles, dtype=np.int64)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
def test_structured_triangles_match_the_loop_reference(n):
    mesh = pk.generate_structured_unit_square(n)
    assert np.array_equal(mesh.triangles, structured_triangles_by_loop(n))
    assert mesh.triangles.dtype == np.int64
