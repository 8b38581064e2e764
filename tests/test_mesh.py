"""Mesh construction, size metrics, and the text file format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ipcs2d as pk


def test_smallest_grid_counts():
    m = pk.generate_structured_unit_square(1)
    assert m.n_vertices == 4
    assert m.n_triangles == 2
    assert np.isclose(m.total_area, 1.0)


def test_n2_counts():
    m = pk.generate_structured_unit_square(2)
    assert m.n_vertices == 9
    assert m.n_triangles == 8
    assert int(m.boundary_vertex_flags.sum()) == 8


def test_h_is_diagonal_length():
    assert np.isclose(pk.generate_structured_unit_square(1).h, np.sqrt(2.0))
    assert np.isclose(pk.generate_structured_unit_square(4).h, np.sqrt(2.0) / 4.0)


def test_min_angle_right_isoceles():
    metrics = pk.mesh_metrics(pk.generate_structured_unit_square(1))
    assert np.isclose(metrics["min_angle"], 45.0)


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
        (1025, "n=1025 exceeds the limit of 1024"),
        (100000, "n=100000 exceeds the limit of 1024"),
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


@settings(deadline=None, max_examples=12)
@given(st.integers(min_value=1, max_value=12))
def test_structured_counts(n):
    m = pk.generate_structured_unit_square(n)
    assert m.n_vertices == (n + 1) ** 2
    assert m.n_triangles == 2 * n * n
    assert int(m.boundary_vertex_flags.sum()) == 4 * n
    assert m.n_edges == 3 * n * n + 2 * n
    assert np.isclose(m.total_area, 1.0)
    assert np.isclose(m.areas.sum(), 1.0)


def test_mesh_file_round_trip(tmp_path):
    m = pk.generate_structured_unit_square(1)
    path = tmp_path / "m.txt"
    pk.write_mesh(m, str(path))
    m2 = pk.read_mesh(str(path))
    assert np.array_equal(m2.vertices, m.vertices)
    assert np.array_equal(m2.triangles, m.triangles)
    assert np.array_equal(m2.boundary_vertex_flags, m.boundary_vertex_flags)


def test_mesh_file_round_trip_with_boundary_section(tmp_path):
    m = pk.generate_structured_unit_square(3)
    path = tmp_path / "m3.txt"
    pk.write_mesh(m, str(path))
    text = path.read_text()
    assert "boundary" in text
    m2 = pk.read_mesh(str(path))
    assert np.array_equal(m2.vertices, m.vertices)
    assert np.array_equal(m2.boundary_vertex_flags, m.boundary_vertex_flags)


def test_flipped_triangle_names_the_triangle(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "vertices 4\n0 0\n1 0\n1 1\n0 1\n"
        "triangles 2\n0 1 2\n0 3 2\n"  # second triangle is clockwise
    )
    with pytest.raises(pk.MeshFormatError, match="triangle 1"):
        pk.read_mesh(str(path))


def test_dangling_vertex_flagged_unused(tmp_path):
    path = tmp_path / "dangle.txt"
    path.write_text(
        "vertices 5\n0 0\n1 0\n1 1\n0 1\n0.25 0.5\n"
        "triangles 2\n0 1 2\n0 2 3\n"
    )
    m = pk.read_mesh(str(path))
    metrics = pk.mesh_metrics(m)
    assert metrics["n_unused_vertices"] == 1
    assert list(m.unused_vertices) == [4]
    assert metrics["n_vertices"] == 5
    assert metrics["n_triangles"] == 2


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


def test_constructor_rejects_flat_triangle():
    verts = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    with pytest.raises(pk.MeshFormatError, match="triangle 0"):
        pk.Mesh(verts, [[0, 1, 2]])


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(min_value=1, max_value=5),
    scale=st.tuples(*[st.floats(min_value=1e-3, max_value=1e3)] * 2),
    shift=st.tuples(*[st.floats(min_value=-1e6, max_value=1e6)] * 2),
    extra=st.lists(st.integers(min_value=0, max_value=35), max_size=4),
)
def test_write_read_round_trip_is_exact(tmp_path_factory, n, scale, shift, extra):
    # arbitrary doubles through an affine map, and boundary flags beyond
    # the topological boundary, must come back bit for bit
    base = pk.generate_structured_unit_square(n)
    flags = base.boundary_vertex_flags.copy()
    flags[[i for i in extra if i < len(flags)]] = True
    mesh = pk.Mesh(base.vertices * np.array(scale) + np.array(shift), base.triangles, flags)
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


def test_over_shared_edge_names_the_edge_and_its_count():
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 1.0]]
    with pytest.raises(pk.MeshFormatError, match=r"edge \(.*0.*1.*\) is shared by 3 triangles"):
        pk.Mesh(verts, [[0, 1, 2], [0, 1, 3], [0, 1, 4]], boundary_vertex_flags=[True] * 5)
