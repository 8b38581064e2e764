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
    ],
)
def test_malformed_files_rejected(tmp_path, content, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(pk.MeshFormatError, match=fragment):
        pk.read_mesh(str(path))


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
