"""A small reader of legacy binary VTK unstructured grids, for the tests.

It parses the ASCII keyword lines and reads each data block with
np.frombuffer at ">f8" (double) or ">i4" (CELLS, CELL_TYPES), checking
the "\\n" that closes every block and that nothing follows the last one.
"""

from collections import namedtuple

import numpy as np

# lines: every ASCII line of the file, in order.  blocks: the decoded data
# by name: POINTS (n, 3), CELLS (nt, 4), CELL_TYPES (nt,), and each field,
# vectors as (n, 3) and scalars as (n,)
VtkFile = namedtuple("VtkFile", "lines blocks")


def read_vtk(data):
    """Decode the bytes of a legacy binary VTK file; raises AssertionError
    on any departure from the layout."""
    lines, blocks = [], {}
    pos, count = 0, None

    def line():
        nonlocal pos
        end = data.index(b"\n", pos)
        text = data[pos:end].decode("ascii")
        pos = end + 1
        lines.append(text)
        return text

    def block(name, dtype, size, shape):
        nonlocal pos
        values = np.frombuffer(data, dtype, size, pos)
        pos += values.nbytes
        assert data[pos : pos + 1] == b"\n", "block %s is not closed by a newline" % name
        pos += 1
        blocks[name] = values.reshape(shape)

    assert line() == "# vtk DataFile Version 3.0"
    line()  # title
    assert line() == "BINARY"
    assert line() == "DATASET UNSTRUCTURED_GRID"
    while pos < len(data):
        words = line().split()
        key = words[0]
        if key == "POINTS":
            assert words[2] == "double"
            n = int(words[1])
            block(key, ">f8", 3 * n, (n, 3))
        elif key == "CELLS":
            nt, size = int(words[1]), int(words[2])
            block(key, ">i4", size, (nt, size // nt))
        elif key == "CELL_TYPES":
            block(key, ">i4", int(words[1]), (int(words[1]),))
        elif key in ("POINT_DATA", "CELL_DATA"):
            count = int(words[1])
        elif key == "VECTORS":
            assert words[2] == "double"
            block(words[1], ">f8", 3 * count, (count, 3))
        elif key == "SCALARS":
            assert words[2] == "double"
            assert line() == "LOOKUP_TABLE default"
            block(words[1], ">f8", count, (count,))
        else:
            raise AssertionError("unknown keyword line %r" % lines[-1])
    return VtkFile(lines, blocks)


def read_vtk_file(path):
    with open(path, "rb") as fh:
        return read_vtk(fh.read())
