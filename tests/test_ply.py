import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointssl import PointCloud, read_ply, write_ply
from pointssl.ply import _PLY_TO_NUMPY, PlyError

from conftest import make_cloud


def _sample_cloud(rng, n=200, colors=True, normals=True):
    normal_vectors = None
    if normals:
        normal_vectors = rng.normal(size=(n, 3))
        normal_vectors /= np.linalg.norm(normal_vectors, axis=1, keepdims=True)
        normal_vectors = normal_vectors.astype(np.float32).astype(np.float64)
    return PointCloud(
        positions=rng.uniform(-5, 5, (n, 3)).astype(np.float32).astype(np.float64),
        colors=rng.uniform(0, 1, (n, 3)) if colors else None,
        normals=normal_vectors,
    )


def test_binary_roundtrip_byte_identical(tmp_path):
    rng = np.random.default_rng(0)
    cloud = _sample_cloud(rng)
    first = tmp_path / "a.ply"
    second = tmp_path / "b.ply"
    write_ply(first, cloud)
    reread, _ = read_ply(first)
    write_ply(second, reread)
    assert first.read_bytes() == second.read_bytes()


def test_float32_positions_bit_stable(tmp_path):
    rng = np.random.default_rng(1)
    cloud = _sample_cloud(rng, colors=False, normals=False)
    path = tmp_path / "c.ply"
    write_ply(path, cloud)
    reread, _ = read_ply(path)
    np.testing.assert_array_equal(reread.positions, cloud.positions)


def _write_ascii_ply(path, cloud):
    """cloud (with colours and normals) as an ASCII PLY file: float positions
    and normals to 9 digits, which round-trips float32, and uchar colours."""
    header = ["ply", "format ascii 1.0", f"element vertex {len(cloud)}"]
    header += [f"property float {c}" for c in ("x", "y", "z")]
    header += [f"property uchar {c}" for c in ("red", "green", "blue")]
    header += [f"property float {c}" for c in ("nx", "ny", "nz")]
    rows = np.hstack([cloud.positions, np.rint(cloud.colors * 255.0), cloud.normals])
    np.savetxt(path, rows, fmt="%.9g", header="\n".join(header + ["end_header"]), comments="")


def test_float64_positions(tmp_path):
    rng = np.random.default_rng(2)
    cloud = make_cloud(rng.uniform(-1, 1, (50, 3)))
    path = tmp_path / "d.ply"
    header = ["ply", "format binary_little_endian 1.0", "element vertex 50"]
    header += [f"property double {c}" for c in ("x", "y", "z")] + ["end_header", ""]
    with open(path, "wb") as stream:
        stream.write("\n".join(header).encode())
        cloud.positions.astype("<f8").tofile(stream)
    reread, _ = read_ply(path)
    np.testing.assert_array_equal(reread.positions, cloud.positions)


def test_ascii_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    cloud = _sample_cloud(rng, n=40)
    path = tmp_path / "e.ply"
    _write_ascii_ply(path, cloud)
    assert path.read_bytes().startswith(b"ply\nformat ascii 1.0")
    reread, _ = read_ply(path)
    np.testing.assert_array_equal(reread.positions, cloud.positions)
    quantized = np.rint(cloud.colors * 255.0) / 255.0
    np.testing.assert_allclose(reread.colors, quantized, atol=1e-12)


def test_color_quantization():
    # uint8 color storage must survive a write/read/write cycle exactly
    rng = np.random.default_rng(4)
    raw = rng.integers(0, 256, (100, 3))
    cloud = PointCloud(positions=rng.uniform(0, 1, (100, 3)), colors=raw / 255.0)
    from pathlib import Path
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "q.ply"
        write_ply(path, cloud)
        reread, _ = read_ply(path)
        np.testing.assert_array_equal((reread.colors * 255).round().astype(int), raw)


def test_unknown_property_preserved_on_read(tmp_path):
    path = tmp_path / "extra.ply"
    header = (
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property float confidence\nend_header\n"
        "0 0 0 0.5\n1 1 1 0.75\n"
    )
    path.write_text(header)
    cloud, extras = read_ply(path)
    assert len(cloud) == 2
    np.testing.assert_allclose(extras["confidence"], [0.5, 0.75])


def test_uint8_colors_read(tmp_path):
    path = tmp_path / "col.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n0 0 0 255 0 51\n"
    )
    cloud, _ = read_ply(path)
    np.testing.assert_allclose(cloud.colors[0], [1.0, 0.0, 51 / 255.0])


def test_malformed_files_raise(tmp_path):
    bad_magic = tmp_path / "bad.ply"
    bad_magic.write_text("nonsense\n")
    with pytest.raises(PlyError):
        read_ply(bad_magic)

    truncated = tmp_path / "trunc.ply"
    truncated.write_text(
        "ply\nformat ascii 1.0\nelement vertex 5\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n0 0 0\n"
    )
    with pytest.raises(PlyError):
        read_ply(truncated)

    no_vertex = tmp_path / "novert.ply"
    no_vertex.write_text("ply\nformat ascii 1.0\nelement face 0\nend_header\n")
    with pytest.raises(PlyError):
        read_ply(no_vertex)


def test_skips_scalar_elements_before_vertex(tmp_path):
    path = tmp_path / "pre.ply"
    path.write_text(
        "ply\nformat ascii 1.0\n"
        "element camera 1\nproperty float fx\nproperty float fy\n"
        "element vertex 1\nproperty float x\nproperty float y\nproperty float z\n"
        "end_header\n500.0 500.0\n1 2 3\n"
    )
    cloud, _ = read_ply(path)
    np.testing.assert_allclose(cloud.positions[0], [1, 2, 3])


_HEADER = ["ply", "format ascii 1.0", "element vertex 1",
           "property float x", "property float y", "property float z"]


@pytest.mark.parametrize("line, index", [
    ("element vertex abc", 2),
    ("element vertex -5", 2),
    ("element vertex", 2),
    ("property foo x", 3),
    ("format", 1),
])
def test_bad_header_line_is_named(tmp_path, line, index):
    header = list(_HEADER)
    header[index] = line
    path = tmp_path / "bad_header.ply"
    path.write_text("\n".join(header + ["end_header", "1 2 3", ""]))
    with pytest.raises(PlyError, match=f"header line '{line}'"):
        read_ply(path)


def test_non_numeric_ascii_value_names_the_row(tmp_path):
    path = tmp_path / "bad_value.ply"
    header = list(_HEADER)
    header[2] = "element vertex 2"
    path.write_text("\n".join(header + ["end_header", "1 2 3", "4 five 6", ""]))
    with pytest.raises(PlyError, match="row 1: '4 five 6'"):
        read_ply(path)


@pytest.mark.parametrize("fmt, row, count", [
    ("ascii", b"1 2 3\n", 100000000000000),
    ("binary_little_endian", np.array([1, 2, 3], "<f4").tobytes(), 100000000000000),
    ("binary_little_endian", np.array([1, 2, 3], "<f4").tobytes(), 2),
])
def test_count_the_file_cannot_hold_is_rejected(tmp_path, fmt, row, count):
    # One row of payload under a larger count: rejected before the rows are
    # allocated, so the huge count raises no MemoryError.
    path = tmp_path / "overcount.ply"
    header = list(_HEADER)
    header[1], header[2] = f"format {fmt} 1.0", f"element vertex {count}"
    path.write_bytes("\n".join(header + ["end_header", ""]).encode() + row)
    with pytest.raises(PlyError, match=f"'vertex' declares {count} rows but only {len(row)} bytes"):
        read_ply(path)


@pytest.mark.parametrize("props, row, message", [
    (["x", "y", "z"], "nan 2 3", "positions must be finite"),
    (["x", "y", "z", "nx", "ny", "nz"], "1 2 3 0 0 0", "normals must have unit norm"),
    (["x", "y", "z", "y"], "1 2 3 4", "header line 'property float y' repeats a property"),
])
def test_values_a_cloud_cannot_hold_raise_ply_error(tmp_path, props, row, message):
    path = tmp_path / "bad_values.ply"
    header = _HEADER[:3] + [f"property float {name}" for name in props]
    path.write_text("\n".join(header + ["end_header", row, ""]))
    with pytest.raises(PlyError, match=message):
        read_ply(path)


@pytest.mark.parametrize("value", ["300", "-1", "2.5", "nan", "inf"])
def test_ascii_value_outside_its_integer_type_is_rejected(tmp_path, value):
    path = tmp_path / "bad_color.ply"
    header = _HEADER + [f"property uchar {name}" for name in ("red", "green", "blue")]
    path.write_text("\n".join(header + ["end_header", f"1 2 3 0 {value} 255", ""]))
    with pytest.raises(PlyError, match="row 0: 'green' is not a uchar"):
        read_ply(path)


def _small_ply_files() -> list[bytes]:
    """A 4-point cloud with colours and normals, binary and ASCII, with a
    one-row camera element in front of the vertices."""
    cloud = _sample_cloud(np.random.default_rng(3), n=4)
    files = []
    for write, camera_row in ((write_ply, np.array([500.0], "<f4").tobytes()),
                              (_write_ascii_ply, b"500.0\n")):
        with tempfile.TemporaryDirectory() as tmp:
            write(Path(tmp) / "small.ply", cloud)
            head, body = (Path(tmp) / "small.ply").read_bytes().split(b"end_header\n")
        head = head.replace(b"element vertex", b"element camera 1\nproperty float fx\nelement vertex")
        files.append(head + b"end_header\n" + camera_row + body)
    return files


SMALL_PLY_FILES = _small_ply_files()
_HEADER_EDITS = ("swap", "duplicate", "delete", "count", "type")


@st.composite
def mutated_ply(draw) -> bytes:
    """A small valid PLY file with its header lines swapped, duplicated,
    deleted or edited, then bytes flipped and the file cut short."""
    data = draw(st.sampled_from(SMALL_PLY_FILES))
    head, body = data.split(b"end_header\n")
    lines = head.split(b"\n")[:-1] + [b"end_header"]
    for edit in draw(st.lists(st.sampled_from(_HEADER_EDITS), max_size=3)):
        i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        words = lines[i].split()
        if edit == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "duplicate":
            lines.insert(j, lines[i])
        elif edit == "delete" and len(lines) > 1:
            del lines[i]
        elif edit == "count" and words[:1] == [b"element"]:
            count = draw(st.integers(0, 12) | st.sampled_from(["-1", "1e3", "", "10" * 12]))
            lines[i] = b" ".join(words[:2] + [str(count).encode()])
        elif edit == "type" and words[:1] == [b"property"] and len(words) == 3:
            kind = draw(st.sampled_from(sorted(_PLY_TO_NUMPY) + ["list", "half", ""]))
            lines[i] = b" ".join([words[0], kind.encode(), words[2]])
    blob = bytearray(b"\n".join(lines) + b"\n" + body)
    for _ in range(draw(st.integers(0, 3))):
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    return bytes(blob[: draw(st.integers(0, len(blob)))] if draw(st.booleans()) else blob)


@settings(max_examples=300, deadline=None)
@given(data=mutated_ply())
def test_mutated_file_reads_or_raises_ply_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.ply"
    path.write_bytes(data)
    try:
        cloud, extras = read_ply(path)
    except PlyError:
        return
    assert isinstance(cloud, PointCloud) and isinstance(extras, dict)
