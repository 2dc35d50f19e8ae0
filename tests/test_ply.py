import numpy as np
import pytest

from pointssl import PointCloud, read_ply, write_ply
from pointssl.ply import PlyError

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


def test_float64_positions(tmp_path):
    rng = np.random.default_rng(2)
    cloud = make_cloud(rng.uniform(-1, 1, (50, 3)))
    path = tmp_path / "d.ply"
    write_ply(path, cloud, position_dtype="float64")
    reread, _ = read_ply(path)
    np.testing.assert_array_equal(reread.positions, cloud.positions)


def test_ascii_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    cloud = _sample_cloud(rng, n=40)
    path = tmp_path / "e.ply"
    write_ply(path, cloud, binary=False)
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

    with pytest.warns(UserWarning, match="dropping unknown properties"):
        write_ply(tmp_path / "noextras.ply", cloud, extras=extras)
    reread, extras2 = read_ply(tmp_path / "noextras.ply")
    assert extras2 == {}


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
