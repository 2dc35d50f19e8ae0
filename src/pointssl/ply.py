"""PLY point-cloud reader (ASCII and binary little-endian) and writer
(binary little-endian).

Supported vertex properties on read: x, y, z as float32 or float64; optional
red, green, blue as uint8 (mapped to [0, 1] by /255); optional nx, ny, nz
as float32.  Unknown scalar properties are preserved on read and returned
separately.  A write emits only float32 positions, uint8 colors and float32
normals; it is canonical, so write -> read -> write is byte-identical.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .geometry import PointCloud

_PLY_TO_NUMPY = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "<i2", "int16": "<i2",
    "ushort": "<u2", "uint16": "<u2",
    "int": "<i4", "int32": "<i4",
    "uint": "<u4", "uint32": "<u4",
    "float": "<f4", "float32": "<f4",
    "double": "<f8", "float64": "<f8",
}

_FORMATS = {"ascii": "ascii", "binary_little_endian": "binary"}
_COLOR_NAMES = ("red", "green", "blue")
_NORMAL_NAMES = ("nx", "ny", "nz")


class PlyError(ValueError):
    """Malformed or unsupported PLY content."""


def _parse_header(stream) -> tuple[str, list[tuple[str, int, list[tuple[str, str]]]]]:
    magic = stream.readline().strip()
    if magic != b"ply":
        raise PlyError("not a PLY file (missing 'ply' magic)")
    fmt = None
    elements: list[tuple[str, int, list[tuple[str, str]]]] = []
    while True:
        raw = stream.readline()
        if not raw:
            raise PlyError("unexpected end of file inside header")
        line = raw.decode("ascii", errors="replace").strip()
        if not line or line.startswith("comment") or line.startswith("obj_info"):
            continue
        if line == "end_header":
            break
        fields = line.split()
        if fields[0] == "format":
            fmt = _FORMATS.get(fields[1] if len(fields) > 1 else "")
            if fmt is None:
                raise PlyError(f"unsupported PLY format in header line {line!r}")
        elif fields[0] == "element":
            if len(fields) != 3 or not fields[2].isdigit():
                raise PlyError(f"header line {line!r} is not 'element <name> <count>'")
            elements.append((fields[1], int(fields[2]), []))
        elif fields[0] == "property":
            if not elements:
                raise PlyError("property before any element")
            if fields[-1] in (name for name, _ in elements[-1][2]):
                raise PlyError(f"header line {line!r} repeats a property of {elements[-1][0]!r}")
            if fields[1:2] == ["list"] and len(fields) == 5:
                elements[-1][2].append((fields[-1], "list"))
            elif len(fields) == 3 and fields[1] in _PLY_TO_NUMPY:
                elements[-1][2].append((fields[2], fields[1]))
            else:
                raise PlyError(f"header line {line!r} is not 'property <type> <name>' of a known type")
    if fmt is None:
        raise PlyError("missing format line")
    return fmt, elements


def _read_element_ascii(stream, count: int, props: list[tuple[str, str]]) -> dict[str, np.ndarray]:
    rows = np.empty((count, len(props)), dtype=np.float64)
    for i in range(count):
        line = stream.readline().decode("ascii", errors="replace")
        parts = line.split()
        if len(parts) < len(props):
            raise PlyError(f"truncated ASCII element (row {i})")
        try:
            rows[i] = [float(x) for x in parts[: len(props)]]
        except ValueError:
            raise PlyError(f"non-numeric value in ASCII element row {i}: {line.strip()!r}") from None
    for j, (name, t) in enumerate(props):
        dtype = np.dtype(_PLY_TO_NUMPY[t])
        if dtype.kind in "iu":  # a cast would wrap or truncate the value silently
            col, info = rows[:, j], np.iinfo(dtype)
            bad = ~((col == np.floor(col)) & (col >= info.min) & (col <= info.max))
            if bad.any():
                raise PlyError(f"ASCII element row {int(np.argmax(bad))}: {name!r} is not a {t}")
    return {name: rows[:, j].astype(_PLY_TO_NUMPY[t]) for j, (name, t) in enumerate(props)}


def _read_element_binary(stream, count: int, props: list[tuple[str, str]]) -> dict[str, np.ndarray]:
    dtype = np.dtype([(name, _PLY_TO_NUMPY[t]) for name, t in props])
    # read_ply has checked that the file holds count rows.
    rec = np.frombuffer(stream.read(dtype.itemsize * count), dtype=dtype, count=count)
    return {name: rec[name] for name, _ in props}


def read_ply(path: str | Path) -> tuple[PointCloud, dict[str, np.ndarray]]:
    """Read a PLY point cloud.

    Returns the cloud plus a dict of unknown vertex properties (possibly
    empty).  Elements after the vertex element are ignored.
    """
    path = Path(path)
    with open(path, "rb") as stream:
        fmt, elements = _parse_header(stream)
        file_size = os.fstat(stream.fileno()).st_size
        columns = None
        for name, count, props in elements:
            if any(t == "list" for _, t in props):
                raise PlyError(f"list properties on element {name!r} are unsupported")
            # A binary row takes its properties' bytes, an ASCII row at least one byte
            # a value: a count the rest of the file cannot hold allocates nothing.
            size = sum(np.dtype(_PLY_TO_NUMPY[t]).itemsize for _, t in props)
            left = file_size - stream.tell()
            if count * (size if fmt == "binary" else max(1, len(props))) > left:
                raise PlyError(f"element {name!r} declares {count} rows but only {left} bytes "
                               f"follow the header")
            if name != "vertex":
                # Fixed-size non-vertex element: skip its payload.
                if fmt == "binary":
                    stream.read(size * count)
                else:
                    for _ in range(count):
                        stream.readline()
                continue
            reader = _read_element_ascii if fmt == "ascii" else _read_element_binary
            columns = reader(stream, count, props)
            for prop_name, ply_type in props:
                if prop_name in ("x", "y", "z") and ply_type not in ("float", "float32", "double", "float64"):
                    raise PlyError(f"coordinate {prop_name!r} must be float32 or float64")
            break
    if columns is None:
        raise PlyError("no vertex element found")
    for coord in ("x", "y", "z"):
        if coord not in columns:
            raise PlyError(f"vertex element is missing property {coord!r}")

    positions = np.column_stack([columns.pop("x"), columns.pop("y"), columns.pop("z")]).astype(np.float64)

    colors = None
    if all(name in columns for name in _COLOR_NAMES):
        raw = [columns.pop(name) for name in _COLOR_NAMES]
        colors = np.column_stack(raw).astype(np.float64) / 255.0

    normals = None
    if all(name in columns for name in _NORMAL_NAMES):
        normals = np.column_stack([columns.pop(name) for name in _NORMAL_NAMES]).astype(np.float64)

    try:
        cloud = PointCloud(positions=positions, colors=colors, normals=normals)
    except ValueError as exc:  # NaN coordinates, colours outside [0, 255], normals off unit length
        raise PlyError(f"vertex values out of range: {exc}") from None
    return cloud, columns


def write_ply(path: str | Path, cloud: PointCloud) -> None:
    """Write a PLY point cloud in binary little-endian.

    Positions and normals are written as float32, colors as uint8.  Nothing
    else is written.
    """
    n = len(cloud)
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {n}"]
    header += [f"property float {c}" for c in ("x", "y", "z")]
    fields = [(c, "<f4") for c in ("x", "y", "z")]
    if cloud.colors is not None:
        header += [f"property uchar {c}" for c in _COLOR_NAMES]
        fields += [(c, "u1") for c in _COLOR_NAMES]
    if cloud.normals is not None:
        header += [f"property float {c}" for c in _NORMAL_NAMES]
        fields += [(c, "<f4") for c in _NORMAL_NAMES]
    header.append("end_header")

    rec = np.empty(n, dtype=np.dtype(fields))
    for j, c in enumerate(("x", "y", "z")):
        rec[c] = cloud.positions[:, j].astype("<f4")
    if cloud.colors is not None:
        quantized = np.clip(np.rint(cloud.colors * 255.0), 0, 255).astype(np.uint8)
        for j, c in enumerate(_COLOR_NAMES):
            rec[c] = quantized[:, j]
    if cloud.normals is not None:
        for j, c in enumerate(_NORMAL_NAMES):
            rec[c] = cloud.normals[:, j].astype("<f4")

    with open(Path(path), "wb") as stream:
        stream.write(("\n".join(header) + "\n").encode("ascii"))
        rec.tofile(stream)
