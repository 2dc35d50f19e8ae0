"""Synthetic room generator with ground-truth annotations.

Rooms are sampled as points on the floor, walls, a partial ceiling, and
axis-aligned furniture boxes, then degraded with the defects seen in
video-reconstructed scenes: surface noise, doubled (ghost) surfaces, punched
holes, and uniform outliers.  A SceneSpec sets how many of each defect a
room gets; their magnitudes are fixed: the ceiling at 0.6 of the floor's
density, furniture box sides in [0.3, 1.2] m, 5 mm surface noise, ghosts
0.05 m along their surface normal, holes of 0.3 m radius and outliers within
6 m of the room's centroid.  The up-axis, labels, and applied tilt/scale are
recorded so geometric stages can be tested against the truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._config import check_fields, within
from .geometry import PointCloud
from .rng import make_rng

LABEL_SURFACE = 0
LABEL_GHOST = 1
LABEL_OUTLIER = 2

FLOOR_PART = 0

_STREAM_SURFACES = 10
_STREAM_DEFECTS = 11
_STREAM_TRANSFORM = 12

CEILING_COVERAGE = 0.6  # ceiling density relative to the floor
FURNITURE_SIZE = (0.3, 1.2)  # box sides, meters
SURFACE_NOISE = 0.005  # a standard deviation, meters
GHOST_OFFSET = 0.05  # along the surface normal, meters
HOLE_RADIUS = 0.3
OUTLIER_RADIUS = 6.0


@dataclass(frozen=True)
class SceneSpec:
    """Room layout, sampling density, defect counts, and the seed."""

    # wider than tall, so the floor dominates every wall by a wide margin
    # even after ghost duplication and downsampling
    extents: tuple[float, float, float] = within((5.0, 4.0, 2.2), "(0, inf)")
    surface_density: float = within(500.0, "(0, inf)")  # points per square meter
    furniture_count: int = within(3, "[0, inf)")
    outlier_count: int = within(0, "[0, inf)")
    ghost_fraction: float = within(0.0, "[0, 1]")
    hole_count: int = within(0, "[0, inf)")
    tilt_degrees: float = within(0.0, "[0, 180]")  # the angle from +Z to the true up axis
    scale: float = within(1.0, "(0, inf)")
    max_points: int = within(20000, "[1, inf)")
    seed: int = within(0, "[0, inf)")  # a SeedSequence entropy word

    def __post_init__(self):
        check_fields(self)
        if not isinstance(self.extents, tuple) or len(self.extents) != 3:
            raise ValueError(f"extents must be 3 numbers (x, y, z), got {self.extents!r}")


@dataclass(frozen=True)
class GroundTruth:
    """Oracle side-channel emitted with every generated scene."""

    up_axis: np.ndarray
    diagonal: float
    labels: np.ndarray
    tilt_rotation: np.ndarray
    scale: float


def _sample_rect(rng, origin, edge_u, edge_v, normal, density):
    area = np.linalg.norm(np.cross(edge_u, edge_v))
    count = max(1, int(round(area * density)))
    uv = rng.random((count, 2))
    pts = origin + uv[:, :1] * edge_u + uv[:, 1:] * edge_v
    return pts, np.tile(normal / np.linalg.norm(normal), (count, 1))


def _room_surfaces(spec: SceneSpec, rng: np.random.Generator):
    """Sample all room surfaces; returns positions, normals, colors,
    per-point part id, and a ghost-eligibility flag (floors and walls)."""
    ex, ey, ez = spec.extents
    half = np.array([ex / 2.0, ey / 2.0, 0.0])
    parts = []

    def add(origin, eu, ev, n, density, color, ghostable):
        pts, nrm = _sample_rect(
            rng, np.asarray(origin, float) - half, np.asarray(eu, float),
            np.asarray(ev, float), np.asarray(n, float), density,
        )
        cols = np.tile(np.asarray(color, float), (len(pts), 1))
        parts.append((pts, nrm, cols, ghostable))

    d = spec.surface_density
    add((0, 0, 0), (ex, 0, 0), (0, ey, 0), (0, 0, 1), d, (0.5, 0.45, 0.4), True)       # floor
    add((0, 0, ez), (ex, 0, 0), (0, ey, 0), (0, 0, -1), d * CEILING_COVERAGE,
        (0.9, 0.9, 0.88), False)                                                        # ceiling
    add((0, 0, 0), (ex, 0, 0), (0, 0, ez), (0, 1, 0), d, (0.8, 0.8, 0.75), True)        # walls
    add((0, ey, 0), (ex, 0, 0), (0, 0, ez), (0, -1, 0), d, (0.8, 0.8, 0.75), True)
    add((0, 0, 0), (0, ey, 0), (0, 0, ez), (1, 0, 0), d, (0.75, 0.78, 0.8), True)
    add((ex, 0, 0), (0, ey, 0), (0, 0, ez), (-1, 0, 0), d, (0.75, 0.78, 0.8), True)

    for _ in range(spec.furniture_count):
        size = rng.uniform(*FURNITURE_SIZE, size=3)
        size[2] = min(size[2], ez * 0.6)
        sx, sy, sz = size
        pos = np.array([
            rng.uniform(0.0, max(ex - sx, 1e-3)),
            rng.uniform(0.0, max(ey - sy, 1e-3)),
            0.0,
        ])
        color = rng.uniform(0.1, 0.9, size=3)
        add(pos + (0, 0, sz), (sx, 0, 0), (0, sy, 0), (0, 0, 1), d, color, False)       # top
        add(pos, (sx, 0, 0), (0, 0, sz), (0, -1, 0), d, color, False)
        add(pos + (0, sy, 0), (sx, 0, 0), (0, 0, sz), (0, 1, 0), d, color, False)
        add(pos, (0, sy, 0), (0, 0, sz), (-1, 0, 0), d, color, False)
        add(pos + (sx, 0, 0), (0, sy, 0), (0, 0, sz), (1, 0, 0), d, color, False)

    positions = np.concatenate([p[0] for p in parts])
    normals = np.concatenate([p[1] for p in parts])
    colors = np.concatenate([p[2] for p in parts])
    part_ids = np.concatenate([np.full(len(p[0]), i) for i, p in enumerate(parts)])
    ghostable = np.concatenate([np.full(len(p[0]), p[3]) for p in parts])
    return positions, normals, colors, part_ids, ghostable


def _tilt_rotation(degrees: float, rng: np.random.Generator) -> np.ndarray:
    if degrees == 0.0:
        return np.eye(3)
    angle = np.radians(degrees)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    axis = np.array([np.cos(phi), np.sin(phi), 0.0])
    k = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def generate_room(spec: SceneSpec) -> tuple[PointCloud, GroundTruth]:
    """Sample a defect-laden room and its ground truth; deterministic per seed.

    The floor is guaranteed to carry the largest single-plane point count, so
    plane-detection oracles are unambiguous; a spec that violates this (a
    room taller than it is wide, say) raises.
    """
    surf_rng = make_rng(spec.seed, _STREAM_SURFACES)
    defect_rng = make_rng(spec.seed, _STREAM_DEFECTS)
    transform_rng = make_rng(spec.seed, _STREAM_TRANSFORM)

    positions, normals, colors, part_ids, ghostable = _room_surfaces(spec, surf_rng)
    labels = np.full(len(positions), LABEL_SURFACE, dtype=np.int64)

    positions = positions + defect_rng.normal(0.0, SURFACE_NOISE, positions.shape)

    if spec.ghost_fraction > 0.0:
        candidates = np.flatnonzero(ghostable)
        n_ghost = int(round(spec.ghost_fraction * len(candidates)))
        chosen = defect_rng.choice(candidates, size=n_ghost, replace=False)
        positions = np.concatenate([positions, positions[chosen] + GHOST_OFFSET * normals[chosen]])
        normals = np.concatenate([normals, normals[chosen]])
        colors = np.concatenate([colors, colors[chosen]])
        part_ids = np.concatenate([part_ids, part_ids[chosen]])
        labels = np.concatenate([labels, np.full(n_ghost, LABEL_GHOST)])

    for _ in range(spec.hole_count):
        center = positions[defect_rng.integers(len(positions))]
        keep = ((positions - center) ** 2).sum(axis=1) > HOLE_RADIUS**2
        positions, normals, colors, part_ids, labels = (
            positions[keep], normals[keep], colors[keep], part_ids[keep], labels[keep]
        )
        if not len(positions):
            raise ValueError(f"hole_count {spec.hole_count}: the holes remove every point of the room")

    if spec.outlier_count > 0:
        center = positions.mean(axis=0)
        direction = defect_rng.normal(size=(spec.outlier_count, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = OUTLIER_RADIUS * defect_rng.random(spec.outlier_count) ** (1.0 / 3.0)
        positions = np.concatenate([positions, center + direction * radius[:, None]])
        out_nrm = defect_rng.normal(size=(spec.outlier_count, 3))
        out_nrm /= np.linalg.norm(out_nrm, axis=1, keepdims=True)
        normals = np.concatenate([normals, out_nrm])
        colors = np.concatenate([colors, defect_rng.random((spec.outlier_count, 3))])
        part_ids = np.concatenate([part_ids, np.full(spec.outlier_count, -1)])
        labels = np.concatenate([labels, np.full(spec.outlier_count, LABEL_OUTLIER)])

    if len(positions) > spec.max_points:
        keep = transform_rng.choice(len(positions), size=spec.max_points, replace=False)
        keep.sort()
        positions, normals, colors, part_ids, labels = (
            positions[keep], normals[keep], colors[keep], part_ids[keep], labels[keep]
        )

    surface_counts = np.bincount(part_ids[(labels == LABEL_SURFACE) & (part_ids >= 0)])
    if not surface_counts.size:
        raise ValueError("no surface points are left under this spec; "
                         "lower hole_count or raise max_points")
    if surface_counts.argmax() != FLOOR_PART:
        raise ValueError("floor is not the dominant plane under this spec; increase the floor area")

    tilt = _tilt_rotation(spec.tilt_degrees, transform_rng)
    positions = spec.scale * positions @ tilt.T
    normals = normals @ tilt.T

    cloud = PointCloud(positions=positions, colors=np.clip(colors, 0.0, 1.0), normals=normals)

    diagonal = float(np.linalg.norm(positions.max(axis=0) - positions.min(axis=0)))
    truth = GroundTruth(
        up_axis=tilt @ np.array([0.0, 0.0, 1.0]),
        diagonal=diagonal,
        labels=labels,
        tilt_rotation=tilt,
        scale=spec.scale,
    )
    return cloud, truth
