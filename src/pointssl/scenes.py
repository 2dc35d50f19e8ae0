"""Synthetic room generator with ground-truth annotations.

Rooms are sampled as points on the floor, walls, a partial ceiling, and
axis-aligned furniture boxes, then degraded with the defects seen in
video-reconstructed scenes: surface noise, doubled (ghost) surfaces, punched
holes, and uniform outliers.  The generating plane, up-axis, labels, and
applied tilt/scale are recorded so geometric stages can be tested against
the truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._config import check_fields, within
from .geometry import Plane, PointCloud
from .rng import make_rng

LABEL_SURFACE = 0
LABEL_GHOST = 1
LABEL_OUTLIER = 2

FLOOR_PART = 0

_STREAM_SURFACES = 10
_STREAM_DEFECTS = 11
_STREAM_TRANSFORM = 12


@dataclass(frozen=True)
class SceneSpec:
    """Room layout, sampling density, defect magnitudes, and the seed."""

    # wider than tall, so the floor dominates every wall by a wide margin
    # even after ghost duplication and downsampling
    extents: tuple[float, float, float] = within((5.0, 4.0, 2.2), "(0, inf)")
    surface_density: float = within(500.0, "(0, inf)")  # points per square meter
    ceiling_coverage: float = within(0.6, "[0, inf)")  # ceiling density relative to the floor
    furniture_count: int = within(3, "[0, inf)")
    furniture_size_min: float = within(0.3, "(0, inf)")  # box sides, meters
    furniture_size_max: float = within(1.2, "(0, inf)")
    surface_noise: float = within(0.005, "[0, inf)")  # a standard deviation
    outlier_count: int = within(0, "[0, inf)")
    outlier_radius: float = within(6.0, "[0, inf)")
    ghost_fraction: float = within(0.0, "[0, 1]")
    # along the surface normal: a ghost may sit on either side of its surface
    ghost_offset: float = within(0.05, "(-inf, inf)")
    hole_count: int = within(0, "[0, inf)")
    # compared squared, so a negative radius would punch holes of its magnitude
    hole_radius: float = within(0.3, "[0, inf)")
    tilt_degrees: float = within(0.0, "[0, 180]")  # the angle from +Z to the true up axis
    scale: float = within(1.0, "(0, inf)")
    max_points: int = within(20000, "[1, inf)")
    seed: int = within(0, "[0, inf)")  # a SeedSequence entropy word

    def __post_init__(self):
        check_fields(self)
        if self.furniture_size_min > self.furniture_size_max:
            raise ValueError("furniture_size_min must not exceed furniture_size_max")


@dataclass(frozen=True)
class GroundTruth:
    """Oracle side-channel emitted with every generated scene."""

    floor_plane: Plane
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
    add((0, 0, ez), (ex, 0, 0), (0, ey, 0), (0, 0, -1), d * spec.ceiling_coverage,
        (0.9, 0.9, 0.88), False)                                                        # ceiling
    add((0, 0, 0), (ex, 0, 0), (0, 0, ez), (0, 1, 0), d, (0.8, 0.8, 0.75), True)        # walls
    add((0, ey, 0), (ex, 0, 0), (0, 0, ez), (0, -1, 0), d, (0.8, 0.8, 0.75), True)
    add((0, 0, 0), (0, ey, 0), (0, 0, ez), (1, 0, 0), d, (0.75, 0.78, 0.8), True)
    add((ex, 0, 0), (0, ey, 0), (0, 0, ez), (-1, 0, 0), d, (0.75, 0.78, 0.8), True)

    for _ in range(spec.furniture_count):
        size = rng.uniform(spec.furniture_size_min, spec.furniture_size_max, size=3)
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

    if spec.surface_noise > 0.0:
        positions = positions + defect_rng.normal(0.0, spec.surface_noise, positions.shape)

    if spec.ghost_fraction > 0.0:
        candidates = np.flatnonzero(ghostable)
        n_ghost = int(round(spec.ghost_fraction * len(candidates)))
        chosen = defect_rng.choice(candidates, size=n_ghost, replace=False)
        positions = np.concatenate([positions, positions[chosen] + spec.ghost_offset * normals[chosen]])
        normals = np.concatenate([normals, normals[chosen]])
        colors = np.concatenate([colors, colors[chosen]])
        part_ids = np.concatenate([part_ids, part_ids[chosen]])
        labels = np.concatenate([labels, np.full(n_ghost, LABEL_GHOST)])

    for _ in range(spec.hole_count):
        center = positions[defect_rng.integers(len(positions))]
        keep = ((positions - center) ** 2).sum(axis=1) > spec.hole_radius**2
        positions, normals, colors, part_ids, labels = (
            positions[keep], normals[keep], colors[keep], part_ids[keep], labels[keep]
        )

    if spec.outlier_count > 0:
        center = positions.mean(axis=0)
        direction = defect_rng.normal(size=(spec.outlier_count, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = spec.outlier_radius * defect_rng.random(spec.outlier_count) ** (1.0 / 3.0)
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
    if surface_counts.argmax() != FLOOR_PART:
        raise ValueError(
            "floor is not the dominant plane under this spec; "
            "increase the floor area or lower ceiling_coverage"
        )

    tilt = _tilt_rotation(spec.tilt_degrees, transform_rng)
    positions = spec.scale * positions @ tilt.T
    normals = normals @ tilt.T

    cloud = PointCloud(positions=positions, colors=np.clip(colors, 0.0, 1.0), normals=normals)

    up = tilt @ np.array([0.0, 0.0, 1.0])
    floor_mask = (part_ids == FLOOR_PART) & (labels == LABEL_SURFACE)
    floor_plane = Plane(
        normal=up,
        offset=0.0,  # the canonical floor passes through the origin
        inlier_count=int(floor_mask.sum()),
        inlier_ratio=float(floor_mask.mean()),
    )
    diagonal = float(np.linalg.norm(positions.max(axis=0) - positions.min(axis=0)))
    truth = GroundTruth(
        floor_plane=floor_plane,
        up_axis=up,
        diagonal=diagonal,
        labels=labels,
        tilt_rotation=tilt,
        scale=spec.scale,
    )
    return cloud, truth
