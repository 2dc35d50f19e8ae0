"""Teacher/student view generation: crops, masking, and noise augmentation.

A scene yields 2 global and 4 local views.  Every view keeps its source
indices into the scene and its pre-augmentation coordinates, so losses that
pair points across views can match them in the shared original frame.  All
randomness is drawn from the counter-based generator in `rng`, with one
stream per purpose, so a fixed seed reproduces views bit-for-bit and
skipping one consumer never shifts another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._config import check_fields, within
from .geometry import PointCloud
from .model import point_features
from .rng import make_rng

_STREAM_CROP = 1
_STREAM_MASK = 2
_STREAM_NOISE = 3

MIN_SCENE_POINTS = 256


@dataclass(frozen=True)
class ViewConfig:
    """Crop fractions, jitter magnitudes, and masking geometry, checked at construction."""

    num_local: int = within(4, "[0, inf)")
    # A global crop keeps 2 points of the smallest scene, for the Laplacian's kNN graph.
    global_crop_min: float = within(0.4, f"[{1.5 / MIN_SCENE_POINTS}, 1]")
    global_crop_max: float = within(1.0, "(0, 1]")
    local_crop_min: float = within(0.10, "(0, 1]")
    local_crop_max: float = within(0.25, "(0, 1]")
    # Meters, like the xyz the encoder reads raw: past 1 m a perturbation
    # buries a room's geometry, and near 300 m the encoder's sigmoid overflows.
    jitter_sigma: float = within(0.005, "[0, 1]")
    color_jitter: float = within(0.05, "[0, inf)")
    grid_size: float = within(0.1, "(0, inf)")
    mask_ratio: float = within(0.3, "[0, 1]")
    noise_sigma: float = within(0.01, "[0, 1]")  # meters, bounded as jitter_sigma
    noise_dropout: float = within(0.1, "[0, 1)")

    def __post_init__(self):
        check_fields(self)
        if not (self.global_crop_min <= self.global_crop_max
                and self.local_crop_min <= self.local_crop_max):
            raise ValueError("a crop's min fraction must not exceed its max")


@dataclass(frozen=True)
class View:
    """One augmented crop: the rows its encoder reads, plus the bookkeeping to undo it.

    features is (N, 9), built by model.point_features: augmented xyz,
    jittered rgb and rotated normals, with zero columns where the scene has no
    colors or normals.  source_indices map every view point back into the
    scene; original_positions are the scene-frame coordinates.  The applied
    transform is p_view = rotation @ (flip * p_orig) + jitter, with the drawn
    jitter stored so it can be excluded when inverting.  A View takes its
    arrays over and marks them read-only.
    """

    features: np.ndarray
    source_indices: np.ndarray
    original_positions: np.ndarray
    rotation: np.ndarray
    flip: np.ndarray
    jitter: np.ndarray

    def __post_init__(self):
        for array in vars(self).values():
            array.flags.writeable = False

    def invert_positions(self) -> np.ndarray:
        """Recover original coordinates from the view (jitter excluded)."""
        unrotated = (self.features[:, :3] - self.jitter) @ self.rotation
        return unrotated * self.flip


@dataclass(frozen=True)
class ViewSet:
    global_views: tuple[View, View]
    local_views: tuple[View, ...]
    mask: np.ndarray  # on global_views[0], the masked student view


def _z_rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _crop_indices(positions: np.ndarray, fraction: float, rng: np.random.Generator) -> np.ndarray:
    n = len(positions)
    count = max(1, int(round(fraction * n)))
    if count >= n:
        return np.arange(n)
    center = positions[rng.integers(n)]
    d2 = ((positions - center) ** 2).sum(axis=1)
    nearest = np.argpartition(d2, count - 1)[:count]
    return np.sort(nearest)


def _make_view(scene: PointCloud, fraction: float, config: ViewConfig,
               rng: np.random.Generator) -> View:
    indices = _crop_indices(scene.positions, fraction, rng)
    original = scene.positions[indices]

    flip = np.ones(3)
    flip[:2] = np.where(rng.random(2) < 0.5, -1.0, 1.0)
    rotation = _z_rotation(rng.uniform(0.0, 2.0 * np.pi))
    jitter = (
        rng.normal(0.0, config.jitter_sigma, size=original.shape)
        if config.jitter_sigma > 0.0
        else np.zeros_like(original)
    )
    colors = None if scene.colors is None else scene.colors[indices]
    if colors is not None and config.color_jitter > 0.0:
        colors = np.clip(colors + rng.normal(0.0, config.color_jitter, colors.shape), 0.0, 1.0)
    normals = None if scene.normals is None else (scene.normals[indices] * flip) @ rotation.T
    features = point_features((original * flip) @ rotation.T + jitter, colors, normals)
    return View(features, indices, original, rotation, flip, jitter)


def grid_mask(
    positions: np.ndarray, grid_size: float, mask_ratio: float, seed: int
) -> np.ndarray:
    """Voxel-patch mask over (N, 3) positions covering at least mask_ratio of them.

    Points are partitioned into voxels of side grid_size; whole voxels are
    selected in random order until the masked fraction first reaches the
    ratio, so two points in the same voxel are always masked together.
    """
    if not grid_size > 0.0:
        raise ValueError("grid_size must be positive")
    if not 0.0 <= mask_ratio <= 1.0:
        raise ValueError("mask_ratio must lie in [0, 1]")
    n = len(positions)
    if mask_ratio == 0.0 or n == 0:
        return np.zeros(n, dtype=bool)

    voxels = np.floor(positions / grid_size).astype(np.int64)
    voxels -= voxels.min(axis=0)
    spans = voxels.max(axis=0) + 1
    if int(spans[0]) * int(spans[1]) * int(spans[2]) < 2**62:
        keys = (voxels[:, 0] * spans[1] + voxels[:, 1]) * spans[2] + voxels[:, 2]
        _, voxel_of_point, counts = np.unique(keys, return_inverse=True, return_counts=True)
    else:
        _, voxel_of_point, counts = np.unique(
            voxels, axis=0, return_inverse=True, return_counts=True
        )
    order = make_rng(seed, _STREAM_MASK).permutation(len(counts))
    # The voxels in order up to the first whose running count reaches the ratio.
    taken = np.searchsorted(np.cumsum(counts[order]), mask_ratio * n) + 1
    chosen = np.zeros(len(counts), dtype=bool)
    chosen[order[:taken]] = True
    return chosen[voxel_of_point]


def noise_view(view: View, sigma: float, dropout: float, seed: int) -> View:
    """Gaussian coordinate perturbation plus uniform point dropout of a view.

    The surviving rows keep their source-index and frame records, and the
    added perturbation is folded into the stored jitter so the original
    frame stays recoverable.  The input view is not changed.
    """
    if sigma < 0.0:
        raise ValueError("sigma must be non-negative")
    if not 0.0 <= dropout < 1.0:
        raise ValueError("dropout must lie in [0, 1)")
    rng = make_rng(seed, _STREAM_NOISE)
    kept = np.flatnonzero(rng.random(len(view.features)) >= dropout)
    features = view.features[kept]
    jitter = view.jitter[kept]
    if sigma > 0.0:
        positions = features[:, :3] + rng.normal(0.0, sigma, size=(len(kept), 3))
        jitter += positions - features[:, :3]
        features[:, :3] = positions
    return View(features, view.source_indices[kept], view.original_positions[kept],
                view.rotation, view.flip, jitter)


def make_views(scene: PointCloud, seed: int, config: ViewConfig = ViewConfig()) -> ViewSet:
    """Generate the 2 global + 4 local views of a scene, seeded.

    Global crops cover at least global_crop_min of the points, local crops
    local_crop_min..local_crop_max; every view gets its own z-rotation, axis
    flips, coordinate jitter, and color jitter.  View 0 of the globals
    carries the voxel-grid mask.
    """
    if len(scene) < MIN_SCENE_POINTS:
        raise ValueError(
            f"scene has {len(scene)} points; need at least {MIN_SCENE_POINTS}"
        )
    rng = make_rng(seed, _STREAM_CROP)
    globals_ = tuple(
        _make_view(scene, rng.uniform(config.global_crop_min, config.global_crop_max), config, rng)
        for _ in range(2)
    )
    locals_ = tuple(
        _make_view(scene, rng.uniform(config.local_crop_min, config.local_crop_max), config, rng)
        for _ in range(config.num_local)
    )
    mask = grid_mask(globals_[0].features[:, :3], config.grid_size, config.mask_ratio, seed)
    return ViewSet(globals_, locals_, mask)
