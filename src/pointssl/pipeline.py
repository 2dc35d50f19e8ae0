"""Batch alignment pipeline and reporting.

Per scene: random downsample -> statistical outlier removal -> dominant
plane -> Z-up alignment -> scale normalization -> PCA normals -> PLY output.
A failed plane detection leaves the orientation untouched (the scene is
kept rather than rejected); downstream stages still run.  Per-file errors
are isolated into report rows so a batch never dies on one bad input.
"""

from __future__ import annotations

import json
import logging
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import _threads
from ._config import check_fields, within
from .geometry import (
    PointCloud,
    RigidSimilarity,
    aabb_diagonal,
    align_z_up,
    detect_dominant_plane,
    estimate_normals,
    scale_align,
    self_knn,
    sor_filter,
    survivor_neighbors,
)
from .ply import read_ply, write_ply
from .rng import make_rng

logger = logging.getLogger(__name__)

_STREAM_DOWNSAMPLE = 30
_STREAM_SCALE = 31


@dataclass(frozen=True)
class PipelineConfig:
    """Alignment stage parameters."""

    downsample_points: int = 20000
    sor_k: int = within(16, "[1, inf)")
    sor_std_mult: float = within(2.0, "(0, inf)")
    # Each hypothesis holds its sample, normal and offset (56 bytes), so the
    # bound keeps them under 4 MB; unbounded, 10**13 asked numpy for 218 TiB.
    ransac_iterations: int = within(512, "[1, 65536]")
    ransac_threshold_fraction: float = within(0.02, "(0, inf)")  # of the scene diagonal
    ransac_threshold_cap: float = within(0.05, "(0, inf)")       # meters
    min_inlier_ratio: float = within(0.15, "[0, 1]")
    normals_k: int = within(16, "[1, inf)")
    scale_median: float = within(8.0, "[1e-6, 1e6]")  # meters, median of the target-scale draw
    scale_log_std: float = within(0.25, "[0, 10]")    # both bounded: the draw stays finite, > 0
    seed: int = within(0, "[0, inf)")

    def __post_init__(self):
        check_fields(self)
        # SOR removes at most n / (1 + std_mult^2) of n points (Cantelli's
        # inequality); the rest must hold the plane's 3 points and normals_k + 1.
        inverse = 1.0 / self.sor_std_mult
        if not self.downsample_points / (1.0 + inverse * inverse) > max(self.normals_k, 2):
            raise ValueError(f"downsample_points {self.downsample_points} may leave normals_k "
                             f"{self.normals_k} or fewer points after SOR at sor_std_mult "
                             f"{self.sor_std_mult}")

    @staticmethod
    def from_dict(data: dict) -> "PipelineConfig":
        return PipelineConfig(**data)

    def to_dict(self) -> dict:
        return asdict(self)


# The stages of align_scene, as SceneReport.stage_ms names them.
STAGES = ("downsample", "knn", "sor", "ransac", "z_up", "scale", "normals")


@dataclass
class SceneReport:
    """One pipeline row; counts are non-negative, angles in degrees."""

    name: str
    input_points: int = 0
    sor_removed: int = 0
    ransac_threshold: float | None = None  # meters, in the input frame
    plane_found: bool = False
    inlier_ratio: float | None = None  # of the SOR survivors, within ransac_threshold
    angle_to_z_before: float | None = None
    angle_to_z_after: float | None = None
    alpha: float | None = None
    final_diagonal: float | None = None
    degenerate_normals: int = 0  # rank-deficient neighborhoods, given normal +Z
    wall_time: float = 0.0  # seconds
    stage_ms: dict[str, float] = field(default_factory=dict)  # STAGES, in order
    error: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class PipelineReport:
    rows: list[SceneReport] = field(default_factory=list)

    @property
    def num_failed(self) -> int:
        return sum(1 for r in self.rows if r.error is not None)

    def to_json(self) -> str:
        return json.dumps([r.to_dict() for r in self.rows], indent=2, sort_keys=True)


def _angle_to_z_degrees(normal: np.ndarray) -> float:
    cos = abs(float(normal[2]))
    return float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))


def draw_target_scale(config: PipelineConfig, scene_seed: int) -> float:
    """Log-normal target diagonal with the configured median and log-std."""
    rng = make_rng(config.seed, _STREAM_SCALE, scene_seed)
    # abs: numpy rejects a log-std of -0.0, which lies in the config's [0, 10].
    return float(np.exp(rng.normal(np.log(config.scale_median), abs(config.scale_log_std))))


def align_scene(
    cloud: PointCloud,
    config: PipelineConfig = PipelineConfig(),
    scene_seed: int = 0,
    s_target: float | None = None,
    name: str = "",
) -> tuple[PointCloud, SceneReport, RigidSimilarity]:
    """Run the full alignment pipeline on one cloud.

    Returns the aligned cloud, the report row, and the composed transform
    from the (downsampled, filtered) input frame to the output frame.
    """
    t_start = clock = time.perf_counter()
    report = SceneReport(name=name, input_points=len(cloud), stage_ms=dict.fromkeys(STAGES, 0.0))

    def lap(stage: str) -> None:
        # Each stage's time runs from the end of the one before, so the
        # stages add up to the scene's wall time.
        nonlocal clock
        now = time.perf_counter()
        report.stage_ms[stage] += 1000.0 * (now - clock)
        clock = now

    if len(cloud) > config.downsample_points:
        rng = make_rng(config.seed, _STREAM_DOWNSAMPLE, scene_seed)
        keep = rng.choice(len(cloud), size=config.downsample_points, replace=False)
        keep.sort()
        cloud = cloud.select(keep)
    lap("downsample")

    # One self-kNN query serves SOR and, renumbered to the survivors, the
    # normals; below its column count each stage queries (or fails) alone.
    before_sor = len(cloud)
    columns = max(config.sor_k, config.normals_k) + 1
    neighbors = self_knn(cloud.positions, columns) if before_sor >= columns else None
    kept = np.empty(before_sor, bool)
    lap("knn")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cloud = sor_filter(cloud, k=config.sor_k, std_mult=config.sor_std_mult,
                           neighbors=neighbors, kept=kept)
    report.sor_removed = before_sor - len(cloud)
    lap("sor")
    if neighbors is not None:
        neighbors = survivor_neighbors(neighbors, kept, cloud.positions, config.normals_k)
    lap("knn")

    threshold = min(
        config.ransac_threshold_fraction * aabb_diagonal(cloud),
        config.ransac_threshold_cap,
    )
    report.ransac_threshold = threshold
    plane = detect_dominant_plane(
        cloud,
        iterations=config.ransac_iterations,
        inlier_threshold=threshold,
        seed=config.seed + scene_seed,
        min_inlier_ratio=config.min_inlier_ratio,
    )
    report.plane_found = plane is not None
    lap("ransac")
    transform = RigidSimilarity.identity()
    if plane is not None:
        report.inlier_ratio = plane.inlier_ratio
        report.angle_to_z_before = _angle_to_z_degrees(plane.normal)
        cloud, transform = align_z_up(cloud, plane, inlier_threshold=threshold)
        report.angle_to_z_after = _angle_to_z_degrees(transform.rotation @ plane.normal)
    else:
        logger.warning("plane detection failed for %s; keeping orientation", name or "scene")
    lap("z_up")

    if s_target is None:
        s_target = draw_target_scale(config, scene_seed)
    cloud, scale_transform = scale_align(cloud, s_target)
    if plane is not None:
        # scale_align works about the centroid, which would lift the aligned
        # floor off z = 0; shift back so the net scaling is about the origin
        cloud = replace(cloud, positions=cloud.positions - scale_transform.translation)
        scale_transform = RigidSimilarity(np.eye(3), np.zeros(3), scale_transform.scale)
    transform = scale_transform.compose(transform)
    report.alpha = scale_transform.scale
    report.final_diagonal = aabb_diagonal(cloud)
    lap("scale")

    cloud, degenerate = estimate_normals(cloud, k=config.normals_k, neighbors=neighbors)
    report.degenerate_normals = int(degenerate.sum())
    lap("normals")
    report.wall_time = time.perf_counter() - t_start
    return cloud, report, transform


def _process_file(path: Path, out_dir: Path, config: PipelineConfig, index: int) -> SceneReport:
    try:
        cloud, _ = read_ply(path)
        aligned, report, _ = align_scene(cloud, config, scene_seed=index, name=path.name)
        write_ply(out_dir / path.name, aligned)
        return report
    except Exception as exc:  # noqa: BLE001 - per-file isolation is the contract
        logger.warning("failed to align %s: %s", path.name, exc)
        return SceneReport(name=path.name, error=str(exc))


def cli_align(
    input_dir,
    output_dir,
    config: PipelineConfig = PipelineConfig(),
    jobs: int = 1,
) -> PipelineReport:
    """Align every PLY under input_dir into output_dir.

    Report rows come back in input order regardless of completion order;
    unreadable files produce error rows and the batch continues.  An
    input_dir that is not a directory, or jobs below 1, raises ValueError
    before output_dir is made.
    """
    input_dir = Path(input_dir)
    if not input_dir.is_dir():
        raise ValueError(f"input_dir {input_dir} is not a directory")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = sorted(input_dir.glob("*.ply"))
    return PipelineReport(rows=_threads.thread_map(
        lambda i: _process_file(files[i], out_dir, config, i), range(len(files)), jobs
    ))


def pca_colors(embeddings: np.ndarray) -> np.ndarray:
    """Project embeddings to their top-3 principal components, mapped to RGB.

    Each channel is min-max normalized to [0, 1]; a zero-variance channel
    maps to mid-gray (0.5) by convention.
    """
    values = np.asarray(embeddings, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] < 3:
        raise ValueError("PCA export needs embeddings with dimension >= 3")
    centered = values - values.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    coords = centered @ vt[:3].T
    colors = np.empty_like(coords)
    for c in range(3):
        low, high = coords[:, c].min(), coords[:, c].max()
        if high - low < 1e-12:
            colors[:, c] = 0.5
        else:
            colors[:, c] = (coords[:, c] - low) / (high - low)
    return colors


def export_pca(embeddings: np.ndarray, cloud: PointCloud, path) -> None:
    """Write the cloud as a PLY colored by the embedding PCA."""
    if len(embeddings) != len(cloud):
        raise ValueError("embedding count must match the cloud")
    colored = PointCloud(
        positions=cloud.positions,
        colors=pca_colors(embeddings),
        normals=cloud.normals,
    )
    write_ply(path, colored)
