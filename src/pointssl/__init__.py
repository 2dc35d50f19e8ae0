"""Self-supervised clustering losses and geometric alignment for noisy
reconstructed point clouds.

Library surface:

- geometry: PointCloud, KnnGraph, Plane, RigidSimilarity, and the alignment
  stages (SOR filter, RANSAC plane, Z-up, scale, PCA normals).
- sinkhorn: teacher soft assignments and the student softmax.
- losses: clustering_ce, laplacian_loss (pairwise and Huber-residual forms)
  and consistency_loss over plain arrays, all with analytic gradients;
  match_correspondences pairs the points of two views of one scene through
  the scene's neighbor lists, as an (M, 2) array of index rows.
- model: Network, the point-wise MLP encoder and its prototype head in one
  vector, serving as student, EMA teacher and gradient; checkpoints.
- views: the two global and the local crops of a scene as arrays of encoder
  features (View), grid masking over positions, and noisy views (noise_view).
- trainer: schedules and the full training loop.
- scenes: synthetic annotated room generator.
- pipeline: batch alignment with per-scene reports; PCA color export.
- ply: read_ply (ASCII or binary) and write_ply (binary little-endian).
"""

from .geometry import (
    DegenerateGeometryError,
    EmptyCloudError,
    GeometryError,
    KnnGraph,
    Plane,
    PointCloud,
    RigidSimilarity,
    aabb_diagonal,
    align_z_up,
    build_knn_graph,
    detect_dominant_plane,
    estimate_normals,
    scale_align,
    sor_filter,
)
from .losses import clustering_ce, consistency_loss, laplacian_loss, match_correspondences
from .model import Network, ema_update, encode, init_network, load_model, save_model
from .ply import read_ply, write_ply
from .scenes import GroundTruth, SceneSpec, generate_room
from .sinkhorn import sinkhorn_normalize, softmax_rows
from .trainer import (
    MetricsRecord,
    Schedule,
    TrainConfig,
    TrainState,
    init_train_state,
    prototype_usage_entropy,
    run_training,
    train_step,
)
from .views import View, ViewConfig, ViewSet, grid_mask, make_views, noise_view

__version__ = "0.1.0"

__all__ = [
    "DegenerateGeometryError",
    "EmptyCloudError",
    "GeometryError",
    "GroundTruth",
    "KnnGraph",
    "MetricsRecord",
    "Network",
    "Plane",
    "PointCloud",
    "RigidSimilarity",
    "SceneSpec",
    "Schedule",
    "TrainConfig",
    "TrainState",
    "View",
    "ViewConfig",
    "ViewSet",
    "aabb_diagonal",
    "align_z_up",
    "build_knn_graph",
    "clustering_ce",
    "consistency_loss",
    "detect_dominant_plane",
    "ema_update",
    "encode",
    "estimate_normals",
    "generate_room",
    "grid_mask",
    "init_network",
    "init_train_state",
    "laplacian_loss",
    "load_model",
    "make_views",
    "match_correspondences",
    "noise_view",
    "prototype_usage_entropy",
    "read_ply",
    "run_training",
    "save_model",
    "scale_align",
    "sinkhorn_normalize",
    "softmax_rows",
    "sor_filter",
    "train_step",
    "write_ply",
]
