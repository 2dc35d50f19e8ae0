"""Point-cloud containers, exact spatial search, and the scene alignment stages.

Alignment of a noisy reconstructed scene proceeds through the operations in
this module: statistical outlier removal, dominant-plane detection, Z-up
rotation with SVD refinement, bounding-box scale normalization, and per-point
PCA normals.  All operations are pure; clouds and graphs are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from . import _threads
from ._arrays import frozen_array
from .rng import make_rng

UNIT_NORM_TOL = 1e-6
ORTHONORMAL_TOL = 1e-9


class GeometryError(ValueError):
    """Base class for geometric failures."""


class EmptyCloudError(GeometryError):
    """Operation needs more points than the cloud provides."""


class DegenerateGeometryError(GeometryError):
    """Geometry has collapsed: zero extent, coincident points, or similar."""


@dataclass(frozen=True)
class PointCloud:
    """Immutable point set with optional colors and normals.

    positions are meters, float64, shape (N, 3).  colors are in [0, 1],
    normals are unit vectors; both optional and, when present, the same
    length as positions.  Every point takes part in every geometric
    operation; to leave some out, select the others.
    """

    positions: np.ndarray
    colors: np.ndarray | None = None
    normals: np.ndarray | None = None

    def __post_init__(self):
        pos = frozen_array(self.positions, np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must have shape (N, 3), got {pos.shape}")
        if not np.isfinite(pos).all():
            raise ValueError("positions must be finite (no NaN/Inf)")
        object.__setattr__(self, "positions", pos)
        n = len(pos)

        if self.colors is not None:
            col = frozen_array(self.colors, np.float64)
            if col.shape != (n, 3):
                raise ValueError(f"colors must have shape ({n}, 3), got {col.shape}")
            if col.size and (col.min() < 0.0 or col.max() > 1.0):
                raise ValueError("colors must be component-wise in [0, 1]")
            object.__setattr__(self, "colors", col)

        if self.normals is not None:
            nrm = frozen_array(self.normals, np.float64)
            if nrm.shape != (n, 3):
                raise ValueError(f"normals must have shape ({n}, 3), got {nrm.shape}")
            norms = np.linalg.norm(nrm, axis=1)
            if nrm.size and np.abs(norms - 1.0).max() > UNIT_NORM_TOL:
                raise ValueError("normals must have unit norm within 1e-6")
            object.__setattr__(self, "normals", nrm)

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def num_valid(self) -> int:
        # perfbench/spans.py's observe_sor reads this name.
        return len(self.positions)

    def select(self, index: np.ndarray) -> "PointCloud":
        """Subset every per-point array by a boolean mask or index array."""
        return PointCloud(
            positions=self.positions[index],
            colors=None if self.colors is None else self.colors[index],
            normals=None if self.normals is None else self.normals[index],
        )


@dataclass(frozen=True)
class KnnGraph:
    """Directed kNN edges with Gaussian distance weights.

    Edges are stored as parallel arrays (source, target, distance, weight);
    weight = exp(-(distance / sigma)^2).  Edges beyond max_radius are absent
    and every stored distance is strictly positive.
    """

    k: int
    source: np.ndarray
    target: np.ndarray
    distance: np.ndarray
    weight: np.ndarray
    sigma: float
    max_radius: float
    num_nodes: int

    def __post_init__(self):
        for name, dtype in (("source", np.int64), ("target", np.int64),
                            ("distance", np.float64), ("weight", np.float64)):
            object.__setattr__(self, name, frozen_array(getattr(self, name), dtype))
        if self.distance.size and self.distance.min() <= 0.0:
            raise ValueError("edge distances must be strictly positive")
        if np.any(self.source == self.target):
            raise ValueError("self-edges are not allowed")

    @property
    def num_edges(self) -> int:
        return len(self.source)


@dataclass(frozen=True)
class Plane:
    """Plane normal . x = offset with RANSAC inlier statistics."""

    normal: np.ndarray
    offset: float
    inlier_count: int
    inlier_ratio: float

    def __post_init__(self):
        n = frozen_array(self.normal, np.float64)
        if abs(np.linalg.norm(n) - 1.0) > ORTHONORMAL_TOL:
            raise ValueError("plane normal must be unit length within 1e-9")
        object.__setattr__(self, "normal", n)
        if not 0.0 <= self.inlier_ratio <= 1.0:
            raise ValueError("inlier_ratio must be in [0, 1]")


@dataclass(frozen=True)
class RigidSimilarity:
    """Similarity transform x -> scale * R @ x + translation with det(R) = +1."""

    rotation: np.ndarray
    translation: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        r = frozen_array(self.rotation, np.float64)
        t = frozen_array(self.translation, np.float64)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("rotation must be 3x3 and translation a 3-vector")
        if np.abs(r.T @ r - np.eye(3)).max() > ORTHONORMAL_TOL:
            raise ValueError("rotation must be orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) > ORTHONORMAL_TOL:
            raise ValueError("rotation must have determinant +1 within 1e-9")
        if not self.scale > 0.0:
            raise ValueError("scale must be positive")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def apply(self, points: np.ndarray) -> np.ndarray:
        return self.scale * points @ self.rotation.T + self.translation

    def compose(self, inner: "RigidSimilarity") -> "RigidSimilarity":
        """Transform equivalent to applying `inner` first, then this one."""
        return RigidSimilarity(
            rotation=self.rotation @ inner.rotation,
            translation=self.scale * self.rotation @ inner.translation + self.translation,
            scale=self.scale * inner.scale,
        )

    @staticmethod
    def identity() -> "RigidSimilarity":
        return RigidSimilarity(np.eye(3), np.zeros(3), 1.0)


def _exact_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Recompute in a fixed order so results are bit-identical to a brute-force
    # reference regardless of how the tree accumulated its internal distances.
    diff = a - b
    return np.sqrt(np.einsum("...k,...k->...", diff, diff))


def _self_knn(points: np.ndarray, k: int) -> np.ndarray:
    """(n, k) indices of each point's k nearest points, counting the point
    itself (or, among coincident duplicates, one of them in its place).

    The query runs one thread per CPU this process may use; each row is
    searched on its own, so the indices are those of a single-threaded query.
    """
    _, nbr = cKDTree(points).query(points, k=k, workers=_threads.usable_cpus())
    return nbr.reshape(len(points), k)


# Rows per block of the row-parallel stages.  Blocks of 128 to 4,096 rows
# ran about as fast on 20k-point scenes, but the worker threads' malloc arenas
# keep the freed block memory: align_scenes peak RSS rose ~3 MB at 1,024 rows
# and below, ~5 MB at 2,048 and ~10 MB at 4,096.
_ROW_BLOCK = 1024


def _row_map(fn, n: int) -> list:
    """[fn(rows) for rows in slices of _ROW_BLOCK consecutive rows of range(n)],
    on one thread per usable CPU.  Results come back in block order, so a
    caller that concatenates or sums them gets the inline result bit for bit.
    """
    blocks = [slice(start, min(start + _ROW_BLOCK, n)) for start in range(0, n, _ROW_BLOCK)]
    return _threads.thread_map(fn, blocks, _threads.usable_cpus())


def _bounded_knn(tree: cKDTree, k: int, bound: float) -> np.ndarray:
    """Per point, a row of min(k + 1, n) indices: its k nearest other points
    closer than bound, and in any other slot a point at distance 0 from it
    (itself or a coincident duplicate).  Slots with no point hold n = tree.n.
    """
    points, n = tree.data, tree.n
    dist, nbr = tree.query(points, k=min(k + 1, n), distance_upper_bound=bound)
    if k + 1 >= n:
        return nbr
    # A zero distance in the second slot is a duplicate.  When every slot is
    # filled, duplicates may have crowded out some of the k nearest other
    # points.  Coincident points share their neighbors, so one point of each
    # group is queried again with room for all its duplicates, and the last k
    # slots of that query fill the rows of the whole group.
    crowded = np.flatnonzero((dist[:, 1] == 0.0) & (nbr[:, -1] < n))
    if crowded.size == 0:
        return nbr
    # Each group's slot count comes from the tree, so a group split by its
    # coordinates' bits (0.0 against -0.0) is still right, only queried twice.
    _, first, group = np.unique(points[crowded], axis=0, return_index=True, return_inverse=True)
    reps = crowded[first]
    slots = np.minimum(k + tree.query_ball_point(points[reps], r=0.0, return_length=True), n)
    others = np.empty((len(reps), k), nbr.dtype)
    for m in np.unique(slots):
        sel = np.flatnonzero(slots == m)
        others[sel] = tree.query(points[reps[sel]], k=m, distance_upper_bound=bound)[1][:, -k:]
    nbr[crowded, 1:] = others[group.reshape(-1)]
    return nbr


def build_knn_graph(
    cloud: PointCloud,
    k: int,
    max_radius: float,
    sigma: float | str = "adaptive",
) -> KnnGraph:
    """Build the exact k-nearest-neighbor graph with Gaussian edge weights.

    Each point contributes up to k outgoing edges to its nearest neighbors by
    Euclidean distance; edges longer than max_radius are removed.  Coincident
    duplicates of a point get no edge and take none of its k places.  Among
    neighbors exactly equidistant at the k-th place, the tree's traversal
    decides which are kept, not their order in the cloud.  With
    sigma="adaptive" the scale is the median of the retained neighbor
    distances, otherwise the given fixed value is used.

    Raises:
        EmptyCloudError: fewer than 2 points.
        DegenerateGeometryError: all points coincide (sigma would be 0).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not max_radius > 0.0:
        raise ValueError("max_radius must be positive")
    pts = cloud.positions
    n = len(pts)
    if n < 2:
        raise EmptyCloudError("kNN graph needs at least 2 points")

    tree = cKDTree(pts)
    if tree.query_ball_point(pts[0], r=0.0, return_length=True) == n:
        raise DegenerateGeometryError("all points coincide; sigma would be 0")
    # The tree keeps only distances strictly below its bound; the inflated
    # bound still returns every neighbor the exact filter below keeps.
    nbr = _bounded_knn(tree, k, max_radius * (1.0 + 1e-9))
    rows, slots = np.nonzero(nbr < n)
    cols = nbr[rows, slots]
    dvals = _exact_distances(pts[rows], pts[cols])
    # Each row holds at most k points at a positive distance, so dropping
    # zero-distance entries leaves at most k outgoing edges per point.
    keep = (rows != cols) & (dvals > 0.0) & (dvals <= max_radius)
    src, tgt, dvals = rows[keep], cols[keep], dvals[keep]

    if dvals.size == 0:
        sigma_val = float(sigma) if sigma != "adaptive" else float("nan")
        return KnnGraph(k, np.empty(0, np.int64), np.empty(0, np.int64),
                        np.empty(0), np.empty(0), sigma_val, float(max_radius),
                        num_nodes=n)

    if sigma == "adaptive":
        sigma_val = float(np.median(dvals))
    else:
        sigma_val = float(sigma)
    if not sigma_val > 0.0:
        raise DegenerateGeometryError(f"sigma must be positive, got {sigma_val}")

    weights = np.exp(-((dvals / sigma_val) ** 2))
    return KnnGraph(
        k=k,
        source=src,
        target=tgt,
        distance=dvals,
        weight=weights,
        sigma=sigma_val,
        max_radius=float(max_radius),
        num_nodes=n,
    )


def mean_knn_distances(points: np.ndarray, k: int) -> np.ndarray:
    """Per-point mean distance to the k nearest neighbors (self excluded)."""
    nbr = _self_knn(points, k + 1)

    def block_means(rows):
        return _exact_distances(points[rows, None, :], points[nbr[rows]])[:, 1:].mean(axis=1)

    return np.concatenate(_row_map(block_means, len(points)))


def sor_filter(cloud: PointCloud, k: int = 16, std_mult: float = 2.0) -> PointCloud:
    """Statistical outlier removal.

    Removes points whose mean distance to their k nearest neighbors exceeds
    the global mean of those per-point means by more than std_mult population
    standard deviations.  Survivor order is preserved.  With k or fewer points
    the cloud is returned unchanged and a warning is emitted.
    """
    if not std_mult > 0.0:
        raise ValueError("std_mult must be positive")
    if len(cloud) <= k:
        warnings.warn(f"SOR skipped: {len(cloud)} points <= k={k}", stacklevel=2)
        return cloud

    means = mean_knn_distances(cloud.positions, k)
    threshold = means.mean() + std_mult * means.std()
    return cloud.select(means <= threshold)


def _fit_plane_svd(points: np.ndarray) -> tuple[np.ndarray, float]:
    centroid = points.mean(axis=0)
    _, _, vt = np.linalg.svd(points - centroid, full_matrices=False)
    normal = vt[-1]
    return normal, float(normal @ centroid)


def _canonical_sign(normal: np.ndarray, offset: float) -> tuple[np.ndarray, float]:
    dominant = int(np.argmax(np.abs(normal)))
    if normal[dominant] < 0:
        return -normal, -offset
    return normal, offset


def _inlier_counts(
    pts: np.ndarray, normals: np.ndarray, offsets: np.ndarray, inlier_threshold: float
) -> np.ndarray:
    """Per hypothesis, the number of points within inlier_threshold of its plane."""
    iterations = len(normals)
    block = 128

    def count_rows(rows):
        points = pts[rows]
        counts = np.empty(iterations, np.int64)
        for start in range(0, iterations, block):
            sl = slice(start, min(start + block, iterations))
            dist = points @ normals[sl].T
            dist -= offsets[sl]
            np.abs(dist, out=dist)
            counts[sl] = np.count_nonzero(dist <= inlier_threshold, axis=0)
        return counts

    return sum(_row_map(count_rows, len(pts)))


def detect_dominant_plane(
    cloud: PointCloud,
    iterations: int = 512,
    inlier_threshold: float = 0.02,
    seed: int = 0,
    min_inlier_ratio: float = 0.15,
) -> Plane | None:
    """RANSAC dominant-plane detection with least-squares refit.

    Samples 3 points per iteration, keeps the hypothesis supporting the most
    points within inlier_threshold, then refits that plane to its inliers via
    the centroid and smallest singular direction.  Returns None when the
    refit plane supports fewer than min_inlier_ratio of the points
    (including the all-collinear case).  Deterministic for a fixed seed.
    """
    pts = cloud.positions
    n = len(pts)
    if n < 3:
        raise EmptyCloudError("plane detection needs at least 3 points")

    rng = make_rng(seed)
    samples = np.empty((iterations, 3), dtype=np.int64)
    for i in range(iterations):
        samples[i] = rng.choice(n, size=3, replace=False)

    p0, p1, p2 = pts[samples[:, 0]], pts[samples[:, 1]], pts[samples[:, 2]]
    normals = np.cross(p1 - p0, p2 - p0)
    norms = np.linalg.norm(normals, axis=1)
    ok = norms > 1e-12
    if not ok.any():
        return None
    normals[ok] /= norms[ok, None]
    offsets = np.einsum("ij,ij->i", normals, p0)

    counts = _inlier_counts(pts, normals, offsets, inlier_threshold)
    counts[~ok] = 0
    best_iter = int(np.argmax(counts))  # the first of equal counts
    best_count = int(counts[best_iter])

    if best_count < 3:
        return None

    inliers = np.abs(pts @ normals[best_iter] - offsets[best_iter]) <= inlier_threshold
    normal, offset = _fit_plane_svd(pts[inliers])
    normal, offset = _canonical_sign(normal, offset)

    count = int((np.abs(pts @ normal - offset) <= inlier_threshold).sum())
    ratio = count / n
    if ratio < min_inlier_ratio:
        return None
    return Plane(normal=normal, offset=offset, inlier_count=count, inlier_ratio=ratio)


def rotation_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimal rotation carrying unit vector a onto unit vector b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    v = np.cross(a, b)
    s = np.linalg.norm(v)
    c = float(a @ b)
    if s < 1e-15:
        if c > 0:
            return np.eye(3)
        # Antiparallel: 180 degrees about any axis perpendicular to a.
        axis = np.cross(a, np.array([1.0, 0.0, 0.0]))
        if np.linalg.norm(axis) < 1e-12:
            axis = np.cross(a, np.array([0.0, 1.0, 0.0]))
        axis /= np.linalg.norm(axis)
        return 2.0 * np.outer(axis, axis) - np.eye(3)
    vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return np.eye(3) + vx + vx @ vx * ((1.0 - c) / (s * s))


def _transform_cloud(cloud: PointCloud, transform: RigidSimilarity) -> PointCloud:
    normals = cloud.normals
    if normals is not None:
        normals = normals @ transform.rotation.T
    return replace(cloud, positions=transform.apply(cloud.positions), normals=normals)


def align_z_up(
    cloud: PointCloud,
    plane: Plane,
    inlier_threshold: float = 0.02,
) -> tuple[PointCloud, RigidSimilarity]:
    """Rotate the dominant plane to +Z, place it at z = 0, and refine by SVD.

    The plane normal sign is chosen so the majority of points end up above
    the plane (floors have mass above them).  After the initial rotation the
    inliers are recomputed within inlier_threshold, refit by least squares,
    and the residual correction applied.  Returns the transformed cloud and
    the composed transform (scale = 1).
    """
    pts = cloud.positions
    normal = np.asarray(plane.normal, dtype=np.float64)
    offset = float(plane.offset)

    signed = pts @ normal - offset
    if (signed > 0.0).sum() < (signed < 0.0).sum():
        normal, offset = -normal, -offset

    r0 = rotation_between(normal, np.array([0.0, 0.0, 1.0]))
    t0 = np.array([0.0, 0.0, -offset])
    first = RigidSimilarity(r0, t0, 1.0)

    moved = first.apply(pts)
    inliers = np.abs(moved[:, 2]) <= inlier_threshold
    transform = first
    if inliers.sum() >= 3:
        refit_normal, refit_offset = _fit_plane_svd(moved[inliers])
        if refit_normal[2] < 0:
            refit_normal, refit_offset = -refit_normal, -refit_offset
        r1 = rotation_between(refit_normal, np.array([0.0, 0.0, 1.0]))
        t1 = np.array([0.0, 0.0, -refit_offset])
        transform = RigidSimilarity(r1, t1, 1.0).compose(first)

    return _transform_cloud(cloud, transform), transform


def aabb_diagonal(cloud: PointCloud) -> float:
    """Diagonal length of the axis-aligned bounding box of the points."""
    pts = cloud.positions
    if len(pts) == 0:
        raise EmptyCloudError("aabb_diagonal of an empty cloud")
    return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


def scale_align(cloud: PointCloud, s_target: float) -> tuple[PointCloud, RigidSimilarity]:
    """Scale the cloud about its centroid so the AABB diagonal equals s_target."""
    if not s_target > 0.0:
        raise ValueError("s_target must be positive")
    diagonal = aabb_diagonal(cloud)
    if diagonal <= 0.0:
        raise DegenerateGeometryError("cannot scale a cloud with zero diagonal")
    alpha = s_target / diagonal
    centroid = cloud.positions.mean(axis=0)
    transform = RigidSimilarity(np.eye(3), (1.0 - alpha) * centroid, alpha)
    return _transform_cloud(cloud, transform), transform


def estimate_normals(
    cloud: PointCloud,
    k: int = 16,
    return_degenerate: bool = False,
) -> PointCloud | tuple[PointCloud, np.ndarray]:
    """Per-point normals from local PCA over the k-nearest neighborhoods.

    The normal is the eigenvector of the smallest covariance eigenvalue of
    each point's neighborhood (the point itself plus its k nearest
    neighbors).  Orientation: flipped to a non-negative z component; when the
    z component is below 1e-6, to non-negative x, then y.  Rank-deficient
    neighborhoods get normal +Z and are flagged; pass return_degenerate=True
    to receive the flag array.
    """
    pts = cloud.positions
    if len(pts) <= k:
        raise EmptyCloudError(f"normal estimation needs more than k={k} points")

    nbr = _self_knn(pts, k + 1)

    def block_pca(rows):
        centered = pts[nbr[rows]]
        centered -= centered.mean(axis=1, keepdims=True)
        return np.linalg.eigh(np.einsum("nki,nkj->nij", centered, centered))

    eigvals, eigvecs = map(np.concatenate, zip(*_row_map(block_pca, len(pts))))

    normals = eigvecs[:, :, 0]
    degenerate = eigvals[:, 1] <= 1e-12 * np.maximum(eigvals[:, 2], 0.0)
    normals[degenerate] = (0.0, 0.0, 1.0)

    # Orientation: the first axis of (z, x, y) whose component clears 1e-6
    # decides the sign of the whole vector.
    sign = np.zeros(len(normals))
    for axis in (2, 0, 1):
        comp = normals[:, axis]
        use = (sign == 0.0) & (np.abs(comp) >= 1e-6)
        sign[use] = np.sign(comp[use])
    sign[sign == 0.0] = 1.0
    normals *= sign[:, None]
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)

    out = replace(cloud, normals=normals)
    if return_degenerate:
        return out, degenerate
    return out
