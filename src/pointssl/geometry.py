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
from numbers import Integral

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

    def neighbors_within(self, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """Every point's other points within radius, as (starts, neighbors).

        Point i's list is neighbors[starts[i]:starts[i + 1]], sorted by
        (distance, index); a coincident duplicate is listed at distance 0.
        The lists are built on the first call for a radius and kept as long
        as the cloud, so a training run builds each scene's once; they grow
        with the radius, to every pair of points once it spans the cloud.
        """
        cache = self.__dict__.setdefault("_neighbor_lists", {})
        radius = float(radius)
        lists = cache.get(radius)
        if lists is None:
            # Threads that miss at once each build; every caller gets the first stored.
            lists = cache.setdefault(radius, _neighbor_lists(self.positions, radius))
        return lists

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
    weight = exp(-(distance / sigma)^2), where sigma is the median edge
    distance (NaN when there is no edge).  Every stored distance is strictly
    positive; build_knn_graph keeps none beyond its max_radius.
    """

    source: np.ndarray
    target: np.ndarray
    distance: np.ndarray
    weight: np.ndarray
    sigma: float
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


def _neighbor_lists(points: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """PointCloud.neighbors_within's (starts, neighbors), read-only, from one pair query."""
    if not radius >= 0.0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    # The inflated (and floored) bound keeps every pair the exact filter
    # keeps, the tree's rounding at its bound and a subnormal radius included.
    bound = max(radius * (1.0 + 1e-9), 1e-100)
    i, j = cKDTree(points).query_pairs(bound, output_type="ndarray").T
    dist = _exact_distances(points[i], points[j])
    keep = dist <= radius
    source = np.concatenate([i[keep], j[keep]])
    target = np.concatenate([j[keep], i[keep]])
    dist = np.concatenate([dist[keep], dist[keep]])
    neighbors = target[np.lexsort((target, dist, source))]
    starts = np.zeros(len(points) + 1, np.intp)
    np.cumsum(np.bincount(source, minlength=len(points)), out=starts[1:])
    starts.flags.writeable = neighbors.flags.writeable = False
    return starts, neighbors


def gather_lists(
    lists: tuple[np.ndarray, np.ndarray], ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The neighbor lists of the points ids, one after another, from
    neighbors_within's (starts, neighbors): returns (owner, neighbors), where
    neighbors[e] is in the list of ids[owner[e]]."""
    starts, neighbors = lists
    first = starts[ids]
    counts = starts[ids + 1] - first
    owner = np.repeat(np.arange(len(ids)), counts)
    entries = np.arange(len(owner)) + np.repeat(first - (np.cumsum(counts) - counts), counts)
    return owner, neighbors[entries]


def self_knn(points: np.ndarray, k: int) -> np.ndarray:
    """(n, k) indices of each point's k nearest points, counting the point
    itself (or, among coincident duplicates, one of them in its place).

    The query runs one thread per CPU this process may use; each row is
    searched on its own, so the indices are those of a single-threaded query.
    """
    _, nbr = cKDTree(points).query(points, k=k, workers=_threads.usable_cpus())
    return nbr.reshape(len(points), k)


def _neighborhoods(points: np.ndarray, k: int, neighbors: np.ndarray | None) -> np.ndarray:
    """Each point's row of itself and its k nearest points: the first k + 1
    columns of the given self-kNN rows, or a query when none are given."""
    if neighbors is None:
        return self_knn(points, k + 1)
    if neighbors.ndim != 2 or len(neighbors) != len(points) or neighbors.shape[1] <= k:
        raise ValueError(f"neighbors must have shape ({len(points)}, >= {k + 1}), "
                         f"got {neighbors.shape}")
    return neighbors[:, :k + 1]


# Rows per block of SOR's mean distances and the normals: a block's gathered
# neighbourhoods stay in cache.  On a 20k-point room (2-CPU host, one BLAS
# thread) SOR's distances took 7.8 ms in blocks against 13.3 ms as one array,
# and the normals 22.0 ms against 28.1 ms.
_ROW_BLOCK = 1024


def _knn_lists(points: np.ndarray, k: int, max_radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Per point, in neighbors_within's (starts, neighbors) layout: its k
    nearest other distinct points within about max_radius, in the order of
    one tree query over the distinct points, each as at most k of its copies,
    lowest index first.  The bound is inflated; the caller filters exactly."""
    # + 0.0 turns -0.0 into 0.0, so coordinates differing only in a zero's
    # sign are one distinct point.
    sites, site_of, counts = np.unique(points + 0.0, axis=0, return_inverse=True,
                                       return_counts=True)
    site_of = site_of.reshape(-1)
    # The tree keeps only distances strictly below its bound; the inflated
    # bound still returns every neighbor the exact filter keeps.  A site's
    # nearest site is itself, so the query starts at the second.
    _, near = cKDTree(sites).query(sites, k=np.arange(2, k + 2),
                                   distance_upper_bound=max_radius * (1.0 + 1e-9))
    near = near[site_of]
    owner, slot = np.nonzero(near < len(sites))
    # Each site's first k copies: no point needs more of one site for its k places.
    rank = np.arange(len(points)) - np.repeat(np.cumsum(counts) - counts, counts)
    copies = (np.concatenate([[0], np.cumsum(np.minimum(counts, k))]),
              np.argsort(site_of, kind="stable")[rank < k])
    entry, neighbors = gather_lists(copies, near[owner, slot])
    starts = np.zeros(len(points) + 1, np.intp)
    np.cumsum(np.bincount(owner[entry], minlength=len(points)), out=starts[1:])
    return starts, neighbors


def build_knn_graph(
    cloud: PointCloud,
    k: int,
    max_radius: float,
    among: np.ndarray | None = None,
) -> KnnGraph:
    """Build the exact k-nearest-neighbor graph with Gaussian edge weights.

    Node i's edges go to the first k of its candidates at a positive distance
    of at most max_radius, so coincident duplicates get no edge and take none
    of its k places; the weight scale sigma is the median edge distance.
    Only the candidates' source differs.  With among, an index array of
    distinct points of the cloud, node i is the point among[i] and its
    candidates are the other points among holds, in (distance, index) order
    from cloud.neighbors_within(max_radius), which the cloud keeps for the
    next call.  Without it, node i is point i and its candidates come from
    one tree query over the cloud's distinct points (_knn_lists): there the
    tree breaks a tie among distinct points at the k-th place, and the
    copies of a point are taken lowest index first.

    Raises:
        TypeError: k is not an integer.
        EmptyCloudError: fewer than 2 points (or ids in among).
        DegenerateGeometryError: all points coincide (sigma would be 0).
        ValueError: among repeats an id or names one outside the cloud.
    """
    if isinstance(k, bool) or not isinstance(k, Integral):
        raise TypeError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not max_radius > 0.0:
        raise ValueError("max_radius must be positive")
    pts, n, whole = cloud.positions, len(cloud), among is None
    among = np.arange(n) if whole else np.asarray(among)
    if among.ndim != 1 or (among.size and not np.issubdtype(among.dtype, np.integer)):
        raise ValueError(f"among must be a 1-D integer array, got {among.dtype} {among.shape}")
    m = len(among)
    if m and (among.min() < 0 or among.max() >= n):
        raise ValueError(f"among names points outside the cloud of {n}")
    if m < 2:
        raise EmptyCloudError("kNN graph needs at least 2 points")
    node = np.full(n, -1, np.int64)
    node[among] = np.arange(m)
    if (node[among] != np.arange(m)).any():
        raise ValueError("among repeats a point")

    lists = _knn_lists(pts, k, max_radius) if whole else cloud.neighbors_within(max_radius)
    rows, points = gather_lists(lists, among)
    keep = node[points] >= 0
    rows, points = rows[keep], points[keep]
    # np.take gathers rows several times faster than fancy indexing.
    dvals = _exact_distances(np.take(pts, among[rows], axis=0), np.take(pts, points, axis=0))
    keep = (dvals > 0.0) & (dvals <= max_radius)
    if not keep.any() and (np.take(pts, among, axis=0) == pts[among[0]]).all():
        raise DegenerateGeometryError("all points coincide; sigma would be 0")
    # Coincident duplicates take none of the k places, so they go before the
    # rows are cut; each row's first k then are its k nearest candidates.
    rows, points, dvals = rows[keep], points[keep], dvals[keep]
    per_row = np.bincount(rows, minlength=m)
    if per_row.max() > k:
        keep = np.arange(len(rows)) - (np.cumsum(per_row) - per_row)[rows] < k
        rows, points, dvals = rows[keep], points[keep], dvals[keep]

    # Every kept distance is positive, so their median is.
    sigma = float(np.median(dvals)) if dvals.size else float("nan")
    return KnnGraph(
        source=rows,
        target=node[points],
        distance=dvals,
        weight=np.exp(-((dvals / sigma) ** 2)),
        sigma=sigma,
        num_nodes=m,
    )


def mean_knn_distances(points: np.ndarray, k: int, neighbors: np.ndarray | None = None) -> np.ndarray:
    """Per-point mean distance to the k nearest neighbors (self excluded).

    neighbors, when given, are the points' self-kNN rows (self_knn) with at
    least k + 1 columns, and no query runs.
    """
    nbr = _neighborhoods(points, k, neighbors)
    means = np.empty(len(points))
    for start in range(0, len(points), _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        neighborhoods = np.take(points, nbr[rows], axis=0)
        means[rows] = _exact_distances(points[rows, None, :], neighborhoods)[:, 1:].mean(axis=1)
    return means


def sor_filter(
    cloud: PointCloud,
    k: int = 16,
    std_mult: float = 2.0,
    neighbors: np.ndarray | None = None,
    kept: np.ndarray | None = None,
) -> PointCloud:
    """Statistical outlier removal.

    Removes points whose mean distance to their k nearest neighbors exceeds
    the global mean of those per-point means by more than std_mult population
    standard deviations.  Survivor order is preserved.  With k or fewer points
    the cloud is returned unchanged and a warning is emitted.

    neighbors, when given, are the cloud's self-kNN rows (self_knn) with at
    least k + 1 columns, and SOR runs no query of its own.  kept, when given,
    is a boolean array of len(cloud) that receives which points survive.
    align_scene passes both, so that one query serves SOR and the normals:
    there a survivor's normal comes from its nearest SOR survivors in the
    frame SOR saw (survivor_neighbors), not in the aligned frame.
    """
    if not std_mult > 0.0:
        raise ValueError("std_mult must be positive")
    if len(cloud) <= k:
        warnings.warn(f"SOR skipped: {len(cloud)} points <= k={k}", stacklevel=2)
        if kept is not None:
            kept[:] = True
        return cloud

    means = mean_knn_distances(cloud.positions, k, neighbors)
    survive = means <= means.mean() + std_mult * means.std()
    if kept is not None:
        kept[:] = survive
    return cloud.select(survive)


def survivor_neighbors(
    neighbors: np.ndarray, kept: np.ndarray, survivors: np.ndarray, k: int
) -> np.ndarray | None:
    """Self-kNN rows of the kept points, renumbered to survivor indices.

    neighbors are the self-kNN rows of the whole cloud, with at least k + 1
    columns; kept marks the survivors and survivors holds their positions, in
    the frame the rows were found in.  Each survivor's row is the first k + 1
    entries of its own row when none of them was removed, and otherwise a
    query on a tree over the survivors.  Either way it names the survivor and
    its k nearest survivors, in the order of the rows' frame.  Returns None
    when k or fewer points survive.
    """
    m = len(survivors)
    if m <= k:
        return None
    index = np.cumsum(kept) - 1
    index[~kept] = -1
    rows = index[neighbors[kept, :k + 1]]
    stale = np.flatnonzero((rows < 0).any(axis=1))
    if stale.size:
        tree = cKDTree(survivors)
        rows[stale] = tree.query(survivors[stale], k=k + 1, workers=_threads.usable_cpus())[1]
    return rows


def _fit_plane_svd(points: np.ndarray) -> tuple[np.ndarray, float]:
    centroid = points.mean(axis=0)
    _, _, vt = np.linalg.svd(points - centroid, full_matrices=False)
    normal = vt[-1]
    return normal, float(normal @ centroid)


def _inlier_counts(
    pts: np.ndarray, normals: np.ndarray, offsets: np.ndarray, inlier_threshold: float
) -> np.ndarray:
    """Per hypothesis, the number of points within inlier_threshold of its plane."""
    counts = np.empty(len(normals), np.int64)
    for start in range(0, len(normals), 128):
        sl = slice(start, start + 128)
        dist = pts @ normals[sl].T
        dist -= offsets[sl]
        np.abs(dist, out=dist)
        counts[sl] = np.count_nonzero(dist <= inlier_threshold, axis=0)
    return counts


# Preemptive scoring (Nister, ICCV 2003): each hypothesis is first scored on
# about _PREEMPT_POINTS points of a fixed stride, and only the _PREEMPT_KEEP
# best are scored on the whole cloud.  At 512 hypotheses over 20k points that
# is 13% of the distances of full scoring, and on the benchmark's rooms the
# hypothesis full scoring picks was first or second on the subsample.
_PREEMPT_POINTS = 2048
_PREEMPT_KEEP = 16


def sample_triples(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """(count, 3) rows of 3 distinct indices in [0, n), each ordered triple
    equally likely, from one draw of rng.

    The second index is drawn from n - 1 values and shifted up past the
    first, the third from n - 2 and shifted up past the smaller, then the
    larger of the first two.
    """
    draw = rng.integers(0, [n, n - 1, n - 2], size=(count, 3))
    first, second, third = draw.T
    second += second >= first
    low, high = np.minimum(first, second), np.maximum(first, second)
    third += third >= low
    third += third >= high
    return draw


def detect_dominant_plane(
    cloud: PointCloud,
    iterations: int = 512,
    inlier_threshold: float = 0.02,
    seed: int = 0,
    min_inlier_ratio: float = 0.15,
) -> Plane | None:
    """RANSAC dominant-plane detection with least-squares refit.

    Samples 3 distinct points per iteration (sample_triples).  Of the
    _PREEMPT_KEEP hypotheses supporting the most points of a stride
    subsample, keeps the one supporting the most points within
    inlier_threshold, then refits that plane to its inliers via the centroid
    and smallest singular direction.  Returns None when the refit plane
    supports fewer than min_inlier_ratio of the points (including the
    all-collinear case).  Deterministic for a fixed seed.
    """
    pts = cloud.positions
    n = len(pts)
    if n < 3:
        raise EmptyCloudError("plane detection needs at least 3 points")

    samples = sample_triples(make_rng(seed), n, iterations)
    p0, p1, p2 = pts[samples[:, 0]], pts[samples[:, 1]], pts[samples[:, 2]]
    normals = np.cross(p1 - p0, p2 - p0)
    norms = np.linalg.norm(normals, axis=1)
    ok = norms > 1e-12
    if not ok.any():
        return None
    normals[ok] /= norms[ok, None]
    offsets = np.einsum("ij,ij->i", normals, p0)

    # Preemption: every hypothesis is scored on a stride subsample, and only
    # the best _PREEMPT_KEEP of those, in draw order, against every point.
    sub = pts[::max(1, n // _PREEMPT_POINTS)]
    sub_counts = _inlier_counts(sub, normals, offsets, inlier_threshold)
    sub_counts[~ok] = -1
    kept = np.sort(np.argsort(-sub_counts, kind="stable")[:_PREEMPT_KEEP])
    counts = _inlier_counts(pts, normals[kept], offsets[kept], inlier_threshold)
    counts[~ok[kept]] = 0
    best = int(np.argmax(counts))  # the first of equal counts
    best_iter, best_count = int(kept[best]), int(counts[best])

    if best_count < 3:
        return None

    inliers = np.abs(pts @ normals[best_iter] - offsets[best_iter]) <= inlier_threshold
    normal, offset = _fit_plane_svd(pts[inliers])
    if normal[np.argmax(np.abs(normal))] < 0:  # the dominant component is positive
        normal, offset = -normal, -offset

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


def _smallest_eigenpairs(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per symmetric positive semi-definite 3x3 matrix of cov (n, 3, 3), its
    smallest eigenvalue, a unit eigenvector of it, and whether its rank is
    below 2.

    The eigenvalue comes from Smith's trigonometric solution of the
    characteristic cubic (CACM 4(4), 1961), which is accurate to a few ulps
    of the largest eigenvalue wherever the smallest is simple.  The vector is
    the longest cross product of two rows of cov - lambda * I.  Rank is read
    from the invariants: rank < 2 when the sum of the principal 2x2 minors,
    lambda_0 lambda_1 + (lambda_0 + lambda_1) lambda_2, is at most 1e-12 of
    the squared trace.  Near a double root the cubic's middle root is off by
    about sqrt(eps) * lambda_2, too coarse to tell a line from a thin strip.
    """
    a00, a11, a22 = cov[:, 0, 0], cov[:, 1, 1], cov[:, 2, 2]
    a01, a02, a12 = cov[:, 0, 1], cov[:, 0, 2], cov[:, 1, 2]
    q = (a00 + a11 + a22) / 3.0
    d0, d1, d2 = a00 - q, a11 - q, a22 - q
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) / 6.0)
    # cov = q I when p = 0: every angle gives lambda = q.
    inv_p = 1.0 / np.where(p > 0.0, p, 1.0)
    b00, b11, b22 = d0 * inv_p, d1 * inv_p, d2 * inv_p
    b01, b02, b12 = a01 * inv_p, a02 * inv_p, a12 * inv_p
    half_det = 0.5 * (b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02)
                      + b02 * (b01 * b12 - b11 * b02))
    phi = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0
    lam = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)

    minors = a00 * a11 - a01 * a01 + a00 * a22 - a02 * a02 + a11 * a22 - a12 * a12
    trace = 3.0 * q
    degenerate = minors <= 1e-12 * (trace * trace)

    shifted = cov - lam[:, None, None] * np.eye(3)
    cross = np.cross(shifted[:, [0, 0, 1]], shifted[:, [1, 2, 2]])
    lengths = (cross * cross).sum(axis=2)
    longest = lengths.argmax(axis=1)[:, None]
    normals = np.take_along_axis(cross, longest[:, :, None], axis=1)[:, 0]
    length = np.sqrt(np.take_along_axis(lengths, longest, axis=1))
    normals /= np.where(length > 0.0, length, 1.0)
    # All three products vanish only where lambda is an exact multiple root,
    # as for cov = c I; there any vector of its eigenspace will do.
    multiple = (length[:, 0] == 0.0) & ~degenerate
    if multiple.any():
        normals[multiple] = np.linalg.eigh(cov[multiple])[1][:, :, 0]
    return lam, normals, degenerate


def estimate_normals(
    cloud: PointCloud,
    k: int = 16,
    neighbors: np.ndarray | None = None,
) -> tuple[PointCloud, np.ndarray]:
    """Per-point normals from local PCA over the k-nearest neighborhoods.

    The normal is the eigenvector of the smallest covariance eigenvalue of
    each point's neighborhood (the point itself plus its k nearest
    neighbors), found in closed form (_smallest_eigenpairs).  Orientation:
    flipped to a non-negative z component; when the z component is below
    1e-6, to non-negative x, then y.  Rank-deficient neighborhoods get normal
    +Z.  Returns the cloud with normals and the boolean flags of the
    rank-deficient neighborhoods.

    neighbors, when given, are self-kNN rows of at least k + 1 columns that
    name each point's neighborhood in place of a query.  align_scene passes
    the rows of SOR's query (survivor_neighbors): there a neighborhood is the
    k nearest SOR survivors in the input frame, which Z-up and scale reorder
    only where their rounding breaks a tie of exact arithmetic.
    """
    pts = cloud.positions
    if len(pts) <= k:
        raise EmptyCloudError(f"normal estimation needs more than k={k} points")

    nbr = _neighborhoods(pts, k, neighbors)

    # np.take and a matmul mean run several times faster here than fancy
    # indexing and .mean(axis=1) over the short middle axis.
    weights = np.full((1, nbr.shape[1]), 1.0 / nbr.shape[1])
    normals = np.empty((len(pts), 3))
    degenerate = np.empty(len(pts), bool)
    for start in range(0, len(pts), _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        centered = np.take(pts, nbr[rows], axis=0)
        centered -= weights @ centered
        _, normals[rows], degenerate[rows] = _smallest_eigenpairs(
            centered.transpose(0, 2, 1) @ centered)
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

    return replace(cloud, normals=normals), degenerate
