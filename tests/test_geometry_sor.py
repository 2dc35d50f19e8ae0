import threading

import numpy as np
import pytest
from scipy.spatial import cKDTree

from pointssl import PointCloud, sor_filter
from pointssl.geometry import mean_knn_distances

from conftest import force_threads, make_cloud, toy_room


def brute_force_sor_survivors(points, k, std_mult):
    """Independent implementation of the removal rule, O(n^2)."""
    n = len(points)
    means = np.empty(n)
    for i in range(n):
        diff = points[i] - points
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        dist = np.sort(dist)
        means[i] = dist[1 : k + 1].mean()  # skip the zero self-distance
    threshold = means.mean() + std_mult * means.std()
    return np.flatnonzero(means <= threshold)


def _cube_with_outliers(rng, n_inliers=1000, n_outliers=10):
    inliers = rng.uniform(0, 1, (n_inliers, 3))
    diagonal = np.sqrt(3.0)
    directions = rng.normal(size=(n_outliers, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    outliers = 0.5 + directions * 10.0 * diagonal
    return np.concatenate([inliers, outliers]), n_inliers


def test_far_outliers_removed():
    rng = np.random.default_rng(11)
    points, n_inliers = _cube_with_outliers(rng)
    filtered = sor_filter(make_cloud(points), k=16, std_mult=2.0)
    survivors = {tuple(p) for p in filtered.positions}
    removed_outliers = sum(
        1 for p in points[n_inliers:] if tuple(p) not in survivors
    )
    removed_inliers = sum(1 for p in points[:n_inliers] if tuple(p) not in survivors)
    assert removed_outliers == 10
    assert removed_inliers <= 0.01 * n_inliers


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(5)
    for trial in range(4):
        points, _ = _cube_with_outliers(rng, n_inliers=300, n_outliers=5)
        filtered = sor_filter(make_cloud(points), k=8, std_mult=1.5)
        expected = brute_force_sor_survivors(points, k=8, std_mult=1.5)
        np.testing.assert_array_equal(filtered.positions, points[expected])


def test_equal_spacing_removes_nothing():
    # A chain with uniform spacing and k=1: every per-point mean distance is
    # identical, the std is 0, and nothing exceeds mean + 2 std.
    points = np.zeros((50, 3))
    points[:, 0] = np.arange(50) * 0.1
    filtered = sor_filter(make_cloud(points), k=1, std_mult=2.0)
    assert len(filtered) == 50


def test_small_cloud_passthrough_with_warning():
    points = np.random.default_rng(0).uniform(0, 1, (16, 3))
    cloud = make_cloud(points)
    with pytest.warns(UserWarning, match="SOR skipped"):
        result = sor_filter(cloud, k=16, std_mult=2.0)
    np.testing.assert_array_equal(result.positions, cloud.positions)


def test_permutation_equivariance():
    rng = np.random.default_rng(21)
    points, _ = _cube_with_outliers(rng, n_inliers=200, n_outliers=8)
    perm = rng.permutation(len(points))
    a = sor_filter(make_cloud(points), k=8, std_mult=2.0)
    b = sor_filter(make_cloud(points[perm]), k=8, std_mult=2.0)
    set_a = {tuple(p) for p in a.positions}
    set_b = {tuple(p) for p in b.positions}
    assert set_a == set_b


def test_preserves_order_and_attributes():
    rng = np.random.default_rng(2)
    points, n_inliers = _cube_with_outliers(rng, n_inliers=100, n_outliers=3)
    colors = rng.uniform(0, 1, (len(points), 3))
    cloud = PointCloud(positions=points, colors=colors)
    filtered = sor_filter(cloud, k=8, std_mult=2.0)
    # survivors keep their original relative order and carry their colors
    kept = [i for i, p in enumerate(points) if tuple(p) in {tuple(q) for q in filtered.positions}]
    np.testing.assert_array_equal(filtered.positions, points[kept])
    np.testing.assert_array_equal(filtered.colors, colors[kept])


def test_rejects_bad_std_mult():
    with pytest.raises(ValueError):
        sor_filter(make_cloud(np.zeros((30, 3))), k=4, std_mult=0.0)


def test_mean_knn_distances_bit_identical_to_reference():
    # Single-threaded query, then the distance formula written out.
    rng = np.random.default_rng(8)
    room = toy_room(seed=4, extents=(3.2, 2.4, 1.6), max_points=6000).positions
    clouds = [room, np.concatenate([room[:500], room[:100]]), rng.uniform(0, 1, (300, 3))]
    for points in clouds:
        for k in (1, 8, 16):
            _, nbr = cKDTree(points).query(points, k=k + 1)
            diff = points[:, None, :] - points[nbr]
            expected = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))[:, 1:].mean(axis=1)
            assert np.array_equal(mean_knn_distances(points, k), expected)


@pytest.mark.parametrize("cpus", [2, 1])
def test_row_blocks_match_reference_on_any_thread_count(big_room, monkeypatch, cpus):
    # The CPU count reaches only the kd-tree query's workers=; the row
    # blocks run on the calling thread.
    threads = force_threads(monkeypatch, cpus)
    points = big_room.positions
    means = mean_knn_distances(points, 16)
    survivors = sor_filter(big_room, k=16, std_mult=2.0)
    assert threads <= {threading.get_ident()}

    _, nbr = cKDTree(points).query(points, k=17)
    diff = points[:, None, :] - points[nbr]
    expected = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))[:, 1:].mean(axis=1)
    assert np.array_equal(means, expected)
    keep = expected <= expected.mean() + 2.0 * expected.std()
    assert 0 < (~keep).sum() < len(points)
    assert np.array_equal(survivors.positions, points[keep])
