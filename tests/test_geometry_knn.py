import tracemalloc

import numpy as np
import pytest

from pointssl import (
    DegenerateGeometryError,
    EmptyCloudError,
    build_knn_graph,
)

from conftest import make_cloud


def brute_force_knn(points, k, max_radius):
    """Independent O(n^2) reference: per-point k nearest, radius-cut edges."""
    n = len(points)
    edges = {}
    for i in range(n):
        diff = points[i] - points
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        order = [j for j in np.argsort(dist, kind="stable") if j != i and dist[j] > 0.0]
        for j in order[:k]:
            if dist[j] <= max_radius:
                edges[(i, int(j))] = dist[j]
    return edges


def graph_edges(graph):
    return {
        (int(i), int(j)): d
        for i, j, d in zip(graph.source, graph.target, graph.distance)
    }


def test_collinear_points_sigma_and_weights():
    # 3 collinear points 0.05 m apart, k=1: sigma is the median neighbor
    # distance 0.05, so every edge weight is exp(-1).
    cloud = make_cloud([[0, 0, 0], [0.05, 0, 0], [0.10, 0, 0]])
    graph = build_knn_graph(cloud, k=1, max_radius=1.0)
    assert graph.sigma == pytest.approx(0.05)
    np.testing.assert_allclose(graph.weight, np.exp(-1.0), atol=1e-12)


def test_radius_cutoff_removes_all_edges():
    cloud = make_cloud([[0, 0, 0], [0.10, 0, 0]])
    graph = build_knn_graph(cloud, k=1, max_radius=0.08)
    assert graph.num_edges == 0


def test_coincident_points_degenerate():
    cloud = make_cloud([[1, 2, 3]] * 5)
    with pytest.raises(DegenerateGeometryError):
        build_knn_graph(cloud, k=2, max_radius=1.0)


def test_too_few_points():
    with pytest.raises(EmptyCloudError):
        build_knn_graph(make_cloud([[0, 0, 0]]), k=1, max_radius=1.0)


def test_fixed_sigma_mode():
    cloud = make_cloud([[0, 0, 0], [0.05, 0, 0], [0.10, 0, 0]])
    graph = build_knn_graph(cloud, k=1, max_radius=1.0, sigma=0.1)
    assert graph.sigma == 0.1
    np.testing.assert_allclose(graph.weight, np.exp(-(0.05 / 0.1) ** 2))


@pytest.mark.parametrize("k", [1, 4, 8])
@pytest.mark.parametrize("radius_mode", ["open", "tight"])
def test_matches_brute_force(k, radius_mode):
    rng = np.random.default_rng(42 + k)
    for trial in range(5):
        n = int(rng.integers(10, 120))
        points = rng.uniform(0, 1, (n, 3))
        radius = 10.0 if radius_mode == "open" else float(rng.uniform(0.1, 0.4))
        graph = build_knn_graph(make_cloud(points), k=k, max_radius=radius)
        expected = brute_force_knn(points, k, radius)
        got = graph_edges(graph)
        assert set(got) == set(expected)
        for key in expected:
            assert got[key] == expected[key]  # bit-identical distances


def test_edge_invariants():
    rng = np.random.default_rng(7)
    points = rng.uniform(0, 1, (200, 3))
    graph = build_knn_graph(make_cloud(points), k=6, max_radius=0.5)
    assert graph.weight.min() > 0.0 and graph.weight.max() <= 1.0
    assert np.all(graph.distance > 0.0)
    assert np.all(graph.distance <= 0.5)
    assert np.all(graph.source != graph.target)
    counts = np.bincount(graph.source, minlength=200)
    assert counts.max() <= 6
    # weight equals exp(-1) exactly where distance equals sigma
    at_sigma = np.exp(-((graph.distance / graph.sigma) ** 2))
    np.testing.assert_array_equal(graph.weight, at_sigma)


def assert_matches_oracle(points, k, radius):
    graph = build_knn_graph(make_cloud(points), k=k, max_radius=radius)
    expected = brute_force_knn(points, k, radius)
    got = graph_edges(graph)
    assert set(got) == set(expected)
    for key in expected:
        assert got[key] == expected[key]
    return got


@pytest.mark.parametrize("seed", range(4))
def test_edge_at_exactly_max_radius_kept(seed):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0, 1, (60, 3))
    # Take an exact neighbor distance from the oracle as the radius.
    key, dist = sorted(brute_force_knn(points, 4, 10.0).items(), key=lambda e: e[1])[30]
    got = assert_matches_oracle(points, 4, dist)
    assert got[key] == dist


@pytest.mark.parametrize("seed", range(4))
def test_edge_one_ulp_beyond_max_radius_dropped(seed):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0, 1, (60, 3))
    key, dist = sorted(brute_force_knn(points, 4, 10.0).items(), key=lambda e: e[1])[30]
    got = assert_matches_oracle(points, 4, float(np.nextafter(dist, 0.0)))
    assert key not in got


def test_fewer_than_k_neighbors_inside_radius():
    rng = np.random.default_rng(11)
    points = rng.uniform(0, 1, (150, 3))
    got = assert_matches_oracle(points, 8, 0.1)
    out_degree = np.bincount([i for i, _ in got], minlength=150)
    assert 0 < out_degree.max() < 8 and out_degree.min() == 0


@pytest.mark.parametrize("radius", [0.3, 10.0])
def test_k_plus_one_exceeds_point_count(radius):
    points = np.random.default_rng(12).uniform(0, 1, (5, 3))
    assert_matches_oracle(points, 10, radius)


def test_coincident_duplicates_match_oracle():
    # Clusters far apart, each small enough that a point's ball (duplicates
    # included) fits in the k + 1 query, so every non-duplicate neighbor
    # inside the radius is an edge.
    rng = np.random.default_rng(13)
    centers = np.arange(8)[:, None] * np.array([1.0, 0.0, 0.0])
    clusters = []
    for c in centers:
        pts = c + rng.uniform(0, 0.05, (3, 3))
        clusters.append(np.concatenate([pts, pts[:1], pts[:1]]))
    got = assert_matches_oracle(np.concatenate(clusters), 4, 0.2)
    assert len(got) > 0


def test_coincident_clusters_beyond_radius_not_degenerate():
    # Each point's filled neighbor slots hold only duplicates; the empty
    # slots stand for the other cluster beyond the radius.
    cloud = make_cloud([[0, 0, 0]] * 3 + [[1, 0, 0]] * 3)
    graph = build_knn_graph(cloud, k=4, max_radius=0.5)
    assert graph.num_edges == 0


def distances_by_source(edges):
    by_source = {}
    for (i, _), d in edges.items():
        by_source.setdefault(i, []).append(d)
    return {i: sorted(ds) for i, ds in by_source.items()}


@pytest.mark.parametrize("k", [1, 2])
def test_two_duplicate_triples(k):
    # Each point's duplicates must not use up its k places.  Its candidates
    # all tie at 0.01 m, so which of them is kept is not compared.
    points = np.array([[0.0, 0.0, 0.0]] * 3 + [[0.01, 0.0, 0.0]] * 3)
    got = graph_edges(build_knn_graph(make_cloud(points), k=k, max_radius=1.0))
    expected = brute_force_knn(points, k, 1.0)
    assert distances_by_source(got) == distances_by_source(expected)
    assert all((i < 3) != (j < 3) for i, j in got)


@pytest.mark.parametrize("radius", [2.2, 10.0])
def test_duplicate_cluster_larger_than_k_matches_oracle(radius):
    # Six copies of one point, far from a random cloud: the copies reach past
    # each other to their k nearest cloud points, and no cloud point has the
    # copies (which would tie) among its k nearest.
    rng = np.random.default_rng(15)
    points = np.concatenate([np.zeros((6, 3)), rng.uniform(1, 2, (40, 3))])
    points = points[rng.permutation(len(points))]
    copies = np.flatnonzero(~points.any(axis=1))
    for k in (1, 2, 3):
        got = assert_matches_oracle(points, k, radius)
        out_degree = np.bincount([i for i, _ in got], minlength=len(points))
        assert (out_degree[copies] > 0).all()
        if radius == 10.0:
            assert (out_degree[copies] == k).all()


def peak_traced_bytes(fn):
    tracemalloc.start()
    try:
        fn()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def test_large_coincident_cloud_raises_without_quadratic_memory():
    n = 3000
    cloud = make_cloud(np.full((n, 3), 0.5))

    def build():
        with pytest.raises(DegenerateGeometryError):
            build_knn_graph(cloud, k=16, max_radius=1.0)

    # One n x n index array would take n * n * 8 bytes.
    assert peak_traced_bytes(build) < n * n * 8 / 4


def test_large_duplicate_cluster_matches_oracle_without_quadratic_memory():
    # A thousand copies of one point beside a random cloud: the copies reach
    # past each other to their k nearest cloud points, and each cloud point's
    # k nearest lie inside the cloud.
    rng = np.random.default_rng(16)
    points = np.concatenate([np.zeros((1000, 3)), rng.uniform(1, 2, (200, 3))])
    points = points[rng.permutation(len(points))]
    n, k = len(points), 4
    assert peak_traced_bytes(
        lambda: build_knn_graph(make_cloud(points), k=k, max_radius=10.0)
    ) < n * n * 8 / 4
    got = assert_matches_oracle(points, k, 10.0)
    out_degree = np.bincount([i for i, _ in got], minlength=n)
    assert (out_degree == k).all()


def test_duplicate_groups_of_several_sizes_match_oracle_distances():
    # Groups of 2 to 7 copies inside a random cloud are queried again in
    # batches of equal size.  Copies tie with each other as neighbors of
    # other points, so only the distances per source are compared.
    rng = np.random.default_rng(17)
    cloud = rng.uniform(0, 1, (120, 3))
    points = np.concatenate([cloud] + [np.repeat(cloud[i : i + 1], c - 1, axis=0)
                                       for i, c in enumerate(range(2, 8))])
    points = points[rng.permutation(len(points))]
    for k in (1, 3, 5):
        got = graph_edges(build_knn_graph(make_cloud(points), k=k, max_radius=0.3))
        expected = brute_force_knn(points, k, 0.3)
        assert distances_by_source(got) == distances_by_source(expected)


def test_duplicates_with_signed_zeros_match_oracle_distances():
    # 0.0 and -0.0 coordinates coincide, so all four copies are one point.
    rng = np.random.default_rng(18)
    copies = np.array([[0.0, 0.5, 0.5], [-0.0, 0.5, 0.5]] * 2)
    points = np.concatenate([copies, rng.uniform(-0.5, 0.5, (60, 3))])
    for k in (1, 2, 4):
        got = graph_edges(build_knn_graph(make_cloud(points), k=k, max_radius=1.0))
        expected = brute_force_knn(points, k, 1.0)
        assert distances_by_source(got) == distances_by_source(expected)
