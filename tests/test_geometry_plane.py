import itertools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointssl import EmptyCloudError, detect_dominant_plane, geometry
from pointssl.geometry import sample_triples
from pointssl.rng import make_rng

from conftest import force_threads, make_cloud


def reference_hypotheses(points, iterations, seed):
    """The sampling stream of detect_dominant_plane: each hypothesis's unit
    normal and offset, and whether its sample spans a plane."""
    n = len(points)
    draw = make_rng(seed).integers(0, [n, n - 1, n - 2], size=(iterations, 3))
    samples = []
    for a, b, c in draw.tolist():
        # b skips a; c skips the smaller, then the larger, of a and b
        b += b >= a
        for taken in sorted((a, b)):
            c += c >= taken
        samples.append((a, b, c))
    samples = np.array(samples)
    p0, p1, p2 = points[samples[:, 0]], points[samples[:, 1]], points[samples[:, 2]]
    normals = np.cross(p1 - p0, p2 - p0)
    norms = np.linalg.norm(normals, axis=1)
    ok = norms > 1e-12
    normals[ok] /= norms[ok, None]
    return normals, np.einsum("ij,ij->i", normals, p0), ok


def _count(points, normal, offset, inlier_threshold):
    return int((np.abs(points @ normal - offset) <= inlier_threshold).sum())


def reference_best_hypothesis(points, iterations, inlier_threshold, seed):
    """The sampling stream and preemptive scoring of detect_dominant_plane,
    one hypothesis at a time: every hypothesis is scored on every
    (n // 2048)-th point, the 16 best of those (the first of equal scores)
    on all points, and the first with the most inliers is the best.  Returns
    its normal, offset and inlier count."""
    normals, offsets, ok = reference_hypotheses(points, iterations, seed)
    subsample = points[::max(1, len(points) // 2048)]
    scores = [_count(subsample, normals[i], offsets[i], inlier_threshold) if ok[i] else -1
              for i in range(iterations)]
    kept = sorted(sorted(range(iterations), key=lambda i: -scores[i])[:16])
    best, best_count = -1, -1
    for i in kept:
        count = _count(points, normals[i], offsets[i], inlier_threshold) if ok[i] else 0
        if count > best_count:
            best, best_count = i, count
    return normals[best], offsets[best], best_count


def full_scoring_best(points, iterations, inlier_threshold, seed):
    """The hypothesis of the same stream with the most inliers among all
    points (the first of equal counts): its normal and offset."""
    normals, offsets, ok = reference_hypotheses(points, iterations, seed)
    counts = [_count(points, normals[i], offsets[i], inlier_threshold) if ok[i] else 0
              for i in range(iterations)]
    best = counts.index(max(counts))
    return normals[best], offsets[best]


def refit(points, normal, offset, inlier_threshold):
    """detect_dominant_plane's least-squares refit of a hypothesis: the
    centroid and smallest singular direction of its inliers, signed so that
    the largest component is positive."""
    inliers = np.abs(points @ normal - offset) <= inlier_threshold
    centroid = points[inliers].mean(axis=0)
    direction = np.linalg.svd(points[inliers] - centroid, full_matrices=False)[2][-1]
    direction = -direction if direction[np.argmax(np.abs(direction))] < 0 else direction
    return direction, float(direction @ centroid)


def _noisy_plane_scene(rng, n_plane=2000, n_clutter=200, z=0.3, noise=0.005):
    plane = np.column_stack([
        rng.uniform(-1, 1, n_plane),
        rng.uniform(-1, 1, n_plane),
        rng.normal(z, noise, n_plane),
    ])
    clutter = rng.uniform(-1, 1, (n_clutter, 3))
    return np.concatenate([plane, clutter])


def test_recovers_generating_plane():
    rng = np.random.default_rng(0)
    points = _noisy_plane_scene(rng)
    plane = detect_dominant_plane(make_cloud(points), iterations=512,
                                  inlier_threshold=0.02, seed=1)
    assert plane is not None
    angle = np.degrees(np.arccos(min(abs(plane.normal[2]), 1.0)))
    assert angle < 1.0
    assert abs(abs(plane.offset) - 0.3) < 0.01
    assert plane.inlier_ratio > 0.8


def test_uniform_ball_has_no_dominant_plane():
    rng = np.random.default_rng(3)
    directions = rng.normal(size=(3000, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    points = directions * rng.random(3000)[:, None] ** (1 / 3)

    # Independent check: no plane hypothesis from many random triples gets
    # anywhere near the 15% inlier floor.
    best = 0
    for _ in range(300):
        idx = rng.choice(3000, 3, replace=False)
        p0, p1, p2 = points[idx]
        n = np.cross(p1 - p0, p2 - p0)
        if np.linalg.norm(n) < 1e-12:
            continue
        n = n / np.linalg.norm(n)
        count = (np.abs(points @ n - n @ p0) <= 0.02).sum()
        best = max(best, count)
    assert best / 3000 < 0.15

    plane = detect_dominant_plane(make_cloud(points), iterations=512,
                                  inlier_threshold=0.02, seed=0)
    assert plane is None


def test_three_exact_points():
    plane = detect_dominant_plane(
        make_cloud([[0, 0, 0], [1, 0, 0], [0, 1, 0]]),
        iterations=32, inlier_threshold=0.02, seed=0, min_inlier_ratio=0.0,
    )
    assert plane is not None
    np.testing.assert_allclose(np.abs(plane.normal), [0, 0, 1], atol=1e-12)
    assert plane.offset == pytest.approx(0.0, abs=1e-12)
    assert plane.inlier_count == 3


def test_collinear_points_not_found():
    points = np.column_stack([np.linspace(0, 1, 30), np.zeros(30), np.zeros(30)])
    assert detect_dominant_plane(make_cloud(points), 64, 0.02, seed=0) is None


def test_too_few_points_raises():
    with pytest.raises(EmptyCloudError):
        detect_dominant_plane(make_cloud([[0, 0, 0], [1, 1, 1]]), 16, 0.02, seed=0)


def test_deterministic_for_fixed_seed():
    rng = np.random.default_rng(9)
    points = _noisy_plane_scene(rng, n_plane=500, n_clutter=400)
    cloud = make_cloud(points)
    a = detect_dominant_plane(cloud, 128, 0.02, seed=11)
    b = detect_dominant_plane(cloud, 128, 0.02, seed=11)
    np.testing.assert_array_equal(a.normal, b.normal)
    assert a.offset == b.offset and a.inlier_count == b.inlier_count


def test_points_exactly_at_threshold_count_as_inliers():
    # Floor z = 0 and wall x = 0: hypotheses drawn from either have exact
    # axis normals, so a floor point at z = +-threshold lies exactly at the
    # threshold.  The floor wins only if those points count as inliers.
    rng = np.random.default_rng(14)
    threshold = 0.02
    floor = np.column_stack([rng.uniform(1, 2, (100, 2)), np.zeros(100)])
    edge = np.column_stack([rng.uniform(1, 2, (40, 2)),
                            np.where(rng.random(40) < 0.5, -threshold, threshold)])
    wall = np.column_stack([np.zeros(120), rng.uniform(1, 2, (120, 2))])
    points = np.concatenate([floor, edge, wall])[rng.permutation(260)]

    normal, offset, count = reference_best_hypothesis(points, 256, threshold, seed=5)
    assert np.array_equal(np.abs(normal), [0.0, 0.0, 1.0]) and count == 140

    plane = detect_dominant_plane(make_cloud(points), 256, threshold, seed=5,
                                  min_inlier_ratio=0.0)
    normal, offset = refit(points, normal, offset, threshold)
    assert np.array_equal(plane.normal, normal)
    assert plane.offset == offset
    assert plane.inlier_count == _count(points, normal, offset, threshold)


class TestSampling:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 10**6), seed=st.integers(0, 2**32 - 1))
    def test_rows_hold_three_distinct_indices_in_range(self, n, seed):
        samples = sample_triples(make_rng(seed), n, 64)
        assert samples.shape == (64, 3)
        assert samples.min() >= 0 and samples.max() < n
        assert (samples[:, 0] != samples[:, 1]).all()
        assert (samples[:, 0] != samples[:, 2]).all()
        assert (samples[:, 1] != samples[:, 2]).all()
        assert np.array_equal(samples, sample_triples(make_rng(seed), n, 64))

    def test_every_ordered_triple_appears(self):
        samples = sample_triples(make_rng(0), 5, 3000)
        drawn = set(map(tuple, samples.tolist()))
        assert drawn == set(itertools.permutations(range(5), 3))
        assert len(drawn) == 60


class TestPreemption:
    """Preemption keeps the hypothesis that scoring every hypothesis on every
    point keeps, on clouds where the subsample is a fraction of the points
    and that hypothesis is not the subsample's best."""

    def _check(self, points, threshold, seed):
        subsample = points[::len(points) // 2048]
        assert len(subsample) <= len(points) / 2
        normals, offsets, _ = reference_hypotheses(points, 512, seed)
        best_normal, best_offset = full_scoring_best(points, 512, threshold, seed)
        scores = [_count(subsample, normal, offset, threshold)
                  for normal, offset in zip(normals, offsets)]
        assert _count(subsample, best_normal, best_offset, threshold) < max(scores)

        plane = detect_dominant_plane(make_cloud(points), 512, threshold, seed=seed,
                                      min_inlier_ratio=0.0)
        normal, offset = refit(points, best_normal, best_offset, threshold)
        assert np.array_equal(plane.normal, normal)
        assert plane.offset == offset

    def test_big_room(self, big_room):
        self._check(big_room.positions, 0.02, seed=8)

    # seed 7: the subsample's best ties the full best on all points, and
    # the full best, drawn first, is 11th on the subsample
    @pytest.mark.parametrize("seed", [3, 7])
    def test_noisy_plane_scene(self, seed):
        rng = np.random.default_rng(15)
        self._check(_noisy_plane_scene(rng, n_plane=3000, n_clutter=3000), 0.02, seed)


def reference_inlier_counts(points, normals, offsets, inlier_threshold):
    """Every point scored against 128 hypotheses at a time in one matrix."""
    counts = []
    for start in range(0, len(normals), 128):
        sl = slice(start, min(start + 128, len(normals)))
        dist = np.abs(points @ normals[sl].T - offsets[sl])
        counts.append(np.count_nonzero(dist <= inlier_threshold, axis=0))
    return np.concatenate(counts)


class TestRowThreads:
    @pytest.mark.parametrize("cpus", [8, 2, 1])
    def test_counts_match_whole_matrix_scoring(self, big_room, monkeypatch, cpus):
        # Scoring has no threads: whatever CPU count is reported, it runs on
        # the calling thread and gives the one-matrix counts.
        threads = force_threads(monkeypatch, cpus)
        points = big_room.positions
        # 300 hypotheses: the last block of 128 is a short one
        normals, offsets, _ = reference_hypotheses(points, 300, seed=7)
        counts = geometry._inlier_counts(points, normals, offsets, 0.02)
        assert threads <= {threading.get_ident()}
        expected = reference_inlier_counts(points, normals, offsets, 0.02)
        assert expected.max() > 0.15 * len(points)  # the floor is among them
        assert np.array_equal(counts, expected)
