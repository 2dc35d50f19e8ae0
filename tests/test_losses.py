import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointssl import (
    KnnGraph,
    PointCloud,
    TrainConfig,
    build_knn_graph,
    clustering_ce,
    consistency_loss,
    laplacian_loss,
    match_correspondences,
    run_training,
    softmax_rows,
)
from pointssl import geometry
from pointssl.gradcheck import finite_difference, relative_error

from conftest import make_cloud


class TestClusteringCE:
    def test_one_hot_vs_uniform(self):
        k = 10
        q = np.zeros((1, k))
        q[0, 3] = 1.0
        loss, _ = clustering_ce(q, np.zeros((1, k)))
        assert loss == pytest.approx(np.log(10.0), abs=1e-9)

    def test_minimum_at_q_equals_p(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(0, 1, (6, 5))
        p = softmax_rows(logits, temperature=0.7)
        loss, grad = clustering_ce(p, logits, temperature=0.7)
        row_entropy = -(p * np.log(p)).sum(axis=1).mean()
        assert loss == pytest.approx(row_entropy, abs=1e-12)
        assert np.abs(grad).max() < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        q = softmax_rows(rng.normal(0, 2, (5, 7)))
        logits = rng.normal(0, 2, (5, 7))
        tau = 0.3
        _, grad = clustering_ce(q, logits, tau)
        numeric = finite_difference(lambda x: clustering_ce(q, x, tau)[0], logits)
        assert relative_error(grad, numeric) < 1e-5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            clustering_ce(np.full((2, 2), 0.5), np.zeros((3, 2)))

    @pytest.mark.parametrize("q, logits, tau, message", [
        (np.full((2, 2), 0.5), np.array([[np.nan, 0.0], [0.0, 0.0]]), 1.0, "NaN or \\+Inf"),
        (np.full((2, 2), 0.5), np.array([[-np.inf, -np.inf], [0.0, 0.0]]), 1.0, "all -Inf"),
        (np.ones((2, 1)), np.zeros((2, 1)), 1.0, "at least 2 prototypes"),
        (np.full((2, 2), 0.5), np.zeros((2, 2)), 0.0, "temperature must be positive"),
        (np.full(4, 0.5), np.zeros((2, 2)), 1.0, "assignments must be 2-D"),
        (np.array([[1.5, -0.5], [0.5, 0.5]]), np.zeros((2, 2)), 1.0, "non-negative"),
        (np.full((2, 2), 0.7), np.zeros((2, 2)), 1.0, "sum to 1"),
    ])
    def test_arrays_get_the_container_checks(self, q, logits, tau, message):
        with pytest.raises(ValueError, match=message):
            clustering_ce(q, logits, tau)

    def test_neginf_logits_with_zero_targets_drop_out(self):
        # A -inf logit has p = 0; with q = 0 there its term is 0, not 0 * -inf.
        rng = np.random.default_rng(7)
        b, k, tau = 12, 9, 0.3
        logits = rng.normal(0, 2, (b, k))
        logits[rng.random((b, k)) < 0.3] = -np.inf
        logits[np.arange(b), rng.integers(0, k, b)] = 0.5
        q = softmax_rows(np.where(np.isinf(logits), -np.inf, rng.normal(0, 1, (b, k))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = clustering_ce(q, logits, tau)
        assert np.isfinite(loss) and np.isfinite(grad).all()
        want_loss, want_grad = 0.0, np.zeros((b, k))
        for i in range(b):
            kept = np.flatnonzero(np.isfinite(logits[i]))
            if len(kept) < 2:  # a one-prototype row: p = q = 1, no loss, no gradient
                continue
            row_loss, row_grad = clustering_ce(q[i:i + 1, kept], logits[i:i + 1, kept], tau)
            want_loss += row_loss / b
            want_grad[i, kept] = row_grad[0] / b
        assert loss == pytest.approx(want_loss, rel=1e-12)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12 * np.abs(want_grad).max())

    def test_arrays_stay_unchanged_and_match_the_containers(self):
        q = np.full((3, 4), 0.25)
        logits = np.arange(12.0).reshape(3, 4)
        logits.flags.writeable = False
        clustering_ce(q, logits, 0.5)
        assert np.array_equal(logits, np.arange(12.0).reshape(3, 4))
        assert np.array_equal(q, np.full((3, 4), 0.25))


class TestLaplacian:
    @staticmethod
    def _two_point_graph(d=0.2):
        cloud = make_cloud([[0, 0, 0], [d, 0, 0]])
        return build_knn_graph(cloud, k=1, max_radius=1.0)

    @pytest.mark.parametrize("form", ["pairwise", "huber_residual"])
    def test_identical_embeddings_zero(self, form):
        rng = np.random.default_rng(0)
        positions = rng.uniform(0, 1, (20, 3))
        graph = build_knn_graph(make_cloud(positions), k=4, max_radius=2.0)
        values = np.tile(rng.normal(0, 1, (1, 6)), (20, 1))
        loss, grad = laplacian_loss(values, graph, form)
        # residuals only vanish to rounding: the weighted neighbor mean of
        # identical vectors reconstructs them to ~1e-16 per entry
        assert abs(loss) < 1e-28
        np.testing.assert_allclose(grad, 0.0, atol=1e-14)

    def test_two_point_pairwise_value(self):
        # both directed edges carry weight exp(-1); squared difference is 1
        graph = self._two_point_graph()
        values = np.array([[0.0], [1.0]])
        loss, _ = laplacian_loss(values, graph, "pairwise")
        assert loss == pytest.approx(np.exp(-1.0), abs=1e-12)

    @pytest.mark.parametrize("form", ["pairwise", "huber_residual"])
    def test_gradients_match_finite_differences(self, form):
        rng = np.random.default_rng(2)
        positions = rng.uniform(0, 1, (20, 3))
        graph = build_knn_graph(make_cloud(positions), k=4, max_radius=2.0)
        for _ in range(5):
            values = rng.normal(0, 1, (20, 8))
            _, grad = laplacian_loss(values, graph, form, 0.9)
            numeric = finite_difference(lambda x: laplacian_loss(x, graph, form, 0.9)[0], values)
            assert relative_error(grad, numeric) < 1e-4

    def test_huber_regimes(self):
        # one strongly divergent point; loss must switch to the linear regime
        positions = np.array([[0, 0, 0], [0.1, 0, 0], [0.2, 0, 0]], float)
        graph = build_knn_graph(make_cloud(positions), k=2, max_radius=1.0)
        small = np.array([[0.0], [0.01], [0.0]])
        large = np.array([[0.0], [5.0], [0.0]])
        loss_small, _ = laplacian_loss(small, graph, "huber_residual", 0.5)
        loss_large, _ = laplacian_loss(large, graph, "huber_residual", 0.5)
        assert loss_small < loss_large
        # in the linear regime the loss grows linearly, not quadratically
        loss_10x, _ = laplacian_loss(large * 2, graph, "huber_residual", 0.5)
        assert loss_10x < 4 * loss_large

    def test_pairwise_rigid_invariance(self):
        rng = np.random.default_rng(3)
        positions = rng.uniform(0, 1, (30, 3))
        values = rng.normal(0, 1, (30, 4))
        angle = 0.8
        rot = np.array([[np.cos(angle), -np.sin(angle), 0],
                        [np.sin(angle), np.cos(angle), 0], [0, 0, 1]])
        moved = positions @ rot.T + np.array([5.0, -2.0, 1.0])
        g1 = build_knn_graph(make_cloud(positions), k=5, max_radius=2.0)
        g2 = build_knn_graph(make_cloud(moved), k=5, max_radius=2.0)
        l1, _ = laplacian_loss(values, g1, "pairwise")
        l2, _ = laplacian_loss(values, g2, "pairwise")
        assert abs(l1 - l2) < 1e-9

    @pytest.mark.parametrize("form", ["pairwise", "huber_residual"])
    def test_non_negative(self, form):
        rng = np.random.default_rng(4)
        positions = rng.uniform(0, 1, (25, 3))
        graph = build_knn_graph(make_cloud(positions), k=3, max_radius=2.0)
        for _ in range(10):
            values = rng.normal(0, 2, (25, 5))
            loss, _ = laplacian_loss(values, graph, form)
            assert loss >= 0.0

    def test_empty_edges_warn(self):
        cloud = make_cloud([[0, 0, 0], [1, 0, 0]])
        graph = build_knn_graph(cloud, k=1, max_radius=0.5)
        assert graph.num_edges == 0
        with pytest.warns(UserWarning, match="empty edge set"):
            loss, grad = laplacian_loss(np.ones((2, 3)), graph)
        assert loss == 0.0 and not grad.any()


class TestAdaptiveSigma:
    def test_uniform_grid(self):
        # chain with spacing h and k=1: every kNN distance is h
        h = 0.07
        points = np.zeros((40, 3))
        points[:, 0] = np.arange(40) * h
        graph = build_knn_graph(make_cloud(points), k=1, max_radius=1.0)
        assert graph.sigma == pytest.approx(h)


class TestConsistency:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0, 1, (10, 4))
        pairs = np.column_stack((np.arange(10), np.arange(10)))
        loss, grad = consistency_loss(values, values, pairs)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_single_pair_value_and_gradient(self):
        teacher = np.array([[0.0, 0.0, 0.0]])
        student = np.array([[2.0, 0.0, 0.0]])
        pairs = np.array([[0, 0]])
        loss, grad = consistency_loss(teacher, student, pairs)
        assert loss == pytest.approx(4.0)
        np.testing.assert_allclose(grad, [[4.0, 0.0, 0.0]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        teacher = rng.normal(0, 1, (16, 8))
        rng.uniform(0, 1, (16, 3))  # discarded; holds the later draws in place
        student_values = rng.normal(0, 1, (16, 8))
        rng.uniform(0, 1, (16, 3))
        pairs = np.column_stack((np.arange(16), rng.integers(0, 16, 16)))
        _, grad = consistency_loss(teacher, student_values, pairs)
        numeric = finite_difference(
            lambda x: consistency_loss(teacher, x, pairs)[0], student_values
        )
        assert relative_error(grad, numeric) < 1e-5

    def test_swap_symmetric_value(self):
        rng = np.random.default_rng(6)
        a = rng.normal(0, 1, (12, 5))
        rng.uniform(0, 1, (12, 3))  # discarded; holds b in place
        b = rng.normal(0, 1, (12, 5))
        pairs = np.column_stack((np.arange(12), np.arange(12)))
        l_ab, _ = consistency_loss(a, b, pairs)
        l_ba, _ = consistency_loss(b, a, pairs)
        assert l_ab == pytest.approx(l_ba, abs=1e-12)

    def test_empty_pairs_warn(self):
        batch = np.ones((3, 2))
        empty = np.empty((0, 2), int)
        with pytest.warns(UserWarning, match="empty pair set"):
            loss, grad = consistency_loss(batch, batch, empty)
        assert loss == 0.0 and not grad.any()

    def test_unique_student_indices_enforced(self):
        values = np.ones((3, 2))
        with pytest.raises(ValueError, match="unique"):
            consistency_loss(values, values, [[0, 1], [0, 2]])

    def test_unsorted_unique_student_indices_accepted(self):
        rng = np.random.default_rng(7)
        teacher, student = rng.normal(0, 1, (4, 3)), rng.normal(0, 1, (4, 3))
        pairs = np.array([[3, 0], [0, 1], [2, 2], [1, 3]])
        loss, grad = consistency_loss(teacher, student, pairs)
        ref_loss, ref_grad = consistency_loss(teacher, student, pairs[np.argsort(pairs[:, 0])])
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        np.testing.assert_array_equal(grad, ref_grad)

    @pytest.mark.parametrize("pairs", [np.zeros((4, 3), int), np.arange(4), np.zeros((0,), int)])
    def test_pairs_other_than_m_by_2_rejected(self, pairs):
        values = np.ones((4, 2))
        with pytest.raises(ValueError, match=r"\(M, 2\) array"):
            consistency_loss(values, values, pairs)


def _add_at_laplacian(values, graph, form, delta):
    """Reference forms written with np.add.at, the accumulation order the
    losses must reproduce bit for bit."""
    n = len(values)
    src, tgt, w = graph.source, graph.target, graph.weight
    if form == "pairwise":
        diff = values[src] - values[tgt]
        loss = float((w * np.einsum("ij,ij->i", diff, diff)).sum() / len(src))
        scaled = (2.0 / len(src)) * w[:, None] * diff
        grad = np.zeros_like(values)
        np.add.at(grad, src, scaled)
        np.add.at(grad, tgt, -scaled)
        return loss, grad
    w_sum = np.zeros(n)
    np.add.at(w_sum, src, w)
    mean = np.zeros_like(values)
    np.add.at(mean, src, w[:, None] * values[tgt])
    connected = w_sum > 0.0
    mean[connected] /= w_sum[connected, None]
    residual = np.where(connected[:, None], values - mean, 0.0)
    norms = np.linalg.norm(residual, axis=1)
    quad, lin = 0.5 * norms * norms, delta * (norms - 0.5 * delta)
    loss = float(np.where(norms <= delta, quad, lin).sum() / n)
    scale = np.ones(n)
    beyond = norms > delta
    scale[beyond] = delta / norms[beyond]
    g = scale[:, None] * residual
    grad = g.copy()
    np.add.at(grad, tgt, -(w / w_sum[src])[:, None] * g[src])
    return loss, grad / n


@pytest.mark.parametrize("form", ["pairwise", "huber_residual"])
def test_laplacian_bit_identical_to_add_at(form):
    rng = np.random.default_rng(21)
    for trial in range(30):
        n = int(rng.integers(2, 80))
        # Edges among the first half only: the rest are isolated nodes, and
        # targets repeat across sources.
        m = max(n // 2, 2)
        src = rng.integers(0, m, size=int(rng.integers(1, 4 * n)))
        tgt = (src + rng.integers(1, m, size=len(src))) % m
        dist = rng.uniform(0.01, 0.1, len(src))
        graph = KnnGraph(source=src, target=tgt, distance=dist,
                         weight=np.exp(-((dist / 0.05) ** 2)), sigma=0.05, num_nodes=n)
        values = rng.normal(0, 1, (n, int(rng.integers(1, 33))))
        delta = float(rng.choice([0.05, 0.5, 5.0]))
        rng.uniform(0, 1, (n, 3))  # discarded; holds later trials in place
        loss, grad = laplacian_loss(values, graph, form, delta)
        ref_loss, ref_grad = _add_at_laplacian(values, graph, form, delta)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)


def _match_by_position(teacher, student, max_distance=0.05):
    """match_correspondences on a scene of the teacher then the student points."""
    scene = PointCloud(np.concatenate([teacher, student]).reshape(-1, 3))
    return match_correspondences(scene, np.arange(len(student)) + len(teacher),
                                 np.arange(len(teacher)), max_distance)


def _scene_with(points_at: dict, n: int) -> PointCloud:
    """An n-point scene holding the given positions at the given indices; the
    other points lie far apart on a line, 100 m out."""
    positions = np.column_stack([100.0 + 10.0 * np.arange(n), np.zeros(n), np.zeros(n)])
    for index, position in points_at.items():
        positions[index] = position
    return PointCloud(positions)


def _brute_match(positions, student_ids, teacher_ids, cutoff):
    """Loop reference: the own point's first teacher row, else the nearest held
    point within the cutoff by (distance, scene index), and its first row."""
    pairs = []
    for i, sid in enumerate(student_ids):
        rows = np.flatnonzero(teacher_ids == sid)
        if not len(rows):
            d = np.sqrt(((positions[teacher_ids] - positions[sid]) ** 2).sum(axis=1))
            if d.min() > cutoff:
                continue
            nearest = teacher_ids[d == d.min()].min()
            rows = np.flatnonzero(teacher_ids == nearest)
        pairs.append((i, rows[0]))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


# Positions drawn from a lattice of 1/16 m repeat, tie in distance and meet a
# cutoff exactly (its coordinates and their squared differences are exact);
# uniform ones almost surely do none of these.
positions_strategy = st.sampled_from(["uniform", "lattice"])
cutoff_strategy = st.one_of(st.just(0.0), st.floats(0.0, 0.5))


def _draw_positions(rng, n, kind):
    if kind == "lattice":
        return rng.integers(0, 5, (n, 3)) / 16.0
    return rng.uniform(0, 1, (n, 3))


class TestMatchCorrespondences:
    def test_identity_pairing(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(0, 1, (30, 3))
        pairs = _match_by_position(points, points)
        assert pairs.shape == (30, 2) and pairs.dtype == np.int64
        np.testing.assert_array_equal(pairs[:, 0], np.arange(30))
        np.testing.assert_array_equal(pairs[:, 1], np.arange(30))

    def test_jittered_identity_recovered(self):
        # grid spacing 0.05 m dominates the 0.001 m jitter
        grid = np.stack(np.meshgrid(*[np.arange(6) * 0.05] * 3), axis=-1).reshape(-1, 3)
        rng = np.random.default_rng(1)
        jittered = grid + rng.normal(0, 0.001, grid.shape)
        pairs = _match_by_position(grid, jittered)
        assert len(pairs) == len(grid)
        np.testing.assert_array_equal(pairs[:, 1], np.arange(len(grid)))

    def test_cutoff_drops_distant(self):
        teacher = np.zeros((5, 3))
        student = np.ones((5, 3))  # ~1.7 m away
        pairs = _match_by_position(teacher, student, max_distance=0.05)
        assert len(pairs) == 0

    @pytest.mark.parametrize(
        "cutoff, beyond",
        [(0.0, 1e-12), (0.05, np.nextafter(0.05, 1.0)), (0.25, np.nextafter(0.25, 1.0))],
    )
    def test_pair_at_exactly_the_cutoff_kept(self, cutoff, beyond):
        teacher = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        student = np.array([[cutoff, 0.0, 0.0], [5.0, 0.0, beyond]])
        pairs = _match_by_position(teacher, student, max_distance=cutoff)
        np.testing.assert_array_equal(pairs[:, 0], [0])
        np.testing.assert_array_equal(pairs[:, 1], [0])

    def test_empty_view_warns(self):
        with pytest.warns(UserWarning, match="empty view"):
            pairs = _match_by_position(np.empty((0, 3)), np.ones((3, 3)))
        assert pairs.shape == (0, 2)

    def test_positions_and_ids_must_pair_up(self):
        # Every id must name a point of the scene.
        scene = PointCloud(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="points of the 3-point scene"):
            match_correspondences(scene, np.arange(2), np.array([0, 3]), 0.05)
        with pytest.raises(ValueError, match="points of the 3-point scene"):
            match_correspondences(scene, np.array([-1]), np.arange(2), 0.05)


class TestMatchByScenePoint:
    def test_id_held_twice_pairs_with_the_first_row(self):
        scene = _scene_with({4: [0.0, 0.0, 0.0], 9: [1.0, 0.0, 0.0]}, 10)
        pairs = match_correspondences(scene, [4], [4, 9, 4], 0.05)
        np.testing.assert_array_equal(pairs, [[0, 0]])

    def test_own_point_wins_over_a_duplicate_position(self):
        # Scene point 1 lies where point 3 does: the student's own point, row
        # 2, is its pair although point 1 has the lower index.
        scene = _scene_with({1: [0.5, 0.5, 0.5], 2: [2.0, 0.0, 0.0], 3: [0.5, 0.5, 0.5]}, 4)
        pairs = match_correspondences(scene, [3, 1], [1, 2, 3], 0.05)
        np.testing.assert_array_equal(pairs, [[0, 2], [1, 0]])

    def test_unheld_ids_fall_back_to_position(self):
        scene = _scene_with({10: [0.0, 0.0, 0.0], 11: [1.0, 0.0, 0.0],
                             12: [1.0, 0.0, 0.01], 13: [5.0, 0.0, 0.0]}, 14)
        pairs = match_correspondences(scene, [12, 10, 13], [10, 11], 0.05)
        np.testing.assert_array_equal(pairs, [[0, 1], [1, 0]])

    def test_nearest_point_held_by_both_global_views_pairs_with_g0s_row(self):
        # The unmask term's teachers are g0's rows, then g1's.  Here both
        # views hold all 16 points of a 1 m line, and each local point lies
        # 0.25 m past one of them.  The kd-tree that matched by position
        # before the neighbor lists returned g1's row for 8 of the 16.
        m = 16
        line = np.column_stack([np.arange(m, dtype=float), np.zeros(m), np.zeros(m)])
        scene = PointCloud(np.concatenate([line, line + [0.25, 0.0, 0.0]]))
        g0 = g1 = np.arange(m)
        pairs = match_correspondences(scene, np.arange(m) + m, np.concatenate([g0, g1]), 0.5)
        np.testing.assert_array_equal(pairs, np.column_stack([np.arange(m), np.arange(m)]))

    def test_equidistant_points_pair_with_the_lower_scene_index(self):
        # Scene points 1 and 2 lie 0.1 m either side of the student, point 0;
        # the teacher holds point 2 in its first row.
        scene = _scene_with({0: [0.0, 0.0, 0.0], 1: [-0.1, 0.0, 0.0], 2: [0.1, 0.0, 0.0]}, 3)
        pairs = match_correspondences(scene, [0], [2, 1], 0.2)
        np.testing.assert_array_equal(pairs, [[0, 1]])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 40),
           cutoff_strategy, positions_strategy)
    def test_disjoint_ids_give_the_nearest_position(self, seed, n_teacher, n_student, cutoff,
                                                     kind):
        rng = np.random.default_rng(seed)
        teacher = _draw_positions(rng, n_teacher, kind)
        student = _draw_positions(rng, n_student, kind)
        pairs = _match_by_position(teacher, student, cutoff)
        expected = []
        for i, p in enumerate(student):
            d = np.sqrt(((teacher - p) ** 2).sum(axis=1))
            if d.min() <= cutoff:
                expected.append((i, int(np.argmin(d))))
        np.testing.assert_array_equal(pairs.reshape(-1, 2), np.array(expected).reshape(-1, 2))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 300), cutoff_strategy, positions_strategy)
    def test_source_indices_give_the_position_pairs_on_crops(self, seed, n, cutoff, kind):
        rng = np.random.default_rng(seed)
        cloud = _draw_positions(rng, n, kind)
        crops = [np.sort(rng.choice(n, int(rng.integers(1, n + 1)), replace=False))
                 for _ in range(2)]
        teacher, student = crops
        pairs = match_correspondences(PointCloud(cloud), student, teacher, cutoff)
        np.testing.assert_array_equal(pairs, _brute_match(cloud, student, teacher, cutoff))


class TestNeighborLists:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 120),
           st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(0.0, 0.3)), positions_strategy)
    def test_lists_equal_brute_force(self, seed, n, radius, kind):
        points = _draw_positions(np.random.default_rng(seed), n, kind)
        starts, neighbors = PointCloud(points).neighbors_within(radius)
        assert starts[0] == 0 and starts[-1] == len(neighbors)
        for i, p in enumerate(points):
            d = np.sqrt(((points - p) ** 2).sum(axis=1))
            others = np.flatnonzero((d <= radius) & (np.arange(n) != i))
            want = others[np.lexsort((others, d[others]))]
            np.testing.assert_array_equal(neighbors[starts[i]:starts[i + 1]], want)

    def test_built_once_per_cloud_and_radius(self, monkeypatch):
        calls = []
        build = geometry._neighbor_lists
        monkeypatch.setattr(geometry, "_neighbor_lists",
                            lambda points, radius: calls.append(radius) or build(points, radius))
        cloud = make_cloud(np.random.default_rng(3).uniform(0, 1, (200, 3)))
        first = cloud.neighbors_within(0.05)
        assert cloud.neighbors_within(0.05) is first
        match_correspondences(cloud, np.arange(50), np.arange(40, 200), 0.05)
        assert calls == [0.05]
        cloud.neighbors_within(0.1)
        assert calls == [0.05, 0.1]
        # A selection is a new cloud, with lists of its own.
        cloud.select(np.arange(100)).neighbors_within(0.05)
        assert calls == [0.05, 0.1, 0.05]

    def test_a_training_run_builds_one_list_per_scene(self, monkeypatch, toy_scenes):
        # One list per scene and radius: matching's cutoff and the Laplacian's.
        calls = []
        build = geometry._neighbor_lists
        monkeypatch.setattr(geometry, "_neighbor_lists",
                            lambda points, radius: calls.append((id(points), radius))
                            or build(points, radius))
        scenes = [scene.select(np.arange(len(scene))) for scene in toy_scenes[:2]]
        config = TrainConfig(total_steps=3, batch_size=2, hidden=(8,), embed_dim=4,
                             num_prototypes=8)
        run_training(config, scenes)
        assert sorted(calls) == sorted(
            (id(scene.positions), radius) for scene in scenes
            for radius in (config.correspondence_cutoff, config.laplacian_max_radius)
        )

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_cloud(np.zeros((10, 3))).neighbors_within(-0.1)
