"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.  The training-based criteria share one session
fixture so the runs happen once.
"""

import json
import time

import numpy as np
import pytest

from pointssl import (
    SceneSpec,
    TrainConfig,
    aabb_diagonal,
    build_knn_graph,
    clustering_ce,
    encode,
    generate_room,
    laplacian_loss,
    load_model,
    read_ply,
    run_training,
    save_model,
    scale_align,
    sinkhorn_normalize,
    sor_filter,
    write_ply,
)
from pointssl.gradcheck import run_gradcheck
from pointssl.pipeline import PipelineConfig, align_scene, draw_target_scale

from conftest import make_cloud, toy_room


def _report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion}: PASS ({detail})")


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    report = run_gradcheck(trials=100, seed=0)
    elapsed = time.perf_counter() - start
    for name in ("clustering_ce", "laplacian_pairwise", "laplacian_huber_residual",
                 "consistency"):
        assert report[name] < 1e-4, f"{name} max relative error {report[name]:.2e}"
    assert report["passed"]
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
    _report(1, f"max errors {max(report[k] for k in report if isinstance(report[k], float) and k != 'tolerance'):.2e}, {elapsed:.1f}s")


def test_criterion_2_sinkhorn_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(0)

    # column sums hit B/K after every column step (tracked via an
    # independently coded loop oracle)
    for _ in range(20):
        b, k = int(rng.integers(2, 16)), int(rng.integers(2, 12))
        scaled = rng.normal(0, 2, (b, k))
        m = np.exp(scaled - scaled.max(axis=1, keepdims=True))
        for _ in range(3):
            m *= (b / k) / m.sum(axis=0, keepdims=True)
            np.testing.assert_allclose(m.sum(axis=0), b / k, atol=1e-6)
            m /= m.sum(axis=1, keepdims=True)

    # output rows sum to 1 within 1e-12
    for _ in range(20):
        b, k = int(rng.integers(1, 24)), int(rng.integers(2, 16))
        out = sinkhorn_normalize(rng.normal(0, 3, (b, k)), 0.1, 3)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    # 50-iteration runs on random 8x8 logits converge to column sums B/K
    # within 1e-8 and match an independent long-run oracle
    for trial in range(5):
        values = rng.normal(0, 1, (8, 8))
        out = sinkhorn_normalize(values, iterations=50)
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-8)
        oracle = np.exp(values - values.max(axis=1, keepdims=True))
        for _ in range(50):
            for col in range(8):
                oracle[:, col] *= 1.0 / oracle[:, col].sum()
            for row in range(8):
                oracle[row] /= oracle[row].sum()
        np.testing.assert_allclose(out, oracle, atol=1e-10)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"sinkhorn suite took {elapsed:.1f}s"
    _report(2, f"{elapsed:.1f}s")


def test_criterion_3_knn_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    k_values = [1, 8, 24, 32]
    for trial in range(200):
        n = int(rng.integers(40, 2001))
        points = rng.uniform(0, 2, (n, 3))
        k = k_values[trial % 4]
        radius = 10.0 if trial % 2 == 0 else float(rng.uniform(0.05, 0.5))
        graph = build_knn_graph(make_cloud(points), k=k, max_radius=radius)

        diff = points[:, None, :] - points[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        np.fill_diagonal(dist, np.inf)
        keep = min(k, n - 1)
        nearest = np.argpartition(dist, keep - 1, axis=1)[:, :keep]
        expected = set()
        for i in range(n):
            for j in nearest[i]:
                if dist[i, j] <= radius:
                    expected.add((i, int(j)))
        got = set(zip(graph.source.tolist(), graph.target.tolist()))
        assert got == expected, f"trial {trial}: kNN index sets differ"
        # distances bit-identical to the fixed-order recomputation
        np.testing.assert_array_equal(
            graph.distance, dist[graph.source, graph.target]
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"kNN oracle took {elapsed:.1f}s"
    _report(3, f"200 clouds, k in {k_values}, {elapsed:.1f}s")


def test_criterion_4_alignment_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    config = PipelineConfig(downsample_points=8000)
    hits = 0
    for scene_idx in range(50):
        tilt = float(rng.uniform(0.0, 15.0))
        base_points = 24000
        spec = SceneSpec(
            surface_density=220.0,
            ghost_fraction=0.2,
            outlier_count=int(0.01 * base_points),
            tilt_degrees=tilt,
            max_points=base_points,
            seed=1000 + scene_idx,
        )
        cloud, truth = generate_room(spec)
        aligned, report, transform = align_scene(cloud, config, scene_seed=scene_idx)

        s_target = draw_target_scale(config, scene_idx)
        assert report.final_diagonal == pytest.approx(s_target, rel=1e-6)
        assert aabb_diagonal(aligned) == pytest.approx(s_target, rel=1e-6)

        mapped_up = transform.rotation @ truth.up_axis
        angle = np.degrees(np.arccos(np.clip(mapped_up[2], -1.0, 1.0)))
        if report.plane_found and angle < 1.0:
            hits += 1
    elapsed = time.perf_counter() - start
    assert hits >= 48, f"up-axis recovered in only {hits}/50 scenes"
    assert elapsed < 120.0, f"alignment oracle took {elapsed:.1f}s"
    _report(4, f"{hits}/50 up-axis hits, all diagonals exact, {elapsed:.1f}s")


def test_criterion_5_sor_oracle():
    start = time.perf_counter()
    total_outliers_removed = 0
    total_outliers = 0
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        n_in, n_out = 1000, 20
        inliers = rng.uniform(0, 1, (n_in, 3))
        directions = rng.normal(size=(n_out, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        outliers = 0.5 + directions * (10.0 * np.sqrt(3.0))
        points = np.concatenate([inliers, outliers])

        filtered = sor_filter(make_cloud(points), k=16, std_mult=2.0)
        survivors = {tuple(p) for p in filtered.positions}

        removed_out = sum(1 for p in outliers if tuple(p) not in survivors)
        removed_in = sum(1 for p in inliers if tuple(p) not in survivors)
        total_outliers_removed += removed_out
        total_outliers += n_out
        assert removed_in <= 0.01 * n_in, f"seed {seed}: removed {removed_in} inliers"

        # independent brute-force implementation of the same rule
        means = np.empty(len(points))
        for i in range(len(points)):
            diff = points[i] - points
            dist = np.sort(np.sqrt(np.einsum("ij,ij->i", diff, diff)))
            means[i] = dist[1:17].mean()
        threshold = means.mean() + 2.0 * means.std()
        expected = points[means <= threshold]
        np.testing.assert_array_equal(filtered.positions, expected)

    assert total_outliers_removed >= 0.95 * total_outliers
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"SOR oracle took {elapsed:.1f}s"
    _report(5, f"{total_outliers_removed}/{total_outliers} outliers removed, {elapsed:.1f}s")


def _toy_train_config(**overrides) -> TrainConfig:
    # default schedules and weights; desk-scale widths for speed
    defaults = dict(
        total_steps=2000,
        batch_size=4,
        hidden=(32, 32),
        embed_dim=16,
        num_prototypes=64,
        seed=11,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


@pytest.fixture(scope="session")
def training_runs(tmp_path_factory):
    scenes = [toy_room(seed=200 + i) for i in range(64)]
    base = tmp_path_factory.mktemp("acceptance_runs")
    started = time.perf_counter()

    full_config = _toy_train_config()
    state_a, records_a = run_training(full_config, scenes, out_dir=base / "run_a")
    state_a2, _ = run_training(full_config, scenes, out_dir=base / "run_a2")

    bare_config = _toy_train_config(
        laplacian_schedule={"kind": "constant", "start": 0.0, "end": 0.0},
        consistency_weight=0.0,
    )
    state_b, records_b = run_training(bare_config, scenes, out_dir=base / "run_b")
    elapsed = time.perf_counter() - started
    return {
        "dir": base,
        "config": full_config,
        "state_a": state_a,
        "records_a": records_a,
        "state_b": state_b,
        "records_b": records_b,
        "elapsed": elapsed,
    }


def test_criterion_6_noncollapse_training(training_runs):
    records = training_runs["records_a"]
    config = training_runs["config"]
    assert len(records) == 2000

    max_entropy = np.log(config.num_prototypes)
    assert records[-1].prototype_entropy >= 0.5 * max_entropy, (
        f"entropy {records[-1].prototype_entropy:.3f} < half of ln K {max_entropy:.3f}"
    )
    assert records[-1].total < records[100].total, (
        f"no improvement: step-2000 total {records[-1].total:.3f} vs "
        f"step-100 {records[100].total:.3f}"
    )

    base = training_runs["dir"]
    streams = []
    for name in ("run_a", "run_a2"):
        streams.append([
            {k: v for k, v in json.loads(line).items() if k != "wall_time"}
            for line in (base / name / "metrics.jsonl").read_text().splitlines()
        ])
    assert streams[0] == streams[1], "two seeded runs produced different metrics"

    assert training_runs["elapsed"] < 900.0, (
        f"training criteria took {training_runs['elapsed']:.0f}s"
    )
    _report(6, (
        f"entropy {records[-1].prototype_entropy:.3f}/{max_entropy:.3f}, "
        f"total {records[100].total:.2f} -> {records[-1].total:.2f}, "
        f"runs {training_runs['elapsed']:.0f}s"
    ))


def test_criterion_7_regularizer_effect(training_runs):
    held_out = [toy_room(seed=500 + i) for i in range(8)]
    def scene_energies(params):
        energies = []
        for scene in held_out:
            graph = build_knn_graph(scene, k=24, max_radius=0.08)
            emb = encode(params, scene)
            value, _ = laplacian_loss(emb, graph, "pairwise")
            energies.append(value)
        return np.array(energies)

    full = scene_energies(training_runs["state_a"].params)
    bare = scene_energies(training_runs["state_b"].params)
    assert full.mean() < bare.mean(), (
        f"regularized training did not lower Laplacian energy: "
        f"{full.mean():.5f} vs {bare.mean():.5f}"
    )
    _report(7, (
        f"held-out Laplacian energy {full.mean():.5f} < {bare.mean():.5f}, "
        f"lower on {(full < bare).sum()}/{len(held_out)} scenes"
    ))


def test_criterion_8_spot_values():
    # exp(-1) edge weight at d = sigma
    cloud = make_cloud([[0, 0, 0], [0.05, 0, 0], [0.10, 0, 0]])
    graph = build_knn_graph(cloud, k=1, max_radius=1.0)
    assert graph.weight[0] == pytest.approx(0.367879, abs=1e-6)

    # ln 10 = 2.302585... cross-entropy for a one-hot target against a
    # uniform student, exact to 1e-9
    q = np.zeros((1, 10))
    q[0, 0] = 1.0
    loss, _ = clustering_ce(q, np.zeros((1, 10)))
    assert loss == pytest.approx(np.log(10.0), abs=1e-9)

    # alpha = 0.5 when scaling a diagonal of 10 down to 5
    points = np.array([[0, 0, 0], [6.0, 8.0, 0]])
    _, transform = scale_align(make_cloud(points), 5.0)
    assert transform.scale == 0.5
    _report(8, "exp(-1), ln 10, alpha=0.5")


def test_criterion_9_io_roundtrips(tmp_path):
    # binary PLY round trip is byte-identical on 20 generated scenes
    for i in range(20):
        cloud, _ = generate_room(SceneSpec(
            surface_density=60.0, max_points=1500, tilt_degrees=float(i), seed=4000 + i
        ))
        first = tmp_path / f"scene_{i}a.ply"
        second = tmp_path / f"scene_{i}b.ply"
        write_ply(first, cloud)
        reread, _ = read_ply(first)
        write_ply(second, reread)
        assert first.read_bytes() == second.read_bytes(), f"scene {i} not byte-stable"

    # checkpoint save/load reproduces embeddings bit-for-bit
    from pointssl import init_encoder, init_prototype_head

    params = init_encoder(seed=9)
    head = init_prototype_head(seed=9)
    scene = toy_room(seed=600)
    save_model(tmp_path / "m1.ckpt", params, head)
    p1, h1, _ = load_model(tmp_path / "m1.ckpt")
    save_model(tmp_path / "m2.ckpt", p1, h1)
    p2, _, _ = load_model(tmp_path / "m2.ckpt")
    assert (tmp_path / "m1.ckpt").read_bytes() == (tmp_path / "m2.ckpt").read_bytes()
    np.testing.assert_array_equal(encode(p1, scene), encode(p2, scene))
    _report(9, "20 PLY round trips byte-identical; checkpoint embeddings bitwise")
