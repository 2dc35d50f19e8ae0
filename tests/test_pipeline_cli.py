import json
import threading
from dataclasses import asdict

import numpy as np
import pytest
from scipy.spatial import cKDTree

from pointssl import (
    PointCloud,
    SceneSpec,
    aabb_diagonal,
    detect_dominant_plane,
    estimate_normals,
    generate_room,
    geometry,
    pipeline,
    read_ply,
    sor_filter,
    write_ply,
)
from pointssl.cli import main
from pointssl.model import init_network, load_checkpoint, save_checkpoint, save_model
from pointssl.pipeline import (
    PipelineConfig,
    PipelineReport,
    SceneReport,
    align_scene,
    cli_align,
    export_pca,
    pca_colors,
)

from conftest import force_threads, toy_room


def _untimed(report: SceneReport) -> dict:
    """A report row without its timings, which differ from run to run."""
    return {**report.to_dict(), "wall_time": 0, "stage_ms": {}}


class TestAlignScene:
    def test_tilted_room_aligned_and_scaled(self):
        cloud, truth = generate_room(
            SceneSpec(tilt_degrees=9.0, ghost_fraction=0.2, seed=1, max_points=8000)
        )
        aligned, report, _ = align_scene(cloud, PipelineConfig(), scene_seed=0, s_target=5.0)
        assert report.plane_found
        assert report.angle_to_z_after < 0.5
        assert report.final_diagonal == pytest.approx(5.0, rel=1e-9)
        assert aabb_diagonal(aligned) == pytest.approx(5.0, rel=1e-9)
        # the floor sits at z = 0 in the output frame (lax probe: the scaled
        # scene's floor share hovers near the default ratio floor)
        plane = detect_dominant_plane(aligned, 512, 0.03, seed=3, min_inlier_ratio=0.05)
        assert abs(plane.offset) < 0.01
        assert aligned.normals is not None

    def test_runs_on_the_calling_thread(self, big_room, monkeypatch):
        # Only scipy's kd-tree query has worker threads of its own.
        threads = force_threads(monkeypatch, cpus=2)
        align_scene(big_room, PipelineConfig(), scene_seed=0)
        assert threads <= {threading.get_ident()}

    def test_already_aligned_near_identity(self):
        cloud, _ = generate_room(SceneSpec(seed=2, max_points=6000))
        diag = aabb_diagonal(cloud)
        aligned, report, _ = align_scene(cloud, PipelineConfig(), scene_seed=0, s_target=diag)
        assert report.plane_found
        assert report.angle_to_z_after < 0.5
        assert abs(report.alpha - 1.0) < 0.01

    @pytest.mark.parametrize("fields, trees", [
        ({}, 1),
        ({"sor_k": 8, "normals_k": 24}, 1),
        ({"sor_k": 24, "normals_k": 8}, 1),
        # SOR at 0.5 std removes points inside survivors' rows: a re-query
        ({"sor_std_mult": 0.5}, 2),
    ], ids=["default", "normals-k-above-sor-k", "sor-k-above-normals-k", "requery"])
    def test_shared_query_equals_one_query_per_stage(self, monkeypatch, fields, trees):
        cloud, _ = generate_room(SceneSpec(tilt_degrees=9.0, ghost_fraction=0.2,
                                           outlier_count=100, seed=1, max_points=8000))
        config = PipelineConfig(**fields)
        builds = []

        class CountedTree(cKDTree):
            def __init__(self, *args, **kwargs):
                builds.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(geometry, "cKDTree", CountedTree)
        shared = align_scene(cloud, config, scene_seed=0, s_target=5.0)
        assert len(builds) == trees
        # The reference: SOR queries the downsampled cloud and the normals
        # the aligned survivors, each on a tree of its own.
        sor, normals = pipeline.sor_filter, pipeline.estimate_normals
        monkeypatch.setattr(pipeline, "sor_filter",
                            lambda c, neighbors=None, **kwargs: sor(c, **kwargs))
        monkeypatch.setattr(pipeline, "estimate_normals",
                            lambda c, neighbors=None, **kwargs: normals(c, **kwargs))
        reference = align_scene(cloud, config, scene_seed=0, s_target=5.0)
        (aligned, report, transform), (ref_aligned, ref_report, ref_transform) = shared, reference
        assert np.array_equal(aligned.positions, ref_aligned.positions)
        assert np.array_equal(aligned.normals, ref_aligned.normals)
        assert _untimed(report) == _untimed(ref_report)
        assert np.array_equal(transform.rotation, ref_transform.rotation)
        assert np.array_equal(transform.translation, ref_transform.translation)
        assert transform.scale == ref_transform.scale

    def test_report_states_threshold_inliers_and_degenerate_normals(self):
        room, _ = generate_room(SceneSpec(tilt_degrees=5.0, seed=4, max_points=6000))
        # 30 coincident points: each one's neighborhood has no extent
        cloud = PointCloud(np.concatenate([room.positions, np.tile(room.positions[:1], (30, 1))]))
        config = PipelineConfig()
        aligned, report, _ = align_scene(cloud, config, scene_seed=0, s_target=5.0)
        survivors = sor_filter(cloud, k=config.sor_k, std_mult=config.sor_std_mult)
        assert report.ransac_threshold == min(
            config.ransac_threshold_fraction * aabb_diagonal(survivors),
            config.ransac_threshold_cap)
        plane = detect_dominant_plane(survivors, config.ransac_iterations,
                                      report.ransac_threshold, seed=0,
                                      min_inlier_ratio=config.min_inlier_ratio)
        assert report.inlier_ratio == plane.inlier_ratio
        _, degenerate = estimate_normals(PointCloud(aligned.positions), k=config.normals_k)
        assert report.degenerate_normals == int(degenerate.sum()) >= 30

    def test_stage_times_add_up_to_at_most_the_wall_time(self):
        cloud, _ = generate_room(SceneSpec(tilt_degrees=5.0, seed=6, max_points=6000))
        _, report, _ = align_scene(cloud, PipelineConfig(downsample_points=5000), scene_seed=0)
        assert list(report.stage_ms) == list(pipeline.STAGES) == [
            "downsample", "knn", "sor", "ransac", "z_up", "scale", "normals"]
        assert all(ms >= 0.0 for ms in report.stage_ms.values())
        assert sum(report.stage_ms.values()) <= 1000.0 * report.wall_time

    def test_plane_failure_passthrough(self):
        rng = np.random.default_rng(3)
        directions = rng.normal(size=(4000, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        ball = directions * rng.random(4000)[:, None] ** (1 / 3)
        cloud = PointCloud(positions=ball)
        aligned, report, _ = align_scene(cloud, PipelineConfig(), scene_seed=0, s_target=2.0)
        assert not report.plane_found
        assert report.angle_to_z_before is None
        # scale still applies even without an orientation fix
        assert report.final_diagonal == pytest.approx(2.0, rel=1e-9)


class TestCliAlign:
    def test_batch_with_corrupt_file(self, tmp_path):
        scenes = tmp_path / "in"
        out = tmp_path / "out"
        scenes.mkdir()
        for i in range(4):
            write_ply(scenes / f"scene_{i}.ply", toy_room(seed=i, max_points=3000))
        (scenes / "corrupt.ply").write_bytes(b"not a ply at all")

        report = cli_align(scenes, out, PipelineConfig(downsample_points=2000))
        assert len(report.rows) == 5
        errors = [r for r in report.rows if r.error is not None]
        assert len(errors) == 1 and errors[0].name == "corrupt.ply"
        assert len(list(out.glob("*.ply"))) == 4
        # rows stay in input order
        assert [r.name for r in report.rows] == sorted(r.name for r in report.rows)

    def test_parallel_jobs_match_serial(self, tmp_path):
        scenes = tmp_path / "in"
        scenes.mkdir()
        for i in range(3):
            write_ply(scenes / f"s{i}.ply", toy_room(seed=10 + i, max_points=2000))
        config = PipelineConfig(downsample_points=1500)
        serial = cli_align(scenes, tmp_path / "o1", config)
        for jobs in (2, 3):
            out = tmp_path / f"jobs{jobs}"
            parallel = cli_align(scenes, out, config, jobs=jobs)
            assert len(parallel.rows) == len(serial.rows) == 3
            for a, b in zip(serial.rows, parallel.rows):
                assert _untimed(a) == _untimed(b)
                assert (out / a.name).read_bytes() == (tmp_path / "o1" / a.name).read_bytes()

    def test_parallel_jobs_with_row_pools_match_serial(self, tmp_path, monkeypatch):
        # Scenes of several row blocks: each scene thread of --jobs 2 runs
        # SOR, RANSAC and normals block by block on its own thread, and its
        # kd-tree queries on 2 workers; --jobs 1 on one CPU runs it all inline.
        scenes = tmp_path / "in"
        scenes.mkdir()
        for i in range(2):
            write_ply(scenes / f"s{i}.ply",
                      toy_room(seed=10 + i, extents=(3.2, 2.4, 1.6), max_points=3000))
        config = PipelineConfig(downsample_points=2500)
        force_threads(monkeypatch, cpus=1)
        serial = cli_align(scenes, tmp_path / "o1", config)
        assert all(config.downsample_points - r.sor_removed > 2 * geometry._ROW_BLOCK
                   for r in serial.rows)
        threads = force_threads(monkeypatch, cpus=2)
        parallel = cli_align(scenes, tmp_path / "o2", config, jobs=2)
        assert threads and threading.get_ident() not in threads
        for a, b in zip(serial.rows, parallel.rows, strict=True):
            assert _untimed(a) == _untimed(b)
            assert (tmp_path / "o2" / a.name).read_bytes() == (tmp_path / "o1" / a.name).read_bytes()

    def test_jobs_below_1_rejected_before_output_is_made(self, tmp_path):
        with pytest.raises(ValueError, match="jobs must be at least 1, got 0"):
            cli_align(tmp_path, tmp_path / "out", jobs=0)
        assert not (tmp_path / "out").exists()

    def test_report_roundtrips(self):
        rows = [
            SceneReport(name="a.ply", input_points=10, sor_removed=1, plane_found=True,
                        angle_to_z_before=5.0, angle_to_z_after=0.1, alpha=0.5,
                        final_diagonal=8.0, wall_time=0.01, ransac_threshold=0.05,
                        inlier_ratio=0.3, degenerate_normals=2,
                        stage_ms=dict.fromkeys(pipeline.STAGES, 1.5)),
            SceneReport(name="b.ply", error="boom"),
        ]
        assert json.loads(PipelineReport(rows=rows).to_json()) == [asdict(r) for r in rows]


class TestExportPca:
    def test_constant_embeddings_mid_gray(self, tmp_path):
        cloud = toy_room(seed=20, max_points=1000)
        colors = pca_colors(np.ones((len(cloud), 8)))
        np.testing.assert_allclose(colors, 0.5)
        export_pca(np.ones((len(cloud), 8)), cloud, tmp_path / "gray.ply")
        reread, _ = read_ply(tmp_path / "gray.ply")
        np.testing.assert_allclose(reread.colors, 0.5, atol=1 / 255)

    def test_two_clusters_distinct_colors(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0, 0.05, (100, 6)) + np.array([3, 0, 0, 0, 0, 0])
        b = rng.normal(0, 0.05, (100, 6)) - np.array([3, 0, 0, 0, 0, 0])
        colors = pca_colors(np.concatenate([a, b]))
        dist = np.linalg.norm(colors[:100].mean(axis=0) - colors[100:].mean(axis=0))
        assert dist > 0.3

    def test_reread_stable(self, tmp_path):
        rng = np.random.default_rng(5)
        cloud = toy_room(seed=21, max_points=800)
        embeddings = rng.normal(0, 1, (len(cloud), 16))
        export_pca(embeddings, cloud, tmp_path / "c1.ply")
        first, _ = read_ply(tmp_path / "c1.ply")
        export_pca(embeddings, cloud, tmp_path / "c2.ply")
        second, _ = read_ply(tmp_path / "c2.ply")
        np.testing.assert_array_equal(first.colors, second.colors)

    def test_low_dimension_rejected(self):
        with pytest.raises(ValueError, match=">= 3"):
            pca_colors(np.ones((10, 2)))


class TestCliCommands:
    def test_gen_scenes_and_align(self, tmp_path, capsys):
        scenes = tmp_path / "scenes"
        code = main([
            "gen-scenes", "--out", str(scenes), "--count", "2", "--seed", "0",
            "--points", "2500", "--density", "150", "--tilt-max", "10",
        ])
        assert code == 0
        assert len(list(scenes.glob("*.ply"))) == 2
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["scene_0000", "scene_0001"]
        for line in lines:
            count = int(line.split()[1])
            assert line.endswith(" deg") and 0 < count <= 2500
            assert count == len(read_ply(scenes / f"{line.split(':')[0]}.ply")[0])
        sidecar = json.loads((scenes / "scene_0000.json").read_text())
        assert set(sidecar) >= {"up_axis", "diagonal", "scale", "tilt_rotation", "labels"}

        report_path = tmp_path / "report.json"
        code = main([
            "align", "--input", str(scenes), "--output", str(tmp_path / "aligned"),
            "--seed", "1", "--report", str(report_path),
        ])
        assert code == 0
        rows = json.loads(report_path.read_text())
        assert len(rows) == 2 and all(r["error"] is None for r in rows)
        for row in rows:
            assert 0.0 < row["ransac_threshold"] <= PipelineConfig().ransac_threshold_cap
            assert PipelineConfig().min_inlier_ratio <= row["inlier_ratio"] <= 1.0
            assert row["degenerate_normals"] >= 0
            assert set(row["stage_ms"]) == set(pipeline.STAGES)
            assert 0.0 <= sum(row["stage_ms"].values()) <= 1000.0 * row["wall_time"]

    def test_align_corrupt_not_strict_vs_strict(self, tmp_path):
        scenes = tmp_path / "s"
        scenes.mkdir()
        write_ply(scenes / "good.ply", toy_room(seed=30, max_points=2000))
        (scenes / "bad.ply").write_bytes(b"junk")
        assert main(["align", "--input", str(scenes), "--output", str(tmp_path / "o1")]) == 0
        assert main([
            "align", "--input", str(scenes), "--output", str(tmp_path / "o2"),
            "--strict", "--seed", "0",
        ]) == 2

    @pytest.mark.parametrize("name, value", [
        ("sor_k", 0),
        ("normals_k", 0),
        ("downsample_points", -5),
        ("ransac_iterations", 0),
        ("ransac_iterations", 2**16 + 1),
        ("ransac_iterations", 10**13),
        ("min_inlier_ratio", 2.0),
        ("min_inlier_ratio", -0.1),
        ("sor_k", 2.5),
    ])
    def test_align_rejects_malformed_config(self, tmp_path, caplog, name, value):
        scenes = tmp_path / "s"
        scenes.mkdir()
        write_ply(scenes / "good.ply", toy_room(seed=30))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({name: value}))
        out = tmp_path / "o"
        assert main([
            "align", "--input", str(scenes), "--output", str(out), "--config", str(config),
        ]) == 1
        assert "bad pipeline config" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("argv, files, message", [
        (["sinkhorn", "--input", "in.csv"], {"in.csv": "x\n"}, "could not convert"),
        (["sinkhorn", "--input", "in.csv"], {"in.csv": "1\n2\n"}, "at least 2 prototypes"),
        (["sinkhorn", "--input", "in.csv"], {"in.csv": "nan,0\n"}, "NaN or +Inf"),
        (["sinkhorn", "--input", "in.csv", "--temperature", "0"], {"in.csv": "0,0\n"},
         "temperature must be positive"),
        (["sinkhorn", "--input", "in.csv", "--iterations", "0"], {"in.csv": "0,0\n"},
         "iterations must be >= 1"),
        (["export-pca", "--checkpoint", "model.ckpt", "--scene", "room.ply", "--out", "out.ply"],
         {"model.ckpt": "not a checkpoint"}, "bad checkpoint magic"),
        (["train-toy", "--scenes", "scenes", "--out", "run"],
         {"scenes/r0.ply": "ply\nformat ascii 1.0\nend_header\n"}, "no vertex element"),
        (["train-toy", "--config", "config.json", "--scenes", "scenes", "--out", "run"],
         {"config.json": "{"}, "Expecting"),
        (["align", "--config", "config.json", "--input", "scenes", "--output", "out"],
         {"config.json": "{"}, "Expecting"),
        (["train-toy", "--config", "config.json", "--scenes", "scenes", "--out", "run",
          "--seed", "3"], {"config.json": "[1, 2]"}, "must hold a JSON object, not list"),
        (["align", "--config", "config.json", "--input", "scenes", "--output", "out",
          "--seed", "3"], {"config.json": "[1, 2]"}, "must hold a JSON object, not list"),
        (["align", "--config", "config.json", "--input", "scenes", "--output", "out"],
         {"config.json": "null"}, "must hold a JSON object, not NoneType"),
        (["align", "--input", "scenes", "--output", "outdir", "--jobs", "-2", "--seed", "0"],
         {"scenes/s0.ply": "ply\n"}, "jobs must be at least 1, got -2"),
        (["gen-scenes", "--out", "out", "--count", "1", "--points", "0"], {},
         "max_points must lie in [1, inf)"),
        (["gen-scenes", "--out", "out", "--count", "1", "--density", "-5"], {},
         "surface_density must lie in (0, inf)"),
        (["gen-scenes", "--out", "out", "--count", "1", "--outlier-fraction", "-0.5"], {},
         "outlier_count must lie in [0, inf)"),
        (["gen-scenes", "--out", "out", "--count", "-2"], {}, "--count must be non-negative"),
        (["gen-scenes", "--out", "out", "--count", "1", "--holes", "-3"], {},
         "hole_count must lie in [0, inf)"),
        (["gen-scenes", "--out", "out", "--count", "1", "--tilt-max", "-30"], {},
         "--tilt-max must lie in [0, 180]"),
        (["gen-scenes", "--out", "out", "--count", "1", "--seed", "-1"], {},
         "seed must lie in [0, inf)"),
        (["gen-scenes", "--out", "gs", "--count", "2", "--extents", "0.5", "0.5", "4",
          "--points", "2000"], {}, "floor is not the dominant plane"),
        # scenes 0 to 2 pass and scene 3 fails once its points are sampled
        (["gen-scenes", "--out", "gs/nested", "--count", "4", "--extents", "1", "1", "0.5",
          "--points", "500", "--density", "100", "--seed", "0"], {},
         "floor is not the dominant plane"),
        (["gen-scenes", "--out", "d", "--count", "1", "--seed", "0", "--extents", "0.6", "0.6",
          "0.02", "--holes", "60", "--points", "2000"], {},
         "hole_count 60: the holes remove every point of the room"),
        (["gen-scenes", "--out", "scenes", "--count", "1", "--points", "500"],
         {"scenes": "a file"}, "--out scenes exists and is not a directory"),
        (["align", "--input", "nosuchdir", "--output", "outdir", "--seed", "0"], {},
         "input_dir nosuchdir is not a directory"),
        (["align", "--input", "scenes", "--output", "outdir", "--seed", "0"],
         {"scenes": "a file"}, "input_dir scenes is not a directory"),
        (["gradcheck", "--trials", "0"], {}, "trials (0) must be >= 1"),
    ], ids=["csv-text", "csv-one-column", "csv-nan", "temperature-0", "iterations-0",
            "not-a-checkpoint", "ply-no-vertex", "train-config-json", "align-config-json",
            "train-config-list", "align-config-list", "align-config-null", "jobs-negative",
            "points-0", "density-negative", "outlier-fraction-negative", "count-negative",
            "holes-negative", "tilt-max-negative", "seed-negative", "floor-not-dominant",
            "last-scene-floor-not-dominant", "holes-remove-every-point", "out-is-a-file", "input-missing",
            "input-is-a-file", "trials-0"])
    def test_malformed_input_exits_1_with_its_message(
        self, tmp_path, monkeypatch, caplog, capsys, argv, files, message
    ):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text)
        before = set(tmp_path.rglob("*"))
        assert main(argv) == 1
        assert message in caplog.text
        assert set(tmp_path.rglob("*")) == before  # no output, not even an empty --out
        assert not (tmp_path / "outdir").exists()
        assert "scene_" not in capsys.readouterr().out  # no line for a discarded scene

    def test_export_pca_names_a_checkpoint_tensor_that_does_not_chain(
        self, tmp_path, monkeypatch, caplog
    ):
        monkeypatch.chdir(tmp_path)
        save_model("model.ckpt", init_network(hidden=(16, 8), output_dim=4, num_prototypes=5))
        tensors = load_checkpoint("model.ckpt")
        tensors["student.layer1.weight"] = tensors["student.layer1.weight"][:5]
        save_checkpoint("model.ckpt", tensors)
        write_ply("room.ply", toy_room(seed=31))
        assert main(["export-pca", "--checkpoint", "model.ckpt", "--scene", "room.ply",
                     "--out", "out.ply"]) == 1
        assert "checkpoint tensor student.layer1.weight has shape (5, 8)" in caplog.text
        assert not (tmp_path / "out.ply").exists()

    @pytest.mark.parametrize("argv", [
        ["sinkhorn", "--input", "in.csv", "--strict"],
        ["export-pca", "--checkpoint", "m", "--scene", "s", "--out", "o", "--strict"],
        ["gradcheck", "--trials", "1", "--strict"],
    ], ids=["sinkhorn", "export-pca", "gradcheck"])
    def test_strict_only_where_there_is_a_seed(self, argv):
        # sinkhorn and export-pca take no --seed and gradcheck's defaults to 0,
        # so --strict could only ever fail or never fire
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2

    def test_strict_requires_seed(self, tmp_path):
        assert main([
            "align", "--input", str(tmp_path), "--output", str(tmp_path / "o"), "--strict",
        ]) == 1

    def test_sinkhorn_command(self, tmp_path, capsys):
        matrix = tmp_path / "logits.csv"
        matrix.write_text("0,0\n0,0\n")
        assert main(["sinkhorn", "--input", str(matrix)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        values = np.array([[float(v) for v in line.split(",")] for line in out])
        np.testing.assert_allclose(values, 0.5)

    def test_gradcheck_command(self, capsys):
        assert main(["gradcheck", "--trials", "3", "--seed", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True

    def test_train_toy_and_export_pca(self, tmp_path, capsys):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        for i in range(2):
            write_ply(scenes / f"r{i}.ply", toy_room(seed=40 + i))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "total_steps": 2, "batch_size": 2, "hidden": [8, 8], "embed_dim": 8,
            "num_prototypes": 8, "seed": 0,
        }))
        run_dir = tmp_path / "run"
        assert main([
            "train-toy", "--config", str(config), "--scenes", str(scenes),
            "--out", str(run_dir),
        ]) == 0
        assert (run_dir / "metrics.jsonl").exists()

        out_ply = tmp_path / "pca.ply"
        assert main([
            "export-pca", "--checkpoint", str(run_dir / "model.ckpt"),
            "--scene", str(scenes / "r0.ply"), "--out", str(out_ply),
        ]) == 0
        colored, _ = read_ply(out_ply)
        assert colored.colors is not None

    @pytest.mark.parametrize("name, value", [
        ("laplacian_form", "foo"),
        ("huber_delta", 0),
        ("batch_size", 0),
        ("num_prototypes", 1),
        ("hidden", [8, 0]),
        ("sinkhorn_iterations", 0),
        ("mask_weight", -1.0),
        ("embed_dim", 0),
        ("laplacian_knn", 0),
        ("student_temperature", 0.0),
        ("student_temperature", -0.1),
        ("max_scene_points", -5),
        ("views", {"num_global": 3}),
        ("views", {"mask_ratio": 1.5}),
        ("views", {"grid_size": 0}),
        ("views", {"noise_dropout": 1.0}),
        ("warmup_fraction", 40.0),
        ("warmup_fraction", 1.7e308),
        ("base_lr", -1.0),
        ("correspondence_cutoff", -1.0),
        ("correspondence_cutoff", float("nan")),
        ("weight_decay", -5.0),
        ("weight_decay", float("nan")),
        ("unmask_weight", 1.7e308),
        ("mask_weight", 1e7),
        ("roll_weight", 1e300),
        ("consistency_weight", 1e300),
        ("laplacian_schedule", 1e300),
        ("views", {"jitter_sigma": 1e300}),
        ("views", {"noise_sigma": 1e300}),
        ("views", {"noise_sigma": 2.0}),
        ("correspondence_cutoff", 1.5),
        ("laplacian_max_radius", 1.5),
    ])
    def test_train_toy_rejects_malformed_config(self, tmp_path, caplog, name, value):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        write_ply(scenes / "r0.ply", toy_room(seed=40))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"total_steps": 2, "hidden": [8], name: value}))
        run_dir = tmp_path / "run"
        assert main([
            "train-toy", "--config", str(config), "--scenes", str(scenes),
            "--out", str(run_dir),
        ]) == 1
        assert "bad train config" in caplog.text
        assert not run_dir.exists()
