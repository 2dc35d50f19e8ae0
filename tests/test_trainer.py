import json
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from pointssl import (
    PointCloud,
    Schedule,
    TrainConfig,
    init_train_state,
    make_views,
    prototype_usage_entropy,
    run_training,
    train_step,
)
from pointssl import geometry, trainer
from pointssl.rng import make_rng
from pointssl.trainer import _derive_seed, apply_update, step_objective
from pointssl.views import View

from conftest import force_threads


def _toy_config(**overrides):
    defaults = dict(
        total_steps=10,
        batch_size=2,
        hidden=(16, 16),
        embed_dim=8,
        num_prototypes=16,
        seed=3,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestSchedule:
    def test_linear_regularizer_schedule(self):
        sched = Schedule("linear", 2e-4, 3e-3, total_steps=1000)
        assert sched.value_at(0) == pytest.approx(2e-4)
        assert sched.value_at(1000) == pytest.approx(3e-3)
        assert sched.value_at(500) == pytest.approx(1.6e-3)

    def test_cosine_endpoints(self):
        sched = Schedule("cosine", 0.994, 1.0, total_steps=100)
        assert sched.value_at(0) == pytest.approx(0.994, abs=1e-12)
        assert sched.value_at(100) == pytest.approx(1.0, abs=1e-12)
        assert 0.994 < sched.value_at(50) < 1.0

    def test_constant(self):
        sched = Schedule("constant", 0.05, 0.05, total_steps=10)
        assert sched.value_at(7) == 0.05

    def test_out_of_range_clamps_with_warning(self):
        sched = Schedule("linear", 0.0, 1.0, total_steps=10)
        with pytest.warns(UserWarning, match="clamping"):
            assert sched.value_at(20) == 1.0
        with pytest.warns(UserWarning, match="clamping"):
            assert sched.value_at(-5) == 0.0

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            Schedule("exponential", 0, 1, total_steps=10)


class TestConfig:
    def test_json_roundtrip(self):
        config = _toy_config()
        data = json.loads(json.dumps(config.to_dict()))
        rebuilt = TrainConfig.from_dict(data)
        assert rebuilt.teacher_temperature == config.teacher_temperature
        assert rebuilt.views == config.views
        assert rebuilt.hidden == config.hidden

    def test_schedule_values_survive_the_roundtrip(self):
        config = _toy_config(
            total_steps=100,
            teacher_temperature=Schedule("linear", 0.04, 0.07, total_steps=100),
            ema_momentum=Schedule("cosine", 0.9, 1.0, total_steps=100),
        )
        rebuilt = TrainConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        for name in ("teacher_temperature", "laplacian_schedule", "ema_momentum", "weight_decay"):
            for step in (0, 5, 50, 100):
                assert (getattr(rebuilt, name).value_at(step)
                        == getattr(config, name).value_at(step)), (name, step)

    def test_schedule_over_another_span_is_rejected(self):
        # to_dict drops a schedule's span, so its copy would run over 100 steps
        with pytest.raises(ValueError, match="teacher_temperature spans 10 steps"):
            _toy_config(total_steps=100,
                        teacher_temperature=Schedule("linear", 0.04, 0.07, total_steps=10))

    def test_partial_dict_uses_defaults(self):
        config = TrainConfig.from_dict({"total_steps": 50})
        assert config.total_steps == 50
        assert config.student_temperature == 0.1
        assert config.teacher_temperature.start == 0.04
        assert config.teacher_temperature.end == 0.07
        assert config.laplacian_schedule.start == 2e-4
        assert config.laplacian_schedule.end == 3e-3
        assert config.consistency_weight == 0.05
        assert (config.unmask_weight, config.mask_weight, config.roll_weight) == (4, 2, 2)

    def test_lr_warmup_then_cosine(self):
        config = _toy_config(total_steps=100, base_lr=1e-3, final_lr=1e-5)
        warmup = max(1, round(0.05 * 100))
        assert config.lr_at(0) <= 1e-3 / warmup + 1e-12
        assert config.lr_at(warmup) == pytest.approx(1e-3, rel=1e-6)
        assert config.lr_at(100) == pytest.approx(1e-5, rel=1e-6)


class TestEntropy:
    def test_uniform_usage(self):
        uniform = np.full((10, 64), 1 / 64)
        assert prototype_usage_entropy(uniform) == pytest.approx(np.log(64), abs=1e-12)

    def test_collapse(self):
        collapsed = np.zeros((10, 64))
        collapsed[:, 7] = 1.0
        assert prototype_usage_entropy(collapsed) == 0.0


class TestTrainStep:
    def test_determinism(self, toy_scenes):
        records = []
        for _ in range(2):
            config = _toy_config(total_steps=4)
            state = init_train_state(config)
            run = []
            for step in range(4):
                state, record = train_step(state, toy_scenes[:2])
                run.append(record.to_dict())
            records.append(run)
        for a, b in zip(*records):
            a.pop("wall_time")
            b.pop("wall_time")
            assert a == b

    def test_loss_decomposition_identity(self, toy_scenes):
        config = _toy_config(total_steps=6)
        state = init_train_state(config)
        for step in range(3):
            lam = config.laplacian_schedule.value_at(step)
            state, record = train_step(state, toy_scenes[:2])
            expected = (
                4.0 * record.unmask + 2.0 * record.mask + 2.0 * record.roll
                + lam * record.laplacian + 0.05 * record.consistency
            )
            assert record.total == pytest.approx(expected, abs=1e-10)

    def test_step_without_local_views_has_no_unmask_term(self, toy_scenes):
        config = _toy_config(total_steps=3, views={"num_local": 0})
        state, record = train_step(init_train_state(config), toy_scenes[:2])
        assert state.step == 1
        assert record.unmask == 0.0
        assert record.mask > 0.0 and record.roll > 0.0
        assert np.isfinite(record.total) and np.isfinite(record.grad_norm)

    def test_disabling_regularizers_keeps_clustering_bitwise(self, toy_scenes):
        full_cfg = _toy_config(total_steps=3)
        bare_cfg = _toy_config(
            total_steps=3,
            laplacian_schedule={"kind": "constant", "start": 0.0, "end": 0.0},
            consistency_weight=0.0,
        )
        outputs = []
        for config in (full_cfg, bare_cfg):
            state = init_train_state(config)
            state, record = train_step(state, toy_scenes[:2])
            outputs.append(record)
        full, bare = outputs
        assert full.unmask == bare.unmask
        assert full.mask == bare.mask
        assert full.roll == bare.roll
        assert bare.laplacian == 0.0 and bare.consistency == 0.0

    def test_teacher_only_changes_through_ema(self, toy_scenes):
        # with momentum pinned to 1.0 the EMA is the identity; the teacher
        # encoder must remain bit-identical through optimization steps
        config = _toy_config(
            total_steps=3, ema_momentum={"kind": "constant", "start": 1.0, "end": 1.0}
        )
        state = init_train_state(config)
        before = [w.copy() for w in state.teacher.params.weights]
        student_before = [w.copy() for w in state.params.weights]
        for _ in range(3):
            state, _ = train_step(state, toy_scenes[:2])
        for a, b in zip(state.teacher.params.weights, before):
            np.testing.assert_array_equal(a, b)
        # while the student moved
        assert any(
            not np.array_equal(a, b)
            for a, b in zip(state.params.weights, student_before)
        )

    def test_loss_decreases_on_repeated_scene(self, toy_scenes):
        # lambda = mu = 0, fixed temperatures, identical views every step:
        # plain gradient descent on a fixed batch must make progress
        config = _toy_config(
            total_steps=50,
            batch_size=1,
            laplacian_schedule={"kind": "constant", "start": 0.0, "end": 0.0},
            consistency_weight=0.0,
            teacher_temperature={"kind": "constant", "start": 0.05, "end": 0.05},
            ema_momentum={"kind": "constant", "start": 1.0, "end": 1.0},
            warmup_fraction=0.0,
        )
        state = init_train_state(config)
        views = [make_views(toy_scenes[0], _derive_seed(config, 0, 0, 0), config.views)]
        totals = []
        for _ in range(50):
            _, total, grads, _ = step_objective(state, views, state.step)
            apply_update(state, grads)
            totals.append(total)
        assert totals[-1] < totals[0]
        # decreasing trend over windows, not just endpoints
        thirds = [np.mean(totals[:17]), np.mean(totals[17:34]), np.mean(totals[34:])]
        assert thirds[0] > thirds[1] > thirds[2]

    def test_nonfinite_loss_aborts(self, toy_scenes):
        config = _toy_config()
        state = init_train_state(config)
        # embedding normalization absorbs any single-layer blowup; two huge
        # layers overflow float64 into inf/nan before the normalization
        state.params.weights[0][...] = 1e200
        state.params.weights[1][...] = 1e200
        with pytest.raises((FloatingPointError, ValueError)):
            with np.errstate(all="ignore"):
                train_step(state, toy_scenes[:1])


    def test_empty_batch_is_named_and_changes_nothing(self):
        state = init_train_state(_toy_config())
        student = state.student.copy()
        with pytest.raises(ValueError, match="train_step got an empty batch"):
            train_step(state, [])
        with pytest.raises(ValueError, match="step_objective got an empty batch"):
            step_objective(state, [], 0)
        assert state.step == 0
        np.testing.assert_array_equal(state.student, student)

    def test_train_step_is_objective_then_update(self, toy_scenes):
        config = _toy_config(total_steps=3)
        stepped, split = init_train_state(config), init_train_state(config)
        for step in range(2):
            stepped, record = train_step(stepped, toy_scenes[:2])
            views = [
                make_views(scene, _derive_seed(config, step, i, 0), config.views)
                for i, scene in enumerate(toy_scenes[:2])
            ]
            terms, total, grads, _ = step_objective(split, views, step)
            apply_update(split, grads)
            assert (record.total, record.grad_norm) == (total, trainer._grad_norm(split, grads))
            assert {name: getattr(record, name) for name in terms} == terms
        assert split.step == stepped.step == 2
        for a, b in zip(split.params.tensors().values(), stepped.params.tensors().values()):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(split.teacher.head.projection, stepped.teacher.head.projection)


def test_a_step_wraps_only_the_pooled_teacher_logits(toy_scenes, monkeypatch):
    # The losses, views and Sinkhorn take the step's arrays as they are, and
    # the Laplacian's graph and the matching read the scenes' neighbor lists:
    # once a scene's lists are built, a step builds no cloud and no tree.
    state = init_train_state(_toy_config(batch_size=4))
    state, _ = train_step(state, toy_scenes[:4])
    built = Counter()

    def counting(self, _check=PointCloud.__post_init__):
        built["PointCloud"] += 1
        _check(self)

    def counting_tree(*args, _tree=geometry.cKDTree, **kwargs):
        built["cKDTree"] += 1
        return _tree(*args, **kwargs)

    monkeypatch.setattr(PointCloud, "__post_init__", counting)
    monkeypatch.setattr(geometry, "cKDTree", counting_tree)
    _, record = train_step(state, toy_scenes[:4])
    assert record.laplacian > 0.0 and record.consistency > 0.0
    assert built == {}


def test_the_laplacian_graph_is_in_the_scene_frame(toy_scenes, monkeypatch):
    # Two view sets whose g1 holds the same scene points under another
    # rotation and jitter give the Laplacian one graph, of scene distances.
    scene = toy_scenes[0]
    views = make_views(scene, 7)
    g0, g1 = views.global_views
    rng = np.random.default_rng(8)
    c, s = np.cos(1.3), np.sin(1.3)
    features = g1.features.copy()
    features[:, :3] = (scene.positions[g1.source_indices] @ np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]]).T
                       + rng.normal(0.0, 0.005, (len(features), 3)))
    moved = replace(views, global_views=(g0, View(features, g1.source_indices)))

    graphs = []
    build = trainer.build_knn_graph
    monkeypatch.setattr(trainer, "build_knn_graph",
                        lambda *args, **kwargs: graphs.append(build(*args, **kwargs)) or graphs[-1])
    state = init_train_state(_toy_config(laplacian_schedule=1e-3))
    for view_set in (views, moved):
        step_objective(state, [view_set], 0)
    first, second = graphs
    assert first.num_edges > 0 and first.num_nodes == len(g1.source_indices)
    for name in ("source", "target", "distance", "weight"):
        np.testing.assert_array_equal(getattr(first, name), getattr(second, name))
    points = scene.positions[g1.source_indices]
    np.testing.assert_allclose(
        first.distance, np.linalg.norm(points[first.source] - points[first.target], axis=1),
        rtol=1e-15,
    )


class TestFlatState:
    def test_weight_decay_lands_on_weight_matrices_only(self):
        config = _toy_config(weight_decay=0.3, ema_momentum=1.0)
        state = init_train_state(config)
        before = {name: t.copy() for name, t in state.params.tensors().items()}
        apply_update(state, np.zeros_like(state.student))
        lr = config.lr_at(0)
        for name, t in state.params.tensors().items():
            want = before[name] - lr * (0.3 * before[name]) if name.endswith("weight") else before[name]
            np.testing.assert_array_equal(t, want, err_msg=name)

    def test_tensors_stay_views_of_their_vectors(self, toy_scenes):
        config = _toy_config()
        state = init_train_state(config)
        for updated in (False, True):
            if updated:
                views = [make_views(toy_scenes[0], _derive_seed(config, 0, 0, 0), config.views)]
                apply_update(state, step_objective(state, views, 0)[2])
            for t in [*state.params.tensors().values(), state.head.projection]:
                assert np.shares_memory(t, state.student)
            teacher = state.teacher
            for t in [*teacher.params.tensors().values(), teacher.head.projection]:
                assert np.shares_memory(t, teacher.flat)
        state.params.weights[0][...] = 7.0
        assert np.count_nonzero(state.student == 7.0) == state.params.weights[0].size


class TestSceneThreads:
    def test_threads_match_inline_bitwise(self, toy_scenes, monkeypatch):
        runs = []
        for threaded in (True, False):
            # train_step's scenes on 2 threads, or inline
            threads = force_threads(monkeypatch, cpus=2)
            monkeypatch.setattr(
                trainer, "PARALLEL_MIN_SCENE_POINTS", 0 if threaded else float("inf")
            )
            state = init_train_state(_toy_config(total_steps=4, batch_size=3))
            records = []
            for step in range(3):
                state, record = train_step(state, toy_scenes[step:step + 3])
                records.append({**record.to_dict(), "wall_time": 0.0})
            runs.append((records, state))
            assert (threading.get_ident() not in threads) == threaded
        (threaded_records, a), (inline_records, b) = runs
        assert threaded_records == inline_records
        tensors = [
            (a.params.tensors(), b.params.tensors()),
            (a.teacher.params.tensors(), b.teacher.params.tensors()),
            ({"head": a.head.projection}, {"head": b.head.projection}),
            ({"teacher.head": a.teacher.head.projection}, {"teacher.head": b.teacher.head.projection}),
            ({"adam_m": a.adam_m, "adam_v": a.adam_v}, {"adam_m": b.adam_m, "adam_v": b.adam_v}),
        ]
        for got, want in tensors:
            assert got.keys() == want.keys()
            for name in got:
                np.testing.assert_array_equal(got[name], want[name], err_msg=name)
        assert a.step == b.step == 3 and a.adam_v.any()

    def test_scene_error_on_a_thread_reaches_the_caller(self, toy_scenes, monkeypatch):
        threads = force_threads(monkeypatch, cpus=2)
        monkeypatch.setattr(trainer, "PARALLEL_MIN_SCENE_POINTS", 0)
        state = init_train_state(_toy_config(total_steps=4, batch_size=3))
        tiny = toy_scenes[0].select(np.arange(100))
        with pytest.raises(ValueError, match="need at least 256"):
            train_step(state, [toy_scenes[1], tiny, toy_scenes[2]])
        assert state.step == 0 and not state.adam_m.any() and not state.adam_v.any()
        assert threading.get_ident() not in threads


class TestRunTraining:
    def test_writes_metrics_and_checkpoint(self, toy_scenes, tmp_path):
        config = _toy_config(total_steps=3)
        out = tmp_path / "run"
        state, records = run_training(config, toy_scenes[:3], out_dir=out)
        assert (out / "model.ckpt").exists()
        assert (out / "config.json").exists()
        lines = (out / "metrics.jsonl").read_text().strip().splitlines()
        assert len(lines) == 3
        parsed = [json.loads(line) for line in lines]
        assert [p["step"] for p in parsed] == [0, 1, 2]
        for record, line in zip(records, parsed):
            assert record.total == line["total"]

    def test_max_scene_points_subsamples_each_scene(self, toy_scenes):
        cap = 500
        config = _toy_config(total_steps=3, max_scene_points=cap)
        _, capped = run_training(config, toy_scenes[:3])
        subsampled = [
            scene.select(np.sort(make_rng(config.seed, 40, i).choice(len(scene), cap, replace=False)))
            for i, scene in enumerate(toy_scenes[:3])
        ]
        assert all(len(scene) > cap for scene in toy_scenes[:3])
        _, expected = run_training(_toy_config(total_steps=3), subsampled)

        def stream(records):
            return [{**r.to_dict(), "wall_time": 0.0} for r in records]

        assert stream(capped) == stream(expected)

    def test_jsonl_deterministic_modulo_wall_time(self, toy_scenes, tmp_path):
        streams = []
        for name in ("a", "b"):
            config = _toy_config(total_steps=3)
            _, records = run_training(config, toy_scenes[:3], out_dir=tmp_path / name)
            stream = [
                {k: v for k, v in json.loads(line).items() if k != "wall_time"}
                for line in (tmp_path / name / "metrics.jsonl").read_text().splitlines()
            ]
            streams.append(stream)
        assert streams[0] == streams[1]
