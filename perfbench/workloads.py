"""The benchmark's workloads; each drives pointssl through its public API only.

Every workload is a closed loop with one caller.  ``setup`` builds the inputs
from the workload seed and runs the warm-up ops; ``op`` is the timed unit of
work and returns what ``check`` needs to judge it, so checks stay outside the
timed region.  ``targets`` lists the names the traced run wraps.

- train_toy: the acceptance-suite training config on 800-point rooms.  Arrays
  are small, so per-call overhead (validation, copies, Python dispatch)
  dominates the step.
- train_wide: the TrainConfig defaults on 4000-point rooms.  Encoder passes,
  kNN graphs and the Laplacian dominate; per-call overhead is a small share.
- align_scenes: read_ply -> align_scene -> write_ply on tilted 30k-point
  rooms downsampled to 20k.  Only geometry and PLY code runs, so trainer
  changes should leave it unchanged.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import pointssl
from pointssl import SceneSpec, TrainConfig, generate_room, init_train_state, train_step
from pointssl import pipeline, trainer
from spans import (
    Target,
    observe_encode,
    observe_file,
    observe_knn,
    observe_match,
    observe_plane,
    observe_sinkhorn,
    observe_sor,
)

# The toy_room spec of the test suite.
TOY_ROOM = dict(
    extents=(1.6, 1.2, 0.8),
    surface_density=110.0,
    furniture_count=2,
    ghost_fraction=0.1,
    max_points=800,
)
WIDE_ROOM = dict(TOY_ROOM, extents=(3.2, 2.4, 1.6), max_points=4000)
# The acceptance-suite training config (hidden (32, 32), embed 16, K = 64).
TOY_CONFIG = dict(total_steps=2000, batch_size=4, hidden=(32, 32), embed_dim=16, num_prototypes=64)

ALIGN_SCENES = 16
ALIGN_POINTS = 30000
MAX_UP_AXIS_DEGREES = 1.0
DIAGONAL_RTOL = 1e-6


def scene_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def stream_digest(records) -> str:
    """Digest of the metrics stream, wall time excluded."""
    rows = [{k: v for k, v in r.to_dict().items() if k != "wall_time"} for r in records]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]


TRAINER_LAYERS = [
    ("make_views", "views", None),
    ("noise_view", "views", None),
    ("point_features", "model", None),
    ("encode_features", "model", observe_encode),
    ("encode_backward", "model", None),
    ("prototype_logits_backward", "model", None),
    ("ema_update", "model", None),
    ("sinkhorn_normalize", "sinkhorn", observe_sinkhorn),
    ("build_knn_graph", "geometry", observe_knn),
    ("match_correspondences", "losses", observe_match),
    ("clustering_ce", "losses", None),
    ("laplacian_loss", "losses", None),
    ("consistency_loss", "losses", None),
]
PIPELINE_LAYERS = [
    ("sor_filter", "geometry", observe_sor),
    ("detect_dominant_plane", "geometry", observe_plane),
    ("align_z_up", "geometry", None),
    ("scale_align", "geometry", None),
    ("estimate_normals", "geometry", None),
    ("aabb_diagonal", "geometry", None),
]
PLY_LAYERS = [
    ("read_ply", "ply", observe_file("ply.read_bytes")),
    ("write_ply", "ply", observe_file("ply.write_bytes")),
]


def _targets(module, layers) -> list[Target]:
    return [Target(module, attr, f"{group}.{attr}", observe) for attr, group, observe in layers]


class TrainWorkload:
    """Closed-loop train_step calls; batch order comes from the workload seed."""

    warmup_ops = 2
    # The traced op's root span; its self time is the step's own work.
    root = "trainer.self"
    targets = _targets(trainer, TRAINER_LAYERS)

    def __init__(self, room: dict, num_scenes: int, config: dict):
        self.room, self.num_scenes, self.config_fields = room, num_scenes, config
        self.records = []

    def setup(self, seed: int, workdir: Path) -> str:
        """Build scenes and state, run the warm-up; return its stream digest."""
        self.seed = seed
        self.scenes = [
            generate_room(SceneSpec(**self.room, seed=s))[0]
            for s in scene_seeds(seed, self.num_scenes)
        ]
        self.config = TrainConfig(seed=seed, **self.config_fields)
        self.state = init_train_state(self.config)
        warmup = [self.op() for _ in range(self.warmup_ops)]
        if not all(self.check(r) for r in warmup):
            raise RuntimeError("warm-up step returned a non-finite loss or gradient")
        self.records.clear()
        return stream_digest(warmup)

    def op(self):
        if self.state.step >= self.config.total_steps:
            self.recover()
        rng = np.random.default_rng((self.seed, self.state.step))
        batch = rng.choice(self.num_scenes, size=self.config.batch_size, replace=False)
        self.state, record = train_step(self.state, [self.scenes[int(j)] for j in batch])
        return record

    def check(self, record) -> bool:
        """Keep the record for the stream digest; pass if loss and gradient are finite."""
        self.records.append(record)
        return bool(np.isfinite(record.total) and np.isfinite(record.grad_norm))

    def recover(self) -> None:
        self.state = init_train_state(self.config)

    def digest(self, count: int) -> str:
        return stream_digest(self.records[:count])


class AlignWorkload:
    """Closed-loop read_ply -> align_scene -> write_ply over PLY files on disk."""

    warmup_ops = 2
    root = "op"
    targets = _targets(pointssl, PLY_LAYERS) + _targets(pipeline, PIPELINE_LAYERS) + [
        Target(pipeline, "align_scene", "pipeline.align_scene")
    ]

    def setup(self, seed: int, workdir: Path) -> str:
        self.config = pipeline.PipelineConfig()
        self.inputs, self.outputs = workdir / "in", workdir / "out"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.outputs.mkdir(exist_ok=True)
        tilts = np.random.default_rng(seed).uniform(0.0, 15.0, ALIGN_SCENES)
        self.scenes = []
        for i, (s, tilt) in enumerate(zip(scene_seeds(seed, ALIGN_SCENES), tilts)):
            spec = SceneSpec(
                ghost_fraction=0.2,
                outlier_count=ALIGN_POINTS // 100,
                tilt_degrees=float(tilt),
                max_points=ALIGN_POINTS,
                seed=s,
            )
            cloud, truth = generate_room(spec)
            name = f"scene_{i:02d}.ply"
            pointssl.write_ply(self.inputs / name, cloud)
            self.scenes.append((name, s, truth.up_axis, pipeline.draw_target_scale(self.config, s)))
        self.next = 0
        for _ in range(self.warmup_ops):
            if not self.check(self.op()):
                raise RuntimeError("warm-up scene failed its checks")
        return ""

    def op(self):
        index = self.next % len(self.scenes)
        self.next += 1
        name, scene_seed, _, _ = self.scenes[index]
        cloud, _ = pointssl.read_ply(self.inputs / name)
        aligned, report, transform = pipeline.align_scene(
            cloud, self.config, scene_seed=scene_seed, name=name
        )
        pointssl.write_ply(self.outputs / name, aligned)
        return index, len(aligned), report, transform

    def check(self, out) -> bool:
        index, count, report, transform = out
        name, _, up_axis, target = self.scenes[index]
        if not report.plane_found:
            return False
        mapped_up = transform.rotation @ up_axis
        if np.degrees(np.arccos(np.clip(mapped_up[2], -1.0, 1.0))) > MAX_UP_AXIS_DEGREES:
            return False
        if abs(report.final_diagonal - target) > DIAGONAL_RTOL * target:
            return False
        reread, _ = pointssl.read_ply(self.outputs / name)
        return len(reread) == count

    def recover(self) -> None:
        pass

    def digest(self, count: int) -> str:
        return ""


WORKLOADS = {
    "train_toy": lambda: TrainWorkload(TOY_ROOM, 64, TOY_CONFIG),
    "train_wide": lambda: TrainWorkload(WIDE_ROOM, 16, {}),
    "align_scenes": AlignWorkload,
}
