"""Training loop: views -> encoders -> Sinkhorn targets -> losses -> AdamW + EMA.

One step generates views for every scene in the batch, encodes the full
global views with the EMA teacher, pools both views of all scenes into a
single Sinkhorn assignment, and trains the student on the masked global
view and on a scene's local views, stacked into one pass, with the three
clustering terms plus the Laplacian and consistency regularizers.  Terms
that pair points across views pair a point with its own scene point where
the other view holds it, and otherwise with the nearest scene point within
the correspondence cutoff that the other view holds, the lower scene index
winning a tie in distance; the pair is that point's first row in the other
view, g0's row before g1's for the unmask term.  The candidates come from
each scene's neighbor lists, built on its first step and kept with its
PointCloud (PointCloud.neighbors_within).  The Laplacian smooths the
student's embeddings of g1 over a kNN graph of g1's points in the scene
frame, read from the same scene's lists at the Laplacian's radius, so the
view's augmentation (rotation, flips, jitter) does not change the graph.
Only the student receives gradients; the teacher moves through the EMA
alone.  A fixed seed reproduces the metrics stream bit-for-bit (wall time
aside), whether or not the scenes run on threads.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _threads
from ._config import check_fields, within
from .geometry import PointCloud, build_knn_graph
from .losses import (
    HUBER_RESIDUAL,
    PAIRWISE,
    clustering_ce,
    consistency_loss,
    laplacian_loss,
    match_correspondences,
)
from .model import (
    Network,
    encode_backward,
    encode_features,
    ema_update,
    init_network,
    point_features,  # not called; perfbench/ traces the layer under this name
    prototype_logits_backward,
    save_model,
)
from .rng import make_rng
from .sinkhorn import sinkhorn_normalize
from .views import MIN_SCENE_POINTS, ViewConfig, ViewSet, make_views, noise_view


@dataclass(frozen=True)
class Schedule:
    """Time-varying coefficient: constant, linear, or cosine interpolation."""

    kind: str
    start: float
    end: float
    total_steps: int

    def __post_init__(self):
        if self.kind not in ("constant", "linear", "cosine"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.total_steps <= 0:
            raise ValueError("total_steps must be positive")
        if self.kind == "constant" and self.end != self.start:
            object.__setattr__(self, "end", self.start)

    def value_at(self, step: int) -> float:
        if step < 0 or step > self.total_steps:
            warnings.warn(
                f"schedule step {step} outside [0, {self.total_steps}]; clamping",
                stacklevel=2,
            )
            step = min(max(step, 0), self.total_steps)
        if self.kind == "constant":
            return self.start
        t = step / self.total_steps
        if self.kind == "linear":
            return self.start + (self.end - self.start) * t
        return self.end + (self.start - self.end) * 0.5 * (1.0 + np.cos(np.pi * t))


def _schedule_from(name: str, spec, total_steps: int) -> Schedule:
    if isinstance(spec, Schedule):
        # to_dict writes a schedule without its span, which is the config's.
        if spec.total_steps != total_steps:
            raise ValueError(f"{name} spans {spec.total_steps} steps, the run {total_steps}")
        return spec
    if isinstance(spec, (int, float)):
        return Schedule("constant", float(spec), float(spec), total_steps)
    if not (isinstance(spec, dict) and {"start", "end"} <= spec.keys() <= {"kind", "start", "end"}):
        raise TypeError(f"a schedule is a number or a dict of start, end and kind, got {spec!r}")
    return Schedule(
        spec.get("kind", "linear"), float(spec["start"]), float(spec["end"]), total_steps
    )


@dataclass(frozen=True)
class TrainConfig:
    """All knobs of a toy pre-training run; every field has a default.

    Defaults: 4:2:2 clustering weights, student temperature 0.1, teacher
    temperature 0.04 -> 0.07, Laplacian coefficient 2e-4 -> 3e-3 with a
    k=24 / 0.08 m graph, consistency coefficient 0.05, AdamW at 1e-3 with
    weight decay 0.04 -> 0.10; desk-scale widths keep the run fast.
    """

    total_steps: int = within(2000, "[1, inf)")
    batch_size: int = within(4, "[1, inf)")
    seed: int = within(0, "[0, inf)")

    num_prototypes: int = within(64, "[2, inf)")
    embed_dim: int = within(32, "[1, inf)")
    hidden: tuple[int, ...] = within((64, 64), "[1, inf)")

    student_temperature: float = within(0.1, "[1e-6, inf)")  # ~1e-300 overflows the loss
    teacher_temperature: Schedule | dict | float = within(
        lambda: {"kind": "linear", "start": 0.04, "end": 0.07}, "(0, inf)"
    )
    # The loss weights, this and the four *_weight fields: Adam divides out the
    # gradient's scale, so only their ratios matter, and near 1e200 the squared
    # gradient in Adam's second moment overflows.
    laplacian_schedule: Schedule | dict | float = within(
        lambda: {"kind": "linear", "start": 2e-4, "end": 3e-3}, "[0, 1e6]"
    )
    ema_momentum: Schedule | dict | float = within(
        lambda: {"kind": "cosine", "start": 0.994, "end": 1.0}, "[0, 1]"
    )
    weight_decay: Schedule | dict | float = within(
        lambda: {"kind": "linear", "start": 0.04, "end": 0.10}, "[0, inf)"
    )

    unmask_weight: float = within(4.0, "[0, 1e6]")
    mask_weight: float = within(2.0, "[0, 1e6]")
    roll_weight: float = within(2.0, "[0, 1e6]")
    consistency_weight: float = within(0.05, "[0, 1e6]")
    huber_delta: float = within(0.5, "(0, inf)")
    laplacian_form: str = HUBER_RESIDUAL
    laplacian_knn: int = within(24, "[1, inf)")
    # Each scene keeps neighbor lists at these two radii for the whole run
    # (PointCloud.neighbors_within).  They grow with the radius squared; only
    # the graph built from them is bounded by laplacian_knn.  On a 4,000-point
    # wide room (2-CPU host) 0.08 m keeps 2.3 entries a point, built in 5 ms;
    # 1 m keeps 485 a point, 15.6 MB built in about 1 s, hence the 1 m bound.
    laplacian_max_radius: float = within(0.08, "(0, 1]")  # meters
    correspondence_cutoff: float = within(0.05, "[0, 1]")  # 0 keeps the pairs at distance 0
    sinkhorn_iterations: int = within(3, "[1, inf)")

    base_lr: float = within(1e-3, "[0, inf)")
    final_lr: float = within(1e-5, "[0, inf)")
    warmup_fraction: float = within(0.05, "[0, 1]")  # of total_steps; 1 warms up the whole run

    views: ViewConfig | dict = field(default_factory=ViewConfig)
    max_scene_points: int | None = None

    def __post_init__(self):
        for name in ("teacher_temperature", "laplacian_schedule", "ema_momentum", "weight_decay"):
            schedule = _schedule_from(name, getattr(self, name), self.total_steps)
            object.__setattr__(self, name, schedule)
        if not isinstance(self.views, ViewConfig):
            object.__setattr__(self, "views", ViewConfig(**self.views))
        object.__setattr__(self, "hidden", tuple(self.hidden))
        check_fields(self)
        if self.laplacian_form not in (PAIRWISE, HUBER_RESIDUAL):
            raise ValueError(f"unknown laplacian_form {self.laplacian_form!r}")
        if not (self.max_scene_points or MIN_SCENE_POINTS) >= MIN_SCENE_POINTS:
            raise ValueError(f"max_scene_points must be None, 0 or at least {MIN_SCENE_POINTS}, "
                             f"got {self.max_scene_points}")

    def lr_at(self, step: int) -> float:
        warmup = max(1, int(round(self.warmup_fraction * self.total_steps)))
        if step < warmup:
            return self.base_lr * (step + 1) / warmup
        t = (step - warmup) / max(1, self.total_steps - warmup)
        return self.final_lr + (self.base_lr - self.final_lr) * 0.5 * (1.0 + np.cos(np.pi * t))

    def to_dict(self) -> dict:
        out = asdict(self)
        for name in ("teacher_temperature", "laplacian_schedule", "ema_momentum", "weight_decay"):
            sched = getattr(self, name)
            out[name] = {"kind": sched.kind, "start": sched.start, "end": sched.end}
        out["hidden"] = list(self.hidden)
        return out

    @staticmethod
    def from_dict(data: dict) -> "TrainConfig":
        return TrainConfig(**data)


@dataclass
class MetricsRecord:
    """Per-step training metrics; appended monotonically in step."""

    step: int
    unmask: float
    mask: float
    roll: float
    laplacian: float
    consistency: float
    total: float
    prototype_entropy: float
    grad_norm: float
    wall_time: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainState:
    """A run's config and step, the student and its EMA teacher, and Adam's moments.

    student.flat, teacher.flat, adam_m and adam_v are four float64 vectors of
    one layout (model.Network); the moments start at 0.
    """

    config: TrainConfig
    student: Network
    teacher: Network
    step: int = 0
    adam_m: np.ndarray = field(init=False, repr=False)
    adam_v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.adam_m = np.zeros_like(self.student.flat)
        self.adam_v = np.zeros_like(self.student.flat)


def init_train_state(config: TrainConfig) -> TrainState:
    student = init_network(config.hidden, config.embed_dim, config.num_prototypes, seed=config.seed)
    return TrainState(config, student, teacher=student.like(student.flat.copy()))


def prototype_usage_entropy(rows: np.ndarray) -> float:
    """Shannon entropy (nats) of the mean of B x K assignment rows.

    The maximum is ln K at perfectly uniform usage.
    """
    usage = rows.mean(axis=0)
    usage = usage / usage.sum()
    positive = usage[usage > 0.0]
    return float(-(positive * np.log(positive)).sum())


def _derive_seed(config: TrainConfig, step: int, scene_index: int, purpose: int) -> int:
    seq = np.random.SeedSequence((config.seed, step, scene_index, purpose))
    return int(seq.generate_state(1, np.uint64)[0])


# A batch's scenes run on threads only when they average at least this many
# points; on smaller scenes the hand-offs cost about what the threads
# overlap.  Two threads on 2 CPUs took 1.04x the inline step time at 800
# points a scene, 0.94-0.99x at 1,600 and 0.77-0.89x at 2,400 (acceptance
# and default configs).
PARALLEL_MIN_SCENE_POINTS = 2000


def step_objective(
    state: TrainState, scene_views: list[ViewSet], step: int
) -> tuple[dict[str, float], float, np.ndarray, np.ndarray]:
    """The objective of one batch of views and its gradients; state is not changed.

    Each term is averaged over the scenes; total weights them by the config's
    clustering weights, the Laplacian schedule at step and consistency_weight.
    Returns (terms, total, grads, q_all): grads is d total / d state.student.flat,
    a vector of its layout, q_all the pooled Sinkhorn teacher assignments.
    """
    if not scene_views:
        raise ValueError("step_objective got an empty batch; it needs one scene's views or more")
    return _objective(state, scene_views, step, workers=1)


def _objective(state: TrainState, scene_views: list[ViewSet], step: int, workers: int):
    """step_objective with the per-scene work on up to `workers` threads.

    Only the pooled Sinkhorn spans scenes.  The teacher passes and each
    scene's terms and gradients come back from thread_map in scene order and
    are summed here in that order, so the result does not depend on the
    number of workers.
    """
    config = state.config
    tau_t = config.teacher_temperature.value_at(step)
    lam = config.laplacian_schedule.value_at(step)
    mu = config.consistency_weight

    teacher_logits = [
        logits
        for pair in _threads.thread_map(
            lambda views: _teacher_logits(state.teacher, views), scene_views, workers
        )
        for logits in pair
    ]
    # Scene i's rows of the pooled assignments: its g0 rows, then its g1 rows.
    ends = np.cumsum([len(t) for t in teacher_logits])[1::2]
    # The logits and their pooled copy (points x K, each about 11 MB for four
    # 4,000-point rooms) are dropped before the per-scene work, which may run
    # several scenes at once.
    pooled = np.concatenate(teacher_logits, axis=0)
    del teacher_logits
    q_all = sinkhorn_normalize(pooled, tau_t, config.sinkhorn_iterations)
    del pooled
    q_scenes = np.split(q_all, ends[:-1])

    grads = np.zeros_like(state.student.flat)
    terms = {"unmask": 0.0, "mask": 0.0, "roll": 0.0, "laplacian": 0.0, "consistency": 0.0}
    scale = 1.0 / len(scene_views)
    per_scene = _threads.thread_map(
        lambda args: _scene_objective(state, step, lam, *args),
        zip(range(len(scene_views)), scene_views, q_scenes),
        workers,
    )
    for scene_terms, contributions in per_scene:
        for key, value in scene_terms.items():
            terms[key] += value
        for contribution in contributions:
            grads += scale * contribution.flat

    for key in terms:
        terms[key] *= scale
    total = (
        config.unmask_weight * terms["unmask"]
        + config.mask_weight * terms["mask"]
        + config.roll_weight * terms["roll"]
        + lam * terms["laplacian"]
        + mu * terms["consistency"]
    )
    return terms, total, grads, q_all


def _teacher_logits(teacher: Network, views: ViewSet) -> list[np.ndarray]:
    return [
        encode_features(teacher, view.features).embeddings @ teacher.projection
        for view in views.global_views
    ]


def _scene_objective(
    state: TrainState, step: int, lam: float, i: int, views: ViewSet, q: np.ndarray,
) -> tuple[dict[str, float], list[Network]]:
    """Scene i's share of the objective, unscaled; q holds its g0 then its g1 assignments.

    Returns the terms it contributes and its gradients, each of the student's
    layout, in the order they are accumulated.  The local views and the
    Laplacian run in helpers so their encoder caches are freed before the
    next pass: a pool runs several scenes at once.
    """
    config = state.config
    tau_s = config.student_temperature
    mu = config.consistency_weight
    terms: dict[str, float] = {}

    g0, g1 = views.global_views
    mask = views.mask
    q0, q1 = q[:len(g0.features)], q[len(g0.features):]

    cache_g0 = encode_features(state.student, g0.features, mask)
    logits_g0 = cache_g0.embeddings @ state.student.projection
    grad_logits_g0 = np.zeros_like(logits_g0)

    # Mask loss: distill the teacher's assignments on the masked points.
    if mask.any():
        rows = np.flatnonzero(mask)
        value, grad = clustering_ce(q0[rows], logits_g0[rows], tau_s)
        terms["mask"] = value
        grad_logits_g0[rows] += config.mask_weight * grad

    # Roll loss: swapped global views as targets, matched by scene point.
    pairs = match_correspondences(
        views.scene, g0.source_indices, g1.source_indices, config.correspondence_cutoff
    )
    if len(pairs):
        students, teachers = pairs.T
        value, grad = clustering_ce(q1[teachers], logits_g0[students], tau_s)
        terms["roll"] = value
        grad_logits_g0[students] += config.roll_weight * grad

    value, contributions = _unmask_objective(state, views, q)
    if value is not None:
        terms["unmask"] = value
    value, laplacian_grads = _laplacian_objective(state, views, lam)
    if value is not None:
        terms["laplacian"] = value

    # Noise consistency between the noisy teacher view and the masked student view.
    grad_emb_g0 = None
    if mu > 0.0:
        xa = noise_view(
            g1, config.views.noise_sigma, config.views.noise_dropout,
            _derive_seed(config, step, i, 1),
        )
        teacher_emb = encode_features(state.teacher, xa.features).embeddings
        pairs_cons = match_correspondences(
            views.scene, g0.source_indices, xa.source_indices, config.correspondence_cutoff
        )
        if len(pairs_cons):
            value, grad = consistency_loss(teacher_emb, cache_g0.embeddings, pairs_cons)
            terms["consistency"] = value
            grad_emb_g0 = mu * grad

    # Backpropagate the masked-global-view gradients.
    g_emb, g_proj = prototype_logits_backward(state.student, cache_g0.embeddings, grad_logits_g0)
    if grad_emb_g0 is not None:
        g_emb = g_emb + grad_emb_g0
    grads = encode_backward(state.student, cache_g0, g_emb)
    grads.projection[...] = g_proj
    contributions.append(grads)

    if laplacian_grads is not None:
        contributions.append(laplacian_grads)
    return terms, contributions


def _unmask_objective(
    state: TrainState, views: ViewSet, q: np.ndarray
) -> tuple[float | None, list[Network]]:
    """Unmask loss: the local views against the scene's teacher assignments q.

    The local views run through the student as one stack of rows, matched
    against g0's rows then g1's, so a local point whose scene point lies in
    both global views is distilled from q0.  Returns the unweighted term
    (None when no local point matched) and the weighted term's gradients.
    """
    config = state.config
    if not views.local_views:
        return None, []
    g0, g1 = views.global_views
    pairs = match_correspondences(
        views.scene,
        np.concatenate([view.source_indices for view in views.local_views]),
        np.concatenate([g0.source_indices, g1.source_indices]),
        config.correspondence_cutoff,
    )
    if not len(pairs):
        return None, []
    students, teachers = pairs.T
    stacked = np.concatenate([view.features for view in views.local_views])
    cache = encode_features(state.student, stacked)
    matched = cache.embeddings[students]
    value, grad = clustering_ce(q[teachers], matched @ state.student.projection,
                                config.student_temperature)
    grad *= config.unmask_weight
    g_matched, g_proj = prototype_logits_backward(state.student, matched, grad)
    g_emb = np.zeros_like(cache.embeddings)
    g_emb[students] = g_matched
    grads = encode_backward(state.student, cache, g_emb)
    grads.projection[...] = g_proj
    return value, [grads]


def _laplacian_objective(
    state: TrainState, views: ViewSet, lam: float
) -> tuple[float | None, Network | None]:
    """Laplacian smoothing on the student's unmasked global view.

    The graph is over g1's points in the scene frame: each point's nearest
    scene points that g1 holds, by scene-frame distance, from the scene's
    neighbor lists at laplacian_max_radius.  So the rotation, flips and
    jitter that augment g1's features leave the graph as it is.

    Returns the unweighted term and the encoder gradient of lam times it,
    or (None, None) when lam is 0 or the graph has no edges.
    """
    if lam <= 0.0:
        return None, None
    config = state.config
    g1 = views.global_views[1]
    cache_g1 = encode_features(state.student, g1.features)
    graph = build_knn_graph(views.scene, config.laplacian_knn, config.laplacian_max_radius,
                            among=g1.source_indices)
    if not graph.num_edges:
        return None, None
    value, grad = laplacian_loss(
        cache_g1.embeddings, graph, config.laplacian_form, config.huber_delta
    )
    return value, encode_backward(state.student, cache_g1, lam * grad)


def apply_update(state: TrainState, grads: np.ndarray) -> None:
    """AdamW on the student by grads, EMA of the student into the teacher, then step += 1."""
    config = state.config
    lr = config.lr_at(state.step)
    wd = config.weight_decay.value_at(state.step)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    bias1 = 1.0 - beta1 ** (state.step + 1)
    bias2 = 1.0 - beta2 ** (state.step + 1)

    state.adam_m *= beta1
    state.adam_m += (1.0 - beta1) * grads
    state.adam_v *= beta2
    state.adam_v += (1.0 - beta2) * grads * grads
    update = (state.adam_m / bias1) / (np.sqrt(state.adam_v / bias2) + eps)
    # Decoupled weight decay on the weight matrices and the projection only.
    decayed = state.student.decayed
    update[decayed:] += wd * state.student.flat[decayed:]
    state.student.flat -= lr * update
    state.student.normalize_columns()

    momentum = config.ema_momentum.value_at(state.step)
    state.teacher = ema_update(state.teacher, state.student, momentum)
    state.step += 1


def train_step(state: TrainState, scenes: list[PointCloud]) -> tuple[TrainState, MetricsRecord]:
    """One optimization step over a batch of scenes: views, step_objective, apply_update.

    When the scenes are large enough (PARALLEL_MIN_SCENE_POINTS), each scene's
    views, teacher passes, terms and gradients run on a thread pool; the
    output is bit-identical to running them inline.  Aborts with a diagnostic
    on a non-finite loss rather than skipping the batch, so numeric bugs
    surface immediately.
    """
    if not scenes:
        raise ValueError("train_step got an empty batch; it needs one scene or more")
    t_start = time.perf_counter()
    config = state.config
    step = state.step
    state.student.check_finite()
    state.teacher.check_finite()
    big = sum(map(len, scenes)) >= PARALLEL_MIN_SCENE_POINTS * len(scenes)
    workers = _threads.usable_cpus() if big else 1
    scene_views = _threads.thread_map(
        lambda i: make_views(scenes[i], _derive_seed(config, step, i, 0), config.views),
        range(len(scenes)), workers,
    )
    terms, total, grads, q_all = _objective(state, scene_views, step, workers)
    if not np.isfinite(total):
        raise FloatingPointError(
            f"non-finite loss at step {step}: {terms}; aborting (batch of {len(scenes)} scenes)"
        )
    apply_update(state, grads)

    return state, MetricsRecord(
        step=step,
        **terms,
        total=float(total),
        prototype_entropy=prototype_usage_entropy(q_all),
        grad_norm=_grad_norm(state, grads),
        wall_time=time.perf_counter() - t_start,
    )


def _grad_norm(state: TrainState, grads: np.ndarray) -> float:
    """The norm of a gradient vector, summed per tensor: the projection, then tensors() order."""
    *encoder, projection = state.student.like(grads).tensors().values()
    return float(np.sqrt(sum(float((t**2).sum()) for t in [projection, *encoder])))


def _batch_for_step(scenes: list[PointCloud], config: TrainConfig, step: int) -> list[PointCloud]:
    rng = make_rng(config.seed, 20, step)
    indices = rng.choice(len(scenes), size=min(config.batch_size, len(scenes)), replace=False)
    return [scenes[int(j)] for j in indices]


def run_training(
    config: TrainConfig,
    scenes: list[PointCloud],
    out_dir=None,
) -> tuple[TrainState, list[MetricsRecord]]:
    """Run the full schedule over a scene corpus.

    Scenes over config.max_scene_points are first cut to a seeded, sorted
    random subset.  When out_dir is given, writes metrics.jsonl (one record
    per step), the resolved config, and the final model checkpoint there.
    """
    if not scenes:
        raise ValueError("no training scenes")
    cap = config.max_scene_points
    scenes = [
        scene.select(np.sort(make_rng(config.seed, 40, i).choice(len(scene), cap, replace=False)))
        if cap and len(scene) > cap else scene
        for i, scene in enumerate(scenes)
    ]
    state = init_train_state(config)
    records: list[MetricsRecord] = []
    metrics_stream = None
    try:
        if out_dir is not None:
            from pathlib import Path

            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            with open(out / "config.json", "w") as f:
                json.dump(config.to_dict(), f, indent=2, sort_keys=True)
            metrics_stream = open(out / "metrics.jsonl", "w")
        for step in range(config.total_steps):
            batch = _batch_for_step(scenes, config, step)
            state, record = train_step(state, batch)
            records.append(record)
            if metrics_stream is not None:
                metrics_stream.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        if out_dir is not None:
            save_model(Path(out_dir) / "model.ckpt", state.student, state.teacher)
    finally:
        if metrics_stream is not None:
            metrics_stream.close()
    return state, records
