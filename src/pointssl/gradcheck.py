"""Finite-difference verification of every analytic gradient.

The checker perturbs each input coordinate by a central difference (step
1e-5, float64) and compares against the analytic gradient with the
norm-ratio metric |a - n| / max(|a|, |n|).  It is deliberately independent
of the code paths it checks: it only ever calls the losses and the training
objective for their scalar values.
"""

from __future__ import annotations

import numpy as np

from .geometry import PointCloud, build_knn_graph
from .losses import clustering_ce, consistency_loss, laplacian_loss
from .model import encode_backward, encode_features, init_network
from .rng import make_rng
from .scenes import SceneSpec, generate_room
from .sinkhorn import softmax_rows
from .trainer import TrainConfig, init_train_state, step_objective
from .views import make_views

FD_STEP = 1e-5
TOLERANCE = 1e-4
ENCODER_TRIALS = 5


def finite_difference(fn, x: np.ndarray) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + FD_STEP
        up = fn(x)
        flat[i] = original - FD_STEP
        down = fn(x)
        flat[i] = original
        gflat[i] = (up - down) / (2.0 * FD_STEP)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Norm-ratio gradient error: |a - n| / max(|a|, |n|, tiny)."""
    a = np.linalg.norm(analytic.ravel())
    n = np.linalg.norm(numeric.ravel())
    diff = np.linalg.norm((analytic - numeric).ravel())
    return float(diff / max(a, n, 1e-12))


def _check_clustering_ce(rng: np.random.Generator) -> float:
    b = int(rng.integers(2, 33))
    k = int(rng.integers(2, 17))
    tau = float(rng.uniform(0.05, 1.0))
    q = softmax_rows(rng.normal(0, 2, (b, k)))
    logits = rng.normal(0, 2, (b, k))

    _, analytic = clustering_ce(q, logits, tau)
    numeric = finite_difference(lambda x: clustering_ce(q, x, tau)[0], logits)
    return relative_error(analytic, numeric)


def _random_graph_instance(rng: np.random.Generator):
    n = int(rng.integers(6, 33))
    d = int(rng.integers(2, 17))
    cloud = PointCloud(positions=rng.uniform(0.0, 1.0, (n, 3)))
    graph = build_knn_graph(cloud, k=int(rng.integers(2, 6)), max_radius=2.0)
    return graph, rng.normal(0, 1, (n, d))


def _check_laplacian(rng: np.random.Generator, form: str) -> float:
    while True:
        graph, values = _random_graph_instance(rng)
        delta = float(rng.uniform(0.3, 1.5))
        if form == "huber_residual":
            # Redraw instances with a residual norm near the Huber kink,
            # where the curvature jump spoils the finite difference.
            src = graph.source
            w_sum = np.zeros(len(values))
            np.add.at(w_sum, src, graph.weight)
            mean = np.zeros_like(values)
            np.add.at(mean, src, graph.weight[:, None] * values[graph.target])
            ok = w_sum > 0
            mean[ok] /= w_sum[ok, None]
            norms = np.linalg.norm(np.where(ok[:, None], values - mean, 0.0), axis=1)
            if np.abs(norms - delta).min() < 1e-3:
                continue
        break

    _, analytic = laplacian_loss(values, graph, form, delta)
    numeric = finite_difference(lambda x: laplacian_loss(x, graph, form, delta)[0], values)
    return relative_error(analytic, numeric)


def _check_consistency(rng: np.random.Generator) -> float:
    n_s = int(rng.integers(4, 33))
    n_t = int(rng.integers(4, 33))
    d = int(rng.integers(2, 17))
    # The discarded uniform draws hold every later draw of the seed in place.
    teacher = rng.normal(0, 1, (n_t, d))
    rng.uniform(0, 1, (n_t, 3))
    student = rng.normal(0, 1, (n_s, d))
    rng.uniform(0, 1, (n_s, 3))
    n_pairs = int(rng.integers(1, n_s + 1))
    pairs = np.column_stack(
        (rng.choice(n_s, n_pairs, replace=False), rng.integers(0, n_t, n_pairs))
    )

    _, analytic = consistency_loss(teacher, student, pairs)
    numeric = finite_difference(lambda x: consistency_loss(teacher, x, pairs)[0], student)
    return relative_error(analytic, numeric)


def _worst_tensor_error(tensors: dict, analytic: dict, value) -> float:
    """Worst relative error over named tensors, each perturbed in place under value()."""
    worst = 0.0
    for name, tensor in tensors.items():
        def value_of(x, _tensor=tensor):
            saved = _tensor.copy()
            _tensor[...] = x
            out = value()
            _tensor[...] = saved
            return out

        numeric = finite_difference(value_of, tensor.copy())
        worst = max(worst, relative_error(analytic[name], numeric))
    return worst


def _check_encoder(rng: np.random.Generator) -> float:
    params = init_network((8, 8), 6, num_prototypes=2, seed=int(rng.integers(0, 2**31)))
    n = int(rng.integers(3, 9))
    features = rng.normal(0, 1, (n, 9))
    mask = rng.random(n) < 0.3
    downstream = rng.normal(0, 1, (n, 6))

    cache = encode_features(params, features, mask)
    grads = encode_backward(params, cache, downstream)
    return _worst_tensor_error(
        params.tensors(), grads.tensors(),
        lambda: float((encode_features(params, features, mask).embeddings * downstream).sum()),
    )


def _check_step(rng: np.random.Generator) -> float:
    """d total / d student through step_objective on two 256-point rooms."""
    config = TrainConfig(
        batch_size=2, num_prototypes=4, embed_dim=6, hidden=(8,),
        laplacian_schedule=0.5, consistency_weight=0.7, seed=int(rng.integers(0, 2**31)),
    )
    state = init_train_state(config)
    # The teacher starts as a copy of the student; move the student off it.
    tensors = state.student.tensors()
    for tensor in tensors.values():
        tensor += rng.normal(0.0, 0.1, tensor.shape)
    scene_views = []
    for _ in range(config.batch_size):
        scene, _ = generate_room(SceneSpec(
            extents=(1.6, 1.2, 0.8), surface_density=110.0, furniture_count=2,
            ghost_fraction=0.1, max_points=256, seed=int(rng.integers(0, 2**31)),
        ))
        scene_views.append(make_views(scene, int(rng.integers(0, 2**31)), config.views))

    grads = state.student.like(step_objective(state, scene_views, 0)[2])
    return _worst_tensor_error(
        tensors, grads.tensors(),
        lambda: step_objective(state, scene_views, 0)[1],
    )


def run_gradcheck(trials: int = 100, seed: int = 0) -> dict:
    """Run the finite-difference suite; returns per-loss max relative errors.

    Each loss gets `trials` random instances, the encoder ENCODER_TRIALS and
    the composed step one.  Every entry must come in under 1e-4 for the suite
    to pass.
    """
    if trials < 1:
        raise ValueError(f"trials ({trials}) must be >= 1")
    rng = make_rng(seed, 0xFD)
    checks = {
        "clustering_ce": lambda: _check_clustering_ce(rng),
        "laplacian_pairwise": lambda: _check_laplacian(rng, "pairwise"),
        "laplacian_huber_residual": lambda: _check_laplacian(rng, "huber_residual"),
        "consistency": lambda: _check_consistency(rng),
    }
    report = {}
    for name, check in checks.items():
        report[name] = max(check() for _ in range(trials))
    report["encoder"] = max(_check_encoder(rng) for _ in range(ENCODER_TRIALS))
    report["step"] = _check_step(rng)
    report["tolerance"] = TOLERANCE
    report["passed"] = all(
        err < TOLERANCE for key, err in report.items()
        if key not in ("tolerance", "passed")
    )
    return report
