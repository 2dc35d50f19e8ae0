"""A slow, loop-level reference for the training objective's five terms.

gradcheck shows that step_objective's gradients fit its value, and the
seeded stream digests show that the value repeats; neither shows which
targets each term distils.  This reference rebuilds every term from its
definition, row by row, and checks step_objective's terms and total to
1e-12 relative:

- student embeddings from the encoder's definition (SiLU hidden layers, unit
  output rows, the mask token on g0's masked rows);
- a loop Sinkhorn over the teacher's pooled global-view logits, and a
  per-row softmax and log for the student;
- brute-force matching: a student row pairs with the first teacher row of
  its own scene point (g0's rows before g1's for unmask), and otherwise with
  the nearest teacher point within the cutoff;
- mask: g0's masked rows against q0; roll: g0 against q1 of its matched g1
  rows; unmask: the local views against q0 and q1;
- the Laplacian's Huber residual point by point over the kNN graph of g1's
  points in the scene frame, built by the tree query on their own cloud
  (that graph is checked against brute force by criterion 3);
- consistency: g0 against the teacher's embeddings of the noisy g1.
"""

import numpy as np
import pytest

from pointssl import PointCloud, TrainConfig, build_knn_graph, init_train_state, make_views, train_step
from pointssl.trainer import _derive_seed, step_objective
from pointssl.views import noise_view

RTOL = 1e-12
TERMS = ("unmask", "mask", "roll", "laplacian", "consistency")


def _embed(params, features, mask=None):
    h = np.array(features, dtype=np.float64)
    if mask is not None:
        for row in np.flatnonzero(mask):
            h[row] = params.mask_token
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        a = h @ w + b
        h = a / (1.0 + np.exp(-a))
    raw = h @ params.weights[-1] + params.biases[-1]
    return np.array([row / np.sqrt((row * row).sum()) for row in raw])


def _log_softmax(row, temperature):
    s = row / temperature
    s = s - s.max()
    return s - np.log(np.exp(s).sum())


def _cross_entropy(q_rows, logit_rows, temperature):
    total = 0.0
    for q, logits in zip(q_rows, logit_rows):
        log_p = _log_softmax(logits, temperature)
        total -= sum(qk * lk for qk, lk in zip(q, log_p) if qk > 0.0)
    return total / len(q_rows)


def _sinkhorn(logits, temperature, iterations):
    m = np.array([np.exp(row / temperature - (row / temperature).max()) for row in logits])
    b, k = m.shape
    for _ in range(iterations):
        for col in range(k):
            s = m[:, col].sum()
            if s > 0.0:
                m[:, col] *= (b / k) / s
        for row in range(b):
            m[row] /= m[row].sum()
    return m


def _match(teacher_positions, student_positions, teacher_ids, student_ids, cutoff):
    pairs = []
    for i, (p, sid) in enumerate(zip(student_positions, student_ids)):
        same = np.flatnonzero(teacher_ids == sid)
        if len(same):
            pairs.append((i, same[0]))
            continue
        d = np.sqrt(((teacher_positions - p) ** 2).sum(axis=1))
        j = int(np.argmin(d))
        if d[j] <= cutoff:
            pairs.append((i, j))
    return pairs


def _huber_residual_loss(z, graph, delta):
    total = 0.0
    for i in range(len(z)):
        edges = np.flatnonzero(graph.source == i)
        if not len(edges):
            continue
        w = graph.weight[edges]
        mean = (w[:, None] * z[graph.target[edges]]).sum(axis=0) / w.sum()
        r = np.sqrt(((z[i] - mean) ** 2).sum())
        total += 0.5 * r * r if r <= delta else delta * (r - 0.5 * delta)
    return total / len(z)


def _reference_objective(state, scene_views, step):
    config = state.config
    tau_t = config.teacher_temperature.value_at(step)
    tau_s = config.student_temperature
    lam = config.laplacian_schedule.value_at(step)
    cutoff = config.correspondence_cutoff
    head, teacher_head = state.student.projection, state.teacher.projection

    teacher_logits = [
        _embed(state.teacher, view.features) @ teacher_head
        for views in scene_views for view in views.global_views
    ]
    q = _sinkhorn(np.concatenate(teacher_logits), tau_t, config.sinkhorn_iterations)
    starts = np.cumsum([0] + [len(t) for t in teacher_logits])

    terms = dict.fromkeys(TERMS, 0.0)
    for i, views in enumerate(scene_views):
        g0, g1 = views.global_views
        q0, q1 = q[starts[2 * i]:starts[2 * i + 1]], q[starts[2 * i + 1]:starts[2 * i + 2]]
        z0 = _embed(state.student, g0.features, views.mask)
        logits0 = z0 @ head

        masked = np.flatnonzero(views.mask)
        if len(masked):
            terms["mask"] += _cross_entropy(q0[masked], logits0[masked], tau_s)

        positions = views.scene.positions
        pairs = _match(positions[g1.source_indices], positions[g0.source_indices],
                       g1.source_indices, g0.source_indices, cutoff)
        if pairs:
            terms["roll"] += _cross_entropy(
                [q1[t] for _, t in pairs], [logits0[s] for s, _ in pairs], tau_s
            )

        q_targets, student_logits = [], []
        for local in views.local_views:
            local_logits = _embed(state.student, local.features) @ head
            for s, t in _match(
                positions[np.concatenate([g0.source_indices, g1.source_indices])],
                positions[local.source_indices],
                np.concatenate([g0.source_indices, g1.source_indices]),
                local.source_indices, cutoff,
            ):
                q_targets.append(q0[t] if t < len(g0.features) else q1[t - len(g0.features)])
                student_logits.append(local_logits[s])
        if q_targets:
            terms["unmask"] += _cross_entropy(q_targets, student_logits, tau_s)

        if lam > 0.0:
            graph = build_knn_graph(PointCloud(positions[g1.source_indices]),
                                    config.laplacian_knn, config.laplacian_max_radius)
            if graph.num_edges:
                terms["laplacian"] += _huber_residual_loss(
                    _embed(state.student, g1.features), graph, config.huber_delta
                )

        if config.consistency_weight > 0.0:
            noisy = noise_view(g1, config.views.noise_sigma, config.views.noise_dropout,
                               _derive_seed(config, step, i, 1))
            z_noisy = _embed(state.teacher, noisy.features)
            pairs = _match(positions[noisy.source_indices], positions[g0.source_indices],
                           noisy.source_indices, g0.source_indices, cutoff)
            if pairs:
                terms["consistency"] += sum(
                    ((z_noisy[t] - z0[s]) ** 2).sum() for s, t in pairs
                ) / len(pairs)

    terms = {key: value / len(scene_views) for key, value in terms.items()}
    total = (config.unmask_weight * terms["unmask"] + config.mask_weight * terms["mask"]
             + config.roll_weight * terms["roll"] + lam * terms["laplacian"]
             + config.consistency_weight * terms["consistency"])
    return terms, total


@pytest.mark.parametrize("seed, first", [(5, 0), (6, 3)])
def test_step_objective_matches_the_loop_reference(toy_scenes, seed, first):
    # The acceptance config, two steps in, so the student has left the teacher.
    config = TrainConfig(total_steps=100, batch_size=3, hidden=(32, 32), embed_dim=16,
                         num_prototypes=64, seed=seed)
    scenes = toy_scenes[first:first + 3]
    state = init_train_state(config)
    for _ in range(2):
        state, _ = train_step(state, scenes)
    step = state.step
    scene_views = [
        make_views(scene, _derive_seed(config, step, i, 0), config.views)
        for i, scene in enumerate(scenes)
    ]
    terms, total, _, _ = step_objective(state, scene_views, step)
    want_terms, want_total = _reference_objective(state, scene_views, step)
    for key in TERMS:
        assert want_terms[key] > 0.0, key
        assert abs(terms[key] - want_terms[key]) <= RTOL * want_terms[key], (
            key, terms[key], want_terms[key]
        )
    assert abs(total - want_total) <= RTOL * abs(want_total)
