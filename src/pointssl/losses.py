"""Clustering, Laplacian smoothing, and noise consistency losses with
analytic gradients.

Every loss returns (value, gradient) where the gradient is taken with
respect to the student-side input; teacher-side quantities are constants
(stop-gradient).  The losses are averaged over their own support (edges,
points, or pairs) so values are comparable across scene sizes.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.spatial import cKDTree

from .geometry import KnnGraph
from .sinkhorn import _checked_assignments, _checked_logits

PAIRWISE = "pairwise"
HUBER_RESIDUAL = "huber_residual"


def clustering_ce(q, logits, temperature: float = 1.0) -> tuple[float, np.ndarray]:
    """Cross-entropy of student softmax against fixed teacher assignments.

    L = -(1/B) sum_i sum_k q_ik log p_ik with p = softmax(logits / T).
    Returns (L, dL/dlogits) where dL/dlogits = (p - q) / (B * T).

    q (non-negative rows summing to 1) and logits are B x K arrays; both are
    checked but not copied.
    """
    q = _checked_assignments(q)
    logits = _checked_logits(logits, temperature)
    if q.shape != logits.shape:
        raise ValueError(f"shape mismatch: teacher {q.shape} vs student {logits.shape}")
    b = q.shape[0]
    log_p = logits / temperature
    log_p -= log_p.max(axis=1, keepdims=True)
    exp_shifted = np.exp(log_p)
    row_sums = exp_shifted.sum(axis=1, keepdims=True)
    log_p -= np.log(row_sums)
    with np.errstate(invalid="ignore"):
        terms = q * log_p
    loss = -terms.sum() / b
    if np.isnan(loss):
        # Only 0 * -inf makes a NaN here: a q = 0 term where a logit is -inf.
        terms[q == 0.0] = 0.0
        loss = -terms.sum() / b
    grad = exp_shifted
    grad /= row_sums
    grad -= q
    grad /= b * temperature
    return float(loss), grad


def _scatter_rows(
    index: np.ndarray, rows: np.ndarray, n: int, base: np.ndarray | None = None
) -> np.ndarray:
    """(n, d) array of base plus rows[e] added into row index[e], in order of e.

    np.bincount adds each bin's entries left to right starting from 0.0, as
    np.add.at does, so this equals np.add.at(base.copy(), index, rows) bit for
    bit; base enters as n leading entries (only the sign of a zero can differ).
    """
    d = rows.shape[1]
    if base is not None:
        index = np.concatenate([np.arange(n), index])
        rows = np.concatenate([base, rows])
    flat = (index[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=rows.ravel(), minlength=n * d).reshape(n, d)


def _laplacian_pairwise(values: np.ndarray, graph: KnnGraph) -> tuple[float, np.ndarray]:
    src, tgt, w = graph.source, graph.target, graph.weight
    diff = values[src] - values[tgt]
    per_edge = np.einsum("ij,ij->i", diff, diff)
    loss = float((w * per_edge).sum() / len(src))
    scaled = (2.0 / len(src)) * w[:, None] * diff
    grad = _scatter_rows(
        np.concatenate([src, tgt]), np.concatenate([scaled, -scaled]), len(values)
    )
    return loss, grad


def _huber(t: np.ndarray, delta: float) -> np.ndarray:
    quad = 0.5 * t * t
    lin = delta * (t - 0.5 * delta)
    return np.where(t <= delta, quad, lin)


def _laplacian_huber_residual(
    values: np.ndarray, graph: KnnGraph, delta: float
) -> tuple[float, np.ndarray]:
    n = len(values)
    src, tgt, w = graph.source, graph.target, graph.weight

    w_sum = np.bincount(src, weights=w, minlength=n)
    neighbor_mean = _scatter_rows(src, w[:, None] * values[tgt], n)
    connected = w_sum > 0.0
    neighbor_mean[connected] /= w_sum[connected, None]

    residual = np.where(connected[:, None], values - neighbor_mean, 0.0)
    norms = np.linalg.norm(residual, axis=1)
    loss = float(_huber(norms, delta).sum() / n)

    # d huber(|r|)/dr: r in the quadratic regime, delta * r/|r| beyond it.
    scale = np.ones(n)
    beyond = norms > delta
    scale[beyond] = delta / norms[beyond]
    g = scale[:, None] * residual

    a = w / w_sum[src]
    grad = _scatter_rows(tgt, -a[:, None] * g[src], n, base=g)
    return loss, grad / n


def laplacian_loss(
    values: np.ndarray, graph: KnnGraph, form: str = HUBER_RESIDUAL,
    huber_delta: float = 0.5,
) -> tuple[float, np.ndarray]:
    """Graph smoothness penalty on N x D embeddings, in one of two forms.

    pairwise: mean over edges of w_ij * |z_i - z_j|^2.
    huber_residual: mean over points of Huber_delta(|z_i - weighted
    neighbor mean|), quadratic below delta and linear above.

    An empty edge set yields loss 0 (with a warning) and zero gradient.
    """
    if form not in (PAIRWISE, HUBER_RESIDUAL):
        raise ValueError(f"unknown laplacian_form {form!r}")
    if not huber_delta > 0.0:
        raise ValueError("huber_delta must be positive")
    values = np.asarray(values, dtype=np.float64)
    if graph.num_nodes != len(values):
        raise ValueError(f"graph has {graph.num_nodes} nodes but batch has {len(values)} embeddings")
    if graph.num_edges == 0:
        warnings.warn("Laplacian loss on an empty edge set is 0", stacklevel=2)
        return 0.0, np.zeros_like(values)
    if form == PAIRWISE:
        return _laplacian_pairwise(values, graph)
    return _laplacian_huber_residual(values, graph, huber_delta)


def consistency_loss(
    teacher_values: np.ndarray, student_values: np.ndarray, pairs: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean squared embedding discrepancy over matched pairs.

    pairs is an (M, 2) integer array of (student i, teacher j) rows, as
    match_correspondences returns; no student row may appear twice.
    R = (1/M) sum |z_teacher_j - z_student_i|^2.  The teacher side is
    constant; the gradient lands on the student rows:
    2 (z_student_i - z_teacher_j) / M.
    """
    teacher_values = np.asarray(teacher_values, dtype=np.float64)
    student_values = np.asarray(student_values, dtype=np.float64)
    if teacher_values.shape[1] != student_values.shape[1]:
        raise ValueError("teacher and student embedding dimensions differ")
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"pairs must be an (M, 2) array, got shape {pairs.shape}")
    si, tj = pairs.T
    # Ascending rows (match_correspondences' order) are unique when they
    # strictly increase; only other input pays for np.unique.
    if not (si[1:] > si[:-1]).all() and len(np.unique(si)) != len(si):
        raise ValueError("student indices must be unique")
    grad = np.zeros_like(student_values)
    if len(pairs) == 0:
        warnings.warn("consistency loss on an empty pair set is 0", stacklevel=2)
        return 0.0, grad
    diff = student_values[si] - teacher_values[tj]
    loss = float(np.einsum("ij,ij->", diff, diff) / len(pairs))
    grad[si] = (2.0 / len(pairs)) * diff
    return loss, grad


def match_correspondences(
    teacher_positions: np.ndarray,
    student_positions: np.ndarray,
    max_distance: float,
    teacher_ids: np.ndarray,
    student_ids: np.ndarray,
) -> np.ndarray:
    """Teacher match for every student point: its own point first, else the nearest.

    The ids name the points (a view's source_indices into its scene), so rows
    with equal ids lie at the same position.  A student row whose id some
    teacher row holds is paired with the first such teacher row, at distance
    0; every other student row is paired with its nearest teacher point by
    position, and dropped when that is farther than max_distance.  Both
    position arrays must be expressed in the same pre-augmentation frame.

    Returns an (M, 2) int64 array of (student, teacher) index rows, student
    indices ascending.  Each student row is matched on its own, so matching
    several student sets stacked into one array gives each row the pair it
    would get alone.
    """
    teacher_positions = np.asarray(teacher_positions, dtype=np.float64)
    student_positions = np.asarray(student_positions, dtype=np.float64)
    teacher_ids, student_ids = np.asarray(teacher_ids), np.asarray(student_ids)
    if len(teacher_ids) != len(teacher_positions) or len(student_ids) != len(student_positions):
        raise ValueError("every position needs one id")
    if len(teacher_positions) == 0 or len(student_positions) == 0:
        warnings.warn("correspondence matching with an empty view", stacklevel=2)
        return np.empty((0, 2), np.int64)
    ids, first = np.unique(teacher_ids, return_index=True)
    slot = np.minimum(np.searchsorted(ids, student_ids), len(ids) - 1)
    nearest = first[slot]
    keep = (ids[slot] == student_ids) & (max_distance >= 0.0)
    rest = np.flatnonzero(~keep)
    if len(rest):
        # The tree keeps only distances strictly below its bound, and none at
        # all below a subnormal bound, so the bound is inflated (and floored)
        # to keep every pair the filter below keeps; unmatched rows come back
        # with dist = inf.
        bound = max(max_distance * (1.0 + 1e-9), 1e-100)
        dist, nearest[rest] = cKDTree(teacher_positions).query(
            student_positions[rest], k=1, distance_upper_bound=bound
        )
        keep[rest] = dist <= max_distance
    students = np.flatnonzero(keep)
    return np.column_stack((students, nearest[students]))
