"""Row softmax and Sinkhorn-Knopp normalization over prototype logits.

The teacher's soft assignments come from alternating column/row rescaling of
exp(logits / temperature): columns (prototypes) are pushed toward a uniform
marginal of B/K, rows (points) toward 1.  The rescaling is carried as one
scale per row and one per column (Cuturi, NeurIPS 2013), so an iteration is
two matrix-vector products and the B x K matrix is scaled once, at the end.
The student side is a plain temperature softmax.  All reductions run in
float64.
"""

from __future__ import annotations

import numpy as np

ROW_SUM_TOL = 1e-6


def _checked_logits(values, temperature: float) -> np.ndarray:
    """values as float64 B x K logits (K >= 2) at a positive temperature, or ValueError."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {v.shape}")
    if v.shape[1] < 2:
        raise ValueError("need at least 2 prototypes")
    # One pass covers the common all-finite case; only a matrix holding a
    # NaN or an infinity runs the checks that tell which error to raise.
    if not np.isfinite(v).all():
        if np.isnan(v).any() or np.isposinf(v).any():
            raise ValueError("logits must not contain NaN or +Inf")
        if np.isneginf(v).all(axis=1).any():
            raise ValueError("a row of all -Inf cannot be assigned")
    if not temperature > 0.0:
        raise ValueError("temperature must be positive")
    return v


def _checked_assignments(values) -> np.ndarray:
    """values as float64 B x K non-negative rows summing to 1, or ValueError."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError(f"assignments must be 2-D, got shape {v.shape}")
    if v.size and v.min() < 0.0:
        raise ValueError("assignments must be non-negative")
    if v.size and np.abs(v.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
        raise ValueError("assignment rows must sum to 1 within 1e-6")
    return v


def _stabilized_exp(logits, temperature: float) -> np.ndarray:
    # exp(logits / T - row max) of checked logits, built in one new array: a
    # batch's pooled teacher logits take about 11 MB for four 4,000-point rooms.
    m = np.divide(_checked_logits(logits, temperature), temperature)
    m -= m.max(axis=1, keepdims=True)
    return np.exp(m, out=m)


def softmax_rows(logits, temperature: float = 1.0) -> np.ndarray:
    """B x K row-wise softmax of logits / temperature, stabilized by the row max."""
    m = _stabilized_exp(logits, temperature)
    return m / m.sum(axis=1, keepdims=True)


def sinkhorn_normalize(logits, temperature: float = 1.0, iterations: int = 3) -> np.ndarray:
    """B x K entropy-regularized soft assignment, diag(u) M diag(v).

    M is exp(logits / temperature - row max).  Each iteration first sets the
    column scales v so that every column sums to B/K (the uniform prototype
    marginal), v = (B/K) / (u^T M), then the row scales u so that every row
    sums to 1, u = 1 / (M v): the alternating column/row rescaling of M,
    carried as two vectors.  The product is formed once, after the last row
    step, so the rows sum to 1 within rounding.  Columns whose mass
    underflowed to zero are left at zero.
    """
    m = _stabilized_exp(logits, temperature)
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    b, k = m.shape
    column_target = b / k
    u = np.ones(b)
    for _ in range(iterations):
        col_mass = u @ m
        v = np.divide(column_target, col_mass, out=np.zeros(k), where=col_mass > 0.0)
        u = 1.0 / (m @ v)
    m *= u[:, None]
    m *= v
    return m
