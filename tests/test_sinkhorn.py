import numpy as np
import pytest

from pointssl import clustering_ce, sinkhorn_normalize, softmax_rows


def oracle_sinkhorn(values, temperature, iterations):
    """Independently coded alternating scaling, explicit loops."""
    scaled = np.asarray(values, dtype=np.float64) / temperature
    m = np.exp(scaled - scaled.max(axis=1, keepdims=True))
    b, k = m.shape
    col_history = []
    for _ in range(iterations):
        for col in range(k):
            s = m[:, col].sum()
            if s > 0:
                m[:, col] *= (b / k) / s
        col_history.append(m.sum(axis=0).copy())
        for row in range(b):
            m[row] /= m[row].sum()
    return m, col_history


class TestSoftmax:
    def test_uniform(self):
        out = softmax_rows(np.zeros((2, 4)))
        np.testing.assert_allclose(out, 0.25)

    def test_exact_exponentials(self):
        out = softmax_rows(np.array([[np.log(2.0), 0.0]]))
        np.testing.assert_allclose(out, [[2 / 3, 1 / 3]], atol=1e-15)

    def test_extreme_logits_stable(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)
        assert np.isfinite(out).all()

    def test_temperature_sharpens(self):
        logits = np.array([[1.0, 0.3, -0.5, 0.0]])
        soft = softmax_rows(logits, temperature=1.0)
        sharp = softmax_rows(logits, temperature=0.1)
        assert sharp.max() > soft.max()


class TestSinkhorn:
    def test_uniform_fixed_point(self):
        out = sinkhorn_normalize(np.zeros((4, 4)), iterations=3)
        np.testing.assert_allclose(out, 0.25, atol=1e-15)

    def test_single_row_sums_to_one(self):
        # With one sample the uniform prototype marginal forces the uniform
        # row; the row-sum contract still holds exactly.
        out = sinkhorn_normalize(np.array([[3.0, -1.0, 0.5]]), iterations=3)
        assert out.sum() == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(out, 1 / 3, atol=1e-12)

    def test_strong_diagonal_converges_to_identity(self):
        logits = np.array([[10.0, 0.0], [0.0, 10.0]])
        out = sinkhorn_normalize(logits, temperature=1.0, iterations=3)
        converged, _ = oracle_sinkhorn(logits, 1.0, 200)
        np.testing.assert_allclose(out, converged, atol=1e-4)
        np.testing.assert_allclose(out, np.eye(2), atol=1e-4)

    @pytest.mark.parametrize("iterations", [1, 2, 3, 5])
    def test_matches_loop_oracle(self, iterations):
        rng = np.random.default_rng(0)
        values = rng.normal(0, 2, (6, 5))
        out = sinkhorn_normalize(values, 0.5, iterations=iterations)
        expected, _ = oracle_sinkhorn(values, 0.5, iterations)
        np.testing.assert_allclose(out, expected, atol=1e-13)

    def test_column_sums_after_column_step(self):
        rng = np.random.default_rng(1)
        values = rng.normal(0, 1, (8, 8))
        _, col_history = oracle_sinkhorn(values, 1.0, 4)
        for cols in col_history:
            np.testing.assert_allclose(cols, 1.0, atol=1e-6)  # B/K = 1

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            values = rng.normal(0, 3, (rng.integers(1, 20), rng.integers(2, 12)))
            out = sinkhorn_normalize(values, 0.2, iterations=3)
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_long_run_column_convergence(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0, 1, (8, 8))
        out = sinkhorn_normalize(values, iterations=50)
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-8)
        converged, _ = oracle_sinkhorn(values, 1.0, 50)
        np.testing.assert_allclose(out, converged, atol=1e-12)

    def test_row_shift_invariance(self):
        rng = np.random.default_rng(4)
        values = rng.normal(0, 2, (7, 5))
        shifts = rng.normal(0, 10, (7, 1))
        a = sinkhorn_normalize(values, 0.5, iterations=3)
        b = sinkhorn_normalize(values + shifts, 0.5, iterations=3)
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_monotone_sharpening_softmax(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            values = rng.normal(0, 1, (6, 8))
            warm = softmax_rows(values, 0.5)
            cold = softmax_rows(values, 0.1)
            assert (cold.max(axis=1) > warm.max(axis=1)).all()

    def test_monotone_sharpening_sinkhorn_mean(self):
        # The column-balancing constraint can demote an individual row's max
        # when its favorite prototype is oversubscribed, so per-row strict
        # sharpening does not hold for Sinkhorn; the batch mean does.
        rng = np.random.default_rng(5)
        for _ in range(50):
            values = rng.normal(0, 1, (6, 8))
            warm = sinkhorn_normalize(values, 0.5, iterations=3)
            cold = sinkhorn_normalize(values, 0.1, iterations=3)
            assert cold.max(axis=1).mean() > warm.max(axis=1).mean()

    def test_all_neginf_row_rejected(self):
        values = np.array([[0.0, 1.0], [-np.inf, -np.inf]])
        with pytest.raises(ValueError, match="-Inf"):
            sinkhorn_normalize(values, iterations=3)

    def test_rejects_nan_and_posinf(self):
        for normalize in (sinkhorn_normalize, softmax_rows):
            with pytest.raises(ValueError):
                normalize(np.array([[np.nan, 0.0]]))
            with pytest.raises(ValueError):
                normalize(np.array([[np.inf, 0.0]]))

    def test_each_non_finite_case_keeps_its_message(self):
        base = np.zeros((3, 4))
        for normalize in (sinkhorn_normalize, softmax_rows):
            for value, message in ((np.nan, "NaN or \\+Inf"), (np.inf, "NaN or \\+Inf")):
                values = base.copy()
                values[1, 2] = value
                values[2] = -np.inf
                with pytest.raises(ValueError, match=message):
                    normalize(values)
            values = base.copy()
            values[2] = -np.inf
            with pytest.raises(ValueError, match="row of all -Inf"):
                normalize(values)

    def test_partial_neginf_row_accepted(self):
        values = np.array([[0.0, -np.inf, 1.0], [-np.inf, -np.inf, 2.0]])
        assignments = softmax_rows(values)
        np.testing.assert_array_equal(values, [[0.0, -np.inf, 1.0], [-np.inf, -np.inf, 2.0]])
        assert assignments[1, 2] == 1.0 and assignments[0, 1] == 0.0

    def test_assignment_matrix_validation(self):
        with pytest.raises(ValueError):
            clustering_ce(np.array([[0.7, 0.7]]), np.zeros((1, 2)))
        with pytest.raises(ValueError):
            clustering_ce(np.array([[-0.1, 1.1]]), np.zeros((1, 2)))


def _out_of_place_exp(values, temperature):
    """exp(values / T - row max) with a new array per step."""
    scaled = values / temperature
    return np.exp(scaled - scaled.max(axis=1, keepdims=True))


def _out_of_place_sinkhorn(values, temperature, iterations):
    """diag(u) M diag(v) with a new array per step."""
    m = _out_of_place_exp(values, temperature)
    b, k = m.shape
    u = np.ones(b)
    for _ in range(iterations):
        col_mass = u @ m
        with np.errstate(divide="ignore"):
            v = np.where(col_mass > 0.0, (b / k) / col_mass, 0.0)
        u = 1.0 / (m @ v)
    return u[:, None] * m * v


def _alternating_sinkhorn(values, temperature, iterations):
    """The matrix rescaled in place, columns then rows, every iteration."""
    m = _out_of_place_exp(values, temperature)
    b, k = m.shape
    for _ in range(iterations):
        col_sums = m.sum(axis=0, keepdims=True)
        m *= np.divide(b / k, col_sums, out=np.zeros_like(col_sums), where=col_sums > 0.0)
        m /= m.sum(axis=1, keepdims=True)
    return m


def _bitwise_cases():
    rng = np.random.default_rng(6)
    yield rng.normal(0, 1, (7, 5)), 0.5
    yield rng.normal(0, 1, (1031, 64)), 0.04
    partial = rng.normal(0, 3, (257, 16))
    partial[rng.random(partial.shape) < 0.2] = -np.inf
    partial[np.arange(257), rng.integers(0, 16, 257)] = 1.0
    yield partial, 0.1
    # Column 3 underflows to zero mass in every row.
    underflow = rng.normal(0, 1, (120, 8))
    underflow[:, 3] = -1e3
    yield underflow, 0.04


class TestInPlaceExp:
    @pytest.mark.parametrize("case", range(4))
    def test_bit_identical_to_out_of_place(self, case):
        values, temperature = list(_bitwise_cases())[case]
        m = _out_of_place_exp(values, temperature)
        assert np.array_equal(softmax_rows(values, temperature), m / m.sum(axis=1, keepdims=True))
        for iterations in (1, 3):
            assert np.array_equal(
                sinkhorn_normalize(values, temperature, iterations),
                _out_of_place_sinkhorn(values, temperature, iterations),
            )

    @pytest.mark.parametrize("case", range(4))
    @pytest.mark.parametrize("iterations", [1, 3])
    def test_scaling_vectors_match_the_alternating_rescaling(self, case, iterations):
        values, temperature = list(_bitwise_cases())[case]
        got = sinkhorn_normalize(values, temperature, iterations)
        want = _alternating_sinkhorn(values, temperature, iterations)
        np.testing.assert_array_equal(got == 0.0, want == 0.0)
        nonzero = want != 0.0
        assert (np.abs(got - want)[nonzero] <= 1e-13 * want[nonzero]).all()

    def test_underflowed_column_stays_zero(self):
        values, temperature = list(_bitwise_cases())[3]
        out = sinkhorn_normalize(values, temperature, iterations=3)
        assert not out[:, 3].any()
