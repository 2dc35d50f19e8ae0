import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointssl import (
    EncoderParams,
    PointCloud,
    PrototypeHead,
    ema_update,
    encode,
    init_encoder,
    init_prototype_head,
    load_model,
    save_model,
)
from pointssl.gradcheck import _check_encoder, finite_difference, relative_error
from pointssl.model import (
    TeacherState,
    encode_backward,
    encode_features,
    load_checkpoint,
    prototype_logits_backward,
    save_checkpoint,
)
from pointssl.rng import make_rng

SMALL_TENSORS = {"a": np.arange(6, dtype=np.float32).reshape(2, 3), "s": np.float32([2.5])}


def _checkpoint_bytes(tensors) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "small.ckpt"
        save_checkpoint(path, tensors)
        return path.read_bytes()


SMALL_CHECKPOINT = _checkpoint_bytes(SMALL_TENSORS)


def _handmade_checkpoint(entry: dict, payload: bytes) -> bytes:
    header = json.dumps({"tensors": [entry]}).encode()
    return b"LAM3C1" + np.uint32(len(header)).tobytes() + header + payload


def _featured_cloud(rng, n=32):
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(
        positions=rng.uniform(0, 1, (n, 3)),
        colors=rng.uniform(0, 1, (n, 3)),
        normals=normals,
    )


class TestEncode:
    def test_zero_parameters_give_constant_basis_vector(self):
        params = EncoderParams(
            weights=[np.zeros((9, 4)), np.zeros((4, 3))],
            biases=[np.zeros(4), np.zeros(3)],
            mask_token=np.zeros(9),
        )
        cloud = _featured_cloud(np.random.default_rng(0), n=10)
        out = encode(params, cloud)
        np.testing.assert_array_equal(out, np.tile([1.0, 0.0, 0.0], (10, 1)))

    def test_distinct_inputs_distinct_embeddings(self):
        params = init_encoder((16,), 8, seed=1)
        cloud = _featured_cloud(np.random.default_rng(1), n=5)
        out = encode(params, cloud)
        for i in range(5):
            for j in range(i + 1, 5):
                assert not np.allclose(out[i], out[j])

    def test_unit_norm_rows(self):
        params = init_encoder(seed=2)
        cloud = _featured_cloud(np.random.default_rng(2), n=50)
        out = encode(params, cloud)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_permutation_equivariance(self):
        params = init_encoder(seed=3)
        rng = np.random.default_rng(3)
        cloud = _featured_cloud(rng, n=40)
        perm = rng.permutation(40)
        permuted = PointCloud(
            positions=cloud.positions[perm],
            colors=cloud.colors[perm],
            normals=cloud.normals[perm],
        )
        a = encode(params, cloud)
        b = encode(params, permuted)
        np.testing.assert_array_equal(a[perm], b)

    def test_missing_features_warn(self):
        params = init_encoder(seed=4)
        cloud = PointCloud(positions=np.random.default_rng(4).uniform(0, 1, (12, 3)))
        with pytest.warns(UserWarning, match="substituting zeros"):
            out = encode(params, cloud)
        assert out.shape == (12, 32)

    def test_nan_parameters_rejected(self):
        params = init_encoder(seed=5)
        params.weights[0][0, 0] = np.nan
        cloud = _featured_cloud(np.random.default_rng(5), n=4)
        with pytest.raises(ValueError, match="non-finite"):
            encode(params, cloud)

    def test_mask_token_substitution(self):
        params = init_encoder(seed=6)
        rng = np.random.default_rng(6)
        features = rng.normal(0, 1, (8, 9))
        mask = np.zeros(8, bool)
        mask[:4] = True
        cache = encode_features(params, features, mask)
        # all masked rows collapse to the same embedding (same token input)
        for i in range(1, 4):
            np.testing.assert_array_equal(cache.embeddings[0], cache.embeddings[i])
        assert not np.allclose(cache.embeddings[0], cache.embeddings[5])

    def test_parameter_gradients_match_finite_differences(self):
        rng = make_rng(7)
        for _ in range(3):
            assert _check_encoder(rng) < 1e-4



def _reference_backward(params, features, mask, grad_embeddings):
    """Forward and backward that recompute sigmoid(a) from scratch per layer."""
    f = np.array(features, dtype=np.float64)
    if mask is not None:
        f[mask] = params.mask_token
    inputs, preacts, h = [f], [], f
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        a = h @ w + b
        preacts.append(a)
        h = a * (1.0 / (1.0 + np.exp(-a)))
        inputs.append(h)
    raw = h @ params.weights[-1] + params.biases[-1]
    norms = np.linalg.norm(raw, axis=1)
    floored = norms < 1e-8
    safe = np.where(floored, 1.0, norms)
    z = raw / safe[:, None]
    z[floored] = 0.0
    z[floored, 0] = 1.0
    g = grad_embeddings
    upstream = (g - z * np.einsum("ij,ij->i", z, g)[:, None]) / safe[:, None]
    upstream[floored] = 0.0
    weights, biases = [None] * len(params.weights), [None] * len(params.weights)
    for i in range(len(params.weights) - 1, -1, -1):
        if i < len(preacts):
            sig = 1.0 / (1.0 + np.exp(-preacts[i]))
            upstream = upstream * (sig * (1.0 + preacts[i] * (1.0 - sig)))
        weights[i] = inputs[i].T @ upstream
        biases[i] = upstream.sum(axis=0)
        upstream = upstream @ params.weights[i].T
    token = upstream[mask].sum(axis=0) if mask is not None and mask.any() else None
    return z, weights, biases, token


@pytest.mark.parametrize("hidden", [(), (16,), (32, 32)])
@pytest.mark.parametrize("masked", [False, True])
def test_encode_backward_bit_identical_to_recomputed_silu(hidden, masked):
    rng = np.random.default_rng(len(hidden) + 10 * masked)
    params = init_encoder(hidden, 8, seed=len(hidden))
    features = rng.normal(0, 2, (50, 9))
    # Unmasked: no mask, and a mask without masked rows.
    masks = [rng.random(50) < 0.3] if masked else [None, np.zeros(50, dtype=bool)]
    grad_embeddings = rng.normal(0, 1, (50, 8))
    for mask in masks:
        cache = encode_features(params, features, mask)
        grads = encode_backward(params, cache, grad_embeddings)
        z, weights, biases, token = _reference_backward(params, features, mask, grad_embeddings)
        assert np.array_equal(cache.embeddings, z)
        for got, want in zip(grads.weights + grads.biases, weights + biases):
            assert np.array_equal(got, want)
        if masked:
            assert np.array_equal(grads.mask_token, token)
        else:
            assert not grads.mask_token.any()


class TestPrototypeHead:
    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        head = init_prototype_head(embed_dim=6, num_prototypes=9, seed=2)
        emb = rng.normal(0, 1, (7, 6))
        downstream = rng.normal(0, 1, (7, 9))
        g_emb, g_proj = prototype_logits_backward(head, emb, downstream)

        numeric_emb = finite_difference(lambda x: float((x @ head.projection * downstream).sum()), emb)
        assert relative_error(g_emb, numeric_emb) < 1e-6

        proj = head.projection.copy()
        numeric_proj = finite_difference(lambda p: float((emb @ p * downstream).sum()), proj)
        assert relative_error(g_proj, numeric_proj) < 1e-6

    def test_columns_stay_unit_norm(self):
        rng = np.random.default_rng(3)
        head = init_prototype_head(embed_dim=8, num_prototypes=12, seed=3)
        for _ in range(20):
            head.projection += rng.normal(0, 0.5, head.projection.shape)
            head.normalize_columns()
            np.testing.assert_allclose(
                np.linalg.norm(head.projection, axis=0), 1.0, atol=1e-6
            )


class TestEma:
    @staticmethod
    def _pair(seed=0):
        params = init_encoder((8,), 4, seed=seed)
        head = init_prototype_head(4, 6, seed=seed)
        teacher = TeacherState(params, head)
        student = init_encoder((8,), 4, seed=seed + 100)
        student_head = init_prototype_head(4, 6, seed=seed + 100)
        return teacher, student, student_head

    def test_momentum_one_keeps_teacher(self):
        teacher, student, student_head = self._pair()
        updated = ema_update(teacher, student, student_head, momentum=1.0)
        for a, b in zip(updated.params.weights, teacher.params.weights):
            np.testing.assert_array_equal(a, b)

    def test_momentum_zero_copies_student(self):
        teacher, student, student_head = self._pair()
        updated = ema_update(teacher, student, student_head, momentum=0.0)
        for a, b in zip(updated.params.weights, student.weights):
            np.testing.assert_array_equal(a, b)
        # head only equal up to column re-normalization
        expected = student_head.projection / np.linalg.norm(
            student_head.projection, axis=0, keepdims=True
        )
        np.testing.assert_allclose(updated.head.projection, expected, atol=1e-12)

    def test_midpoint(self):
        teacher, student, student_head = self._pair()
        for w in teacher.params.weights:
            w[...] = 0.0
        for w in student.weights:
            w[...] = 2.0
        updated = ema_update(teacher, student, student_head, momentum=0.5)
        np.testing.assert_array_equal(updated.params.weights[0], 1.0)

    def test_contraction_on_encoder_tensors(self):
        teacher, student, student_head = self._pair(seed=5)
        m = 0.7
        updated = ema_update(teacher, student, student_head, momentum=m)
        for t_new, t_old, s in zip(
            updated.params.weights, teacher.params.weights, student.weights
        ):
            np.testing.assert_allclose(t_new - s, m * (t_old - s), atol=1e-12)

    def test_shape_mismatch_rejected(self):
        teacher, _, student_head = self._pair()
        other = init_encoder((16,), 4, seed=9)
        with pytest.raises(ValueError, match="shapes differ"):
            ema_update(teacher, other, student_head, momentum=0.5)

    def test_momentum_range(self):
        teacher, student, student_head = self._pair()
        with pytest.raises(ValueError):
            ema_update(teacher, student, student_head, momentum=1.5)
        with pytest.raises(ValueError):
            TeacherState(teacher.params, teacher.head, momentum=-0.1)


class TestCheckpoint:
    def test_tensor_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "a.weight": rng.normal(0, 1, (4, 5)).astype(np.float32),
            "b.bias": rng.normal(0, 1, 7).astype(np.float32),
            "scalar": np.float32(3.25),
        }
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, tensors)
        assert path.read_bytes()[:6] == b"LAM3C1"
        loaded = load_checkpoint(path)
        for name, value in tensors.items():
            np.testing.assert_array_equal(loaded[name], np.asarray(value, "<f4"))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTCKPT" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "cut.ckpt"
        path.write_bytes(SMALL_CHECKPOINT[:-3])
        with pytest.raises(ValueError, match="runs past the 25-byte payload"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [6, 7, 9])
    def test_cut_inside_header_length_rejected(self, tmp_path, cut):
        path = tmp_path / "cut.ckpt"
        path.write_bytes(SMALL_CHECKPOINT[:cut])
        with pytest.raises(ValueError, match="inside its 4-byte header length"):
            load_checkpoint(path)

    def test_cut_inside_header_rejected(self, tmp_path):
        path = tmp_path / "cut.ckpt"
        path.write_bytes(SMALL_CHECKPOINT[:20])
        with pytest.raises(ValueError, match="cut short inside its .*-byte header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("entry", [
        {"name": "a", "shape": [2, 3], "offset": 4},
        {"name": "a", "shape": [2, 4], "offset": 0},
        {"name": "a", "shape": [2, 3], "offset": 10**12},
    ])
    def test_entry_running_past_the_payload_rejected(self, tmp_path, entry):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(_handmade_checkpoint(entry, np.zeros(6, "<f4").tobytes()))
        with pytest.raises(ValueError, match="'a' .* runs past the 24-byte payload"):
            load_checkpoint(path)

    @pytest.mark.parametrize("entry", [
        {"name": "a", "shape": [2, -3], "offset": 0},
        {"name": "a", "shape": [2, 3], "offset": -4},
        {"name": "a", "shape": [2.0, 3], "offset": 0},
        {"name": "a", "shape": 6, "offset": 0},
        {"name": "a", "shape": [6]},
    ])
    def test_malformed_entry_rejected(self, tmp_path, entry):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(_handmade_checkpoint(entry, np.zeros(6, "<f4").tobytes()))
        with pytest.raises(ValueError, match="malformed checkpoint"):
            load_checkpoint(path)

    @settings(max_examples=200, deadline=None)
    @given(cut=st.integers(0, len(SMALL_CHECKPOINT)))
    def test_checkpoint_cut_anywhere_loads_whole_or_raises(self, tmp_path_factory, cut):
        path = tmp_path_factory.getbasetemp() / "fuzz_cut.ckpt"
        path.write_bytes(SMALL_CHECKPOINT[:cut])
        if cut < len(SMALL_CHECKPOINT):
            with pytest.raises(ValueError, match="checkpoint"):
                load_checkpoint(path)
        else:
            loaded = load_checkpoint(path)
            assert all(np.array_equal(loaded[k], v) for k, v in SMALL_TENSORS.items())

    @settings(max_examples=200, deadline=None)
    @given(position=st.integers(0, len(SMALL_CHECKPOINT) - 1), value=st.integers(0, 255))
    def test_checkpoint_with_a_changed_byte_loads_or_raises(self, tmp_path_factory, position, value):
        blob = bytearray(SMALL_CHECKPOINT)
        blob[position] = value
        path = tmp_path_factory.getbasetemp() / "fuzz_byte.ckpt"
        path.write_bytes(bytes(blob))
        try:
            loaded = load_checkpoint(path)
        except ValueError as exc:
            assert "checkpoint" in str(exc)
        else:
            assert all(v.dtype == np.float32 for v in loaded.values())

    def test_model_roundtrip_reproduces_embeddings_bitwise(self, tmp_path):
        params = init_encoder(seed=11)
        head = init_prototype_head(seed=11)
        teacher = TeacherState(params, head)
        first = tmp_path / "m1.ckpt"
        second = tmp_path / "m2.ckpt"
        save_model(first, params, head, teacher)
        p1, h1, t1 = load_model(first)
        save_model(second, p1, h1, t1)
        assert first.read_bytes() == second.read_bytes()

        cloud = _featured_cloud(np.random.default_rng(12), n=64)
        p2, h2, _ = load_model(second)
        np.testing.assert_array_equal(encode(p1, cloud), encode(p2, cloud))
        # float32 storage stays close to the original float64 model
        np.testing.assert_allclose(
            encode(p1, cloud), encode(params, cloud), atol=1e-5
        )

    @pytest.mark.parametrize("missing", [
        "student.head.projection",
        "student.layer1.bias",
        "student.mask_token",
        "teacher.mask_token",
    ])
    def test_model_missing_a_tensor_names_it(self, tmp_path, missing):
        params = init_encoder(hidden=(8, 8), output_dim=4, seed=3)
        head = init_prototype_head(4, 5, seed=3)
        path = tmp_path / "full.ckpt"
        save_model(path, params, head, TeacherState(params, head))
        tensors = load_checkpoint(path)
        del tensors[missing]
        save_checkpoint(path, tensors)
        with pytest.raises(ValueError, match=f"checkpoint has no tensor '{missing}'"):
            load_model(path)
