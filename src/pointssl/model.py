"""Desk-scale point-wise encoder, prototype head, and EMA teacher.

The encoder is a per-point MLP over 9-D features (xyz + rgb + normal) with a
sigmoid-gated (SiLU) nonlinearity and L2-normalized output embeddings, so
prototype logits are cosine similarities.  Forward and backward passes are
written out explicitly; gradients are verified against finite differences in
the test suite.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import PointCloud
from .rng import make_rng

CHECKPOINT_MAGIC = b"LAM3C1"
NORM_EPS = 1e-8


@dataclass
class EncoderParams:
    """Weights, biases, and the learned mask token of the point-wise MLP."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    mask_token: np.ndarray
    # The vector the tensors view, when flat_views made them.
    flat: np.ndarray | None = field(default=None, repr=False, compare=False)

    def tensors(self) -> dict[str, np.ndarray]:
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"layer{i}.weight"] = w
            out[f"layer{i}.bias"] = b
        out["mask_token"] = self.mask_token
        return out

    def check_finite(self) -> None:
        """Raise ValueError naming the first tensor with a NaN or infinity."""
        for name, t in self.tensors().items():
            if not np.isfinite(t).all():
                raise ValueError(f"non-finite encoder parameter {name!r}")


@dataclass
class PrototypeHead:
    """Linear projection onto K unit-norm prototype columns."""

    projection: np.ndarray

    def normalize_columns(self) -> None:
        norms = np.linalg.norm(self.projection, axis=0, keepdims=True)
        self.projection /= np.maximum(norms, NORM_EPS)


def _flat_order(params: EncoderParams, head: PrototypeHead | None) -> list[np.ndarray]:
    return [*params.biases, params.mask_token, *params.weights, *([head.projection] if head else [])]


def decayed_start(params: EncoderParams) -> int:
    """Where a flat_views vector's weight-decayed tail, the weights and projection, starts."""
    return sum(b.size for b in params.biases) + params.mask_token.size


def flat_views(
    params: EncoderParams, head: PrototypeHead | None = None, flat: np.ndarray | None = None
) -> tuple[np.ndarray, EncoderParams, PrototypeHead | None]:
    """(flat, params, head) as one vector and tensors that view slices of it.

    The vector holds every bias, the mask token, every weight matrix, then the
    head's projection, so the weight-decayed tensors are one tail; the encoder's
    part is the returned params' flat.  With no flat given, the vector is a
    float64 copy of params and head.
    """
    tensors = _flat_order(params, head)
    if flat is None:
        flat = np.concatenate([t.ravel() for t in tensors], dtype=np.float64)
    views, end = [], 0
    for t in tensors:
        views.append(flat[end:end + t.size].reshape(t.shape))
        end += t.size
    n = len(params.weights)
    encoder = flat[:end - head.projection.size] if head else flat[:end]
    return (flat, EncoderParams(views[n + 1:2 * n + 1], views[:n], views[n], encoder),
            PrototypeHead(views[-1]) if head else None)


@dataclass
class TeacherState:
    """EMA mirror of the student: params and head copied into one vector, flat, and viewed."""

    params: EncoderParams
    head: PrototypeHead
    momentum: float = 0.996
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError("momentum must lie in [0, 1]")
        self.flat, self.params, self.head = flat_views(self.params, self.head)


def init_encoder(
    input_dim: int = 9,
    hidden: tuple[int, ...] = (64, 64),
    output_dim: int = 32,
    seed: int = 0,
) -> EncoderParams:
    """He-initialized MLP parameters with a zero mask token."""
    rng = make_rng(seed, 0xE)
    dims = (input_dim, *hidden, output_dim)
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d_in, d_out)))
        biases.append(np.zeros(d_out))
    # A zero token would put every masked row at the normalization floor,
    # where the gradient blows up by 1/|raw|; start it at a generic point.
    mask_token = rng.normal(0.0, 0.5, size=input_dim)
    return EncoderParams(weights, biases, mask_token)


def init_prototype_head(embed_dim: int = 32, num_prototypes: int = 64, seed: int = 0) -> PrototypeHead:
    rng = make_rng(seed, 0xF)
    head = PrototypeHead(rng.normal(0.0, 1.0, size=(embed_dim, num_prototypes)))
    head.normalize_columns()
    return head


def point_features(
    positions: np.ndarray, colors: np.ndarray | None, normals: np.ndarray | None
) -> np.ndarray:
    """The encoder's (N, 9) rows: xyz, rgb, normal, with zeros for None colors or normals."""
    features = np.zeros((len(positions), 9))
    features[:, :3] = positions
    if colors is not None:
        features[:, 3:6] = colors
    if normals is not None:
        features[:, 6:] = normals
    return features


@dataclass
class EncodeCache:
    """Forward values the backward pass needs.

    Per hidden layer it keeps the preactivation a and its sigmoid; the SiLU
    output a * sigmoid(a) is recomputed in backward, so the cache holds two
    arrays per layer.
    """

    features: np.ndarray
    preactivations: list[np.ndarray]
    sigmoids: list[np.ndarray]
    safe_norms: np.ndarray
    floored: np.ndarray
    embeddings: np.ndarray
    mask: np.ndarray | None


def encode_features(
    params: EncoderParams, features: np.ndarray, mask: np.ndarray | None = None
) -> EncodeCache:
    """Forward pass over raw feature rows, keeping the backward cache.

    Masked rows (mask=True) have their features replaced by the learned mask
    token before the first layer.  Output rows are L2-normalized; rows whose
    raw norm falls below 1e-8 emit the first basis vector instead.  Callers
    check the parameters first, once per batch (EncoderParams.check_finite).
    """
    f = np.asarray(features, dtype=np.float64)
    if mask is not None:
        f = f.copy()
        f[mask] = params.mask_token

    h = f
    preacts, sigs = [], []
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        a = h @ w + b
        # sigmoid(a) = 1 / (1 + exp(-a)), computed in place.
        sig = np.negative(a)
        np.exp(sig, out=sig)
        sig += 1.0
        np.reciprocal(sig, out=sig)
        preacts.append(a)
        sigs.append(sig)
        h = a * sig
    raw = h @ params.weights[-1] + params.biases[-1]

    norms = np.linalg.norm(raw, axis=1)
    floored = norms < NORM_EPS
    safe = np.where(floored, 1.0, norms)
    z = raw / safe[:, None]
    if floored.any():
        z[floored] = 0.0
        z[floored, 0] = 1.0
    return EncodeCache(f, preacts, sigs, safe, floored, z, mask)


def encode(params: EncoderParams, cloud: PointCloud) -> np.ndarray:
    """(N, D) embeddings of a cloud; deterministic, unit-norm rows.

    Missing colors or normals are zero-filled with a warning.
    """
    params.check_finite()
    missing = [name for name in ("colors", "normals") if getattr(cloud, name) is None]
    if missing:
        warnings.warn(f"substituting zeros for missing {' and '.join(missing)}", stacklevel=2)
    features = point_features(cloud.positions, cloud.colors, cloud.normals)
    return encode_features(params, features).embeddings


def encode_backward(
    params: EncoderParams, cache: EncodeCache, grad_embeddings: np.ndarray
) -> EncoderParams:
    """Backpropagate d(loss)/d(embeddings) to all encoder parameters."""
    z, safe = cache.embeddings, cache.safe_norms
    g = np.asarray(grad_embeddings, dtype=np.float64)
    # Through row normalization: (g - z (z . g)) / |raw|; floored rows are constant.
    inner = np.einsum("ij,ij->i", z, g)
    g_raw = (g - z * inner[:, None]) / safe[:, None]
    g_raw[cache.floored] = 0.0

    size = sum(t.size for t in params.tensors().values())
    _, grads, _ = flat_views(params, flat=np.zeros(size))
    upstream = g_raw
    last = len(params.weights) - 1
    # The gradient of the layer-0 input is needed only for the mask token.
    masked = cache.mask is not None and cache.mask.any()
    for i in range(last, -1, -1):
        if i < last:
            a, sig = cache.preactivations[i], cache.sigmoids[i]
            # SiLU'(a) = sigmoid(a) * (1 + a * (1 - sigmoid(a))).
            upstream = upstream * (sig * (1.0 + a * (1.0 - sig)))
        h_prev = cache.preactivations[i - 1] * cache.sigmoids[i - 1] if i > 0 else cache.features
        grads.weights[i][...] = h_prev.T @ upstream
        grads.biases[i][...] = upstream.sum(axis=0)
        if i > 0 or masked:
            upstream = upstream @ params.weights[i].T

    if masked:
        grads.mask_token[...] = upstream[cache.mask].sum(axis=0)
    return grads


def prototype_logits_backward(
    head: PrototypeHead, embedding_values: np.ndarray, grad_logits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Returns (grad wrt embeddings, grad wrt projection)."""
    return grad_logits @ head.projection.T, embedding_values.T @ grad_logits


def ema_update(
    teacher: TeacherState,
    student_params: EncoderParams,
    student_head: PrototypeHead,
    momentum: float,
) -> TeacherState:
    """A new teacher, momentum * teacher + (1 - momentum) * student; teacher is not changed.

    Prototype columns are re-normalized after the update.
    """
    student = _flat_order(student_params, student_head)
    if [t.shape for t in student] != [t.shape for t in _flat_order(teacher.params, teacher.head)]:
        raise ValueError("teacher and student parameter shapes differ")
    new = TeacherState(teacher.params, teacher.head, momentum)
    new.flat *= momentum
    new.flat += (1.0 - momentum) * np.concatenate([t.ravel() for t in student])
    new.head.normalize_columns()
    return new


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    """Flat binary container of named float32 tensors with a JSON header."""
    entries = []
    payload = bytearray()
    for name in sorted(tensors):
        data = np.ascontiguousarray(tensors[name], dtype="<f4")
        entries.append({"name": name, "shape": list(data.shape), "offset": len(payload)})
        payload += data.tobytes()
    header = json.dumps({"tensors": entries}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as stream:
        stream.write(CHECKPOINT_MAGIC)
        stream.write(np.uint32(len(header)).tobytes())
        stream.write(header)
        stream.write(bytes(payload))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """The named float32 tensors of a save_checkpoint file.

    A file that is not a checkpoint, is cut short, or whose header entries do
    not fit its payload raises a ValueError that names the problem.
    """
    with open(path, "rb") as stream:
        blob = stream.read()
    start = len(CHECKPOINT_MAGIC) + 4
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise ValueError(f"bad checkpoint magic {blob[: len(CHECKPOINT_MAGIC)]!r}")
    if len(blob) < start:
        raise ValueError("checkpoint cut short inside its 4-byte header length")
    end = start + int.from_bytes(blob[start - 4 : start], "little")
    if len(blob) < end:
        raise ValueError(f"checkpoint cut short inside its {end - start}-byte header")
    try:
        entries = [(e["name"], tuple(e["shape"]), e["offset"])
                   for e in json.loads(blob[start:end])["tensors"]]
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"malformed checkpoint header: {exc!r}") from None
    payload = memoryview(blob)[end:]
    out = {}
    for name, shape, offset in entries:
        if not (isinstance(name, str) and all(type(v) is int and v >= 0 for v in (offset, *shape))):
            raise ValueError(f"malformed checkpoint entry {name!r}: shape {shape}, offset {offset}")
        count = math.prod(shape)
        if offset + 4 * count > len(payload):
            raise ValueError(f"checkpoint tensor {name!r} (shape {shape}, offset {offset}) runs past "
                             f"the {len(payload)}-byte payload: truncated file or wrong header")
        out[name] = np.frombuffer(payload, "<f4", count, offset).reshape(shape).copy()
    return out


def _tensor(tensors: dict[str, np.ndarray], name: str) -> np.ndarray:
    if name not in tensors:
        raise ValueError(f"checkpoint has no tensor {name!r}")
    return tensors[name].astype(np.float64)


def _params_from_tensors(tensors: dict[str, np.ndarray], prefix: str) -> EncoderParams:
    weights, biases = [], []
    i = 0
    while f"{prefix}layer{i}.weight" in tensors:
        weights.append(_tensor(tensors, f"{prefix}layer{i}.weight"))
        biases.append(_tensor(tensors, f"{prefix}layer{i}.bias"))
        i += 1
    if not weights:
        raise ValueError(f"checkpoint has no encoder layers under prefix {prefix!r}")
    return EncoderParams(weights, biases, _tensor(tensors, f"{prefix}mask_token"))


def save_model(
    path,
    params: EncoderParams,
    head: PrototypeHead,
    teacher: TeacherState | None = None,
) -> None:
    tensors = {f"student.{k}": v for k, v in params.tensors().items()}
    tensors["student.head.projection"] = head.projection
    if teacher is not None:
        tensors.update({f"teacher.{k}": v for k, v in teacher.params.tensors().items()})
        tensors["teacher.head.projection"] = teacher.head.projection
        tensors["teacher.momentum"] = np.array(teacher.momentum)
    save_checkpoint(path, tensors)


def load_model(path) -> tuple[EncoderParams, PrototypeHead, TeacherState | None]:
    tensors = load_checkpoint(path)
    params = _params_from_tensors(tensors, "student.")
    head = PrototypeHead(_tensor(tensors, "student.head.projection"))
    teacher = None
    if "teacher.head.projection" in tensors:
        momentum = np.asarray(tensors.get("teacher.momentum", 0.996)).reshape(-1)
        teacher = TeacherState(
            _params_from_tensors(tensors, "teacher."),
            PrototypeHead(_tensor(tensors, "teacher.head.projection")),
            float(momentum[0]),
        )
    return params, head, teacher
