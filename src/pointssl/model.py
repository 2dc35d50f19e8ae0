"""Desk-scale point-wise encoder and prototype head, as one Network type.

The encoder is a per-point MLP over 9-D features (xyz + rgb + normal) with a
sigmoid-gated (SiLU) nonlinearity and L2-normalized output embeddings, so
prototype logits are cosine similarities.  A Network holds the encoder and
its prototype head as views of one float64 vector, and serves as the
student, the EMA teacher and each gradient.  Forward and backward passes are
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
POINT_FEATURES = 9  # the columns of point_features: xyz, rgb, normal


class Network:
    """The encoder's weights, biases and mask token and the head's projection,
    as views of one float64 vector.

    flat holds every bias, the mask token, every weight matrix, then the
    projection onto the K prototype columns, whose shapes are shapes in that
    order; the weight-decayed tensors, the weights and the projection, are
    its tail from decayed on.  The student, the EMA teacher, each gradient
    and Adam's moments share one layout; like(flat) views another vector of
    it.
    """

    def __init__(self, flat: np.ndarray, shapes: tuple[tuple[int, ...], ...]):
        self.flat, self.shapes = flat, shapes
        views, end = [], 0
        for shape in shapes:
            views.append(flat[end:end + math.prod(shape)].reshape(shape))
            end += math.prod(shape)
        if end != flat.size:
            raise ValueError(f"a layout of {end} values cannot view a vector of {flat.size}")
        n = len(shapes) // 2 - 1
        self.biases, self.mask_token = views[:n], views[n]
        self.weights, self.projection = views[n + 1:-1], views[-1]
        self.decayed = sum(b.size for b in self.biases) + self.mask_token.size

    @classmethod
    def of(cls, weights, biases, mask_token, projection) -> Network:
        """A network of float64 copies of the given tensors.

        Raises ValueError naming the first tensor, in tensors() order, that
        does not chain: layer i's weight takes the previous width (layer0's,
        the 9 point_features columns) and its bias has its own, the mask
        token has 9 values and the projection takes the last width.
        """
        tensors = [*biases, mask_token, *weights, projection]
        network = cls(np.concatenate([np.ravel(t) for t in tensors], dtype=np.float64),
                      tuple(np.shape(t) for t in tensors))
        width = POINT_FEATURES
        for name, t in network.tensors().items():
            cols = t.shape[-1] if t.ndim else -1
            need = ((POINT_FEATURES,) if name == "mask_token"
                    else (width,) if name.endswith("bias") else (width, cols))
            if t.shape != need:
                raise ValueError(f"{name} has shape {t.shape}, where the layout needs {need}")
            width = cols if name.endswith("weight") else width
        return network

    def like(self, flat: np.ndarray) -> Network:
        """A network of this layout whose tensors view flat."""
        return Network(flat, self.shapes)

    def tensors(self) -> dict[str, np.ndarray]:
        """By checkpoint name: each layer's weight and bias, the mask token, the projection."""
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"layer{i}.weight"] = w
            out[f"layer{i}.bias"] = b
        out["mask_token"] = self.mask_token
        out["head.projection"] = self.projection
        return out

    def check_finite(self) -> None:
        """Raise ValueError naming the first tensor with a NaN or infinity."""
        if not np.isfinite(self.flat).all():
            name = next(name for name, t in self.tensors().items() if not np.isfinite(t).all())
            raise ValueError(f"non-finite network parameter {name!r}")

    def normalize_columns(self) -> None:
        """Scale each prototype column to unit norm, in place."""
        norms = np.linalg.norm(self.projection, axis=0, keepdims=True)
        self.projection /= np.maximum(norms, NORM_EPS)


def init_network(
    hidden: tuple[int, ...] = (64, 64),
    output_dim: int = 32,
    num_prototypes: int = 64,
    seed: int = 0,
) -> Network:
    """He-initialized MLP over the 9 point_features columns, with a random mask
    token, and num_prototypes unit-norm prototype columns.

    The encoder draws from stream (seed, 0xE), the head from (seed, 0xF).
    """
    rng = make_rng(seed, 0xE)
    dims = (POINT_FEATURES, *hidden, output_dim)
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d_in, d_out)))
        biases.append(np.zeros(d_out))
    # A zero token would put every masked row at the normalization floor,
    # where the gradient blows up by 1/|raw|; start it at a generic point.
    mask_token = rng.normal(0.0, 0.5, size=POINT_FEATURES)
    projection = make_rng(seed, 0xF).normal(0.0, 1.0, size=(output_dim, num_prototypes))
    network = Network.of(weights, biases, mask_token, projection)
    network.normalize_columns()
    return network


def point_features(
    positions: np.ndarray, colors: np.ndarray | None, normals: np.ndarray | None
) -> np.ndarray:
    """The encoder's (N, 9) rows: xyz, rgb, normal, with zeros for None colors or normals."""
    features = np.zeros((len(positions), POINT_FEATURES))
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
    params: Network, features: np.ndarray, mask: np.ndarray | None = None
) -> EncodeCache:
    """Forward pass over raw feature rows, keeping the backward cache.

    Masked rows (mask=True) have their features replaced by the learned mask
    token before the first layer.  Output rows are L2-normalized; rows whose
    raw norm falls below 1e-8 emit the first basis vector instead.  Callers
    check the parameters first, once per batch (Network.check_finite).
    """
    f = np.asarray(features, dtype=np.float64)
    if mask is not None:
        f = f.copy()
        f[mask] = params.mask_token

    h = f
    preacts, sigs = [], []
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        a = h @ w
        a += b
        # sigmoid(a) = 1 / (1 + exp(-a)), computed in place.
        sig = np.negative(a)
        np.exp(sig, out=sig)
        sig += 1.0
        np.reciprocal(sig, out=sig)
        preacts.append(a)
        sigs.append(sig)
        h = a * sig
    raw = h @ params.weights[-1]
    raw += params.biases[-1]

    norms = np.linalg.norm(raw, axis=1)
    floored = norms < NORM_EPS
    safe = np.where(floored, 1.0, norms)
    z = raw
    z /= safe[:, None]
    if floored.any():
        z[floored] = 0.0
        z[floored, 0] = 1.0
    return EncodeCache(f, preacts, sigs, safe, floored, z, mask)


def encode(params: Network, cloud: PointCloud) -> np.ndarray:
    """(N, D) embeddings of a cloud; deterministic, unit-norm rows.

    Missing colors or normals are zero-filled with a warning.
    """
    params.check_finite()
    missing = [name for name in ("colors", "normals") if getattr(cloud, name) is None]
    if missing:
        warnings.warn(f"substituting zeros for missing {' and '.join(missing)}", stacklevel=2)
    features = point_features(cloud.positions, cloud.colors, cloud.normals)
    return encode_features(params, features).embeddings


def encode_backward(params: Network, cache: EncodeCache, grad_embeddings: np.ndarray) -> Network:
    """Backpropagate d(loss)/d(embeddings) to the encoder's parameters.

    Returns a gradient of params' layout whose projection slot is 0.
    """
    z, safe = cache.embeddings, cache.safe_norms
    g = np.asarray(grad_embeddings, dtype=np.float64)
    # Through row normalization: (g - z (z . g)) / |raw|; floored rows are constant.
    inner = np.einsum("ij,ij->i", z, g)
    g_raw = z * inner[:, None]
    np.subtract(g, g_raw, out=g_raw)
    g_raw /= safe[:, None]
    g_raw[cache.floored] = 0.0

    grads = params.like(np.zeros_like(params.flat))
    upstream = g_raw
    last = len(params.weights) - 1
    # The gradient of the layer-0 input is needed only for the mask token.
    masked = cache.mask is not None and cache.mask.any()
    for i in range(last, -1, -1):
        if i < last:
            a, sig = cache.preactivations[i], cache.sigmoids[i]
            # SiLU'(a) = sigmoid(a) * (1 + a * (1 - sigmoid(a))), times upstream.
            d_act = np.subtract(1.0, sig)
            d_act *= a
            d_act += 1.0
            d_act *= sig
            d_act *= upstream
            upstream = d_act
        h_prev = cache.preactivations[i - 1] * cache.sigmoids[i - 1] if i > 0 else cache.features
        grads.weights[i][...] = h_prev.T @ upstream
        grads.biases[i][...] = upstream.sum(axis=0)
        if i > 0 or masked:
            upstream = upstream @ params.weights[i].T

    if masked:
        grads.mask_token[...] = upstream[cache.mask].sum(axis=0)
    return grads


def prototype_logits_backward(
    network: Network, embedding_values: np.ndarray, grad_logits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Returns (grad wrt embeddings, grad wrt the network's projection)."""
    return grad_logits @ network.projection.T, embedding_values.T @ grad_logits


def ema_update(teacher: Network, student: Network, momentum: float) -> Network:
    """A new teacher, momentum * teacher + (1 - momentum) * student; teacher is not changed.

    Prototype columns are re-normalized after the update.
    """
    if not 0.0 <= momentum <= 1.0:
        raise ValueError(f"momentum must lie in [0, 1], got {momentum}")
    if teacher.shapes != student.shapes:
        raise ValueError("teacher and student parameter shapes differ")
    new = teacher.like(teacher.flat * momentum)
    new.flat += (1.0 - momentum) * student.flat
    new.normalize_columns()
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


def _network_from_tensors(tensors: dict[str, np.ndarray], prefix: str) -> Network:
    weights, biases = [], []
    i = 0
    while f"{prefix}layer{i}.weight" in tensors:
        weights.append(_tensor(tensors, f"{prefix}layer{i}.weight"))
        biases.append(_tensor(tensors, f"{prefix}layer{i}.bias"))
        i += 1
    if not weights:
        raise ValueError(f"checkpoint has no encoder layers under prefix {prefix!r}")
    try:
        return Network.of(weights, biases, _tensor(tensors, f"{prefix}mask_token"),
                          _tensor(tensors, f"{prefix}head.projection"))
    except ValueError as exc:  # a layout error, which begins with the tensor's name
        raise ValueError(f"checkpoint tensor {prefix}{exc}") from None


def save_model(path, student: Network, teacher: Network | None = None) -> None:
    """The student's tensors as student.*, and the teacher's as teacher.* when given."""
    tensors = {f"student.{k}": v for k, v in student.tensors().items()}
    if teacher is not None:
        tensors.update({f"teacher.{k}": v for k, v in teacher.tensors().items()})
    save_checkpoint(path, tensors)


def load_model(path) -> tuple[Network, Network | None]:
    """(student, teacher) of a save_model file; teacher is None when it holds none.

    Each network's tensors must chain (Network.of), and the teacher's layout
    must be the student's; a ValueError names the first tensor that breaks
    either.  A teacher.momentum entry, which older files carry, is not read.
    """
    tensors = load_checkpoint(path)
    student = _network_from_tensors(tensors, "student.")
    if "teacher.head.projection" not in tensors:
        return student, None
    teacher = _network_from_tensors(tensors, "teacher.")
    if teacher.shapes != student.shapes:
        ours, theirs = student.tensors(), teacher.tensors()  # np.shape(None) is ()
        name = next(n for n in {**ours, **theirs} if np.shape(ours.get(n)) != np.shape(theirs.get(n)))
        raise ValueError(f"checkpoint tensor teacher.{name} does not match student.{name}: "
                         "the teacher's layout must be the student's")
    return student, teacher
