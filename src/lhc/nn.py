"""Parameterized layers, a freezable parameter registry, Adam, checkpoints.

Layers register their tensors into a ParameterSet, the one record of a
model's parameters: a name's dotted prefix ("extractor." in
"extractor.0.weight") is its module, and requires_grad is whether it trains.
Frozen tensors are left out of Adam updates and the L2 penalty, which is how
the phase-2 protocol keeps the feature extractor bitwise untouched.

Linear runs as one fused autodiff op per call. LhClassifierNet runs its
LstmCell as the cell's input product and one lstm_sequence; the cell's
step, the primitive-composed lstm_cell, stays as the reference that op is
tested against. Adam keeps every trainable tensor's value in one flat
vector and its gradient in another, each tensor's data and grad a view of
its stretch, so a step is a fixed handful of numpy calls whatever the
number of tensors. Gradients enter it only through Tensor.accumulate_grad.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Iterable, Iterator

import numpy as np

from .autodiff import Tensor, linear, lstm_cell

CHECKPOINT_MAGIC = b"LHC1"
CHECKPOINT_VERSION = 2


class MissingGradientError(RuntimeError):
    """A trainable parameter reached an optimizer step with no gradient in Adam's flat vector."""


class CheckpointError(ValueError):
    """Checkpoint file is malformed or inconsistent."""


def xavier_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    """uniform(-b, b) with b = sqrt(6 / (in_dim + out_dim)), shape (out, in)."""
    bound = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-bound, bound, size=(out_dim, in_dim))


class ParameterSet:
    """Named parameter tensors in registration order, which is Adam's flat layout.

    A name's dotted prefix is its module, and requires_grad is whether it
    trains; only freeze clears it.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def freeze(self, names: Iterable[str]) -> None:
        for name in names:
            if name not in self._params:
                raise KeyError(f"cannot freeze unknown parameter {name!r}")
            self._params[name].requires_grad = False

    def frozen_names(self) -> frozenset[str]:
        return frozenset(n for n, t in self._params.items() if not t.requires_grad)

    def trainable(self) -> list[tuple[str, Tensor]]:
        return [(n, t) for n, t in self._params.items() if t.requires_grad]

    def tobytes(self, names: Iterable[str] | None = None) -> bytes:
        """Concatenated raw bytes of the named parameters, for bitwise checks."""
        picked = sorted(names) if names is not None else sorted(self._params)
        return b"".join(np.ascontiguousarray(self._params[n].data).tobytes() for n in picked)

    def names_with_prefix(self, prefix: str) -> list[str]:
        return [n for n in self._params if n.startswith(prefix)]


class Linear:
    """y = x W^T + b with W of shape (out, in).

    With blocks > 1 the layer is that many independent heads stacked along
    the output: W is the vstack of `blocks` Xavier draws of (out / blocks, in),
    made one after the other from rng.
    """

    def __init__(self, params: ParameterSet, name: str, in_dim: int, out_dim: int,
                 rng: np.random.Generator, blocks: int = 1):
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError(f"Linear dims must be positive, got {in_dim}->{out_dim}")
        if blocks <= 0 or out_dim % blocks:
            raise ValueError(f"{out_dim} outputs do not split into {blocks} blocks")
        weight = np.vstack([xavier_uniform(rng, out_dim // blocks, in_dim)
                            for _ in range(blocks)])
        self.weight = params.add(f"{name}.weight", weight)
        self.bias = params.add(f"{name}.bias", np.zeros(out_dim))

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class LstmCell:
    """Single LSTM cell; gate order (input, forget, candidate, output).

    input_product(x) = x W_x^T + b is one linear; the bias rides with it, so
    a caller that feeds one x to every step pays for both once. A whole
    unroll is input_product and one autodiff.lstm_sequence(xw, w_h, steps).
    step(xw, h_prev, c_prev) is one autodiff.lstm_cell, which adds h_prev
    W_h^T and is composed of primitives: the unroll's reference. The
    forget-gate bias slice is initialized to 1.0 so early steps keep their
    cell memory.
    """

    def __init__(self, params: ParameterSet, name: str, in_dim: int, hidden_dim: int,
                 rng: np.random.Generator):
        if hidden_dim <= 0:
            raise ValueError(f"hidden_dim must be positive, got {hidden_dim}")
        self.w_x = params.add(f"{name}.w_x", xavier_uniform(rng, 4 * hidden_dim, in_dim))
        self.w_h = params.add(f"{name}.w_h", xavier_uniform(rng, 4 * hidden_dim, hidden_dim))
        bias = np.zeros(4 * hidden_dim)
        bias[hidden_dim:2 * hidden_dim] = 1.0
        self.bias = params.add(f"{name}.bias", bias)

    def input_product(self, x: Tensor) -> Tensor:
        """x W_x^T + b for a (B, in) batch: the gate pre-activations but the recurrent part.

        A caller feeding the same x at every step computes it once.
        """
        return linear(x, self.w_x, self.bias)

    def step(self, xw: Tensor, h_prev: Tensor | None = None,
             c_prev: Tensor | None = None) -> tuple[Tensor, Tensor]:
        """One step from xw = input_product(x); returns (h, c).

        h_prev and c_prev default to None, the zero state.
        """
        return lstm_cell(xw, h_prev, self.w_h, c_prev)


class Adam:
    """Adam with bias correction; frozen parameters are never touched.

    The parameters trainable at construction move into one flat vector,
    flat, and their gradients into another, flat_grad: each tensor's data
    and grad_view are views of its stretch of them. Gradients enter only
    through Tensor.accumulate_grad, so step raises MissingGradientError for
    a .grad that is not the grad_view. A step is then one pass
    of elementwise numpy calls, bitwise the same update applied tensor by
    tensor, that allocates nothing the size of flat, and flat.copy() is a
    snapshot of every trainable value. Only the learning rate lr is a setting.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: ParameterSet, lr: float):
        self.lr = lr
        self.t = 0
        self._trainable = params.trainable()
        self.flat = np.concatenate([t.data.ravel() for _, t in self._trainable]
                                   or [np.zeros(0)])
        self.flat_grad = np.zeros_like(self.flat)
        bounds = np.cumsum([0] + [t.data.size for _, t in self._trainable])
        for (_, t), lo, hi in zip(self._trainable, bounds, bounds[1:]):
            t.data = self.flat[lo:hi].reshape(t.data.shape)
            t.grad_view = self.flat_grad[lo:hi].reshape(t.data.shape)
        self._m, self._v = np.zeros_like(self.flat), np.zeros_like(self.flat)
        self._a, self._b = np.empty_like(self.flat), np.empty_like(self.flat)  # scratch

    def step(self) -> None:
        """theta -= lr * m_hat / (sqrt(v_hat) + eps), computed in place.

        The operations and their order are those of the textbook form
        m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) (g g), m_hat = m / (1 - b1^t),
        v_hat = v / (1 - b2^t), so each update is bitwise that form's.
        """
        for name, p in self._trainable:
            if p.grad is not p.grad_view:  # None, or assigned directly, not accumulated
                raise MissingGradientError(f"no gradient for trainable parameter {name!r} "
                                           "in the flat vector")
        g, a, b, m, v = self.flat_grad, self._a, self._b, self._m, self._v
        self.t += 1
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=a)
        m += a
        v *= self.beta2
        np.multiply(g, g, out=a)
        a *= 1.0 - self.beta2
        v += a
        np.divide(m, 1.0 - self.beta1 ** self.t, out=a)
        a *= self.lr
        np.divide(v, 1.0 - self.beta2 ** self.t, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        self.flat -= a

    def zero_grad(self) -> None:
        for _, p in self._trainable:
            p.zero_grad()


# ------------------------------------------------------------- checkpoints
#
# Layout: b"LHC1" | u32le manifest length | UTF-8 JSON manifest | payload.
# The manifest lists parameter names, shapes, frozen flags and byte offsets
# into the payload; the payload is the little-endian f64 arrays concatenated
# in manifest order.

def save_checkpoint(path, params: ParameterSet | dict[str, Tensor],
                    hyperparams: dict | None = None) -> None:
    entries = []
    offset = 0
    blobs = []
    for name, t in params.items():
        blob = np.ascontiguousarray(t.data).astype("<f8").tobytes()
        entries.append({
            "name": name,
            "shape": list(t.data.shape),
            "frozen": not t.requires_grad,
            "offset": offset,
        })
        blobs.append(blob)
        offset += len(blob)
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "hyperparameters": hyperparams or {},
        "parameters": entries,
    }
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(manifest_bytes)))
        fh.write(manifest_bytes)
        for blob in blobs:
            fh.write(blob)


def _entry_problem(entry) -> str | None:
    """What makes a manifest parameter entry ill-typed, or None if it is well-typed."""
    if not isinstance(entry, dict):
        return "is not a JSON object"
    shape, offset = entry.get("shape"), entry.get("offset")
    if not isinstance(entry.get("name"), str):
        return "has no string name"
    if not (isinstance(shape, list)
            and all(isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape)):
        return "has no shape of non-negative integers"
    if not isinstance(entry.get("frozen"), bool):
        return "has no boolean frozen flag"
    if not isinstance(offset, int) or isinstance(offset, bool):
        return "has no integer offset"
    return None


def load_checkpoint(path) -> tuple[ParameterSet, dict]:
    """Read an LHC1 file; any malformed header, manifest or payload raises CheckpointError.

    The parameters must tile the payload exactly, in manifest order from
    byte 0, as save_checkpoint writes them.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:4]!r}, expected {CHECKPOINT_MAGIC!r}")
    if len(raw) < 8:
        raise CheckpointError(f"{path}: truncated header")
    (manifest_len,) = struct.unpack("<I", raw[4:8])
    manifest_end = 8 + manifest_len
    if len(raw) < manifest_end:
        raise CheckpointError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(raw[8:manifest_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"{path}: unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: manifest is not a JSON object")
    if manifest.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {manifest.get('format_version')}")
    entries, hyperparams = manifest.get("parameters"), manifest.get("hyperparameters")
    if not isinstance(entries, list) or not isinstance(hyperparams, dict):
        raise CheckpointError(f"{path}: manifest needs a 'parameters' list and a "
                              "'hyperparameters' object")

    payload = raw[manifest_end:]
    params = ParameterSet()
    frozen = []
    offset = 0
    for index, entry in enumerate(entries):
        problem = _entry_problem(entry)
        if problem is not None:
            raise CheckpointError(f"{path}: parameter entry {index} {problem}")
        name = entry["name"]
        if name in params:
            raise CheckpointError(f"{path}: duplicate parameter name {name!r}")
        if entry["offset"] != offset:
            raise CheckpointError(f"{path}: parameter {name!r} starts at byte {entry['offset']}, "
                                  f"not at {offset}: parameters must tile the payload in order")
        count = math.prod(entry["shape"])
        end = offset + count * 8
        if end > len(payload):
            raise CheckpointError(f"{path}: payload truncated at parameter {name!r}")
        data = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        params.add(name, data.reshape(entry["shape"]).copy())
        if entry["frozen"]:
            frozen.append(name)
        offset = end
    if offset != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - offset} payload bytes after the last "
                              "parameter")
    params.freeze(frozen)
    return params, hyperparams
