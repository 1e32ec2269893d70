"""Parameterized layers, a freezable parameter registry, Adam, checkpoints.

Layers register their tensors into a ParameterSet under dotted names
("extractor.0.weight"). Frozen names are excluded from Adam updates and
from the L2 penalty, which is how the phase-2 protocol keeps the feature
extractor bitwise untouched.

Linear runs as one fused autodiff op per call. LhClassifierNet runs a
whole LstmCell layer as its input product and one lstm_sequence; the cell's
step, the primitive-composed lstm_cell, stays as the reference that op is
tested against. Adam keeps every trainable tensor in one flat buffer, so a
step is a fixed handful of numpy calls whatever the number of tensors.
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
    """A non-frozen parameter reached an optimizer step without a gradient."""


class CheckpointError(ValueError):
    """Checkpoint file is malformed or inconsistent."""


def xavier_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    """uniform(-b, b) with b = sqrt(6 / (in_dim + out_dim)), shape (out, in)."""
    bound = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-bound, bound, size=(out_dim, in_dim))


class ParameterSet:
    """Named parameter tensors plus the subset excluded from updates."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._frozen: set[str] = set()

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
            self._frozen.add(name)
            self._params[name].requires_grad = False

    def freeze_prefix(self, prefix: str) -> None:
        self.freeze([n for n in self._params if n.startswith(prefix)])

    def is_frozen(self, name: str) -> bool:
        return name in self._frozen

    def frozen_names(self) -> frozenset[str]:
        return frozenset(self._frozen)

    def trainable(self) -> list[tuple[str, Tensor]]:
        return [(n, t) for n, t in self._params.items() if n not in self._frozen]

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.zero_grad()

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

    def tensors(self) -> list[Tensor]:
        return [self.weight, self.bias]


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

    def tensors(self) -> list[Tensor]:
        return [self.w_x, self.w_h, self.bias]


class Adam:
    """Adam with bias correction; frozen parameters are never touched.

    The parameters trainable at construction are moved into one flat
    buffer, and each tensor's data becomes a view of its stretch of it, so
    a step updates them all with one pass of elementwise numpy calls. The
    arithmetic is elementwise, so the result equals, bit for bit, the same
    update applied tensor by tensor. The gradient vector and two scratch
    vectors are allocated once, here, so a step allocates nothing the size
    of the buffer. beta1, beta2 and eps are the usual constants; only the
    learning rate lr is a setting.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: ParameterSet, lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self._trainable = params.trainable()
        self._flat = np.concatenate([t.data.ravel() for _, t in self._trainable]
                                    or [np.zeros(0)])
        offset = 0
        for _, t in self._trainable:
            t.data = self._flat[offset:offset + t.data.size].reshape(t.data.shape)
            offset += t.data.size
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)
        self._g = np.empty_like(self._flat)
        self._a = np.empty_like(self._flat)
        self._b = np.empty_like(self._flat)

    def step(self) -> None:
        """theta -= lr * m_hat / (sqrt(v_hat) + eps), computed in place.

        The operations and their order are those of the textbook form
        m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) (g g), m_hat = m / (1 - b1^t),
        v_hat = v / (1 - b2^t), so each update is bitwise that form's.
        """
        self.t += 1
        for name, p in self._trainable:
            if p.grad is None:
                raise MissingGradientError(f"no gradient for trainable parameter {name!r}")
        g, a, b, m, v = self._g, self._a, self._b, self._m, self._v
        offset = 0
        for _, p in self._trainable:
            g[offset:offset + p.data.size] = p.grad.ravel()
            offset += p.data.size
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
        self._flat -= a

    def zero_grad(self) -> None:
        self.params.zero_grad()


# ------------------------------------------------------------- checkpoints
#
# Layout: b"LHC1" | u32le manifest length | UTF-8 JSON manifest | payload.
# The manifest lists parameter names, shapes, frozen flags and byte offsets
# into the payload; the payload is the little-endian f64 arrays concatenated
# in manifest order.

def save_checkpoint(path, params: ParameterSet, hyperparams: dict | None = None) -> None:
    entries = []
    offset = 0
    blobs = []
    for name, t in params.items():
        blob = np.ascontiguousarray(t.data).astype("<f8").tobytes()
        entries.append({
            "name": name,
            "shape": list(t.data.shape),
            "frozen": params.is_frozen(name),
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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
