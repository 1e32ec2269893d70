"""The class-to-string encoder, string decoder, and LSTM string classifier.

A batch of bit distributions travels as one (B, 2L) tensor: columns
(2i, 2i+1) hold P(bit i = 0) and P(bit i = 1), and each pair sums to one.
A single example's distribution sequence is its row reshaped to (L, 2),
which is what string_of and the lookup table consume.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .autodiff import ShapeError, Tensor, lstm_sequence, pair_softmax, reshape, softmax, tanh
from .nn import Linear, LstmCell, ParameterSet

LOOKUP_VERSION = 1


class CollisionError(ValueError):
    """Two or more classes were encoded to the same string."""

    def __init__(self, pairs: list[tuple[int, int]]):
        self.pairs = pairs
        listing = "; ".join(f"classes {a} and {b}" for a, b in pairs)
        super().__init__(f"string encoding is not one-to-one: {listing}")


def hard_bits(dist: np.ndarray) -> np.ndarray:
    """Per-bit argmax of (B, 2L) distributions as a (B, L) 0/1 matrix; ties go to 0."""
    return (dist[:, 1::2] > dist[:, 0::2]).astype(np.int64)


def string_of(dist: np.ndarray) -> str:
    """Per-bit argmax of an (L, 2) distribution sequence; ties go to 0."""
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 2 or dist.shape[1] != 2:
        raise ShapeError(f"expected an (L, 2) distribution sequence, got {dist.shape}")
    return "".join("1" if p1 > p0 else "0" for p0, p1 in dist)


class StringLookupTable:
    """Frozen bijection between class ids and distinct L-bit strings.

    class_names, if given, holds one name per class in class-id order.
    """

    def __init__(self, class_to_string: dict[int, str], class_names: list[str] | None = None):
        if not class_to_string:
            raise ValueError("lookup table needs at least one entry")
        if class_names is not None and len(class_names) != len(class_to_string):
            raise ValueError(f"{len(class_names)} class names for "
                             f"{len(class_to_string)} classes")
        lengths = {len(s) for s in class_to_string.values()}
        if len(lengths) != 1:
            raise ValueError(f"strings must share one length, got lengths {sorted(lengths)}")
        bad = [s for s in class_to_string.values() if set(s) - {"0", "1"}]
        if bad:
            raise ValueError(f"non-binary string {bad[0]!r}")
        if len(set(class_to_string.values())) != len(class_to_string):
            groups: dict[str, list[int]] = {}
            for c, s in class_to_string.items():
                groups.setdefault(s, []).append(c)
            pairs = [p for g in groups.values() if len(g) > 1
                     for p in itertools.combinations(sorted(g), 2)]
            raise CollisionError(pairs)
        self.class_to_string = dict(sorted(class_to_string.items()))
        self.string_to_class = {s: c for c, s in self.class_to_string.items()}
        self.string_length = lengths.pop()
        self.num_classes = len(self.class_to_string)
        self.class_names = (list(class_names) if class_names is not None
                            else [str(c) for c in self.class_to_string])

    def lookup(self, bits: str) -> int | None:
        return self.string_to_class.get(bits)

    def to_json(self) -> str:
        obj = {
            "version": LOOKUP_VERSION,
            "L": self.string_length,
            "C": self.num_classes,
            "entries": [
                {"class_id": c, "class_name": self.class_names[i], "string": s}
                for i, (c, s) in enumerate(self.class_to_string.items())
            ],
        }
        return json.dumps(obj, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "StringLookupTable":
        """Inverse of to_json; raises ValueError on any malformed document."""
        try:
            obj = json.loads(text)
        except RecursionError:
            raise ValueError("lookup JSON nests too deeply") from None
        if not isinstance(obj, dict) or set(obj) != {"version", "L", "C", "entries"}:
            raise ValueError("lookup JSON must be an object with exactly version, L, C "
                             "and entries")
        if obj["version"] != LOOKUP_VERSION:
            raise ValueError(f"unsupported lookup JSON version {obj['version']!r}")
        entries = obj["entries"]
        if not isinstance(entries, list) or not all(
                isinstance(e, dict) and set(e) == {"class_id", "class_name", "string"}
                and type(e["class_id"]) is int and isinstance(e["class_name"], str)
                and isinstance(e["string"], str) for e in entries):
            raise ValueError("lookup JSON entries must be objects with an int class_id, "
                             "a str class_name and a str string")
        mapping = {e["class_id"]: e["string"] for e in entries}
        if len(mapping) != len(entries):
            raise ValueError("lookup JSON lists a class id more than once")
        names = [e["class_name"] for e in sorted(entries, key=lambda e: e["class_id"])]
        table = cls(mapping, class_names=names)
        if (type(obj["L"]) is not int or type(obj["C"]) is not int
                or table.string_length != obj["L"] or table.num_classes != obj["C"]):
            raise ValueError("lookup JSON header disagrees with its entries")
        return table


def lookup_predict(table: StringLookupTable, p: np.ndarray) -> int | None:
    """Exact-match prediction; None means no class owns the extracted string."""
    return table.lookup(string_of(p))


class Class2StrNet:
    """One-hot class label -> (B, 2L) bit distributions q via a shared trunk.

    The L per-bit heads are one stacked Linear, "heads", of 2L outputs.
    q depends on the class alone, so training runs the net once per distinct
    class in a batch, and table() holds the whole encoding.
    """

    def __init__(self, params: ParameterSet, num_classes: int, string_length: int,
                 rng: np.random.Generator, hidden_dim: int | None = None,
                 prefix: str = "class2str"):
        self.num_classes = num_classes
        self.string_length = string_length
        self.hidden_dim = hidden_dim if hidden_dim is not None else max(500, 2 * num_classes)
        self.trunk = Linear(params, f"{prefix}.trunk", num_classes, self.hidden_dim, rng)
        self.heads = Linear(params, f"{prefix}.heads", self.hidden_dim, 2 * string_length, rng,
                            blocks=string_length)

    def forward(self, labels: Tensor) -> Tensor:
        if labels.data.ndim != 2 or labels.shape[1] != self.num_classes:
            raise ShapeError(f"expected (B, {self.num_classes}) labels, got {labels.shape}")
        return pair_softmax(self.heads(tanh(self.trunk(labels))))

    def table(self) -> np.ndarray:
        """Soft (C, 2L) bit distributions, row c for class c, no grad recording."""
        return self.forward(Tensor(np.eye(self.num_classes))).data

    def encode(self, class_id: int) -> np.ndarray:
        """Soft (L, 2) distribution sequence for one class: row class_id of table()."""
        if not 0 <= class_id < self.num_classes:
            raise ValueError(f"class id {class_id} outside [0, {self.num_classes})")
        return self.table()[class_id].reshape(self.string_length, 2)

    def tensors(self):
        return self.trunk.tensors() + self.heads.tensors()


class Str2ClassNet:
    """(B, 2L) bit distributions -> class distribution.

    In training its input is Class2Str's q, one row per distinct class in
    the batch.
    """

    def __init__(self, params: ParameterSet, num_classes: int, string_length: int,
                 rng: np.random.Generator, hidden_dim: int | None = None,
                 prefix: str = "str2class"):
        self.num_classes = num_classes
        self.string_length = string_length
        self.hidden_dim = hidden_dim if hidden_dim is not None else max(500, 2 * num_classes)
        self.fc1 = Linear(params, f"{prefix}.fc1", 2 * string_length, self.hidden_dim, rng)
        self.fc2 = Linear(params, f"{prefix}.fc2", self.hidden_dim, num_classes, rng)

    def forward(self, q: Tensor) -> Tensor:
        if q.data.ndim != 2 or q.shape[1] != 2 * self.string_length:
            raise ShapeError(f"expected (B, {2 * self.string_length}) bit distributions, "
                             f"got {q.shape}")
        return softmax(self.fc2(tanh(self.fc1(q))))

    def tensors(self):
        return self.fc1.tensors() + self.fc2.tensors()


class LhClassifierNet:
    """Feature vector -> (B, 2L) bit distributions p through an LSTM unrolled L steps.

    The projected feature vector is the input at every timestep, so layer
    0's input product, bias included, is computed once per forward; the
    dependence of later bits on earlier ones lives in the recurrent state.
    Each layer is one lstm_sequence over all L steps from the zero state;
    layer 1 reads layer 0's hidden states through a per-step input product.
    A single output head is shared across timesteps and runs as one linear
    over the (B*L, n) stacked hidden states, whose rows reshape to (B, 2L).
    """

    def __init__(self, params: ParameterSet, feature_dim: int, hidden_dim: int,
                 string_length: int, rng: np.random.Generator, num_layers: int = 1,
                 prefix: str = "lh"):
        if num_layers not in (1, 2):
            raise ValueError(f"num_layers must be 1 or 2, got {num_layers}")
        self.feature_dim = feature_dim
        self.hidden_dim = hidden_dim
        self.string_length = string_length
        self.num_layers = num_layers
        self.projection = Linear(params, f"{prefix}.projection", feature_dim, hidden_dim, rng)
        self.cells = [LstmCell(params, f"{prefix}.lstm{l}", hidden_dim, hidden_dim, rng)
                      for l in range(num_layers)]
        self.head = Linear(params, f"{prefix}.head", hidden_dim, 2, rng)

    def forward(self, features: Tensor) -> Tensor:
        if features.data.ndim != 2 or features.shape[1] != self.feature_dim:
            raise ShapeError(f"expected (B, {self.feature_dim}) features, got {features.shape}")
        x = self.projection(features)
        for layer, cell in enumerate(self.cells):
            x = lstm_sequence(cell.input_product(x), cell.w_h, self.string_length,
                              per_step=layer > 0)
        logits = self.head(x)  # (B*L, 2), row b*L + t for sample b at step t
        return pair_softmax(reshape(logits, (features.shape[0], 2 * self.string_length)))

    def predict_bits(self, features: np.ndarray) -> np.ndarray:
        """Hard (N, L) bit matrix for a feature batch, no grad recording."""
        return hard_bits(self.forward(Tensor(np.atleast_2d(features))).data)

    def tensors(self):
        out = self.projection.tensors()
        for cell in self.cells:
            out += cell.tensors()
        return out + self.head.tensors()


def freeze_lookup(net: Class2StrNet, class_names: list[str] | None = None) -> StringLookupTable:
    """Materialize the learned encoding; raises CollisionError if not one-to-one."""
    mapping = {c: string_of(row.reshape(-1, 2)) for c, row in enumerate(net.table())}
    return StringLookupTable(mapping, class_names=class_names)
