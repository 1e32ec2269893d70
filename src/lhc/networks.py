"""The class-to-string encoder, string decoder, and LSTM string classifier.

Bit distributions have one layout, packed (B, 2L) rows: columns (2i, 2i+1)
hold P(bit i = 0) and P(bit i = 1), and each pair sums to one. A single
example or class is one such row. The string codec reads this layout only:
hard_bits takes each bit's argmax (ties go to 0) as a (B, L) 0/1 matrix,
strings_of spells those rows as L-character strings, and a
StringLookupTable holds the frozen class-to-string bijection, with its
strings also as a (C, L) bit matrix, bits. The table is also the learned
hierarchy, the prefix tree of its strings. A run stores it in one form,
the leaf list of tree.json (tree.tree_obj), and its LH checkpoint holds that
same list; tree.tree_from_obj reads it back as a StringLookupTable.

Inference runs in row blocks (run_in_row_blocks) whose widest float64
slab, such as the LSTM's (4n, rows) gates, fits in about
INFERENCE_BLOCK_BYTES, so the working set stays in a per-core L2 cache
whatever the caller's batch. Rows are independent, so blocking changes
only which BLAS kernel a product runs on. OpenBLAS rounds some rows one
ulp differently in products of a few rows or of a row count that is not
a multiple of 8, so blocks are multiples of 8 rows and a short tail joins
the block before it; the tests find the blocked outputs bitwise equal to
one whole-array forward.
"""

from __future__ import annotations

import itertools

import numpy as np

from .autodiff import ShapeError, Tensor, lstm_sequence, pair_softmax, reshape, softmax, tanh
from .nn import Linear, LstmCell, ParameterSet

# Measured for predict_bits over 200k rows at n = 32, L = 4 and 8, one and
# two LSTM layers, on a 2-vCPU x86-64 Xeon (2 MiB L2 per core) with one BLAS
# thread: blocks of 128-1024 rows ran 1.5-1.9x faster than one forward per
# evaluate chunk, and 512 rows, a 512 KiB gate slab, was at or near the
# fastest in each case.
INFERENCE_BLOCK_BYTES = 512 * 1024


def default_hidden_dim(num_classes: int) -> int:
    """Class2Str's and Str2Class's hidden width when the config leaves it unset."""
    return max(500, 2 * num_classes)


class CollisionError(ValueError):
    """Two or more classes were encoded to the same string."""

    def __init__(self, pairs: list[tuple[int, int]]):
        self.pairs = pairs
        listing = "; ".join(f"classes {a} and {b}" for a, b in pairs)
        super().__init__(f"string encoding is not one-to-one: {listing}")


def hard_bits(dist: np.ndarray) -> np.ndarray:
    """Per-bit argmax of (B, 2L) distributions as a (B, L) 0/1 matrix; ties go to 0."""
    return (dist[:, 1::2] > dist[:, 0::2]).astype(np.int64)


def run_in_row_blocks(fn, x: np.ndarray, in_dim: int, width: int,
                      out: np.ndarray) -> np.ndarray:
    """Fill out[lo:hi] with fn(x[lo:hi]) over the row blocks of an (N, in_dim) x.

    A block has INFERENCE_BLOCK_BYTES // (8 * width) rows, rounded down to a
    multiple of 8, so a (width, rows) float64 slab fits the budget; width is
    the widest per-row slab fn builds. A tail shorter than half a block
    joins the block before it. With N = 0 fn is never called and out, of
    length 0, is returned as it is.
    """
    if x.ndim != 2 or x.shape[1] != in_dim:
        raise ShapeError(f"expected (N, {in_dim}) rows, got {x.shape}")
    rows = max(8, INFERENCE_BLOCK_BYTES // (8 * width) // 8 * 8)
    starts = list(range(0, x.shape[0], rows))
    if len(starts) > 1 and x.shape[0] - starts[-1] < rows // 2:
        starts.pop()
    for lo, hi in zip(starts, starts[1:] + [x.shape[0]]):
        out[lo:hi] = fn(x[lo:hi])
    return out


def strings_of(dist: np.ndarray) -> dict[int, str]:
    """Row index -> hard_bits string of each row of (B, 2L) distributions."""
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 2 or dist.shape[1] == 0 or dist.shape[1] % 2:
        raise ShapeError(f"expected (B, 2L) bit distributions, got {dist.shape}")
    return {i: "".join(map(str, row)) for i, row in enumerate(hard_bits(dist).tolist())}


def check_class_names(names, num_classes: int) -> None:
    """Raise ValueError unless names is None or a list or tuple of num_classes str."""
    if names is None:
        return
    if not isinstance(names, (list, tuple)):  # a str has a length and str items too
        raise ValueError(f"class names must be a list or tuple of str, got {names!r}")
    if len(names) != num_classes:
        raise ValueError(f"{len(names)} class names for {num_classes} classes")
    if not all(isinstance(n, str) for n in names):
        raise ValueError(f"class names must be str, got {list(names)!r}")


class StringLookupTable:
    """Frozen bijection between class ids and distinct L-bit strings.

    class_names, if given, holds one str name per class in class-id order
    (check_class_names). bits is the read-only (C, L) int64 matrix of the
    strings, one row per class in class-id order, so row c is class c when
    the ids are 0..C-1.
    """

    def __init__(self, class_to_string: dict[int, str], class_names: list[str] | None = None):
        if not class_to_string:
            raise ValueError("lookup table needs at least one entry")
        check_class_names(class_names, len(class_to_string))
        lengths = {len(s) for s in class_to_string.values()}
        if len(lengths) != 1:
            raise ValueError(f"strings must share one length, got lengths {sorted(lengths)}")
        if 0 in lengths:
            raise ValueError("strings must be at least one bit long, got length 0")
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
        self.string_length = lengths.pop()
        self.num_classes = len(self.class_to_string)
        self.class_names = (list(class_names) if class_names is not None
                            else [str(c) for c in self.class_to_string])
        self.bits = np.array([list(map(int, s)) for s in self.class_to_string.values()],
                             dtype=np.int64)
        self.bits.flags.writeable = False


class Class2StrNet:
    """One-hot class label -> (B, 2L) bit distributions q via a shared trunk.

    The L per-bit heads are one stacked Linear, "heads", of 2L outputs.
    q depends on the class alone, so training runs the net once per distinct
    class in a batch, and table() holds the whole encoding.
    """

    def __init__(self, params: ParameterSet, num_classes: int, string_length: int,
                 rng: np.random.Generator, hidden_dim: int | None = None):
        self.num_classes = num_classes
        self.hidden_dim = default_hidden_dim(num_classes) if hidden_dim is None else hidden_dim
        self.trunk = Linear(params, "class2str.trunk", num_classes, self.hidden_dim, rng)
        self.heads = Linear(params, "class2str.heads", self.hidden_dim, 2 * string_length, rng,
                            blocks=string_length)

    def forward(self, labels: Tensor) -> Tensor:
        if labels.data.ndim != 2 or labels.shape[1] != self.num_classes:
            raise ShapeError(f"expected (B, {self.num_classes}) labels, got {labels.shape}")
        return pair_softmax(self.heads(tanh(self.trunk(labels))))

    def table(self) -> np.ndarray:
        """Soft (C, 2L) bit distributions, row c for class c, no grad recording."""
        return self.forward(Tensor(np.eye(self.num_classes))).data

    def encode(self, class_id: int) -> np.ndarray:
        """Soft (2L,) bit distributions of one class: row class_id of table()."""
        if not 0 <= class_id < self.num_classes:
            raise ValueError(f"class id {class_id} outside [0, {self.num_classes})")
        return self.table()[class_id]


class Str2ClassNet:
    """(B, 2L) bit distributions -> class distribution.

    In training its input is Class2Str's q, one row per distinct class in
    the batch.
    """

    def __init__(self, params: ParameterSet, num_classes: int, string_length: int,
                 rng: np.random.Generator, hidden_dim: int | None = None):
        self.string_length = string_length
        self.hidden_dim = default_hidden_dim(num_classes) if hidden_dim is None else hidden_dim
        self.fc1 = Linear(params, "str2class.fc1", 2 * string_length, self.hidden_dim, rng)
        self.fc2 = Linear(params, "str2class.fc2", self.hidden_dim, num_classes, rng)

    def forward(self, q: Tensor) -> Tensor:
        if q.data.ndim != 2 or q.shape[1] != 2 * self.string_length:
            raise ShapeError(f"expected (B, {2 * self.string_length}) bit distributions, "
                             f"got {q.shape}")
        return softmax(self.fc2(tanh(self.fc1(q))))


class LhClassifierNet:
    """Feature vector -> (B, 2L) bit distributions p through an LSTM unrolled L steps.

    The projected feature vector is the input at every timestep, so the
    cell's input product, bias included, is computed once per forward; the
    dependence of later bits on earlier ones lives in the recurrent state.
    The unroll is one lstm_sequence over all L steps from the zero state.
    A single output head is shared across timesteps and runs as one linear
    over the (B*L, n) stacked hidden states, whose rows reshape to (B, 2L).
    """

    def __init__(self, params: ParameterSet, feature_dim: int, hidden_dim: int,
                 string_length: int, rng: np.random.Generator):
        self.feature_dim = feature_dim
        self.hidden_dim = hidden_dim
        self.string_length = string_length
        self.projection = Linear(params, "lh.projection", feature_dim, hidden_dim, rng)
        self.cell = LstmCell(params, "lh.lstm0", hidden_dim, hidden_dim, rng)
        self.head = Linear(params, "lh.head", hidden_dim, 2, rng)

    def forward(self, features: Tensor) -> Tensor:
        if features.data.ndim != 2 or features.shape[1] != self.feature_dim:
            raise ShapeError(f"expected (B, {self.feature_dim}) features, got {features.shape}")
        xw = self.cell.input_product(self.projection(features))
        # (B*L, 2), row b*L + t for sample b at step t
        logits = self.head(lstm_sequence(xw, self.cell.w_h, self.string_length))
        return pair_softmax(reshape(logits, (features.shape[0], 2 * self.string_length)))

    def predict_bits(self, features: np.ndarray) -> np.ndarray:
        """Hard (N, L) int64 bit matrix for (N, D) features, no grad recording.

        forward runs over row blocks whose (4n, rows) gate slab fits
        INFERENCE_BLOCK_BYTES, and equals one forward over the whole batch.
        N = 0 gives a (0, L) matrix.
        """
        return run_in_row_blocks(lambda x: hard_bits(self.forward(Tensor(x)).data), features,
                                 self.feature_dim, 4 * self.hidden_dim,
                                 np.empty((features.shape[0], self.string_length), np.int64))


def freeze_lookup(net: Class2StrNet, class_names: list[str] | None = None) -> StringLookupTable:
    """Materialize the learned encoding; raises CollisionError if not one-to-one."""
    return StringLookupTable(strings_of(net.table()), class_names=class_names)
