"""Dataset ingestion (MNIST IDX, LHF1 feature files), synthetic planted
hierarchies, and deterministic batching.

LHF1 I/O makes no full-size temporary. save_features writes the feature
matrix from its own float64 buffer, with no copy. load_features checks the
header's N and D against the file size before it allocates anything, then
reads the payload straight into the one (N, D) array the dataset keeps. The
non-finite scan runs once per dataset, in LabeledDataset, and allocates
nothing unless a value is not finite. The IDX reader likewise checks the
header's sizes against the bytes it read, so no header value sizes an
allocation.
"""

from __future__ import annotations

import gzip
import math
import numbers
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .networks import StringLookupTable, check_class_names

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
# Each MNIST split's IDX image and label files
MNIST_FILES = {"train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
               "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")}
FEATURE_MAGIC = b"LHF1"
LHF1_MAX_CLASSES = 0xFFFF  # LHF1 labels are u16


class DataFormatError(ValueError):
    """A dataset file violates its declared format."""


def is_count(value, least: int) -> bool:
    """Whether value is an int >= least; a bool is an int to Python, but never a count here."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= least


def is_finite_real(value) -> bool:
    """Whether value is a real number other than a bool, NaN or an infinity; safe for any int."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and -math.inf < value < math.inf)


def _check_finite(features: np.ndarray) -> None:
    """Raise DataFormatError naming the first row that holds a NaN or an inf.

    min and max propagate NaN and reach +-inf, so two reductions clear a
    finite matrix without the (N, D) mask the row scan builds.
    """
    if features.size == 0 or (np.isfinite(features.min()) and np.isfinite(features.max())):
        return
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    raise DataFormatError(f"non-finite feature value at row {bad[0]}")


@dataclass
class LabeledDataset:
    """N x D feature rows with integer class labels in [0, num_classes).

    class_names, if given, holds one str name per class (check_class_names).
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    class_names: list[str] | None = None

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] == 0:
            raise DataFormatError(f"features must be a non-empty matrix, got {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise DataFormatError(
                f"labels shape {self.labels.shape} does not match {self.features.shape[0]} rows")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise DataFormatError(
                f"labels outside [0, {self.num_classes}): range "
                f"[{self.labels.min()}, {self.labels.max()}]")
        _check_finite(self.features)
        try:
            check_class_names(self.class_names, self.num_classes)
        except ValueError as exc:
            raise DataFormatError(str(exc)) from None

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, index: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(self.features[index], self.labels[index], self.num_classes,
                              self.class_names)


# ------------------------------------------------------------------- MNIST

def _read_idx(path: Path, magic: int, what: str) -> np.ndarray:
    """The uint8 array of an IDX file, plain or .gz, whose header starts with magic.

    The magic's last byte is the rank, and the header holds one big-endian
    u32 size per axis. The sizes are checked against the bytes read, so no
    header value sizes an allocation, and bytes after the payload are
    rejected. A damaged .gz file raises DataFormatError too.
    """
    gz = path.with_name(path.name + ".gz")
    if path.exists():
        raw = path.read_bytes()
    elif gz.exists():
        try:
            with gzip.open(gz, "rb") as fh:
                raw = fh.read()
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise DataFormatError(f"{gz}: damaged gzip data: {exc}") from exc
    else:
        raise DataFormatError(f"missing IDX file {path} (or {gz.name})")
    start = 4 + 4 * (magic & 0xFF)
    if len(raw) < start:
        raise DataFormatError(f"{path}: truncated IDX header")
    found, *shape = struct.unpack_from(f">{start // 4}I", raw)
    if found != magic:
        raise DataFormatError(f"{path}: bad {what} magic 0x{found:08x}, expected 0x{magic:08x}")
    if len(raw) - start != math.prod(shape):
        raise DataFormatError(f"{path}: header sizes {shape} need {math.prod(shape)} {what} "
                              f"bytes, got {len(raw) - start}")
    return np.frombuffer(raw, np.uint8, offset=start).reshape(shape)


def load_mnist(data_dir, split: str) -> LabeledDataset:
    """The "train" or "test" split of the standard IDX files (plain or .gz) in a directory.

    Only that split's image and label files are read.
    """
    img_name, lab_name = MNIST_FILES[split]
    images = _read_idx(Path(data_dir) / img_name, IDX_IMAGE_MAGIC, "image")
    labels = _read_idx(Path(data_dir) / lab_name, IDX_LABEL_MAGIC, "label")
    count, rows, cols = images.shape
    if count != labels.shape[0]:
        raise DataFormatError(f"{split}: {count} images but {labels.shape[0]} labels")
    # uint8 / 255.0 is float64, bit for bit astype(float64) / 255.0
    return LabeledDataset(images.reshape(count, rows * cols) / 255.0, labels, num_classes=10,
                          class_names=[str(d) for d in range(10)])


# -------------------------------------------------------- planted hierarchy

@dataclass(frozen=True)
class PlantedHierarchySpec:
    """Complete binary hierarchy of depth d over 2^d Gaussian classes.

    Class means follow a random walk down the tree (child mean = parent
    mean + N(0, sigma_level^2 I)); samples add N(0, sigma_within^2 I).
    """

    depth: int
    feature_dim: int
    sigma_level: float = 1.0
    sigma_within: float = 0.1
    samples_per_class: int = 200
    seed: int = 0

    def __post_init__(self):
        # checked before any draw
        for name, least in (("depth", 1), ("feature_dim", 1), ("samples_per_class", 1),
                            ("seed", 0)):
            value = getattr(self, name)
            if not is_count(value, least):
                raise ValueError(f"{name} must be an int >= {least}, got {value!r}")
        for name in ("sigma_level", "sigma_within"):
            value = getattr(self, name)
            if not (is_finite_real(value) and value > 0):
                raise ValueError(f"{name} must be a finite real number > 0, got {value!r}")

    @property
    def num_classes(self) -> int:
        return 2 ** self.depth


def generate_planted(spec: PlantedHierarchySpec) -> tuple[LabeledDataset, StringLookupTable]:
    """Sample the dataset and return it with the planted table, the generating tree.

    Class c's string is the depth-bit binary rendering of c, so sibling
    classes differ only in their last bit.
    """
    rng = np.random.default_rng(spec.seed)
    means = {"": np.zeros(spec.feature_dim)}
    prefixes = [""]
    for _ in range(spec.depth):
        nxt = []
        for prefix in prefixes:
            for bit in "01":
                child = prefix + bit
                means[child] = means[prefix] + spec.sigma_level * rng.standard_normal(spec.feature_dim)
                nxt.append(child)
        prefixes = nxt

    n = spec.num_classes * spec.samples_per_class
    features = np.empty((n, spec.feature_dim))
    for c in range(spec.num_classes):
        # in place, bitwise mean + sigma * z from the same draws, with no temporaries
        rows = features[c * spec.samples_per_class:(c + 1) * spec.samples_per_class]
        rng.standard_normal(out=rows)
        rows *= spec.sigma_within
        rows += means[format(c, f"0{spec.depth}b")]
    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), spec.samples_per_class)

    dataset = LabeledDataset(features, labels, num_classes=spec.num_classes)
    truth = StringLookupTable({c: format(c, f"0{spec.depth}b") for c in range(spec.num_classes)})
    return dataset, truth


def check_test_fraction(test_fraction: float) -> None:
    """Raise ValueError unless 0 < test_fraction < 1, which NaN is not."""
    if not (0.0 < test_fraction < 1.0):
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")


def train_test_split(ds: LabeledDataset, test_fraction: float,
                     seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Deterministic stratified split; test gets ceil(frac * n_c) per class."""
    check_test_fraction(test_fraction)
    rng = np.random.default_rng(seed)
    test_idx = []
    train_idx = []
    for c in range(ds.num_classes):
        rows = np.flatnonzero(ds.labels == c)
        rows = rows[rng.permutation(rows.size)]
        k = math.ceil(test_fraction * rows.size)
        test_idx.append(rows[:k])
        train_idx.append(rows[k:])
    return (ds.subset(np.sort(np.concatenate(train_idx))),
            ds.subset(np.sort(np.concatenate(test_idx))))


# ------------------------------------------------------------ feature files
#
# LHF1 layout: b"LHF1" | u32le N | u32le D | u32le C | N*D little-endian f64
# features (row-major) | N u16le labels. The file size is exactly
# 16 + 8*N*D + 2*N bytes; a reader checks it against the header before it
# allocates, so a damaged header can claim any N and D without a MemoryError.

def save_features(path, ds: LabeledDataset) -> None:
    """Write ds as LHF1, straight from its C-contiguous float64 buffer."""
    if ds.num_classes > LHF1_MAX_CLASSES:
        raise DataFormatError(f"{ds.num_classes} classes, but LHF1 holds at most "
                              f"{LHF1_MAX_CLASSES}")
    features = np.ascontiguousarray(ds.features, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", len(ds), ds.feature_dim, ds.num_classes))
        fh.write(features.data)
        fh.write(ds.labels.astype("<u2").data)


def load_features(path) -> LabeledDataset:
    """Read an LHF1 file into one (N, D) array; a malformed file raises DataFormatError."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if header[:4] != FEATURE_MAGIC:
            raise DataFormatError(f"{path}: bad magic {header[:4]!r}, "
                                  f"expected {FEATURE_MAGIC!r}")
        if len(header) < 16:
            raise DataFormatError(f"{path}: truncated header")
        n, d, c = struct.unpack("<III", header[4:16])
        expected = 16 + n * d * 8 + n * 2
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise DataFormatError(f"{path}: expected {expected} bytes for N={n} D={d}, "
                                  f"got {size}")
        features = np.empty((n, d), dtype="<f8")
        got = fh.readinto(features)
        label_bytes = fh.read(2 * n)
    if got != features.nbytes or len(label_bytes) != 2 * n:
        raise DataFormatError(f"{path}: file shrank while it was read")
    labels = np.frombuffer(label_bytes, dtype="<u2").astype(np.int64)
    try:
        return LabeledDataset(features, labels, num_classes=c)
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


# Each dataset kind's reader of the "train" or "test" split in a directory;
# a reader reads only that split's files
DATASETS = {"features": lambda data_dir, split: load_features(Path(data_dir) / f"{split}.lhf1"),
            "mnist": load_mnist}


def load_split(dataset: str, data_dir, split: str) -> LabeledDataset:
    """The "train" or "test" split of a DATASETS kind in data_dir."""
    return DATASETS[dataset](data_dir, split)


# ----------------------------------------------------------------- batching

def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


class BatchIterator:
    """Shuffled minibatches; the permutation is a pure function of (seed, epoch)."""

    def __init__(self, dataset: LabeledDataset, batch_size: int, seed: int):
        if batch_size < 1 or batch_size > len(dataset):
            raise ValueError(f"batch_size {batch_size} invalid for {len(dataset)} rows")
        self.dataset = dataset
        self.batch_size = batch_size
        self.seed = seed

    def permutation(self, epoch: int) -> np.ndarray:
        return np.random.default_rng([self.seed, epoch]).permutation(len(self.dataset))

    def epoch(self, epoch: int):
        """Yield (features, one-hot labels); the final partial batch is kept."""
        perm = self.permutation(epoch)
        ds = self.dataset
        for lo in range(0, perm.size, self.batch_size):
            rows = perm[lo:lo + self.batch_size]
            yield ds.features[rows], one_hot(ds.labels[rows], ds.num_classes)
