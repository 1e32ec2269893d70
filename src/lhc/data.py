"""Dataset ingestion (MNIST IDX, LHF1 feature files), synthetic planted
hierarchies, and deterministic batching.

LHF1 I/O makes no full-size temporary. save_features writes the feature
matrix from its own float64 buffer, with no copy. load_features checks the
header's N and D against the file size before it allocates anything, then
reads the payload straight into the one (N, D) array the dataset keeps. The
non-finite scan runs once per dataset, in LabeledDataset, and allocates
nothing unless a value is not finite.
"""

from __future__ import annotations

import gzip
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tree import PrefixTree, build_tree

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
FEATURE_MAGIC = b"LHF1"
LHF1_MAX_CLASSES = 0xFFFF  # LHF1 labels are u16


class DataFormatError(ValueError):
    """A dataset file violates its declared format."""


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

    class_names, if given, holds one name per class.
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
        if self.class_names is not None and len(self.class_names) != self.num_classes:
            raise DataFormatError(f"{len(self.class_names)} class names for "
                                  f"{self.num_classes} classes")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, index: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(self.features[index], self.labels[index], self.num_classes,
                              self.class_names)


# ------------------------------------------------------------------- MNIST

def _open_idx(path: Path):
    gz = path.with_name(path.name + ".gz")
    if path.exists():
        return open(path, "rb")
    if gz.exists():
        return gzip.open(gz, "rb")
    raise DataFormatError(f"missing IDX file {path} (or {gz.name})")


def _read_idx_images(path: Path) -> np.ndarray:
    with _open_idx(path) as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise DataFormatError(f"{path}: truncated IDX header")
        magic, count, rows, cols = struct.unpack(">IIII", header)
        if magic != IDX_IMAGE_MAGIC:
            raise DataFormatError(
                f"{path}: bad image magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}")
        payload = fh.read(count * rows * cols)
        if len(payload) != count * rows * cols:
            raise DataFormatError(f"{path}: expected {count * rows * cols} pixel bytes, "
                                  f"got {len(payload)}")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows * cols)
    return pixels.astype(np.float64) / 255.0


def _read_idx_labels(path: Path) -> np.ndarray:
    with _open_idx(path) as fh:
        header = fh.read(8)
        if len(header) < 8:
            raise DataFormatError(f"{path}: truncated IDX header")
        magic, count = struct.unpack(">II", header)
        if magic != IDX_LABEL_MAGIC:
            raise DataFormatError(
                f"{path}: bad label magic 0x{magic:08x}, expected 0x{IDX_LABEL_MAGIC:08x}")
        payload = fh.read(count)
        if len(payload) != count:
            raise DataFormatError(f"{path}: expected {count} label bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).astype(np.int64)


def load_mnist(data_dir) -> tuple[LabeledDataset, LabeledDataset]:
    """Load the four standard IDX files (plain or .gz) from a directory."""
    data_dir = Path(data_dir)
    sets = []
    for split, img_name, lab_name in (
            ("train", "train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
            ("test", "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")):
        images = _read_idx_images(data_dir / img_name)
        labels = _read_idx_labels(data_dir / lab_name)
        if images.shape[0] != labels.shape[0]:
            raise DataFormatError(f"{split}: {images.shape[0]} images but "
                                  f"{labels.shape[0]} labels")
        sets.append(LabeledDataset(images, labels, num_classes=10,
                                   class_names=[str(d) for d in range(10)]))
    return sets[0], sets[1]


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
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.sigma_level <= 0 or self.sigma_within <= 0:
            raise ValueError("sigma_level and sigma_within must be positive")
        if self.feature_dim < 1 or self.samples_per_class < 1:
            raise ValueError("feature_dim and samples_per_class must be positive")

    @property
    def num_classes(self) -> int:
        return 2 ** self.depth


def generate_planted(spec: PlantedHierarchySpec) -> tuple[LabeledDataset, PrefixTree]:
    """Sample the dataset and return it with the generating tree.

    Class c sits at the leaf whose path is the depth-bit binary rendering
    of c, so sibling classes differ only in their last bit.
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
    labels = np.empty(n, dtype=np.int64)
    for c in range(spec.num_classes):
        path = format(c, f"0{spec.depth}b")
        lo = c * spec.samples_per_class
        hi = lo + spec.samples_per_class
        features[lo:hi] = means[path] + spec.sigma_within * rng.standard_normal(
            (spec.samples_per_class, spec.feature_dim))
        labels[lo:hi] = c

    dataset = LabeledDataset(features, labels, num_classes=spec.num_classes)
    truth = build_tree({c: format(c, f"0{spec.depth}b") for c in range(spec.num_classes)})
    return dataset, truth


def train_test_split(ds: LabeledDataset, test_fraction: float,
                     seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Deterministic stratified split; test gets ceil(frac * n_c) per class."""
    if not (0.0 < test_fraction < 1.0):
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
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
