"""Two-phase training, evaluation, parameter accounting and the phase-2 study.

Phase 1 (train_base) trains the extractor with its FC head. Phase 2
(train_lh) trains the LH classifier jointly with Class2Str and Str2Class
against the frozen extractor, and the ablation (train_fixed_embedding)
trains the LH classifier alone against a fixed string table; study runs
the two at each of a list of string lengths. All three trainers run one
loop, fit, which owns Adam, the seeded minibatches, the tape, the
non-finite check, backward and the optimizer step, the per-epoch rows and
early stopping. A trainer supplies only:

- step(x, y, epoch) -> (loss, terms, hits), run inside the tape on one batch
  of rows and one-hot labels: the (loss, terms) of its losses objective
  (losses.base_loss, losses.total_loss or losses.fixed_table_loss, whose
  terms are keyed by losses.TERMS, "total" included), and the batch's
  correct predictions;
- validate(ds) -> float, the score early stopping compares.

The objectives and their weighting live in losses, and the string codec
(hard bits, strings, a table's bit matrix) in networks; this module defines
neither. A RunConfig holds every setting of a run, the loss weights the
objectives read included, and checks each one's type and range when it is
built, so a bad setting fails before any data is read.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .autodiff import Tape, Tensor, check_param_gradients, matmul, softmax, tanh
from .data import DATASETS, BatchIterator, LabeledDataset, is_count, is_finite_real, one_hot
from .losses import TERMS, base_loss, fixed_table_loss, joint_terms, total_loss, weigh
from .networks import (POOL_MIN_ROWS, Class2StrNet, CollisionError, LhClassifierNet,
                       Str2ClassNet, StringLookupTable, check_class_names, hard_bits,
                       run_in_row_blocks, strings_of)
from .nn import (Adam, CheckpointError, Linear, ParameterSet, load_checkpoint,
                 save_checkpoint)
from .tree import tree_from_obj, tree_obj

CSV_COLUMNS = ["epoch", *TERMS, "train_acc", "val_acc"]

# The longest string: bit 63 would overflow _codes' int64 code.
MAX_STRING_LENGTH = 63


def _codes(bits: np.ndarray) -> np.ndarray:
    """The int64 code of each row of an (N, L) 0/1 bit matrix: bit i weighs 2^i."""
    return bits @ (1 << np.arange(bits.shape[1]))


class TrainingDivergence(RuntimeError):
    """Loss became non-finite."""


class FrozenExtractorChanged(RuntimeError):
    """Training altered the bytes of a frozen parameter, such as phase 2's extractor."""


_INT_FIELD_MINIMUM = {"seed": 0, "L": 1, "lstm_hidden": 1, "epochs": 1, "lh_epochs": 1,
                      "batch_size": 1, "early_stop_patience": 1, "gamma_decay_every": 1,
                      "val_size": 0, "c2s_hidden": 1, "s2c_hidden": 1}
_OPTIONAL_INT_FIELDS = ("c2s_hidden", "s2c_hidden")  # None picks the net's default width
_REAL_FIELDS = ("mu", "alpha", "beta", "gamma", "delta", "lr", "gamma_decay")  # finite


def _dims_ok(dims) -> bool:
    """Whether dims lists the sizes of at least one layer: two or more ints >= 1."""
    return (isinstance(dims, (list, tuple)) and len(dims) >= 2
            and all(is_count(d, 1) for d in dims))


def _check_max_length(string_length: int) -> None:
    if string_length > MAX_STRING_LENGTH:
        raise ValueError(f"L={string_length} exceeds the longest string length, "
                         f"{MAX_STRING_LENGTH}")


def check_string_length(num_classes: int, string_length: int) -> None:
    """Raise ValueError unless there are >= 2 classes and L-bit strings can name each one.

    L must also be at most MAX_STRING_LENGTH.
    """
    _check_max_length(string_length)
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    min_length = math.ceil(math.log2(num_classes))
    if string_length < min_length:
        raise ValueError(f"L={string_length} cannot embed {num_classes} classes "
                         f"(need at least {min_length})")


@dataclass
class RunConfig:
    """Everything a run needs to be reproduced; a bad field raises ValueError naming it.

    Beyond each field's type: alpha, beta, gamma and delta are >= 0, 0 < mu < 1,
    L <= MAX_STRING_LENGTH, dataset is a data.DATASETS kind, and
    string_ce_order is "pq" (H(p, q) as written) or "qp" (swapped).
    """

    seed: int = 0
    dataset: str = "features"
    extractor_dims: list[int] = field(default_factory=lambda: [784, 256, 128])
    lstm_hidden: int = 32
    L: int = 4
    mu: float = 0.8
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 0.1
    delta: float = 1e-4
    lr: float = 1e-3
    batch_size: int = 128
    epochs: int = 20
    lh_epochs: int = 30
    early_stop_patience: int = 5
    val_size: int = 5000
    c2s_hidden: int | None = None
    s2c_hidden: int | None = None
    gamma_decay: float = 0.5
    gamma_decay_every: int = 10
    string_ce_order: str = "pq"

    def __post_init__(self):
        for name, least in _INT_FIELD_MINIMUM.items():
            value = getattr(self, name)
            if not (is_count(value, least) or (value is None and name in _OPTIONAL_INT_FIELDS)):
                raise ValueError(f"{name} must be an int >= {least}, got {value!r}")
        _check_max_length(self.L)
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if not is_finite_real(value):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr!r}")
        if not 0 < self.mu < 1:
            raise ValueError(f"mu must lie strictly inside (0, 1), got {self.mu!r}")
        for name in ("alpha", "beta", "gamma", "delta"):  # the loss weights
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if self.string_ce_order not in ("pq", "qp"):
            raise ValueError(f"string_ce_order must be 'pq' or 'qp', "
                             f"got {self.string_ce_order!r}")
        if not _dims_ok(self.extractor_dims):
            raise ValueError(f"extractor_dims must list at least two ints >= 1, "
                             f"got {self.extractor_dims!r}")
        if not (isinstance(self.dataset, str) and self.dataset in DATASETS):
            raise ValueError(f"dataset must be one of {sorted(DATASETS)}, got {self.dataset!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        """The config a to_dict() object holds; a bad key or value raises ValueError.

        Configs written when the LSTM depth was a setting carry
        "lstm_layers": 1, which is dropped; any other value, such as 2, is
        a model this package no longer builds.
        """
        if not isinstance(obj, dict):
            raise ValueError(f"config must be a JSON object, got {type(obj).__name__}")
        obj = dict(obj)
        layers = obj.pop("lstm_layers", 1)
        if not (is_count(layers, 1) and layers == 1):
            raise ValueError(f"lstm_layers must be 1, the one LSTM layer, got {layers!r}")
        known = set(cls.__dataclass_fields__)
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**obj)


@dataclass
class TrainReport:
    rows: list[dict]
    final_train_accuracy: float
    final_test_accuracy: float | None
    wall_clock_seconds: float
    extras: dict = field(default_factory=dict)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in self.rows:
                writer.writerow([row["epoch"]] + [repr(float(row[c])) for c in CSV_COLUMNS[1:]])

    def to_json(self) -> str:
        """Strict JSON: a row's NaN val_acc, an epoch without validation, is written as null."""
        obj = asdict(self)  # copies the rows, which keep their NaN
        for row in obj["rows"]:
            if math.isnan(row["val_acc"]):
                row["val_acc"] = None
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


# ------------------------------------------------------------------ models

class MlpExtractor:
    """Feature extractor: Linear layers with tanh between them, linear output.

    feature_matrix runs forward over row blocks whose widest (dim, rows)
    activation fits networks.INFERENCE_BLOCK_BYTES; from
    networks.POOL_MIN_ROWS rows on, the calling thread and one row-block
    pool worker share them (networks.run_in_row_blocks).
    """

    def __init__(self, params: ParameterSet, dims: list[int], rng: np.random.Generator,
                 prefix: str = "extractor"):
        if len(dims) < 2:
            raise ValueError(f"{prefix} needs at least [in, out] dims, got {dims}")
        self.dims = list(dims)
        self.layers = [Linear(params, f"{prefix}.{i}", dims[i], dims[i + 1], rng)
                       for i in range(len(dims) - 1)]

    @property
    def feature_dim(self) -> int:
        return self.dims[-1]

    def forward(self, x: Tensor) -> Tensor:
        out = x
        for layer in self.layers[:-1]:
            out = tanh(layer(out))
        return self.layers[-1](out)

    def feature_matrix(self, features: np.ndarray) -> np.ndarray:
        """(N, dims[-1]) outputs of an (N, dims[0]) array, no grad recording."""
        return run_in_row_blocks(lambda x: self.forward(Tensor(x)).data, features,
                                 self.dims[0], max(self.dims),
                                 np.empty((features.shape[0], self.dims[-1])))


class BaseModel:
    """Extractor plus FC classifier, trained jointly in phase 1.

    fc_dims, the FC head's layer sizes, must run from the extractor's width
    to num_classes, or ValueError is raised; None gives one layer between them.
    """

    def __init__(self, params: ParameterSet, extractor_dims: list[int], num_classes: int,
                 rng: np.random.Generator, fc_dims: list[int] | None = None):
        self.params = params
        self.num_classes = num_classes
        self.extractor = MlpExtractor(params, extractor_dims, rng)
        width = self.extractor.feature_dim
        if fc_dims is None:
            fc_dims = [width, num_classes]
        if not _dims_ok(fc_dims):
            raise ValueError(f"fc_dims must list two or more ints >= 1, got {fc_dims!r}")
        if fc_dims[0] != width or fc_dims[-1] != num_classes:
            raise ValueError(f"fc_dims {fc_dims} do not start at the extractor's width {width} "
                             f"and end at num_classes {num_classes}")
        self.fc = MlpExtractor(params, fc_dims, rng, "fc")

    def forward(self, x: Tensor) -> Tensor:
        return softmax(self.fc.forward(self.extractor.forward(x)))

    def predict_classes(self, features: np.ndarray) -> np.ndarray:
        """(N,) argmax class ids of an (N, D) array, in row blocks as feature_matrix."""
        return run_in_row_blocks(lambda x: self.forward(Tensor(x)).data.argmax(axis=1),
                                 features, self.extractor.dims[0],
                                 max(self.extractor.dims + self.fc.dims),
                                 np.empty(features.shape[0], np.intp))


_VAL_STREAM = 2_147_483_647  # keeps the split stream clear of epoch streams


def _split_validation(ds: LabeledDataset, val_size: int, seed: int):
    """Hold out rows for early stopping; capped for small datasets.

    The held-out rows are the tail of a seeded permutation, not of the file
    order: class-ordered datasets would otherwise lose whole classes from
    the fit set.
    """
    held = min(val_size, len(ds) // 5)
    if held == 0:
        return ds, None
    perm = np.random.default_rng([seed, _VAL_STREAM]).permutation(len(ds))
    return ds.subset(np.sort(perm[:-held])), ds.subset(np.sort(perm[-held:]))


def fit(params: ParameterSet, fit_ds: LabeledDataset, val_ds: LabeledDataset | None,
        config: RunConfig, epochs: int, step, validate) -> tuple[list[dict], int, str]:
    """Train params with Adam on fit_ds; return (rows, best_epoch, stop_reason).

    Each epoch adds one row in CSV_COLUMNS order: the batch-size-weighted
    means of the step's terms (0.0 for a term it does not report), hits per
    row, and validate(val_ds), NaN without val_ds. With val_ds, training
    stops (stop_reason "patience") once early_stop_patience epochs in a row
    fail to strictly beat the best score, and the parameters of the first
    epoch with that score are restored. Without val_ds every epoch runs
    (stop_reason "epochs", as for a run that was not stopped early) and the
    last one is kept. If a frozen parameter's bytes differ after the last
    epoch from before the first, fit raises FrozenExtractorChanged.
    """
    frozen_before = params.tobytes(params.frozen_names())
    adam = Adam(params, lr=config.lr)
    batches = BatchIterator(fit_ds, min(config.batch_size, len(fit_ds)), config.seed)
    rows = []
    best_val, best_epoch, best_snap, stale = -math.inf, None, None, 0
    stop_reason = "epochs"
    for epoch in range(1, epochs + 1):
        sums = dict.fromkeys(TERMS, 0.0)
        seen = 0
        correct = 0
        for x_np, y_np in batches.epoch(epoch):
            with Tape() as tape:
                loss, terms, hits = step(x_np, y_np, epoch)
            if not math.isfinite(terms["total"]):
                raise TrainingDivergence(f"non-finite loss {terms['total']} at epoch {epoch}")
            tape.backward(loss)
            adam.step()
            adam.zero_grad()
            b = x_np.shape[0]
            seen += b
            correct += hits
            for key, value in terms.items():
                sums[key] += value * b

        val_acc = float("nan") if val_ds is None else validate(val_ds)
        rows.append({"epoch": epoch, **{k: total / seen for k, total in sums.items()},
                     "train_acc": correct / seen, "val_acc": val_acc})
        if val_ds is None:
            continue
        if val_acc > best_val:
            best_val, best_epoch, stale = val_acc, epoch, 0
            best_snap = adam.flat.copy()
        else:
            stale += 1
            if stale >= config.early_stop_patience:
                stop_reason = "patience"
                break

    if params.tobytes(params.frozen_names()) != frozen_before:
        raise FrozenExtractorChanged("frozen parameters changed during training")
    if best_snap is None:
        return rows, len(rows), stop_reason
    adam.flat[...] = best_snap
    return rows, best_epoch, stop_reason


def _report(rows: list[dict], final_train: float, final_test: float | None, start: float,
            **extras) -> TrainReport:
    """The report of a run that began at perf_counter() time start."""
    return TrainReport(rows=rows, final_train_accuracy=final_train,
                       final_test_accuracy=final_test,
                       wall_clock_seconds=time.perf_counter() - start, extras=extras)


def _check_test_split(train_ds: LabeledDataset, test_ds: LabeledDataset | None) -> None:
    """Raise ValueError unless test_ds, if given, has train_ds's classes and feature width."""
    if test_ds is not None and ((test_ds.num_classes, test_ds.feature_dim)
                                != (train_ds.num_classes, train_ds.feature_dim)):
        raise ValueError(f"test split has C={test_ds.num_classes} classes and D="
                         f"{test_ds.feature_dim} features, but the training split has C="
                         f"{train_ds.num_classes} and D={train_ds.feature_dim}")


# ----------------------------------------------------------------- phase 1

def train_base(train_ds: LabeledDataset, config: RunConfig,
               test_ds: LabeledDataset | None = None) -> tuple[BaseModel, TrainReport]:
    """Train extractor + FC classifier on losses.base_loss.

    An extractor that does not fit the data, or a test split that does not
    match the training split, raises ValueError before any work.
    """
    if config.extractor_dims[0] != train_ds.feature_dim:
        raise ValueError(f"extractor input dim {config.extractor_dims[0]} does not match "
                         f"data dim {train_ds.feature_dim}")
    _check_test_split(train_ds, test_ds)
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    params = ParameterSet()
    model = BaseModel(params, config.extractor_dims, train_ds.num_classes, rng)

    def step(x_np, y_np, epoch):
        probs = model.forward(Tensor(x_np))
        loss, terms = base_loss(Tensor(y_np), probs, params, config)
        return loss, terms, int((probs.data.argmax(axis=1) == y_np.argmax(axis=1)).sum())

    def accuracy(ds):
        return float((model.predict_classes(ds.features) == ds.labels).mean())

    fit_ds, val_ds = _split_validation(train_ds, config.val_size, config.seed)
    rows, best_epoch, stop_reason = fit(params, fit_ds, val_ds, config, config.epochs,
                                        step, accuracy)
    return model, _report(rows, accuracy(train_ds), None if test_ds is None else accuracy(test_ds),
                          start, best_epoch=best_epoch, stop_reason=stop_reason)


# ----------------------------------------------------------------- phase 2

@dataclass
class LhTrainResult:
    params: ParameterSet
    extractor: MlpExtractor
    lh: LhClassifierNet
    table: StringLookupTable | None  # None when strings collide: see report.extras["collision"]
    strings: dict[int, str]
    report: TrainReport


def _phase2_start(base: BaseModel, train_ds: LabeledDataset,
                  test_ds: LabeledDataset | None, config: RunConfig):
    """(params, rng, extractor, fit, val, test): what both phase-2 trainers start from.

    The trained extractor is copied into a new set, name by name, and frozen
    there; its layers are drawn from rng = default_rng(config.seed), which
    the caller's nets draw from next. config.extractor_dims, the one record
    of its sizes that a checkpoint keeps, must equal its dims, or ValueError
    is raised before any features are computed. train_ds and test_ds each go
    through the extractor once: fit and val are _split_validation's rows of
    train_ds's features (val None without held-out rows), test is None
    without test_ds.
    """
    if list(config.extractor_dims) != base.extractor.dims:
        raise ValueError(f"config extractor_dims {config.extractor_dims} do not match the "
                         f"base model's extractor dims {base.extractor.dims}")
    rng = np.random.default_rng(config.seed)
    params = ParameterSet()
    extractor = MlpExtractor(params, base.extractor.dims, rng)
    names = params.names_with_prefix("extractor.")
    for name in names:
        params[name].data[...] = base.params[name].data
    params.freeze(names)

    def features(ds):
        return None if ds is None else LabeledDataset(extractor.feature_matrix(ds.features),
                                                      ds.labels, ds.num_classes)

    return (params, rng, extractor,
            *_split_validation(features(train_ds), config.val_size, config.seed),
            features(test_ds))


def _lh_net(params: ParameterSet, feature_dim: int, config: RunConfig,
            rng: np.random.Generator) -> LhClassifierNet:
    """The LH classifier at config's sizes over feature_dim-wide features."""
    return LhClassifierNet(params, feature_dim, config.lstm_hidden, config.L, rng)


def _phase2_nets(params: ParameterSet, num_classes: int, feature_dim: int, config: RunConfig,
                 rng: np.random.Generator) -> tuple[Class2StrNet, Str2ClassNet, LhClassifierNet]:
    """Class2Str, Str2Class and the LH classifier at config's sizes, drawn from rng in turn."""
    class2str = Class2StrNet(params, num_classes, config.L, rng, hidden_dim=config.c2s_hidden)
    str2class = Str2ClassNet(params, num_classes, config.L, rng, hidden_dim=config.s2c_hidden)
    return class2str, str2class, _lh_net(params, feature_dim, config, rng)


def _encoding_bits(class2str: Class2StrNet) -> np.ndarray:
    """Current hard encoding as a (C, L) bit matrix."""
    return hard_bits(class2str.table())


def _check_table_fits(table: StringLookupTable, data_classes: int, net_length: int) -> None:
    """Raise ValueError unless the table has an L-bit string for each class 0..C-1.

    L must also be at most MAX_STRING_LENGTH.
    """
    _check_max_length(table.string_length)
    if (set(table.class_to_string) != set(range(data_classes))
            or table.string_length != net_length):
        raise ValueError(f"lookup table has C={table.num_classes} classes and L="
                         f"{table.string_length} bits, but the data has C={data_classes} "
                         f"classes and the net emits L={net_length} bits")


def phase2_forward(class2str: Class2StrNet, str2class: Str2ClassNet, lh: LhClassifierNet,
                   labels: np.ndarray, features: np.ndarray) -> tuple[Tensor, Tensor, Tensor]:
    """(l_prime, p, q) for a batch of one-hot labels and extractor features.

    q and l_prime depend on the class alone, so Class2Str and Str2Class run
    once per distinct class in the batch. Each sample then takes its class's
    row through matmul with "pick", the labels' columns of those U classes:
    a (B, U) one-hot, so the product is an exact gather, and its backward,
    pick^T @ g, sums the gradients per class.
    """
    classes = np.flatnonzero(labels.any(axis=0))
    pick = Tensor(labels[:, classes])
    q_rows = class2str.forward(Tensor(one_hot(classes, class2str.num_classes)))
    q = matmul(pick, q_rows)
    l_prime = matmul(pick, str2class.forward(q_rows))
    return l_prime, lh.forward(Tensor(features)), q


def _predict_chunks(lh: LhClassifierNet, feats: np.ndarray) -> np.ndarray:
    """lh.predict_bits over the whole of feats, one call per POOL_MIN_ROWS rows."""
    bits = np.empty((feats.shape[0], lh.string_length), np.int64)
    for lo in range(0, feats.shape[0], POOL_MIN_ROWS):
        bits[lo:lo + POOL_MIN_ROWS] = lh.predict_bits(feats[lo:lo + POOL_MIN_ROWS])
    return bits


def _string_match(lh: LhClassifierNet, feats: np.ndarray, labels: np.ndarray,
                  bits_by_class: np.ndarray):
    """Exact-match accuracy and per-bit accuracy of predicted strings.

    A sample whose class shares its string with another class can never be
    uniquely credited by table lookup, so it scores as incorrect; with a
    bijective encoding this is plain all-bits-match scoring.
    """
    predicted = _predict_chunks(lh, feats)
    target = bits_by_class[labels]
    bit_hits = predicted == target
    _, inverse, counts = np.unique(_codes(bits_by_class), return_inverse=True,
                                   return_counts=True)
    unique_string = counts[inverse] == 1
    matched = bit_hits.all(axis=1) & unique_string[labels]
    return float(matched.mean()), bit_hits.mean(axis=0)


def train_lh(base: BaseModel, train_ds: LabeledDataset, config: RunConfig,
             test_ds: LabeledDataset | None = None) -> LhTrainResult:
    """Joint phase-2 training of Class2Str, Str2Class, and the LH classifier.

    _phase2_start copies the extractor in frozen and runs each split through
    it once, and fit checks that its bytes do not change. Each step runs
    Class2Str and Str2Class once per distinct class in the batch
    (phase2_forward), and each read of the encoding is one
    Class2StrNet.table() forward. The bias term's weight follows
    losses.gamma_at's schedule, so it shrinks over time while the bit
    distributions stay biased. Validation scores string matches against the
    current hard encoding. Fewer than two classes, an L too short to give
    each class its own string, a test split whose classes or feature width
    differ from train_ds's, or config.extractor_dims other than the base
    extractor's raises ValueError before any work.
    """
    _check_test_split(train_ds, test_ds)
    num_classes = train_ds.num_classes
    check_string_length(num_classes, config.L)
    start = time.perf_counter()
    params, rng, extractor, fit_ds, val_ds, test = _phase2_start(base, train_ds, test_ds, config)
    class2str, str2class, lh = _phase2_nets(params, num_classes, extractor.feature_dim,
                                            config, rng)

    def step(f_np, y_np, epoch):
        l_prime, p, q = phase2_forward(class2str, str2class, lh, y_np, f_np)
        loss, terms = total_loss(Tensor(y_np), l_prime, p, q, params, config, epoch)
        # running accuracy: predicted string matches the current encoding
        return loss, terms, int((hard_bits(p.data) == hard_bits(q.data)).all(axis=1).sum())

    def validate(ds):
        return _string_match(lh, ds.features, ds.labels, _encoding_bits(class2str))[0]

    rows, best_epoch, stop_reason = fit(params, fit_ds, val_ds, config, config.lh_epochs,
                                        step, validate)

    soft = class2str.table()  # the one read of the final encoding
    strings = strings_of(soft)
    table = None
    collision = None
    try:
        table = StringLookupTable(strings, class_names=train_ds.class_names)
    except CollisionError as exc:
        collision = str(exc)

    mean_bit_bias = float(np.maximum(soft[:, 0::2], soft[:, 1::2]).mean())
    final_test = None if test is None else _string_match(lh, test.features, test.labels,
                                                         hard_bits(soft))[0]

    # the inference-time classifiers: the base FC head against projection,
    # LSTM and bit head; Class2Str and Str2Class only train
    base_fc, lh_classifier = count_params(base.params, "fc."), count_params(params, "lh.")
    report = _report(rows, rows[best_epoch - 1]["train_acc"], final_test, start,
                     mean_bit_bias=mean_bit_bias, collision=collision,
                     base_fc_params=base_fc, lh_classifier_params=lh_classifier,
                     parameter_reduction=parameter_reduction(base_fc, lh_classifier),
                     best_epoch=best_epoch, stop_reason=stop_reason)
    return LhTrainResult(params=params, extractor=extractor, lh=lh, table=table,
                         strings=strings, report=report)


# --------------------------------------------------------------- evaluation

@dataclass
class EvalResult:
    accuracy: float
    per_bit_accuracy: list[float]
    num_samples: int
    num_no_match: int


def evaluate(table: StringLookupTable, lh: LhClassifierNet, base,
             data: LabeledDataset) -> EvalResult:
    """All-bits-match scoring of predicted strings against the lookup table.

    base may be a BaseModel or a bare MlpExtractor. A predicted string
    absent from the table can never match and is also counted in
    num_no_match. A table that does not fit the data's classes or the net's
    string length raises ValueError before any work.
    """
    _check_table_fits(table, data.num_classes, lh.string_length)
    extractor = getattr(base, "extractor", base)
    feats = extractor.feature_matrix(data.features)
    bits_by_class = table.bits
    acc, per_bit = _string_match(lh, feats, data.labels, bits_by_class)

    no_match = int((~np.isin(_codes(_predict_chunks(lh, feats)), _codes(bits_by_class))).sum())
    return EvalResult(accuracy=acc, per_bit_accuracy=[float(x) for x in per_bit],
                      num_samples=len(data), num_no_match=no_match)


# ------------------------------------------------------- ablation and study

def random_lookup_table(num_classes: int, string_length: int, seed: int,
                        class_names: list[str] | None = None) -> StringLookupTable:
    """Uniform random one-to-one class-to-string table (rejection sampling)."""
    check_string_length(num_classes, string_length)
    rng = np.random.default_rng(seed)
    space = 2 ** string_length
    taken: set[int] = set()
    codes = []
    while len(codes) < num_classes:
        v = int(rng.integers(0, space))
        if v not in taken:
            taken.add(v)
            codes.append(v)
    mapping = {c: format(v, f"0{string_length}b") for c, v in enumerate(codes)}
    return StringLookupTable(mapping, class_names=class_names)


def train_fixed_embedding(base: BaseModel, train_ds: LabeledDataset,
                          table: StringLookupTable, config: RunConfig,
                          test_ds: LabeledDataset | None = None) -> tuple[LhClassifierNet, TrainReport]:
    """Train only the LH classifier against a fixed string table.

    The loss is losses.fixed_table_loss: the beta- and mu-weighted string
    term against the table's bits plus the L2 penalty; the class and bias
    terms have no role without Class2Str/Str2Class. A table that does not
    fit the data's classes or config.L, a test split that does not match
    train_ds, or config.extractor_dims other than the base extractor's
    raises ValueError before any work.
    """
    _check_test_split(train_ds, test_ds)
    _check_table_fits(table, train_ds.num_classes, config.L)
    start = time.perf_counter()
    params, rng, extractor, fit_ds, val_ds, test = _phase2_start(base, train_ds, test_ds, config)
    lh = _lh_net(params, extractor.feature_dim, config, rng)
    bits_by_class = table.bits

    def step(f_np, y_np, epoch):
        target = bits_by_class[y_np.argmax(axis=1)]
        p = lh.forward(Tensor(f_np))
        loss, terms = fixed_table_loss(target, p, params, config)
        return loss, terms, int((hard_bits(p.data) == target).all(axis=1).sum())

    def validate(ds):
        return _string_match(lh, ds.features, ds.labels, bits_by_class)[0]

    rows, best_epoch, stop_reason = fit(params, fit_ds, val_ds, config, config.lh_epochs,
                                        step, validate)
    final_test = None if test is None else validate(test)
    return lh, _report(rows, rows[best_epoch - 1]["train_acc"], final_test, start,
                       best_epoch=best_epoch, stop_reason=stop_reason)


def study(base: BaseModel, train_ds: LabeledDataset, test_ds: LabeledDataset | None,
          config: RunConfig, lengths: list[int]) -> list[dict]:
    """The learned table against a random one at each string length: phase 2's experiments.

    Per L, train_lh runs, then train_fixed_embedding on random_lookup_table(C, L, config.seed),
    each giving a row: L, table ("learned" or "random"), test_accuracy and collision (whether
    the learned strings collide). Every run is seeded by config.seed alone. A repeated, too
    short or too long L raises ValueError before the first run.
    """
    if len(set(lengths)) != len(lengths):
        raise ValueError(f"string lengths {lengths} name a length more than once")
    for length in lengths:
        check_string_length(train_ds.num_classes, length)
    rows = []
    for length in lengths:
        run = replace(config, L=length)
        result = train_lh(base, train_ds, run, test_ds=test_ds)
        table = random_lookup_table(train_ds.num_classes, length, config.seed,
                                    class_names=train_ds.class_names)
        random = train_fixed_embedding(base, train_ds, table, run, test_ds=test_ds)[1]
        rows += [{"L": length, "table": "learned", "collision": result.table is None,
                  "test_accuracy": result.report.final_test_accuracy},
                 {"L": length, "table": "random", "collision": False,
                  "test_accuracy": random.final_test_accuracy}]
    return rows


# ------------------------------------------------------ parameter accounting

def count_params(params: ParameterSet, prefix: str) -> int:
    """Exact weight+bias count of the module whose parameter names start with prefix."""
    return sum(params[name].data.size for name in params.names_with_prefix(prefix))


def parameter_reduction(reference: int, compressed: int) -> float:
    """Fractional reduction 1 - compressed/reference."""
    return 1.0 - compressed / reference


# ------------------------------------------------------------- checkpoints

def save_base_model(path, model: BaseModel, config: RunConfig,
                    class_names: list[str] | None) -> None:
    save_checkpoint(path, model.params, {
        "kind": "base",
        "config": config.to_dict(),
        "num_classes": model.num_classes,
        "fc_dims": model.fc.dims,
        "class_names": class_names,
    })


def _load_run_checkpoint(path, kind: str) -> tuple[ParameterSet, dict, RunConfig]:
    """An LHC1 checkpoint of kind "base" or "lh": its parameters, metadata and RunConfig.

    A config that is not a valid RunConfig raises CheckpointError. Each
    loader checks the rest of its kind's metadata and ignores other keys,
    such as the feature_dim and extractor_dims that older lh checkpoints carry.
    """
    params, meta = load_checkpoint(path)
    if meta.get("kind") != kind:
        raise CheckpointError(f"{path}: expected a {kind} checkpoint, got {meta.get('kind')!r}")
    try:
        config = RunConfig.from_dict(meta.get("config"))
    except ValueError as exc:
        raise CheckpointError(f"{path}: bad checkpoint metadata: config: {exc}") from exc
    return params, meta, config


def load_base_model(path) -> tuple[BaseModel, dict]:
    """An LHC1 base checkpoint's model and metadata; bad metadata raises CheckpointError."""
    params, meta, config = _load_run_checkpoint(path, "base")
    num_classes, names = meta.get("num_classes"), meta.get("class_names")
    # a missing or null record is no head at all, not BaseModel's default one
    fc_dims = meta.get("fc_dims") or []
    _check_sizes(path, params, {**_weight_shapes("extractor", config.extractor_dims),
                                **_weight_shapes("fc", fc_dims)})
    fresh = ParameterSet()
    try:
        if not is_count(num_classes, 1):
            raise ValueError("num_classes is not an int >= 1")
        check_class_names(names, num_classes)
        model = BaseModel(fresh, config.extractor_dims, num_classes,
                          np.random.default_rng(0), fc_dims=fc_dims)
    except ValueError as exc:
        raise CheckpointError(f"{path}: bad checkpoint metadata: {exc}") from exc
    _adopt(fresh, params, path)
    return model, meta


def save_lh_result(path, result: LhTrainResult, config: RunConfig) -> None:
    """Write the extractor and LH classifier tensors, and the table as tree.json's leaf list.

    A collided result has no table and raises ValueError.
    """
    if result.table is None:
        raise ValueError(f"{path}: the run's strings collide, so it has no table to save")
    saved = {n: t for n, t in result.params.items() if n.startswith(("extractor.", "lh."))}
    save_checkpoint(path, saved, {"kind": "lh", "config": config.to_dict(),
                                  "tree": tree_obj(result.table)})


@dataclass
class LhArtifacts:
    extractor: MlpExtractor
    lh: LhClassifierNet
    table: StringLookupTable
    config: RunConfig


def load_lh_result(path) -> LhArtifacts:
    """An lh checkpoint's model, and its table, read from the leaf list by tree.tree_from_obj.

    Leaves that fail that check or _check_table_fits (ids 0..C-1, config.L-bit
    strings) raise CheckpointError, as does a file in an older layout, which
    holds class2str.* (and before that str2class.*) tensors.
    """
    params, meta, config = _load_run_checkpoint(path, "lh")
    width, n = config.extractor_dims[-1], config.lstm_hidden
    _check_sizes(path, params, {**_weight_shapes("extractor", config.extractor_dims),
                                "lh.projection.weight": (n, width), "lh.lstm0.w_h": (4 * n, n)})
    rng = np.random.default_rng(0)
    fresh = ParameterSet()
    extractor = MlpExtractor(fresh, config.extractor_dims, rng)
    lh = _lh_net(fresh, extractor.feature_dim, config, rng)
    _adopt(fresh, params, path)
    try:
        table = tree_from_obj(meta.get("tree"))
        _check_table_fits(table, table.num_classes, config.L)
    except ValueError as exc:
        raise CheckpointError(f"{path}: bad checkpoint metadata: tree: {exc}") from exc
    return LhArtifacts(extractor=extractor, lh=lh, table=table, config=config)


def _weight_shapes(prefix: str, dims) -> dict[str, tuple[int, int]]:
    """Each (out, in) weight shape of an MlpExtractor of dims; none for dims it would reject."""
    return ({f"{prefix}.{i}.weight": (dims[i + 1], dims[i]) for i in range(len(dims) - 1)}
            if _dims_ok(dims) else {})


def _check_sizes(path, params: ParameterSet, shapes: dict[str, tuple[int, ...]]) -> None:
    """Raise CheckpointError unless params, read from path, hold each named tensor at its shape.

    Loaders run it on the weights their metadata sizes before they build a
    model of those sizes, so no recorded size allocates more than the file's
    own tensors hold; _adopt runs it on every tensor of the model built.
    """
    for name, shape in shapes.items():
        got = params[name].data.shape if name in params else "no such tensor"
        if got != shape:
            raise CheckpointError(f"{path}: bad checkpoint metadata: its sizes give {name} "
                                  f"the shape {shape}, but the file holds {got}")


def _adopt(dst: ParameterSet, src: ParameterSet, path) -> None:
    """Copy values and frozen flags between identically named sets; src was read from path."""
    if set(dst.names()) != set(src.names()):
        missing = sorted(set(dst.names()) ^ set(src.names()))
        raise CheckpointError(f"{path}: parameter name mismatch: {missing}")
    _check_sizes(path, src, {name: t.data.shape for name, t in dst.items()})
    for name, t in src.items():
        dst[name].data[...] = t.data
    dst.freeze(src.frozen_names())


# ------------------------------------------------------------ grad checking

def gradcheck_report(seed: int) -> dict[str, float]:
    """Max relative gradient error per loss term on a toy instance, at RunConfig's weights.

    Each term of losses.joint_terms is checked alone through losses.weigh, and the
    sum through losses.total_loss, the code train_lh runs, at epoch 1's gamma. Its 6 rows
    over 4 classes repeat a class, so the backward sums samples' gradients into its row.
    """
    num_classes, feature_dim, batch = 4, 6, 6
    rng = np.random.default_rng(seed)
    params = ParameterSet()
    config = RunConfig(L=2, lstm_hidden=5, c2s_hidden=8, s2c_hidden=8)
    class2str, str2class, lh = _phase2_nets(params, num_classes, feature_dim, config, rng)

    feats = np.asarray(rng.standard_normal((batch, feature_dim)))
    labels = one_hot(rng.integers(0, num_classes, size=batch), num_classes)

    def graph():
        return (Tensor(labels),) + phase2_forward(class2str, str2class, lh, labels, feats)

    def term(name):
        return lambda: weigh({name: joint_terms(*graph(), params, config, 1)[name]})[0]

    tensors = [t for _, t in params.trainable()]
    errors = {name: check_param_gradients(term(name), tensors) for name in TERMS[:-1]}
    errors["total"] = check_param_gradients(lambda: total_loss(*graph(), params, config, 1)[0],
                                            tensors)
    return errors
