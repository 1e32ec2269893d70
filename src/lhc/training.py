"""Two-phase training: a base extractor+FC model first, then the string
classifier trio against the frozen extractor. Also evaluation, parameter
accounting, the random-embedding ablation, and the string-length sweep."""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .autodiff import Tape, Tensor, add, matmul, scale
from .data import BatchIterator, LabeledDataset, one_hot
from .losses import (HyperParams, class_loss, l2_penalty, string_target_loss,
                     total_loss, structured_string_loss, bias_regularizer)
from .networks import (Class2StrNet, CollisionError, LhClassifierNet,
                       Str2ClassNet, StringLookupTable, freeze_lookup, hard_bits,
                       string_of)
from .nn import (Adam, CheckpointError, Linear, ParameterSet, load_checkpoint,
                 save_checkpoint)

CSV_COLUMNS = ["epoch", "term_class", "term_string", "term_bias", "term_l2",
               "total", "train_acc", "val_acc"]


class TrainingDivergence(RuntimeError):
    """Loss became non-finite."""


class FrozenExtractorChanged(RuntimeError):
    """Phase 2 altered the bytes of the extractor it was meant to keep frozen."""


@dataclass
class RunConfig:
    """Everything a run needs to be reproduced."""

    seed: int = 0
    dataset: str = "features"
    extractor_dims: list[int] = field(default_factory=lambda: [784, 256, 128])
    lstm_hidden: int = 32
    lstm_layers: int = 1
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

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**obj)

    def hyper_params(self, num_classes: int) -> HyperParams:
        return HyperParams(string_length=self.L, num_classes=num_classes,
                           alpha=self.alpha, beta=self.beta, gamma=self.gamma,
                           delta=self.delta, mu=self.mu,
                           string_ce_order=self.string_ce_order)


@dataclass
class TrainReport:
    rows: list[dict]
    final_train_accuracy: float
    final_test_accuracy: float | None
    wall_clock_seconds: float
    seed: int
    config: dict
    extras: dict = field(default_factory=dict)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in self.rows:
                writer.writerow([row["epoch"]] + [repr(float(row[c])) for c in CSV_COLUMNS[1:]])

    def to_json(self) -> str:
        return json.dumps({
            "rows": self.rows,
            "final_train_accuracy": self.final_train_accuracy,
            "final_test_accuracy": self.final_test_accuracy,
            "wall_clock_seconds": self.wall_clock_seconds,
            "seed": self.seed,
            "config": self.config,
            "extras": self.extras,
        }, indent=2, sort_keys=True)


# ------------------------------------------------------------------ models

class MlpExtractor:
    """Feature extractor: Linear layers with tanh between them, linear output."""

    def __init__(self, params: ParameterSet, dims: list[int], rng: np.random.Generator,
                 prefix: str = "extractor"):
        if len(dims) < 2:
            raise ValueError(f"extractor needs at least [in, out] dims, got {dims}")
        self.dims = list(dims)
        self.layers = [Linear(params, f"{prefix}.{i}", dims[i], dims[i + 1], rng)
                       for i in range(len(dims) - 1)]

    @property
    def feature_dim(self) -> int:
        return self.dims[-1]

    def forward(self, x: Tensor) -> Tensor:
        from .autodiff import tanh
        out = x
        for layer in self.layers[:-1]:
            out = tanh(layer(out))
        return self.layers[-1](out)

    def feature_matrix(self, features: np.ndarray, chunk: int = 4096) -> np.ndarray:
        rows = []
        for lo in range(0, features.shape[0], chunk):
            rows.append(self.forward(Tensor(features[lo:lo + chunk])).data)
        return np.vstack(rows)

    def tensors(self):
        return [t for layer in self.layers for t in layer.tensors()]


class FcClassifier:
    """Stacked Linear layers ending in a softmax over the classes."""

    def __init__(self, params: ParameterSet, dims: list[int], rng: np.random.Generator,
                 prefix: str = "fc"):
        if len(dims) < 2:
            raise ValueError(f"classifier needs at least [in, out] dims, got {dims}")
        self.dims = list(dims)
        self.layers = [Linear(params, f"{prefix}.{i}", dims[i], dims[i + 1], rng)
                       for i in range(len(dims) - 1)]

    def forward(self, features: Tensor) -> Tensor:
        from .autodiff import softmax, tanh
        out = features
        for layer in self.layers[:-1]:
            out = tanh(layer(out))
        return softmax(self.layers[-1](out))

    def tensors(self):
        return [t for layer in self.layers for t in layer.tensors()]


class BaseModel:
    """Extractor plus FC classifier, trained jointly in phase 1."""

    def __init__(self, params: ParameterSet, extractor_dims: list[int], num_classes: int,
                 rng: np.random.Generator, fc_dims: list[int] | None = None):
        self.params = params
        self.num_classes = num_classes
        self.extractor = MlpExtractor(params, extractor_dims, rng)
        self.fc = FcClassifier(params, fc_dims or [extractor_dims[-1], num_classes], rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc.forward(self.extractor.forward(x))

    def predict_classes(self, features: np.ndarray, chunk: int = 4096) -> np.ndarray:
        out = []
        for lo in range(0, features.shape[0], chunk):
            probs = self.forward(Tensor(features[lo:lo + chunk])).data
            out.append(probs.argmax(axis=1))
        return np.concatenate(out)


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
    return (ds.subset(np.sort(perm[:-held]), "train"),
            ds.subset(np.sort(perm[-held:]), "val"))


def _snapshot(params: ParameterSet) -> dict[str, np.ndarray]:
    return {n: t.data.copy() for n, t in params.trainable()}


def _restore(params: ParameterSet, snap: dict[str, np.ndarray]) -> None:
    for n, data in snap.items():
        params[n].data[...] = data


# ----------------------------------------------------------------- phase 1

def train_base(train_ds: LabeledDataset, config: RunConfig,
               test_ds: LabeledDataset | None = None) -> tuple[BaseModel, TrainReport]:
    """Train extractor + FC classifier with cross entropy plus the L2 term."""
    if config.extractor_dims[0] != train_ds.feature_dim:
        raise ValueError(f"extractor input dim {config.extractor_dims[0]} does not match "
                         f"data dim {train_ds.feature_dim}")
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    params = ParameterSet()
    model = BaseModel(params, config.extractor_dims, train_ds.num_classes, rng)
    adam = Adam(params, lr=config.lr)

    fit_ds, val_ds = _split_validation(train_ds, config.val_size, config.seed)
    batches = BatchIterator(fit_ds, min(config.batch_size, len(fit_ds)), config.seed)

    rows = []
    best_val = -math.inf
    best_snap = None
    stale = 0
    for epoch in range(1, config.epochs + 1):
        sums = {"term_class": 0.0, "term_l2": 0.0, "total": 0.0}
        seen = 0
        correct = 0
        for x_np, y_np in batches.epoch(epoch):
            x = Tensor(x_np)
            y = Tensor(y_np)
            with Tape() as tape:
                probs = model.forward(x)
                t_class = class_loss(y, probs)
                t_l2 = scale(l2_penalty(params), config.delta)
                loss = add(t_class, t_l2)
            loss_val = loss.item()
            if not math.isfinite(loss_val):
                raise TrainingDivergence(f"non-finite loss {loss_val} at epoch {epoch}")
            tape.backward(loss)
            adam.step()
            adam.zero_grad()
            b = x_np.shape[0]
            seen += b
            correct += int((probs.data.argmax(axis=1) == y_np.argmax(axis=1)).sum())
            sums["term_class"] += t_class.item() * b
            sums["term_l2"] += t_l2.item() * b
            sums["total"] += loss_val * b

        train_acc = correct / seen
        val_acc = float("nan")
        if val_ds is not None:
            val_acc = float((model.predict_classes(val_ds.features) == val_ds.labels).mean())
        rows.append({"epoch": epoch,
                     "term_class": sums["term_class"] / seen,
                     "term_string": 0.0, "term_bias": 0.0,
                     "term_l2": sums["term_l2"] / seen,
                     "total": sums["total"] / seen,
                     "train_acc": train_acc, "val_acc": val_acc})
        if val_ds is not None:
            if val_acc > best_val:
                best_val = val_acc
                best_snap = _snapshot(params)
                stale = 0
            else:
                stale += 1
                if stale >= config.early_stop_patience:
                    break

    if best_snap is not None:
        _restore(params, best_snap)

    final_train = float((model.predict_classes(train_ds.features) == train_ds.labels).mean())
    final_test = None
    if test_ds is not None:
        final_test = float((model.predict_classes(test_ds.features) == test_ds.labels).mean())
    report = TrainReport(rows=rows, final_train_accuracy=final_train,
                         final_test_accuracy=final_test,
                         wall_clock_seconds=time.perf_counter() - start,
                         seed=config.seed, config=config.to_dict())
    return model, report


# ----------------------------------------------------------------- phase 2

@dataclass
class LhTrainResult:
    params: ParameterSet
    extractor: MlpExtractor
    class2str: Class2StrNet
    str2class: Str2ClassNet
    lh: LhClassifierNet
    table: StringLookupTable | None
    collision: str | None
    strings: dict[int, str]
    report: TrainReport


def _clone_extractor(base: BaseModel, params: ParameterSet,
                     rng: np.random.Generator) -> MlpExtractor:
    """Copy the trained extractor into a new set and freeze it there."""
    extractor = MlpExtractor(params, base.extractor.dims, rng)
    for src, dst in zip(base.extractor.tensors(), extractor.tensors()):
        dst.data[...] = src.data
    params.freeze_prefix("extractor.")
    return extractor


def _encoding_bits(class2str: Class2StrNet) -> np.ndarray:
    """Current hard encoding as a (C, L) bit matrix."""
    return hard_bits(class2str.table())


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


def _string_match(lh: LhClassifierNet, feats: np.ndarray, labels: np.ndarray,
                  bits_by_class: np.ndarray, chunk: int = 4096):
    """Exact-match accuracy and per-bit accuracy of predicted strings.

    A sample whose class shares its string with another class can never be
    uniquely credited by table lookup, so it scores as incorrect; with a
    bijective encoding this is plain all-bits-match scoring.
    """
    preds = []
    for lo in range(0, feats.shape[0], chunk):
        preds.append(lh.predict_bits(feats[lo:lo + chunk]))
    predicted = np.vstack(preds)
    target = bits_by_class[labels]
    bit_hits = predicted == target
    codes = bits_by_class @ (1 << np.arange(bits_by_class.shape[1]))
    _, inverse, counts = np.unique(codes, return_inverse=True, return_counts=True)
    unique_string = counts[inverse] == 1
    matched = bit_hits.all(axis=1) & unique_string[labels]
    return float(matched.mean()), bit_hits.mean(axis=0)


def train_lh(base: BaseModel, train_ds: LabeledDataset, config: RunConfig,
             test_ds: LabeledDataset | None = None) -> LhTrainResult:
    """Joint phase-2 training of Class2Str, Str2Class, and the LH classifier.

    The extractor is copied in frozen, so its bytes cannot change; its
    features are precomputed once per dataset. Each step runs Class2Str and
    Str2Class once per distinct class in the batch (phase2_forward), and each
    read of the encoding is one Class2StrNet.table() forward. gamma is halved
    every gamma_decay_every epochs so the bit distributions stay biased while
    the term shrinks over time.
    """
    start = time.perf_counter()
    num_classes = train_ds.num_classes
    hp = config.hyper_params(num_classes)
    rng = np.random.default_rng(config.seed)

    params = ParameterSet()
    extractor = _clone_extractor(base, params, rng)
    frozen_before = params.tobytes(params.names_with_prefix("extractor."))
    class2str = Class2StrNet(params, num_classes, config.L, rng, hidden_dim=config.c2s_hidden)
    str2class = Str2ClassNet(params, num_classes, config.L, rng, hidden_dim=config.s2c_hidden)
    lh = LhClassifierNet(params, extractor.feature_dim, config.lstm_hidden, config.L,
                         rng, num_layers=config.lstm_layers)
    adam = Adam(params, lr=config.lr)

    fit_ds, val_ds = _split_validation(train_ds, config.val_size, config.seed)
    feats_fit = LabeledDataset(extractor.feature_matrix(fit_ds.features), fit_ds.labels,
                               num_classes, "train")
    feats_val = None
    if val_ds is not None:
        feats_val = LabeledDataset(extractor.feature_matrix(val_ds.features), val_ds.labels,
                                   num_classes, "val")
    batches = BatchIterator(feats_fit, min(config.batch_size, len(feats_fit)), config.seed)

    rows = []
    best_val = -math.inf
    best_snap = None
    stale = 0
    for epoch in range(1, config.lh_epochs + 1):
        gamma = hp.gamma * config.gamma_decay ** ((epoch - 1) // config.gamma_decay_every)
        sums = {c: 0.0 for c in ("term_class", "term_string", "term_bias", "term_l2", "total")}
        seen = 0
        correct = 0
        for f_np, y_np in batches.epoch(epoch):
            with Tape() as tape:
                l_prime, p, q = phase2_forward(class2str, str2class, lh, y_np, f_np)
                loss, rep = total_loss(Tensor(y_np), l_prime, p, q, params, hp, gamma=gamma)
            if not math.isfinite(rep.total):
                raise TrainingDivergence(f"non-finite loss {rep.total} at epoch {epoch}")
            tape.backward(loss)
            adam.step()
            adam.zero_grad()
            b = f_np.shape[0]
            seen += b
            # running accuracy: predicted string matches the current encoding
            correct += int((hard_bits(p.data) == hard_bits(q.data)).all(axis=1).sum())
            for key, val in (("term_class", rep.term_class), ("term_string", rep.term_string),
                             ("term_bias", rep.term_bias), ("term_l2", rep.term_l2),
                             ("total", rep.total)):
                sums[key] += val * b

        train_acc = correct / seen
        val_acc = float("nan")
        if feats_val is not None:
            bits = _encoding_bits(class2str)
            val_acc, _ = _string_match(lh, feats_val.features, feats_val.labels, bits)
        rows.append({"epoch": epoch, **{k: sums[k] / seen for k in sums},
                     "train_acc": train_acc, "val_acc": val_acc})
        if feats_val is not None:
            if val_acc > best_val:
                best_val = val_acc
                best_snap = _snapshot(params)
                stale = 0
            else:
                stale += 1
                if stale >= config.early_stop_patience:
                    break

    if best_snap is not None:
        _restore(params, best_snap)

    if params.tobytes(params.names_with_prefix("extractor.")) != frozen_before:
        raise FrozenExtractorChanged("frozen extractor changed during phase 2")

    soft = class2str.table()
    strings = {c: string_of(row.reshape(-1, 2)) for c, row in enumerate(soft)}
    table = None
    collision = None
    try:
        table = freeze_lookup(class2str, class_names=train_ds.class_names)
    except CollisionError as exc:
        collision = str(exc)

    mean_bit_bias = float(soft.reshape(num_classes, -1, 2).max(axis=2).mean())

    final_train = rows[-1]["train_acc"] if rows else 0.0
    final_test = None
    if test_ds is not None:
        feats_test = extractor.feature_matrix(test_ds.features)
        final_test, _ = _string_match(lh, feats_test, test_ds.labels, hard_bits(soft))

    # the inference-time classifiers: the base FC head against projection,
    # LSTM and bit head; Class2Str and Str2Class only train
    sizes = count_params({"base_fc": base.fc, "lh_classifier": lh}).per_part
    report = TrainReport(rows=rows, final_train_accuracy=final_train,
                         final_test_accuracy=final_test,
                         wall_clock_seconds=time.perf_counter() - start,
                         seed=config.seed, config=config.to_dict(),
                         extras={"mean_bit_bias": mean_bit_bias,
                                 "collision": collision,
                                 "base_fc_params": sizes["base_fc"],
                                 "lh_classifier_params": sizes["lh_classifier"],
                                 "parameter_reduction": parameter_reduction(
                                     sizes["base_fc"], sizes["lh_classifier"])})
    return LhTrainResult(params=params, extractor=extractor, class2str=class2str,
                         str2class=str2class, lh=lh, table=table, collision=collision,
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
    num_no_match.
    """
    extractor = getattr(base, "extractor", base)
    feats = extractor.feature_matrix(data.features)
    bits_by_class = np.array([[int(b) for b in table.class_to_string[c]]
                              for c in range(table.num_classes)])
    acc, per_bit = _string_match(lh, feats, data.labels, bits_by_class)

    preds = []
    for lo in range(0, feats.shape[0], 4096):
        preds.append(lh.predict_bits(feats[lo:lo + 4096]))
    # strings as integer codes: bit i weighs 2^i, the same on both sides
    weights = 1 << np.arange(table.string_length)
    no_match = int((~np.isin(np.vstack(preds) @ weights, bits_by_class @ weights)).sum())
    return EvalResult(accuracy=acc, per_bit_accuracy=[float(x) for x in per_bit],
                      num_samples=len(data), num_no_match=no_match)


# ----------------------------------------------------------------- ablation

def random_lookup_table(num_classes: int, string_length: int, seed: int,
                        class_names: list[str] | None = None) -> StringLookupTable:
    """Uniform random one-to-one class-to-string table (rejection sampling)."""
    if string_length < math.ceil(math.log2(num_classes)):
        raise ValueError(f"L={string_length} cannot embed {num_classes} classes")
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


def _target_bits(bits: np.ndarray) -> Tensor:
    """(B, L) hard bits -> constant one-hot (B, 2L) bit distributions."""
    batch, length = bits.shape
    out = np.zeros((batch, 2 * length))
    out[np.arange(batch)[:, np.newaxis], 2 * np.arange(length) + bits] = 1.0
    return Tensor(out)


def train_fixed_embedding(base: BaseModel, train_ds: LabeledDataset,
                          table: StringLookupTable, config: RunConfig,
                          test_ds: LabeledDataset | None = None) -> tuple[LhClassifierNet, TrainReport]:
    """Train only the LH classifier against a fixed string table.

    Loss keeps the beta- and mu-weighted string term plus the L2 penalty;
    the class and bias terms have no role without Class2Str/Str2Class.
    """
    start = time.perf_counter()
    num_classes = train_ds.num_classes
    rng = np.random.default_rng(config.seed)
    params = ParameterSet()
    extractor = _clone_extractor(base, params, rng)
    lh = LhClassifierNet(params, extractor.feature_dim, config.lstm_hidden, config.L,
                         rng, num_layers=config.lstm_layers)
    adam = Adam(params, lr=config.lr)

    bits_by_class = np.array([[int(b) for b in table.class_to_string[c]]
                              for c in range(num_classes)])

    fit_ds, val_ds = _split_validation(train_ds, config.val_size, config.seed)
    feats_fit = LabeledDataset(extractor.feature_matrix(fit_ds.features), fit_ds.labels,
                               num_classes, "train")
    feats_val = None
    if val_ds is not None:
        feats_val = LabeledDataset(extractor.feature_matrix(val_ds.features), val_ds.labels,
                                   num_classes, "val")
    batches = BatchIterator(feats_fit, min(config.batch_size, len(feats_fit)), config.seed)

    rows = []
    best_val = -math.inf
    best_snap = None
    stale = 0
    for epoch in range(1, config.lh_epochs + 1):
        sums = {"term_string": 0.0, "term_l2": 0.0, "total": 0.0}
        seen = 0
        correct = 0
        for f_np, y_np in batches.epoch(epoch):
            label_ids = y_np.argmax(axis=1)
            targets = _target_bits(bits_by_class[label_ids])
            feats = Tensor(f_np)
            with Tape() as tape:
                p = lh.forward(feats)
                t_string = scale(string_target_loss(targets, p, config.mu), config.beta)
                t_l2 = scale(l2_penalty(params), config.delta)
                loss = add(t_string, t_l2)
            loss_val = loss.item()
            if not math.isfinite(loss_val):
                raise TrainingDivergence(f"non-finite loss {loss_val} at epoch {epoch}")
            tape.backward(loss)
            adam.step()
            adam.zero_grad()
            b = f_np.shape[0]
            seen += b
            correct += int((hard_bits(p.data) == bits_by_class[label_ids]).all(axis=1).sum())
            sums["term_string"] += t_string.item() * b
            sums["term_l2"] += t_l2.item() * b
            sums["total"] += loss_val * b

        train_acc = correct / seen
        val_acc = float("nan")
        if feats_val is not None:
            val_acc, _ = _string_match(lh, feats_val.features, feats_val.labels, bits_by_class)
        rows.append({"epoch": epoch, "term_class": 0.0,
                     "term_string": sums["term_string"] / seen, "term_bias": 0.0,
                     "term_l2": sums["term_l2"] / seen, "total": sums["total"] / seen,
                     "train_acc": train_acc, "val_acc": val_acc})
        if feats_val is not None:
            if val_acc > best_val:
                best_val = val_acc
                best_snap = _snapshot(params)
                stale = 0
            else:
                stale += 1
                if stale >= config.early_stop_patience:
                    break

    if best_snap is not None:
        _restore(params, best_snap)

    final_test = None
    if test_ds is not None:
        feats_test = extractor.feature_matrix(test_ds.features)
        final_test, _ = _string_match(lh, feats_test, test_ds.labels, bits_by_class)
    report = TrainReport(rows=rows, final_train_accuracy=rows[-1]["train_acc"],
                         final_test_accuracy=final_test,
                         wall_clock_seconds=time.perf_counter() - start,
                         seed=config.seed, config=config.to_dict())
    return lh, report


@dataclass
class AblationResult:
    learned_accuracy: float
    random_accuracy: float

    @property
    def delta(self) -> float:
        return self.learned_accuracy - self.random_accuracy


def ablate_random_embedding(base: BaseModel, train_ds: LabeledDataset,
                            test_ds: LabeledDataset, config: RunConfig,
                            seed: int) -> AblationResult:
    """Learned embedding vs a fixed random bijective embedding, same budget."""
    cfg = replace(config, seed=seed)
    learned = train_lh(base, train_ds, cfg, test_ds=test_ds)
    table = random_lookup_table(train_ds.num_classes, config.L, seed,
                                class_names=train_ds.class_names)
    _, random_report = train_fixed_embedding(base, train_ds, table, cfg, test_ds=test_ds)
    return AblationResult(learned_accuracy=learned.report.final_test_accuracy,
                          random_accuracy=random_report.final_test_accuracy)


# ------------------------------------------------------ parameter accounting

@dataclass
class ParamCount:
    per_part: dict[str, int]
    total: int


def count_params(parts: dict) -> ParamCount:
    """Exact weight+bias counts per named part.

    Part values may be a ParameterSet, an object with tensors(), or an
    iterable of tensors.
    """
    per_part = {}
    for name, part in parts.items():
        if isinstance(part, ParameterSet):
            tensors = [t for _, t in part.items()]
        elif hasattr(part, "tensors"):
            tensors = part.tensors()
        else:
            tensors = list(part)
        per_part[name] = int(sum(t.data.size for t in tensors))
    return ParamCount(per_part=per_part, total=sum(per_part.values()))


def parameter_reduction(reference: int, compressed: int) -> float:
    """Fractional reduction 1 - compressed/reference."""
    return 1.0 - compressed / reference


# ------------------------------------------------------------------- sweep

def sweep_string_length(base: BaseModel, train_ds: LabeledDataset,
                        test_ds: LabeledDataset, l_values: list[int],
                        config: RunConfig) -> list[dict]:
    """Retrain the phase-2 trio per string length, report test accuracy."""
    min_length = math.ceil(math.log2(train_ds.num_classes))
    for l in l_values:
        if l < min_length:
            raise ValueError(f"L={l} cannot embed {train_ds.num_classes} classes "
                             f"(need at least {min_length})")
    points = []
    for l in l_values:
        result = train_lh(base, train_ds, replace(config, L=l), test_ds=test_ds)
        points.append({"L": l, "accuracy": result.report.final_test_accuracy,
                       "collision": result.collision is not None})
    return points


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


def load_base_model(path) -> tuple[BaseModel, dict]:
    params, meta = load_checkpoint(path)
    if meta.get("kind") != "base":
        raise CheckpointError(f"{path}: expected a base-model checkpoint, got {meta.get('kind')!r}")
    config = RunConfig.from_dict(meta["config"])
    fresh = ParameterSet()
    model = BaseModel(fresh, config.extractor_dims, meta["num_classes"],
                      np.random.default_rng(0), fc_dims=meta["fc_dims"])
    _adopt(fresh, params)
    model.params = fresh
    return model, meta


def save_lh_result(path, result: LhTrainResult, config: RunConfig,
                   class_names: list[str] | None) -> None:
    save_checkpoint(path, result.params, {
        "kind": "lh",
        "config": config.to_dict(),
        "num_classes": result.class2str.num_classes,
        "feature_dim": result.extractor.feature_dim,
        "extractor_dims": result.extractor.dims,
        "class_names": class_names,
    })


@dataclass
class LhArtifacts:
    params: ParameterSet
    extractor: MlpExtractor
    class2str: Class2StrNet
    str2class: Str2ClassNet
    lh: LhClassifierNet
    table: StringLookupTable
    meta: dict


def _stack_v1_heads(params: ParameterSet, length: int) -> ParameterSet:
    """Stack a version-1 checkpoint's L "class2str.head{i}" layers into "class2str.heads".

    The stacked weight is the vstack of the per-bit weights and its bias
    their concatenation, the layout Class2StrNet uses since version 2.
    Other checkpoints are returned unchanged.
    """
    heads = [f"class2str.head{i}" for i in range(length)]
    if heads[0] + ".weight" not in params:
        return params
    old = {f"{h}.{kind}" for h in heads for kind in ("weight", "bias")}
    missing = sorted(old - set(params.names()))
    if missing:
        raise CheckpointError(f"version-1 Class2Str heads missing: {missing}")
    out = ParameterSet()
    for name, t in params.items():
        if name == heads[0] + ".weight":
            out.add("class2str.heads.weight",
                    np.vstack([params[h + ".weight"].data for h in heads]))
            out.add("class2str.heads.bias",
                    np.concatenate([params[h + ".bias"].data for h in heads]))
        elif name not in old:
            out.add(name, t.data)
    out.freeze(params.frozen_names() - old)
    return out


def load_lh_result(path) -> LhArtifacts:
    params, meta = load_checkpoint(path)
    if meta.get("kind") != "lh":
        raise CheckpointError(f"{path}: expected an lh checkpoint, got {meta.get('kind')!r}")
    config = RunConfig.from_dict(meta["config"])
    params = _stack_v1_heads(params, config.L)
    num_classes = meta["num_classes"]
    rng = np.random.default_rng(0)
    fresh = ParameterSet()
    extractor = MlpExtractor(fresh, meta["extractor_dims"], rng)
    class2str = Class2StrNet(fresh, num_classes, config.L, rng, hidden_dim=config.c2s_hidden)
    str2class = Str2ClassNet(fresh, num_classes, config.L, rng, hidden_dim=config.s2c_hidden)
    lh = LhClassifierNet(fresh, meta["feature_dim"], config.lstm_hidden, config.L, rng,
                         num_layers=config.lstm_layers)
    _adopt(fresh, params)
    table = freeze_lookup(class2str, class_names=meta.get("class_names"))
    return LhArtifacts(params=fresh, extractor=extractor, class2str=class2str,
                       str2class=str2class, lh=lh, table=table, meta=meta)


def _adopt(dst: ParameterSet, src: ParameterSet) -> None:
    """Copy values and frozen flags between identically named sets."""
    if set(dst.names()) != set(src.names()):
        missing = sorted(set(dst.names()) ^ set(src.names()))
        raise CheckpointError(f"parameter name mismatch: {missing}")
    for name, t in src.items():
        if dst[name].data.shape != t.data.shape:
            raise CheckpointError(f"shape mismatch for {name}: "
                                  f"{dst[name].data.shape} vs {t.data.shape}")
        dst[name].data[...] = t.data
    dst.freeze(src.frozen_names())


# ------------------------------------------------------------ grad checking

def gradcheck_report(seed: int, num_classes: int = 4, string_length: int = 2,
                     lstm_hidden: int = 5, feature_dim: int = 6,
                     batch: int = 2) -> dict[str, float]:
    """Max relative gradient error per loss term on a toy instance."""
    from .autodiff import check_param_gradients

    rng = np.random.default_rng(seed)
    params = ParameterSet()
    class2str = Class2StrNet(params, num_classes, string_length, rng, hidden_dim=8)
    str2class = Str2ClassNet(params, num_classes, string_length, rng, hidden_dim=8)
    lh = LhClassifierNet(params, feature_dim, lstm_hidden, string_length, rng)
    hp = HyperParams(string_length=string_length, num_classes=num_classes,
                     alpha=1.0, beta=1.0, gamma=0.1, delta=1e-4, mu=0.8)

    feats = np.asarray(rng.standard_normal((batch, feature_dim)))
    labels = one_hot(rng.integers(0, num_classes, size=batch), num_classes)

    def graph():
        return (Tensor(labels),) + phase2_forward(class2str, str2class, lh, labels, feats)

    def loss_class():
        l, l_prime, _, _ = graph()
        return scale(class_loss(l, l_prime), hp.alpha)

    def loss_string():
        _, _, p, q = graph()
        return scale(structured_string_loss(p, q, hp.mu), hp.beta)

    def loss_bias():
        _, _, _, q = graph()
        return scale(bias_regularizer(q), -hp.gamma)

    def loss_l2():
        return scale(l2_penalty(params), hp.delta)

    def loss_total():
        l, l_prime, p, q = graph()
        return total_loss(l, l_prime, p, q, params, hp)[0]

    tensors = [t for _, t in params.trainable()]
    return {
        "term_class": check_param_gradients(loss_class, tensors),
        "term_string": check_param_gradients(loss_string, tensors),
        "term_bias": check_param_gradients(loss_bias, tensors),
        "term_l2": check_param_gradients(loss_l2, tensors),
        "total": check_param_gradients(loss_total, tensors),
    }
