"""The three training objectives and their four constituent terms.

The paper's joint objective (phase 2, train_lh):

total = alpha * H(l, l') + beta * sum_i mu^i H(p_i, q_i)
        - gamma * sum_i (q_i(0)^2 + q_i(1)^2) + delta * L2(W)

summed as (class + string) + (bias + L2). The phase-1 objective (base_loss)
is H(l, l') + delta * L2(W), and the fixed-table objective
(fixed_table_loss) is beta * sum_i mu^i H(t_i, p_i) + delta * L2(W) against
one-hot targets t. Each lists its (term, weight) pairs in that order (joint_terms
for the joint one), which weigh sums as one autodiff.weighted_sum; it returns the
loss tensor and each weighted term as a float keyed by TERMS, "total" last.

The bias term enters negated because it is a reward: it peaks when every
bit distribution commits to 0 or 1. All batch inputs are rank-2, and bit
distributions p and q are packed (B, 2L) tensors whose columns (2i, 2i+1)
belong to bit i (see networks). Every term except the L2 penalty is
averaged over the batch. The objectives read the weights alpha, beta,
delta and mu, gamma's schedule (gamma_at) and the string term's argument
order from a training.RunConfig, which owns the checks on their ranges.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .autodiff import ShapeError, Tensor, cross_entropy, scale, sum_squares, weighted_sum
from .nn import ParameterSet

if TYPE_CHECKING:  # training imports this module
    from .training import RunConfig

TERMS = ("term_class", "term_string", "term_bias", "term_l2", "total")


def _check_bits(p: Tensor, q: Tensor) -> tuple[int, int]:
    """Batch size and string length of two packed (B, 2L) bit tensors."""
    if p.data.ndim != 2 or p.shape != q.shape or p.shape[1] % 2:
        raise ShapeError(f"expected two equal (B, 2L) bit distributions, "
                         f"got {p.shape} and {q.shape}")
    return p.shape[0], p.shape[1] // 2


def bias_regularizer(q: Tensor) -> Tensor:
    """sum_i (q_i(0)^2 + q_i(1)^2), averaged over the batch.

    Per bit the value lives in [0.5, 1]: 0.5 at the uniform pair, 1 at a
    fully biased pair.
    """
    return scale(sum_squares([q]), 1.0 / q.shape[0])


def structured_string_loss(p: Tensor, q: Tensor, mu: float, order: str = "pq") -> Tensor:
    """sum_i mu^i H(p_i, q_i), i starting at 1, averaged over the batch."""
    batch, length = _check_bits(p, q)
    weights = np.repeat([mu ** i for i in range(1, length + 1)], 2)
    ce = cross_entropy(p, q, weights) if order == "pq" else cross_entropy(q, p, weights)
    return scale(ce, 1.0 / batch)


def string_target_loss(target_bits: Tensor, p: Tensor, mu: float) -> Tensor:
    """Structured loss against fixed one-hot bit targets (random-embedding mode)."""
    return structured_string_loss(target_bits, p, mu, "pq")


def class_loss(labels: Tensor, predicted: Tensor) -> Tensor:
    """H(l, l') averaged over the batch."""
    if labels.data.ndim != 2:
        raise ShapeError(f"expected rank-2 label batch, got {labels.shape}")
    return scale(cross_entropy(labels, predicted), 1.0 / labels.shape[0])


def l2_penalty(params: ParameterSet) -> Tensor:
    """Sum of squares of every non-frozen parameter."""
    trainable = params.trainable()
    if not trainable:
        return Tensor(0.0)
    return sum_squares([t for _, t in trainable])


def weigh(terms: dict[str, tuple[Tensor, float]]) -> tuple[Tensor, dict[str, float]]:
    """The sum of (term, weight) pairs as one op, and each weighted term's value, then "total"."""
    loss, scaled = weighted_sum([t for t, _ in terms.values()], [w for _, w in terms.values()])
    return loss, {**dict(zip(terms, scaled)), "total": loss.item()}


def base_loss(labels: Tensor, predicted: Tensor, params: ParameterSet,
              config: RunConfig) -> tuple[Tensor, dict[str, float]]:
    """Phase-1 objective: H(l, l') + delta * L2(W); alpha weighs the joint objective only."""
    return weigh({"term_class": (class_loss(labels, predicted), 1.0),
                  "term_l2": (l2_penalty(params), config.delta)})


def fixed_table_loss(target_bits: np.ndarray, p: Tensor, params: ParameterSet,
                     config: RunConfig) -> tuple[Tensor, dict[str, float]]:
    """Fixed-table objective for (B, L) 0/1 target bits: beta * string term + delta * L2(W)."""
    batch, length = target_bits.shape
    target = np.zeros((batch, 2 * length))
    target[np.arange(batch)[:, np.newaxis], 2 * np.arange(length) + target_bits] = 1.0
    return weigh({"term_string": (string_target_loss(Tensor(target), p, config.mu), config.beta),
                  "term_l2": (l2_penalty(params), config.delta)})


def gamma_at(config: RunConfig, epoch: int) -> float:
    """The bias term's weight at a 1-based epoch; epoch 1's is exactly config.gamma.

    The weight is multiplied by gamma_decay once every gamma_decay_every epochs.
    """
    return config.gamma * config.gamma_decay ** ((epoch - 1) // config.gamma_decay_every)


def joint_terms(labels: Tensor, predicted: Tensor, p: Tensor, q: Tensor, params: ParameterSet,
                config: RunConfig, epoch: int) -> dict[str, tuple[Tensor, float]]:
    """The joint objective's four (term, weight) pairs at a 1-based epoch, keyed by TERMS."""
    return {
        "term_class": (class_loss(labels, predicted), config.alpha),
        "term_string": (structured_string_loss(p, q, config.mu, config.string_ce_order),
                        config.beta),
        "term_bias": (bias_regularizer(q), -gamma_at(config, epoch)),
        "term_l2": (l2_penalty(params), config.delta),
    }


def total_loss(labels: Tensor, predicted: Tensor, p: Tensor, q: Tensor,
               params: ParameterSet, config: RunConfig,
               epoch: int) -> tuple[Tensor, dict[str, float]]:
    """Joint objective at a 1-based epoch, which sets the bias term's gamma_at.

    Returns the scalar loss tensor (for backward) and the weighted values of
    joint_terms plus "total", their sum, keyed by TERMS.
    """
    return weigh(joint_terms(labels, predicted, p, q, params, config, epoch))
