"""The combined training objective and its four constituent terms.

total = alpha * H(l, l') + beta * sum_i mu^i H(p_i, q_i)
        - gamma * sum_i (q_i(0)^2 + q_i(1)^2) + delta * L2(W)

The bias term enters negated because it is a reward: it peaks when every
bit distribution commits to 0 or 1. All batch inputs are rank-2, and bit
distributions p and q are packed (B, 2L) tensors whose columns (2i, 2i+1)
belong to bit i (see networks). Every term except the L2 penalty is
averaged over the batch. total_loss reads the weights alpha, beta, gamma,
delta and mu, and the string term's argument order, from a
training.RunConfig, which owns the checks on their ranges.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .autodiff import ShapeError, Tensor, add, cross_entropy, scale, sum_squares
from .nn import ParameterSet

if TYPE_CHECKING:  # training imports this module
    from .training import RunConfig


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


def total_loss(labels: Tensor, predicted: Tensor, p: Tensor, q: Tensor,
               params: ParameterSet, config: RunConfig,
               gamma: float | None = None) -> tuple[Tensor, dict[str, float]]:
    """Combined objective; gamma may be overridden for scheduled decay.

    Returns the scalar loss tensor (for backward) and the scaled term values
    keyed by CSV column: term_class, term_string, term_bias, term_l2 and
    total, their sum.
    """
    effective_gamma = config.gamma if gamma is None else gamma
    t_class = scale(class_loss(labels, predicted), config.alpha)
    t_string = scale(structured_string_loss(p, q, config.mu, config.string_ce_order),
                     config.beta)
    t_bias = scale(bias_regularizer(q), -effective_gamma)
    t_l2 = scale(l2_penalty(params), config.delta)
    total = add(add(t_class, t_string), add(t_bias, t_l2))
    return total, {"term_class": t_class.item(), "term_string": t_string.item(),
                   "term_bias": t_bias.item(), "term_l2": t_l2.item(), "total": total.item()}
