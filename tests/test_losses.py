import math

import numpy as np
import pytest

from lhc.autodiff import ShapeError, Tape, Tensor, check_param_gradients
from lhc.data import one_hot
from lhc.losses import (TERMS, base_loss, bias_regularizer, class_loss, fixed_table_loss,
                        gamma_at, l2_penalty, string_target_loss, structured_string_loss,
                        total_loss)
from lhc.networks import Class2StrNet, LhClassifierNet, Str2ClassNet
from lhc.nn import ParameterSet
from lhc.training import BaseModel, RunConfig, phase2_forward


def bit_rows(*pairs):
    """One packed (1, 2L) bit-distribution row, a pair per string position."""
    return Tensor(np.array([[v for pair in pairs for v in pair]], dtype=float))


class TestBiasRegularizer:
    def test_uniform_bits(self):
        q = bit_rows(*[(0.5, 0.5)] * 4)
        assert bias_regularizer(q).item() == pytest.approx(2.0)

    def test_fully_biased_bits(self):
        q = bit_rows((0.0, 1.0), (1.0, 0.0), (0.0, 1.0), (1.0, 0.0))
        assert bias_regularizer(q).item() == pytest.approx(4.0)

    def test_single_skewed_bit(self):
        assert bias_regularizer(bit_rows((0.9, 0.1))).item() == pytest.approx(0.82)

    def test_per_bit_value_spans_half_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p1 = rng.uniform(0.0, 1.0)
            val = bias_regularizer(bit_rows((1.0 - p1, p1))).item()
            assert 0.5 <= val <= 1.0 + 1e-12
        assert bias_regularizer(bit_rows((0.5, 0.5))).item() == pytest.approx(0.5)
        assert bias_regularizer(bit_rows((1.0, 0.0))).item() == pytest.approx(1.0)

    def test_batch_mean(self):
        q = Tensor(np.array([[0.5, 0.5], [0.0, 1.0]]))
        assert bias_regularizer(q).item() == pytest.approx((0.5 + 1.0) / 2.0)


class TestStructuredStringLoss:
    def test_geometric_weighting_of_unit_errors(self):
        # H((1,0), (1/e, 1-1/e)) = 1 exactly, at every position
        inv_e = math.exp(-1.0)
        p = bit_rows(*[(1.0, 0.0)] * 4)
        q = bit_rows(*[(inv_e, 1.0 - inv_e)] * 4)
        expected = 0.8 + 0.64 + 0.512 + 0.4096
        assert structured_string_loss(p, q, 0.8).item() == pytest.approx(expected)
        assert expected == pytest.approx(2.3616)

    def test_identical_one_hot_sequences_cost_nothing(self):
        p = bit_rows((1.0, 0.0), (0.0, 1.0))
        q = bit_rows((1.0, 0.0), (0.0, 1.0))
        assert structured_string_loss(p, q, 0.8).item() == pytest.approx(0.0)

    def test_early_errors_cost_more_than_late_ones(self):
        inv_e = math.exp(-1.0)
        perfect = (1.0, 0.0)
        wrong = (inv_e, 1.0 - inv_e)

        def loss_with_error_at(pos, length=4):
            p = bit_rows(*[perfect] * length)
            q = bit_rows(*[wrong if i == pos else perfect for i in range(length)])
            return structured_string_loss(p, q, 0.8).item()

        first = loss_with_error_at(0)
        last = loss_with_error_at(3)
        assert first / last == pytest.approx(0.8 ** -3)
        assert first / last == pytest.approx(1.953125)
        values = [loss_with_error_at(i) for i in range(4)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            structured_string_loss(bit_rows((1, 0)), bit_rows((1, 0), (0, 1)), 0.8)

    def test_qp_order_swaps_arguments(self):
        p = bit_rows((0.7, 0.3))
        q = bit_rows((0.4, 0.6))
        pq = structured_string_loss(p, q, 0.5, order="pq").item()
        qp = structured_string_loss(p, q, 0.5, order="qp").item()
        ce = lambda t, s: -(t[0] * math.log(s[0]) + t[1] * math.log(s[1]))
        assert pq == pytest.approx(0.5 * ce((0.7, 0.3), (0.4, 0.6)))
        assert qp == pytest.approx(0.5 * ce((0.4, 0.6), (0.7, 0.3)))


class TestTotalLoss:
    def toy(self, seed=0, batch=3, num_classes=4, length=2):
        rng = np.random.default_rng(seed)
        params = ParameterSet()
        c2s = Class2StrNet(params, num_classes, length, rng, hidden_dim=6)
        s2c = Str2ClassNet(params, num_classes, length, rng, hidden_dim=6)
        lh = LhClassifierNet(params, 5, 4, length, rng)
        labels = Tensor(one_hot(rng.integers(0, num_classes, batch), num_classes))
        q = c2s.forward(labels)
        l_prime = s2c.forward(q)
        p = lh.forward(Tensor(rng.standard_normal((batch, 5))))
        return params, labels, l_prime, p, q

    def test_all_zero_weights_give_zero(self):
        params, labels, l_prime, p, q = self.toy()
        config = RunConfig(L=2, alpha=0, beta=0, gamma=0, delta=0)
        loss, terms = total_loss(labels, l_prime, p, q, params, config, 1)
        assert loss.item() == 0.0
        assert terms["total"] == 0.0

    def test_pure_bias_term_on_uniform_bits(self):
        params = ParameterSet()
        labels = Tensor(one_hot(np.array([0]), 4))
        l_prime = Tensor(np.full((1, 4), 0.25))
        q = bit_rows(*[(0.5, 0.5)] * 4)
        p = bit_rows(*[(0.5, 0.5)] * 4)
        config = RunConfig(L=4, alpha=0, beta=0, gamma=1.0, delta=0)
        loss, terms = total_loss(labels, l_prime, p, q, params, config, 1)
        assert loss.item() == pytest.approx(-2.0)
        assert terms["term_bias"] == pytest.approx(-2.0)

    def test_matches_scalar_recomputation_oracle(self):
        # independent oracle: plain-float accumulation over the same arrays
        params, labels, l_prime, p, q = self.toy(seed=5)
        config = RunConfig(L=2, alpha=1.3, beta=0.7, gamma=0.2, delta=1e-3, mu=0.6)
        loss, terms = total_loss(labels, l_prime, p, q, params, config, 1)

        batch = labels.shape[0]
        t_class = 0.0
        for b in range(batch):
            for c in range(4):
                t_class -= labels.data[b, c] * math.log(max(l_prime.data[b, c], 1e-12))
        t_class = config.alpha * t_class / batch

        t_string = 0.0
        for i in range(2):
            for b in range(batch):
                for v in range(2):
                    t_string -= (config.mu ** (i + 1)) * p.data[b, 2 * i + v] * math.log(
                        max(q.data[b, 2 * i + v], 1e-12))
        t_string = config.beta * t_string / batch

        t_bias = 0.0
        for i in range(2):
            for b in range(batch):
                t_bias += q.data[b, 2 * i] ** 2 + q.data[b, 2 * i + 1] ** 2
        t_bias = -config.gamma * t_bias / batch

        t_l2 = config.delta * sum(float((t.data ** 2).sum()) for _, t in params.trainable())

        assert terms["term_class"] == pytest.approx(t_class, abs=1e-12)
        assert terms["term_string"] == pytest.approx(t_string, abs=1e-12)
        assert terms["term_bias"] == pytest.approx(t_bias, abs=1e-12)
        assert terms["term_l2"] == pytest.approx(t_l2, abs=1e-12)
        assert loss.item() == pytest.approx(t_class + t_string + t_bias + t_l2, abs=1e-12)

    @pytest.mark.parametrize("objective, keys", [
        ("total_loss", TERMS),
        ("base_loss", ("term_class", "term_l2", "total")),
        ("fixed_table_loss", ("term_string", "term_l2", "total")),
    ])
    def test_report_terms_sum_to_total(self, objective, keys):
        for seed in range(5):
            params, labels, l_prime, p, q = self.toy(seed=seed)
            config = RunConfig(L=2)
            if objective == "total_loss":
                loss, terms = total_loss(labels, l_prime, p, q, params, config, 1)
            elif objective == "base_loss":
                loss, terms = base_loss(labels, l_prime, params, config)
            else:
                loss, terms = fixed_table_loss(np.array([[0, 1], [1, 1], [1, 0]]), p, params,
                                               config)
            assert list(terms) == list(keys)
            assert terms["total"] == loss.item()
            assert terms["total"] == pytest.approx(sum(terms[k] for k in keys[:-1]), abs=1e-9)

    def test_gamma_decay_scales_bias_term(self):
        params, labels, l_prime, p, q = self.toy(seed=2)
        config = RunConfig(L=2, gamma=0.4, gamma_decay=0.5, gamma_decay_every=3)
        _, full = total_loss(labels, l_prime, p, q, params, config, 1)
        _, half = total_loss(labels, l_prime, p, q, params, config, 4)
        assert half["term_bias"] == pytest.approx(full["term_bias"] / 2.0)

    @pytest.mark.parametrize("decay", [0.5, 0.0])
    def test_term_bias_is_the_scheduled_gamma_times_the_regularizer(self, decay):
        params, labels, l_prime, p, q = self.toy(seed=3)
        config = RunConfig(L=2, gamma=0.3, gamma_decay=decay, gamma_decay_every=4)
        for epoch in (1, 4, 5, 9):
            _, terms = total_loss(labels, l_prime, p, q, params, config, epoch)
            assert terms["term_bias"] == -gamma_at(config, epoch) * bias_regularizer(q).item()


class TestGammaSchedule:
    @pytest.mark.parametrize("decay", [0.5, 0.0])
    def test_gamma_decays_once_every_gamma_decay_every_epochs(self, decay):
        every = 4
        config = RunConfig(gamma=0.3, gamma_decay=decay, gamma_decay_every=every)
        assert gamma_at(config, 1) == gamma_at(config, every) == 0.3
        assert gamma_at(config, every + 1) == 0.3 * decay
        assert gamma_at(config, 2 * every + 1) == 0.3 * decay ** 2

    def test_gradients_flow_through_all_four_terms(self):
        rng = np.random.default_rng(4)
        params = ParameterSet()
        c2s = Class2StrNet(params, 4, 2, rng, hidden_dim=6)
        s2c = Str2ClassNet(params, 4, 2, rng, hidden_dim=6)
        lh = LhClassifierNet(params, 5, 4, 2, rng)
        config = RunConfig(L=2)
        labels = one_hot(np.array([1, 2]), 4)
        feats = rng.standard_normal((2, 5))

        def loss():
            l = Tensor(labels)
            q = c2s.forward(l)
            return total_loss(l, s2c.forward(q), lh.forward(Tensor(feats)), q, params,
                              config, 1)[0]

        err = check_param_gradients(loss, [t for _, t in params.trainable()])
        assert err < 1e-5

    def test_one_training_step_records_a_fixed_number_of_tape_entries(self):
        # fused Linear, pair softmax and sum of squares, two matmuls that
        # gather the per-class q and l' rows to the samples, six for the
        # LH classifier whatever L is: projection, input product, one
        # lstm_sequence for the whole unroll, one head linear over every
        # step's hidden state, and the reshape to (B, 2L) before pair_softmax,
        # and one weighted_sum for the four weighted terms
        for num_classes, length, expected in ((8, 4, 24), (32, 8, 24)):
            rng = np.random.default_rng(0)
            params = ParameterSet()
            c2s = Class2StrNet(params, num_classes, length, rng, hidden_dim=16)
            s2c = Str2ClassNet(params, num_classes, length, rng, hidden_dim=16)
            lh = LhClassifierNet(params, 6, 8, length, rng)
            labels = one_hot(rng.integers(0, num_classes, 5), num_classes)
            with Tape() as tape:
                l_prime, p, q = phase2_forward(c2s, s2c, lh, labels, rng.standard_normal((5, 6)))
                total_loss(Tensor(labels), l_prime, p, q, params, RunConfig(L=length), 1)
            assert len(tape) == expected
        # the other two objectives end in cross_entropy, its batch mean, the L2
        # sum of squares and weighted_sum: a base step adds them to the
        # extractor's linear, tanh and linear and the FC head's linear and
        # softmax (9), a fixed-table step to the LH classifier's six (10)
        rng = np.random.default_rng(1)
        params = ParameterSet()
        model = BaseModel(params, [6, 8, 4], 3, rng)
        with Tape() as tape:
            base_loss(Tensor(one_hot(np.array([0, 2, 1]), 3)),
                      model.forward(Tensor(rng.standard_normal((3, 6)))), params, RunConfig())
        assert len(tape) == 9
        params = ParameterSet()
        lh = LhClassifierNet(params, 6, 8, 3, rng)
        with Tape() as tape:
            fixed_table_loss(np.array([[0, 1, 1], [1, 0, 0]]),
                             lh.forward(Tensor(rng.standard_normal((2, 6)))), params,
                             RunConfig(L=3))
        assert len(tape) == 10


class TestStringTargetLoss:
    def test_matches_structured_loss_with_hard_targets(self):
        targets = bit_rows((1.0, 0.0), (0.0, 1.0))
        p = bit_rows((0.8, 0.2), (0.3, 0.7))
        direct = string_target_loss(targets, p, 0.8).item()
        expected = 0.8 * -math.log(0.8) + 0.64 * -math.log(0.7)
        assert direct == pytest.approx(expected)

    def test_fixed_table_loss_reads_bits_as_one_hot_targets(self):
        p = bit_rows((0.8, 0.2), (0.3, 0.7))
        _, terms = fixed_table_loss(np.array([[0, 1]]), p, ParameterSet(),
                                    RunConfig(L=2, beta=2.0))
        expected = 0.8 * -math.log(0.8) + 0.64 * -math.log(0.7)
        assert terms == {"term_string": pytest.approx(2.0 * expected), "term_l2": 0.0,
                         "total": pytest.approx(2.0 * expected)}


def test_l2_penalty_covers_only_trainable():
    params = ParameterSet()
    params.add("a", np.full(3, 2.0))
    params.add("b", np.full(2, 3.0))
    params.freeze(["a"])
    assert l2_penalty(params).item() == pytest.approx(18.0)


def test_class_loss_is_batch_mean():
    labels = Tensor(one_hot(np.array([0, 1]), 2))
    pred = Tensor(np.array([[0.5, 0.5], [0.25, 0.75]]))
    expected = (-math.log(0.5) - math.log(0.75)) / 2.0
    assert class_loss(labels, pred).item() == pytest.approx(expected)
