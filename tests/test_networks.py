import numpy as np
import pytest

from lhc import networks
from lhc.autodiff import (ShapeError, Tape, Tensor, check_param_gradients, concat,
                          lstm_sequence, mul, pair_softmax, sum_)
from lhc.data import one_hot
from lhc.networks import (Class2StrNet, CollisionError, LhClassifierNet,
                          Str2ClassNet, StringLookupTable, freeze_lookup, hard_bits,
                          strings_of)
from lhc.nn import Adam, ParameterSet
from lhc.training import _encoding_bits
from lhc.tree import export_tree, tree_from_json


# the rows of each forward call that blocked inference makes, for B-row blocks:
# a tail shorter than B/2 joins the block before it
BLOCK_CASES = {"1": lambda b: [1], "B-1": lambda b: [b - 1], "B": lambda b: [b],
               "B+1": lambda b: [b + 1], "2B+B/2": lambda b: [b, b, b // 2],
               "3B+7": lambda b: [b, b, b + 7]}


def build_nets(seed=0, num_classes=4, length=2, feature_dim=6, hidden=5):
    rng = np.random.default_rng(seed)
    params = ParameterSet()
    c2s = Class2StrNet(params, num_classes, length, rng, hidden_dim=8)
    s2c = Str2ClassNet(params, num_classes, length, rng, hidden_dim=8)
    lh = LhClassifierNet(params, feature_dim, hidden, length, rng)
    return params, c2s, s2c, lh


class TestStringsOf:
    def test_per_bit_argmax(self):
        dist = np.array([[0.9, 0.1, 0.2, 0.8, 0.6, 0.4],
                         [0.3, 0.7, 0.6, 0.4, 0.1, 0.9]])
        assert strings_of(dist) == {0: "010", 1: "101"}

    def test_exact_tie_resolves_to_zero(self):
        assert strings_of(np.full((1, 10), 0.5)) == {0: "00000"}

    def test_fully_biased_rows(self):
        assert strings_of(np.tile([0.0, 1.0], (2, 4))) == {0: "1111", 1: "1111"}

    @pytest.mark.parametrize("shape", [(3, 5), (3, 0), (6,), (2, 2, 2)])
    def test_rejects_anything_but_packed_rows(self, shape):
        with pytest.raises(ShapeError):
            strings_of(np.zeros(shape))

    def test_stable_under_small_perturbation(self):
        # perturbing every probability by less than half the smallest gap
        # cannot change any argmax
        rng = np.random.default_rng(21)
        p1 = rng.uniform(0.1, 0.9, size=(3, 8))
        dist = np.stack([1.0 - p1, p1], axis=2).reshape(3, 16)
        gap = np.abs(dist[:, 1::2] - dist[:, 0::2]).min()
        base = strings_of(dist)
        for _ in range(50):
            noise = rng.uniform(-0.49 * gap, 0.49 * gap, size=dist.shape)
            assert strings_of(dist + noise) == base


class TestClass2Str:
    def test_output_rows_are_stochastic(self):
        _, c2s, _, _ = build_nets()
        q = c2s.forward(Tensor(one_hot(np.array([0, 1, 2, 3]), 4)))
        assert q.shape == (4, 2 * 2)
        np.testing.assert_allclose(q.data.reshape(4, 2, 2).sum(axis=2), 1.0, atol=1e-9)

    def test_zero_heads_give_uniform_bits(self):
        _, c2s, _, _ = build_nets()
        c2s.heads.weight.data[...] = 0.0
        c2s.heads.bias.data[...] = 0.0
        q = c2s.forward(Tensor(one_hot(np.array([2]), 4)))
        np.testing.assert_allclose(q.data, 0.5, atol=1e-15)

    def test_class_count_mismatch_rejected(self):
        _, c2s, _, _ = build_nets()
        with pytest.raises(ShapeError):
            c2s.forward(Tensor(np.zeros((1, 7))))

    def test_encode_rejects_ids_outside_the_classes(self):
        net = Class2StrNet(ParameterSet(), 4, 2, np.random.default_rng(0), hidden_dim=8)
        for bad in (-1, 4):
            with pytest.raises(ValueError, match=f"class id {bad} outside"):
                net.encode(bad)
        np.testing.assert_array_equal(net.encode(3), net.table()[3])

    def test_default_trunk_width(self):
        # one default serves both phase-2 nets
        for net in (Class2StrNet, Str2ClassNet):
            assert net(ParameterSet(), 10, 4, np.random.default_rng(0)).hidden_dim == 500
            assert net(ParameterSet(), 300, 9, np.random.default_rng(0)).hidden_dim == 600
        assert networks.default_hidden_dim(10) == 500


class TestStr2Class:
    def test_output_is_a_distribution(self):
        _, c2s, s2c, _ = build_nets()
        q = c2s.forward(Tensor(one_hot(np.array([1, 3]), 4)))
        out = s2c.forward(q)
        assert out.shape == (2, 4)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_final_layer_gives_uniform(self):
        _, c2s, s2c, _ = build_nets()
        s2c.fc2.weight.data[...] = 0.0
        s2c.fc2.bias.data[...] = 0.0
        q = c2s.forward(Tensor(one_hot(np.array([0]), 4)))
        np.testing.assert_allclose(s2c.forward(q).data, 0.25, atol=1e-15)

    def test_length_mismatch_rejected(self):
        _, c2s, s2c, _ = build_nets()
        q = c2s.forward(Tensor(one_hot(np.array([0]), 4)))
        with pytest.raises(ShapeError):
            s2c.forward(Tensor(q.data[:, :2]))


class TestLhClassifier:
    def test_emits_l_stochastic_pairs(self):
        _, _, _, lh = build_nets()
        p = lh.forward(Tensor(np.random.default_rng(1).standard_normal((3, 6))))
        assert p.shape == (3, 2 * 2)
        np.testing.assert_allclose(p.data.reshape(3, 2, 2).sum(axis=2), 1.0, atol=1e-9)

    def test_zero_head_ignores_features(self):
        _, _, _, lh = build_nets()
        lh.head.weight.data[...] = 0.0
        lh.head.bias.data[...] = 0.0
        rng = np.random.default_rng(2)
        p = lh.forward(Tensor(rng.standard_normal((4, 6)) * 100.0))
        np.testing.assert_allclose(p.data, 0.5, atol=1e-15)

    def test_forward_is_deterministic(self):
        _, _, _, lh = build_nets()
        feats = np.random.default_rng(3).standard_normal((2, 6))
        a = lh.forward(Tensor(feats)).data.copy()
        b = lh.forward(Tensor(feats)).data.copy()
        assert a.tobytes() == b.tobytes()

    def test_bptt_gradients_through_forward(self):
        rng = np.random.default_rng(1)
        params = ParameterSet()
        lh = LhClassifierNet(params, 3, 3, 3, rng)
        feats = Tensor(rng.standard_normal((2, 3)))
        mix = Tensor(rng.standard_normal((2, 6)))

        def loss():
            return sum_(mul(lh.forward(feats), mix))

        err = check_param_gradients(loss, [t for _, t in params.trainable()])
        assert err < 1e-5

    def test_one_step_still_grades_the_recurrent_weights(self):
        # with L = 1 the cell runs from the zero state only, so W_h plays no
        # part; it must still get a zero gradient for Adam to step
        params = ParameterSet()
        lh = LhClassifierNet(params, 4, 3, 1, np.random.default_rng(0))
        adam = Adam(params, lr=1e-3)  # before the backward, whose gradients it takes in
        with Tape() as tape:
            loss = sum_(lh.forward(Tensor(np.ones((2, 4)))))
        tape.backward(loss)
        np.testing.assert_array_equal(lh.cell.w_h.grad, 0.0)
        adam.step()

    def test_feature_dim_checked(self):
        _, _, _, lh = build_nets()
        with pytest.raises(ShapeError):
            lh.forward(Tensor(np.zeros((1, 7))))

    @pytest.mark.parametrize("length", [1, 2, 8])
    @pytest.mark.parametrize("batch", [1, 5])
    def test_forward_matches_the_lstm_cell_step_unroll(self, length, batch):
        rng = np.random.default_rng(100 + 10 * length + batch)
        params = ParameterSet()
        lh = LhClassifierNet(params, 6, 4, length, rng)
        feats = Tensor(rng.standard_normal((batch, 6)) * 3.0, requires_grad=True)
        mix = Tensor(rng.standard_normal((batch, 2 * length)))
        tensors = [feats] + [t for _, t in params.items()]

        def run(forward):
            for t in tensors:
                t.zero_grad()
            with Tape() as tape:
                p = forward(feats)
                loss = sum_(mul(p, mix))
            tape.backward(loss)
            return p.data, [t.grad for t in tensors]

        p_seq, g_seq = run(lh.forward)
        p_ref, g_ref = run(lambda f: step_forward(lh, f))
        np.testing.assert_allclose(p_seq, p_ref, rtol=0, atol=1e-15)
        for a, b in zip(g_seq, g_ref):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_untaped_lstm_sequence_memory_grows_by_less_than_a_gate_block_per_step(
            self, peak_traced_bytes):
        # an unroll that kept every step's (4n, B) gates would add 4n*B*8
        # bytes per step; with no tape one step of gate and cell buffers is
        # kept, and only the (B, steps, n) output grows
        batch, hidden = 4096, 32
        rng = np.random.default_rng(0)
        xw = Tensor(rng.standard_normal((batch, 4 * hidden)))
        w_h = Tensor(rng.standard_normal((4 * hidden, hidden)) * 0.1)
        peaks = {}
        for length in (2, 16):
            _, peaks[length] = peak_traced_bytes(lambda: lstm_sequence(xw, w_h, length))
        assert (peaks[16] - peaks[2]) / 14 < 4 * hidden * batch * 8

    def test_predict_bits_peaks_below_one_whole_batch_gate_block(self, peak_traced_bytes):
        # blocked inference never builds the (4n, B) gate slab of the whole batch
        batch, hidden = 4096, 32
        feats = np.random.default_rng(0).standard_normal((batch, 16))
        lh = LhClassifierNet(ParameterSet(), 16, hidden, 2, np.random.default_rng(0))
        _, peak = peak_traced_bytes(lambda: lh.predict_bits(feats))
        assert peak < 4 * hidden * batch * 8

    @pytest.mark.parametrize("length", [1, 4, 8])
    @pytest.mark.parametrize("case", list(BLOCK_CASES))
    def test_predict_bits_in_blocks_equals_one_whole_forward(self, monkeypatch, length, case):
        hidden = 32
        expected_calls = BLOCK_CASES[case](networks.INFERENCE_BLOCK_BYTES // (8 * 4 * hidden))
        rows = sum(expected_calls)
        rng = np.random.default_rng(10 + length)
        lh = LhClassifierNet(ParameterSet(), 6, hidden, length, rng)
        feats = rng.standard_normal((rows, 6)) * 3.0
        whole = lh.forward(Tensor(feats)).data
        assert 0 < hard_bits(whole).mean() < 1 or rows == 1

        blocks = []
        forward = LhClassifierNet.forward
        monkeypatch.setattr(LhClassifierNet, "forward",
                            lambda net, x: blocks.append(forward(net, x)) or blocks[-1])
        bits = lh.predict_bits(feats)
        assert [p.shape[0] for p in blocks] == expected_calls
        # the soft distributions too, not only the bits drawn from them
        assert np.vstack([p.data for p in blocks]).tobytes() == whole.tobytes()
        assert bits.dtype == np.int64 and bits.tobytes() == hard_bits(whole).tobytes()

    @pytest.mark.parametrize("length", [4, 8])
    @pytest.mark.parametrize("rows", [*range(1, 18), 129, 257, 513])
    def test_inference_equals_the_training_forward_at_every_row_count(self, length, rows):
        # OpenBLAS rounds a product differently by its row count and operand
        # order, so an inference-only path must run the products training
        # runs; the sizes are the bench's, 16 features and 32 hidden units
        rng = np.random.default_rng(rows)
        lh = LhClassifierNet(ParameterSet(), 16, 32, length, rng)
        feats = rng.standard_normal((rows, 16)) * 3.0
        untaped = lh.forward(Tensor(feats)).data
        with Tape():
            taped = lh.forward(Tensor(feats)).data
        assert untaped.tobytes() == taped.tobytes()
        assert lh.predict_bits(feats).tobytes() == hard_bits(taped).tobytes()

    def test_predict_bits_of_no_rows_is_an_empty_bit_matrix(self):
        lh = LhClassifierNet(ParameterSet(), 6, 5, 3, np.random.default_rng(0))
        bits = lh.predict_bits(np.empty((0, 6)))
        assert bits.shape == (0, 3) and bits.dtype == np.int64
        with pytest.raises(ShapeError):
            lh.predict_bits(np.empty((0, 5)))


def step_forward(lh: LhClassifierNet, features: Tensor) -> Tensor:
    """LhClassifierNet.forward one LstmCell.step at a time: the reference for lstm_sequence."""
    xw = lh.cell.input_product(lh.projection(features))
    h = c = None
    logits = []
    for _ in range(lh.string_length):
        h, c = lh.cell.step(xw, h, c)
        logits.append(lh.head(h))
    return pair_softmax(concat(logits, axis=1))


def rig_identity_encoder(strings: list[str]) -> Class2StrNet:
    """Handcraft a Class2Str net that encodes class c as strings[c]."""
    num_classes = len(strings)
    length = len(strings[0])
    params = ParameterSet()
    net = Class2StrNet(params, num_classes, length, np.random.default_rng(0),
                       hidden_dim=num_classes)
    net.trunk.weight.data[...] = np.eye(num_classes)
    net.trunk.bias.data[...] = 0.0
    net.heads.bias.data[...] = 0.0
    for i in range(length):
        net.heads.weight.data[2 * i, :] = 0.0
        net.heads.weight.data[2 * i + 1, :] = [1.0 if s[i] == "1" else -1.0 for s in strings]
    return net


class TestFreezeLookup:
    def test_bijective_table_from_rigged_net(self):
        net = rig_identity_encoder(["00", "01", "10", "11"])
        table = freeze_lookup(net)
        assert table.class_to_string == {0: "00", 1: "01", 2: "10", 3: "11"}

    def test_collision_names_every_pair(self):
        net = rig_identity_encoder(["01", "01", "10", "01"])
        with pytest.raises(CollisionError) as exc:
            freeze_lookup(net)
        assert set(exc.value.pairs) == {(0, 1), (0, 3), (1, 3)}
        assert "0 and 1" in str(exc.value)

    def test_freeze_is_repeatable(self):
        net = rig_identity_encoder(["000", "011", "101", "110"])
        t1 = freeze_lookup(net)
        t2 = freeze_lookup(net)
        assert t1.class_to_string == t2.class_to_string

    def test_every_reader_of_the_encoding_agrees(self):
        params = ParameterSet()
        net = Class2StrNet(params, 8, 10, np.random.default_rng(0), hidden_dim=16)
        for _, t in params.items():
            t.data *= 3.0  # sharper bits: this seed gives eight distinct strings
        soft = net.table()
        assert soft.shape == (8, 20)
        table = freeze_lookup(net)
        strings = table.class_to_string
        assert len(set(strings.values())) == 8
        assert ["".join(map(str, row)) for row in _encoding_bits(net)] == list(strings.values())
        assert table.bits.dtype == np.int64
        np.testing.assert_array_equal(table.bits, _encoding_bits(net))
        assert strings_of(soft) == strings
        for c in range(8):
            np.testing.assert_array_equal(net.encode(c), soft[c])
            # the reference: a one-row forward of the class's one-hot label
            single = net.forward(Tensor(np.eye(8)[c:c + 1])).data
            np.testing.assert_allclose(soft[c], single[0], rtol=0, atol=1e-14)
            assert strings_of(single) == {0: strings[c]}


class TestLookupTable:
    def table(self):
        return StringLookupTable({c: format(c, "04b") for c in range(10)})

    def test_lookup_of_predicted_strings_hit_and_miss(self):
        table = self.table()
        hit = np.tile([1.0, 0.0], 4)
        hit[2:6] = [0.1, 0.9, 0.2, 0.8]
        miss = np.tile([0.0, 1.0], 4)  # "1111" > 9, absent
        strings = strings_of(np.stack([hit, miss]))
        assert strings == {0: "0110", 1: "1111"}
        assert table.class_to_string[6] == strings[0]
        assert strings[1] not in table.class_to_string.values()

    def test_bits_are_the_strings_in_class_order_and_read_only(self):
        table = StringLookupTable({2: "10", 0: "01", 1: "11"})
        np.testing.assert_array_equal(table.bits, [[0, 1], [1, 1], [1, 0]])
        with pytest.raises(ValueError):
            table.bits[0, 0] = 1

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            StringLookupTable({0: "0", 1: "01"})

    def test_duplicate_strings_raise_collision(self):
        with pytest.raises(CollisionError):
            StringLookupTable({0: "01", 1: "01"})

    def test_empty_strings_rejected(self):
        with pytest.raises(ValueError, match="length 0"):
            StringLookupTable({0: ""})

    @pytest.mark.parametrize("names", [["a"], ["a", "b", "c"]])
    def test_class_names_must_name_each_class(self, names):
        with pytest.raises(ValueError, match="class names for 2 classes"):
            StringLookupTable({0: "0", 1: "1"}, class_names=names)

    @pytest.mark.parametrize("names", [[1, None], ["a", 2], [b"a", "b"]])
    def test_class_names_must_be_strings(self, names):
        # tree.json and the DOT export write each name as a string
        with pytest.raises(ValueError, match="class names must be str"):
            StringLookupTable({0: "0", 1: "1"}, class_names=names)

    def test_a_str_given_as_class_names_is_rejected(self):
        with pytest.raises(ValueError, match="list or tuple of str, got 'ab'"):
            StringLookupTable({0: "0", 1: "1"}, class_names="ab")

    def test_json_round_trip(self):
        # tree.json is the one file record of a learned table
        table = StringLookupTable({0: "00", 1: "01", 2: "10"},
                                  class_names=["cat", "dog", "eel"])
        text = export_tree(table, "json")
        clone = tree_from_json(text)
        assert clone.class_to_string == table.class_to_string
        assert clone.class_names == table.class_names
        assert export_tree(clone, "json") == text
