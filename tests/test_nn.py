import json
import math
import struct

import numpy as np
import pytest

from lhc.autodiff import Tape, Tensor, check_param_gradients, mul, sum_
from lhc.nn import (Adam, CheckpointError, Linear, LstmCell, MissingGradientError,
                    ParameterSet, load_checkpoint, save_checkpoint, xavier_uniform)


def make_linear(seed, in_dim=3, out_dim=4):
    params = ParameterSet()
    layer = Linear(params, "fc", in_dim, out_dim, np.random.default_rng(seed))
    return params, layer


class TestInitialization:
    def test_same_seed_is_bitwise_identical(self):
        p1, _ = make_linear(7)
        p2, _ = make_linear(7)
        assert p1.tobytes() == p2.tobytes()

    def test_different_seeds_differ(self):
        p1, _ = make_linear(7)
        p2, _ = make_linear(8)
        assert p1.tobytes() != p2.tobytes()

    def test_xavier_bound_matches_formula(self):
        w = xavier_uniform(np.random.default_rng(0), 500, 3136)
        bound = math.sqrt(6.0 / 3636.0)
        assert bound == pytest.approx(0.04062, abs=1e-5)
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.99 * bound  # bound is actually approached

    def test_biases_zero_except_forget_gate(self):
        params = ParameterSet()
        cell = LstmCell(params, "lstm", 3, 5, np.random.default_rng(0))
        bias = cell.bias.data
        np.testing.assert_array_equal(bias[5:10], 1.0)
        np.testing.assert_array_equal(bias[:5], 0.0)
        np.testing.assert_array_equal(bias[10:], 0.0)


class TestLstmStep:
    def test_all_zero_cell_stays_at_rest(self):
        params = ParameterSet()
        cell = LstmCell(params, "lstm", 2, 3, np.random.default_rng(0))
        for t in cell.tensors():
            t.data[...] = 0.0
        h, c = cell.step(cell.input_product(Tensor([[1.0, -1.0]])),
                         Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 3))))
        np.testing.assert_array_equal(h.data, 0.0)
        np.testing.assert_array_equal(c.data, 0.0)

    def test_forget_gate_closed_form(self):
        # zero weights, forget bias 1, c_prev = 1:
        #   c = sigmoid(1) * 1, h = sigmoid(0) * tanh(c)
        params = ParameterSet()
        cell = LstmCell(params, "lstm", 1, 1, np.random.default_rng(0))
        cell.w_x.data[...] = 0.0
        cell.w_h.data[...] = 0.0
        h, c = cell.step(cell.input_product(Tensor([[0.0]])), Tensor([[0.0]]), Tensor([[1.0]]))
        sig1 = 1.0 / (1.0 + math.exp(-1.0))
        assert c.data[0, 0] == pytest.approx(sig1, abs=1e-12)
        assert c.data[0, 0] == pytest.approx(0.731059, abs=1e-6)
        assert h.data[0, 0] == pytest.approx(0.5 * math.tanh(sig1), abs=1e-12)
        assert h.data[0, 0] == pytest.approx(0.311856, abs=1e-6)

    def test_bptt_gradients_over_four_steps(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            params = ParameterSet()
            cell = LstmCell(params, "lstm", 3, 4, rng)
            x_steps = rng.standard_normal((4, 2, 3))
            mix = rng.standard_normal((2, 4))

            def loss():
                h = Tensor(np.zeros((2, 4)))
                c = Tensor(np.zeros((2, 4)))
                for t in range(4):
                    h, c = cell.step(cell.input_product(Tensor(x_steps[t])), h, c)
                return sum_(mul(h, Tensor(mix)))

            err = check_param_gradients(loss, [t for _, t in params.trainable()])
            assert err < 1e-5

    def test_hidden_state_bounded_by_one(self):
        rng = np.random.default_rng(123)
        params = ParameterSet()
        cell = LstmCell(params, "lstm", 3, 6, rng)
        for t in cell.tensors():
            t.data[...] = rng.standard_normal(t.data.shape) * 3.0
        h = Tensor(np.zeros((5, 6)))
        c = Tensor(np.zeros((5, 6)))
        for t in range(20):
            h, c = cell.step(cell.input_product(Tensor(rng.standard_normal((5, 3)) * 10.0)), h, c)
            assert np.abs(h.data).max() <= 1.0


class TestAdam:
    def test_zero_gradient_means_zero_update(self):
        params = ParameterSet()
        p = params.add("w", np.array([1.0, 2.0]))
        adam = Adam(params, lr=0.1)
        p.grad = np.zeros(2)
        adam.step()
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_first_step_is_lr_times_sign(self):
        params = ParameterSet()
        p = params.add("w", np.array([1.0, -1.0]))
        adam = Adam(params, lr=0.1)
        p.grad = np.array([0.5, -2.0])
        adam.step()
        np.testing.assert_allclose(p.data, [1.0 - 0.1, -1.0 + 0.1], atol=1e-7)

    def test_two_constant_steps_match_hand_iteration(self):
        # independent oracle: iterate the scalar recurrence directly
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        theta, m, v = 0.0, 0.0, 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * 1.0
            v = b2 * v + (1 - b2) * 1.0
            theta -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)

        params = ParameterSet()
        p = params.add("w", np.array([0.0]))
        adam = Adam(params, lr=lr)
        for _ in range(2):
            p.grad = np.array([1.0])
            adam.step()
            adam.zero_grad()
        assert p.data[0] == pytest.approx(theta, abs=1e-12)
        assert p.data[0] == pytest.approx(-0.2, abs=1e-6)

    def test_frozen_parameters_stay_bitwise_identical(self):
        rng = np.random.default_rng(0)
        params = ParameterSet()
        params.add("frozen.w", rng.standard_normal(4))
        live = params.add("live.w", rng.standard_normal(4))
        params.freeze(["frozen.w"])
        before = params.tobytes(["frozen.w"])
        adam = Adam(params, lr=0.5)
        for _ in range(25):
            live.grad = rng.standard_normal(4)
            adam.step()
            adam.zero_grad()
        assert params.tobytes(["frozen.w"]) == before
        assert params.tobytes(["live.w"]) != params.tobytes(["frozen.w"])

    def test_missing_gradient_raises(self):
        params = ParameterSet()
        params.add("w", np.zeros(2)).grad = np.ones(2)
        params.add("late", np.zeros(3))
        adam = Adam(params, lr=1e-3)
        with pytest.raises(MissingGradientError, match="'late'"):
            adam.step()

    def test_update_sequence_is_deterministic(self):
        def run():
            rng = np.random.default_rng(5)
            params = ParameterSet()
            layer = Linear(params, "fc", 3, 2, rng)
            adam = Adam(params, lr=1e-2)
            for _ in range(10):
                x = Tensor(rng.standard_normal((4, 3)))
                with Tape() as tape:
                    out = sum_(layer(x))
                tape.backward(out)
                adam.step()
                adam.zero_grad()
            return params.tobytes()

        assert run() == run()

    def test_flat_update_equals_per_tensor_reference_bitwise(self):
        # reference: the textbook update applied tensor by tensor
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(11)
        shapes = {"a": (3, 4), "b": (5,), "frozen": (2,), "c": (), "d": (2, 3)}
        params = ParameterSet()
        for name, shape in shapes.items():
            params.add(name, rng.standard_normal(shape))
        params.freeze(["frozen"])
        ref = {n: t.data.copy() for n, t in params.trainable()}
        m = {n: np.zeros_like(d) for n, d in ref.items()}
        v = {n: np.zeros_like(d) for n, d in ref.items()}
        frozen_before = params.tobytes(["frozen"])
        adam = Adam(params, lr=lr)
        for t in range(1, 26):
            for name, p in params.trainable():
                # a transposed gradient is a non-contiguous view of its buffer
                p.grad = rng.standard_normal(shapes[name][::-1]).T
                g = p.grad
                m[name] = m[name] * b1 + (1.0 - b1) * g
                v[name] = v[name] * b2 + (1.0 - b2) * (g * g)
                m_hat = m[name] / (1.0 - b1 ** t)
                v_hat = v[name] / (1.0 - b2 ** t)
                ref[name] = ref[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
            adam.step()
            adam.zero_grad()
            for name, p in params.trainable():
                assert p.data.shape == shapes[name]
                assert p.data.tobytes() == ref[name].tobytes()
        assert params.tobytes(["frozen"]) == frozen_before

    def test_step_peak_is_under_one_flat_buffer(self, peak_traced_bytes):
        rng = np.random.default_rng(12)
        params = ParameterSet()
        for name, shape in (("a", (64, 128)), ("b", (128,)), ("c", (32, 64))):
            params.add(name, rng.standard_normal(shape)).grad = rng.standard_normal(shape)
        adam = Adam(params, lr=1e-3)
        adam.step()
        _, peak = peak_traced_bytes(adam.step)
        assert peak < adam._flat.nbytes

    def test_step_counter_increments_once_per_update(self):
        params = ParameterSet()
        p = params.add("w", np.zeros(1))
        adam = Adam(params, lr=1e-3)
        for expected in (1, 2, 3):
            p.grad = np.ones(1)
            adam.step()
            assert adam.t == expected


class TestParameterSet:
    def test_duplicate_name_rejected(self):
        params = ParameterSet()
        params.add("w", np.zeros(1))
        with pytest.raises(ValueError):
            params.add("w", np.zeros(1))

    def test_freeze_unknown_name_rejected(self):
        params = ParameterSet()
        with pytest.raises(KeyError):
            params.freeze(["nope"])

    def test_trainable_excludes_frozen(self):
        params = ParameterSet()
        params.add("a", np.zeros(1))
        params.add("b", np.zeros(1))
        params.freeze(["a"])
        assert [n for n, _ in params.trainable()] == ["b"]


class TestCheckpoint:
    def _example_params(self):
        rng = np.random.default_rng(9)
        params = ParameterSet()
        Linear(params, "extractor.0", 4, 3, rng)
        LstmCell(params, "lh.lstm0", 3, 2, rng)
        params.freeze_prefix("extractor.")
        return params

    def test_round_trip_is_bit_exact(self, tmp_path):
        params = self._example_params()
        path = tmp_path / "model.lhc1"
        save_checkpoint(path, params, {"kind": "test", "lr": 1e-3})
        loaded, hyper = load_checkpoint(path)
        assert hyper == {"kind": "test", "lr": 1e-3}
        assert loaded.names() == params.names()
        assert loaded.frozen_names() == params.frozen_names()
        assert loaded.tobytes() == params.tobytes()
        # saving the loaded set reproduces the file byte for byte
        path2 = tmp_path / "again.lhc1"
        save_checkpoint(path2, loaded, hyper)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.lhc1"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        params = self._example_params()
        path = tmp_path / "model.lhc1"
        save_checkpoint(path, params)
        clipped = tmp_path / "clipped.lhc1"
        clipped.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(clipped)


def saved_manifest(tmp_path) -> tuple[dict, bytes]:
    """Manifest and payload of a checkpoint of two parameters, "a" (2,) and "b" (3,)."""
    params = ParameterSet()
    params.add("a", np.arange(2.0))
    params.add("b", np.arange(3.0))
    path = tmp_path / "ok.lhc1"
    save_checkpoint(path, params, {"kind": "test"})
    raw = path.read_bytes()
    (length,) = struct.unpack("<I", raw[4:8])
    return json.loads(raw[8:8 + length]), raw[8 + length:]


def entry_set(index, key, value):
    def mutate(manifest, payload):
        manifest["parameters"][index][key] = value
        return manifest, payload
    return mutate


def entry_drop(index, key):
    def mutate(manifest, payload):
        del manifest["parameters"][index][key]
        return manifest, payload
    return mutate


def manifest_drop(key):
    def mutate(manifest, payload):
        del manifest[key]
        return manifest, payload
    return mutate


@pytest.mark.parametrize("mutate", [
    pytest.param(entry_set(1, "offset", 8), id="overlapping-offsets"),
    pytest.param(lambda m, p: (entry_set(1, "offset", 24)(m, p)[0], p + bytes(8)),
                 id="gap-between-parameters"),
    pytest.param(entry_set(0, "offset", -8), id="negative-offset"),
    pytest.param(entry_set(0, "offset", "0"), id="string-offset"),
    pytest.param(entry_set(1, "shape", [-3]), id="negative-dimension"),
    pytest.param(entry_set(1, "shape", [3.0]), id="float-dimension"),
    pytest.param(entry_set(0, "frozen", 1), id="non-boolean-frozen-flag"),
    pytest.param(entry_set(1, "name", "a"), id="duplicate-name"),
    pytest.param(entry_drop(0, "shape"), id="missing-shape"),
    pytest.param(manifest_drop("parameters"), id="missing-parameters"),
    pytest.param(manifest_drop("hyperparameters"), id="missing-hyperparameters"),
    pytest.param(lambda m, p: (m, p + bytes(8)), id="trailing-payload-bytes"),
    pytest.param(lambda m, p: ([m], p), id="manifest-not-an-object"),
])
def test_malformed_manifest_raises_checkpoint_error(tmp_path, mutate):
    manifest, payload = saved_manifest(tmp_path)
    loaded, _ = load_checkpoint(tmp_path / "ok.lhc1")
    assert loaded["b"].data.tolist() == [0.0, 1.0, 2.0]
    manifest, payload = mutate(manifest, payload)
    body = json.dumps(manifest).encode("utf-8")
    path = tmp_path / "bad.lhc1"
    path.write_bytes(b"LHC1" + struct.pack("<I", len(body)) + body + payload)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
