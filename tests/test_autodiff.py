import functools
import math
import threading
import weakref

import numpy as np
import pytest

from lhc.autodiff import (ShapeError, Tape, Tensor, _sigmoid, add, add_bias, concat,
                          check_param_gradients, cross_entropy, linear, lstm_cell,
                          lstm_sequence, matmul, mul, pair_softmax, reshape, scale, sigmoid, slice_, softmax,
                          square, sum_, sum_squares, tanh, transpose, weighted_sum)


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(matmul(eye, m).data, m.data)


def test_matmul_selects_column():
    out = matmul(Tensor([[1.0, 0.0]]), Tensor([[0.0], [5.0]]))
    np.testing.assert_array_equal(out.data, [[0.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(exc.value)


def test_matmul_gradients_match_central_differences():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        weights = rng.standard_normal((3, 2))  # fixed mixing to get a scalar

        def loss():
            return sum_(mul(matmul(a, b), Tensor(weights)))

        assert check_param_gradients(loss, [a]) < 1e-6
        assert check_param_gradients(loss, [b]) < 1e-6


def test_elementwise_fixed_points():
    assert sigmoid(Tensor(0.0)).item() == 0.5
    assert tanh(Tensor(0.0)).item() == 0.0
    assert sum_(square(Tensor([0.5, 0.5]))).item() == pytest.approx(0.5)


def test_binary_ops_reject_shape_mismatch():
    a = Tensor(np.zeros(3))
    b = Tensor(np.zeros(4))
    for op in (add, mul):
        with pytest.raises(ShapeError):
            op(a, b)


def test_slice_bounds_checked():
    t = Tensor(np.zeros((2, 4)))
    with pytest.raises(ShapeError):
        slice_(t, 1, 2, 5)
    with pytest.raises(ShapeError):
        slice_(t, 2, 0, 1)


def test_pair_softmax_fixed_points():
    np.testing.assert_allclose(pair_softmax(Tensor([[0.0, 0.0]])).data, [[0.5, 0.5]],
                               atol=1e-15)
    np.testing.assert_allclose(pair_softmax(Tensor([[math.log(2.0), 0.0]])).data,
                               [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)


def test_pair_softmax_rows_are_stochastic():
    # float64 softmax saturates to exactly 0/1 once the logit gap exceeds
    # ~36.7, so openness is asserted over the representable range
    rng = np.random.default_rng(42)
    logits = Tensor(rng.uniform(-15.0, 15.0, size=(200, 2)))
    out = pair_softmax(logits).data
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_pair_softmax_requires_column_pairs():
    for shape in ((2, 3), (2, 0), (4,)):
        with pytest.raises(ShapeError):
            pair_softmax(Tensor(np.zeros(shape)))


def test_pair_softmax_gradient():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        mix = rng.standard_normal((1, 2))
        point = Tensor(rng.standard_normal(2), requires_grad=True)
        err = check_param_gradients(
            lambda: sum_(mul(pair_softmax(reshape(point, (1, 2))), Tensor(mix))), [point])
        assert err < 1e-6


def test_cross_entropy_values():
    assert cross_entropy(Tensor([0.5, 0.5]), Tensor([0.5, 0.5])).item() == pytest.approx(math.log(2.0))
    assert cross_entropy(Tensor([1.0, 0.0]), Tensor([1.0, 0.0])).item() == pytest.approx(0.0)
    assert cross_entropy(Tensor([1.0, 0.0]), Tensor([0.25, 0.75])).item() == pytest.approx(-math.log(0.25))


def test_cross_entropy_support_mismatch():
    with pytest.raises(ShapeError):
        cross_entropy(Tensor([1.0, 0.0]), Tensor([0.2, 0.3, 0.5]))


def test_cross_entropy_gradient_reaches_both_arguments():
    rng = np.random.default_rng(3)
    target = Tensor(softmax(Tensor(rng.standard_normal(4))).data, requires_grad=True)
    pred = Tensor(softmax(Tensor(rng.standard_normal(4))).data, requires_grad=True)
    with Tape() as tape:
        loss = cross_entropy(target, pred)
    tape.backward(loss)
    assert target.grad is not None and np.any(target.grad != 0)
    assert pred.grad is not None and np.any(pred.grad != 0)


def test_cross_entropy_log_is_clamped_at_zero_pred():
    loss = cross_entropy(Tensor([1.0, 0.0]), Tensor([0.0, 1.0]))
    assert math.isfinite(loss.item())
    assert loss.item() == pytest.approx(-math.log(1e-12))


def test_gradient_check_quadratic_is_nearly_exact():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    err = check_param_gradients(lambda: sum_(square(x)), [x])
    assert err < 1e-8


def test_gradient_check_softmax_of_linear():
    rng = np.random.default_rng(11)
    w = Tensor(rng.standard_normal((2, 5)))
    mix = Tensor(rng.standard_normal((1, 2)))

    def f(x):
        logits = matmul(reshape(x, (1, 5)), transpose(w))
        return sum_(mul(softmax(logits), mix))

    x = Tensor(rng.standard_normal(5), requires_grad=True)
    assert check_param_gradients(lambda: f(x), [x]) < 1e-6


def test_gradient_check_rejects_nonscalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ShapeError):
        check_param_gradients(lambda: square(x), [x])
    np.testing.assert_array_equal(x.data, [1.0, 2.0])


def test_composed_graph_gradients_ten_seeds():
    # exercises matmul, add_bias, tanh, sigmoid, concat, slice_, scale, square
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        w1 = Tensor(rng.standard_normal((4, 3)))
        b1 = Tensor(rng.standard_normal(4))
        w2 = Tensor(rng.standard_normal((2, 4)))

        def f(x):
            h = tanh(add_bias(matmul(reshape(x, (2, 3)), transpose(w1)), b1))
            left = sigmoid(slice_(h, 1, 0, 2))
            right = slice_(h, 1, 2, 4)
            z = matmul(concat([left, right], axis=1), transpose(w2))
            return scale(sum_(square(z)), 0.5)

        x = Tensor(rng.standard_normal(6), requires_grad=True)
        assert check_param_gradients(lambda: f(x), [x]) < 1e-5


def test_forward_is_deterministic_bitwise():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))

    def run():
        return tanh(matmul(Tensor(a), Tensor(b))).data.tobytes()

    assert run() == run()


def test_tape_records_only_graded_ops_and_runs_once():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = sum_(square(x))
        sum_(square(Tensor([3.0])))  # no requires_grad: not recorded
    assert len(tape) == 2
    tape.backward(y)
    np.testing.assert_allclose(x.grad, [2.0, 4.0])
    with pytest.raises(RuntimeError):
        tape.backward(y)


def test_a_consumed_tape_frees_its_closures_and_their_arrays():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        hidden = square(x)
        y = sum_(hidden)
    alive = weakref.ref(hidden.data)
    del hidden
    assert alive() is not None  # the recorded closures hold the intermediate
    tape.backward(y)
    assert alive() is None and len(tape) == 0
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def _record_wrapped(record):
    """Tape.record that records each closure inside a functools.wraps wrapper, as a tracer does."""
    def wrapping_record(self, backward_fn):
        return record(self, functools.wraps(backward_fn)(lambda: backward_fn()))

    return wrapping_record


@pytest.mark.parametrize("wrapped", [False, True])
def test_the_tape_skips_an_op_whose_output_received_no_gradient(monkeypatch, wrapped):
    # a dead branch is recorded, and its backward would fail on the None gradient
    # of its output, so the tape must skip it; the used inputs' gradients are
    # bitwise those of the graph without the branch
    if wrapped:
        monkeypatch.setattr(Tape, "record", _record_wrapped(Tape.record))
    rng = np.random.default_rng(0)
    x_np, w_np = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))

    def run(dead_branch):
        x, w = Tensor(x_np, requires_grad=True), Tensor(w_np, requires_grad=True)
        with Tape() as tape:
            h = matmul(x, w)
            if dead_branch:
                tanh(h)
                scale(x, 2.0)
            loss = sum_(square(h))
        entries = len(tape)
        tape.backward(loss)
        return entries, x.grad.tobytes(), w.grad.tobytes()

    live, dead = run(False), run(True)
    assert dead[0] == live[0] + 2
    assert dead[1:] == live[1:]


def test_backward_needs_scalar_root():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = square(x)
    with pytest.raises(ShapeError):
        tape.backward(y)


def test_grads_accumulate_across_shared_use():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        y = sum_(mul(x, x))  # d/dx x^2 = 2x via product rule accumulation
    tape.backward(y)
    np.testing.assert_allclose(x.grad, [4.0])


def test_no_tape_means_no_grad():
    x = Tensor([1.0], requires_grad=True)
    y = sum_(square(x))
    assert y.item() == 1.0
    assert x.grad is None


def test_a_thread_has_one_active_tape():
    # a second tape on this thread raises and leaves the first one recording;
    # another thread's ops record onto that thread's own tape
    x = Tensor([1.0], requires_grad=True)
    other = []

    def other_thread():
        with Tape() as tape:
            square(x)
        other.append(len(tape))

    with Tape() as tape:
        with pytest.raises(RuntimeError, match="already active"):
            with Tape():
                pass
        square(x)
        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive() and len(tape) == 1 and other == [1]
    with Tape() as tape:  # leaving a tape frees the thread for the next one
        square(x)
    assert len(tape) == 1


def test_an_operands_later_gradient_leaves_a_shared_first_one_alone():
    # add hands one gradient array to both operands; the later use of `a`
    # (first on the tape, so last in backward) must not write into b.grad
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    with Tape() as tape:
        u = scale(a, 3.0)
        y = add(sum_(add(a, b)), sum_(u))
    tape.backward(y)
    np.testing.assert_array_equal(a.grad, [4.0, 4.0])
    np.testing.assert_array_equal(b.grad, [1.0, 1.0])


def test_a_first_gradient_is_kept_not_copied():
    # add hands out.grad to both operands, and a C-ordered float64 array is kept as is
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    with Tape() as tape:
        y = sum_(add(a, b))
    tape.backward(y)
    assert np.shares_memory(a.grad, b.grad)
    np.testing.assert_array_equal(a.grad, [1.0, 1.0])


def test_sigmoid_is_bitwise_the_piecewise_formula():
    rng = np.random.default_rng(0)
    tiny = np.finfo(np.float64).tiny
    x = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 709.0, -709.0, 745.0, -745.0,
         tiny, -tiny, tiny / 2**20, -tiny / 2**20, 5e-324, -5e-324, 1.0, -1.0],
        rng.standard_normal(5000) * 10.0,
        rng.uniform(-800.0, 800.0, 5000),
    ])
    a = np.abs(x)
    piecewise = np.where(x >= 0, 1.0 / (1.0 + np.exp(-a)), np.exp(-a) / (1.0 + np.exp(-a)))
    assert _sigmoid(x).tobytes() == piecewise.tobytes()
    assert sigmoid(Tensor(x)).data.tobytes() == piecewise.tobytes()


def _graded(rng, *shapes):
    return [Tensor(rng.standard_normal(shape), requires_grad=True) for shape in shapes]


def _mixed_sum(outputs, rng):
    """A scalar that sends a distinct random gradient into every output."""
    terms = [sum_(mul(o, Tensor(rng.standard_normal(o.shape)))) for o in outputs]
    total = terms[0]
    for t in terms[1:]:
        total = add(total, t)
    return total


def _grads(build, tensors, seed):
    for t in tensors:
        t.zero_grad()
    with Tape() as tape:
        outs = build()
        loss = _mixed_sum(outs, np.random.default_rng(seed))
    tape.backward(loss)
    return [o.data.copy() for o in outs], [t.grad.copy() for t in tensors]


def test_linear_equals_the_transpose_matmul_add_bias_chain():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x, w, b = _graded(rng, (7, 5), (3, 5), (3,))
        fused = _grads(lambda: [linear(x, w, b)], [x, w, b], seed)
        chain = _grads(lambda: [add_bias(matmul(x, transpose(w)), b)], [x, w, b], seed)
        assert fused[0][0].tobytes() == chain[0][0].tobytes()
        for g_fused, g_chain in zip(fused[1], chain[1]):
            assert g_fused.tobytes() == g_chain.tobytes()
    with pytest.raises(ShapeError):
        linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 5))), Tensor(np.zeros(3)))


@pytest.mark.parametrize("zero_h, zero_c", [(True, True), (True, False), (False, True)])
def test_lstm_cell_none_state_is_the_zero_state(zero_h, zero_c):
    # the result must be the cell run from explicit zero h and c
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = 3
        xw, w_h = _graded(rng, (5, 4 * n), (4 * n, n))
        xw.data *= 3.0
        h = Tensor(np.zeros((5, n)) if zero_h else rng.standard_normal((5, n)))
        c = Tensor(np.zeros((5, n)) if zero_c else rng.standard_normal((5, n)))
        none = _grads(lambda: list(lstm_cell(xw, None if zero_h else h, w_h,
                                             None if zero_c else c)), [xw, w_h], seed)
        ref = _grads(lambda: list(lstm_cell(xw, h, w_h, c)), [xw, w_h], seed)
        for out_none, out_ref in zip(none[0], ref[0]):
            assert out_none.tobytes() == out_ref.tobytes()
        for g_none, g_ref in zip(none[1], ref[1]):
            np.testing.assert_allclose(g_none, g_ref, rtol=1e-12, atol=1e-15)
        if zero_h:  # w_h played no part, and its gradient says so
            np.testing.assert_array_equal(none[1][1], 0.0)


@pytest.mark.parametrize("xw_shape, h_shape, w_h_shape, c_shape", [
    ((6, 16), (6, 4), (16, 5), (6, 4)),   # w_h is not (4n, n)
    ((6, 16), None, (16, 4), (5, 4)),     # c has other rows than xw
    ((6, 15), None, (16, 4), None),       # xw is not 4n wide
    ((6, 16), (5, 4), (16, 4), None),     # h has other rows than xw
])
def test_lstm_cell_rejects_bad_shapes(xw_shape, h_shape, w_h_shape, c_shape):
    h, c = (None if shape is None else Tensor(np.zeros(shape)) for shape in (h_shape, c_shape))
    with pytest.raises(ShapeError):
        lstm_cell(Tensor(np.zeros(xw_shape)), h, Tensor(np.zeros(w_h_shape)), c)


def _cell_unroll(xw, w_h, steps):
    """lstm_sequence's reference: lstm_cell step by step from the zero state.

    Returns the hidden states stacked as (B*steps, n), row b*steps + t.
    """
    h = c = None
    hs = []
    for _ in range(steps):
        h, c = lstm_cell(xw, h, w_h, c)
        hs.append(h)
    return reshape(concat(hs, axis=1), (xw.shape[0] * steps, w_h.shape[1]))


@pytest.mark.parametrize("steps", [1, 2, 8])
@pytest.mark.parametrize("batch", [1, 5])
def test_lstm_sequence_matches_an_lstm_cell_unroll(steps, batch):
    seed = 10 * steps + batch
    rng = np.random.default_rng(seed)
    n = 3
    xw, w_h = _graded(rng, (batch, 4 * n), (4 * n, n))
    xw.data *= 3.0  # reach the saturated ends of the gates
    seq = _grads(lambda: [lstm_sequence(xw, w_h, steps)], [xw, w_h], seed)
    ref = _grads(lambda: [_cell_unroll(xw, w_h, steps)], [xw, w_h], seed)
    # one exp in the sigmoid, not two: equal to within an ulp or so, not bitwise
    np.testing.assert_allclose(seq[0][0], ref[0][0], rtol=0, atol=1e-15)
    for g_seq, g_ref in zip(seq[1], ref[1]):
        assert np.abs(g_seq - g_ref).max() <= 1e-12 * np.abs(g_ref).max()
    if steps == 1:  # no step read a state, and w_h's gradient says so
        np.testing.assert_array_equal(seq[1][1], 0.0)
    # with no tape only one step of buffers is kept; the values do not change
    assert lstm_sequence(xw, w_h, steps).data.tobytes() == seq[0][0].tobytes()


@pytest.mark.parametrize("xw_shape, w_h_shape, steps", [
    ((6, 12), (12, 4), 2),   # w_h is not (4n, n)
    ((6, 13), (12, 3), 2),   # xw is not 4n wide
    ((6, 12), (12, 3), 0),   # no step
])
def test_lstm_sequence_rejects_bad_shapes(xw_shape, w_h_shape, steps):
    with pytest.raises(ShapeError):
        lstm_sequence(Tensor(np.zeros(xw_shape)), Tensor(np.zeros(w_h_shape)), steps)


def test_pair_softmax_equals_softmax_on_each_pair():
    rng = np.random.default_rng(7)
    for shape, scale in (((9, 6), 5.0), ((9, 6), 700.0), ((1, 2), 5.0)):
        (a,) = _graded(rng, shape)
        a.data *= scale  # at 700, exp(x - max) underflows to 0 for one side of most pairs
        a.data[::2, 1::2] = a.data[::2, 0::2]  # ties
        fused = _grads(lambda: [pair_softmax(a)], [a], 7)
        per_pair = _grads(lambda: [concat([softmax(slice_(a, 1, j, j + 2))
                                           for j in range(0, shape[1], 2)], axis=1)], [a], 7)
        assert fused[0][0].tobytes() == per_pair[0][0].tobytes()
        np.testing.assert_array_equal(fused[1][0], per_pair[1][0])


@pytest.mark.parametrize("taped", [False, True])
def test_lstm_sequence_saturated_gates_raise_no_warning(taped):
    # +-1e3 pre-activations overflow exp in the logistic on every gate, and
    # step 0's forget gate is left raw; the suite turns any warning into an error
    steps, batch, n = 3, 4, 2
    rng = np.random.default_rng(3)
    xw = Tensor(1e3 * np.sign(rng.standard_normal((batch, 4 * n))), requires_grad=taped)
    w_h = Tensor(rng.standard_normal((4 * n, n)), requires_grad=taped)
    if taped:
        outs, grads = _grads(lambda: [lstm_sequence(xw, w_h, steps)], [xw, w_h], 3)
    else:
        outs, grads = [lstm_sequence(xw, w_h, steps).data], []
    assert all(np.isfinite(a).all() for a in outs + grads)


@pytest.mark.parametrize("steps", [1, 3])
def test_lstm_sequence_never_reads_the_forget_gate_at_step_0(steps):
    # the cell before step 0 is zero, so f there changes nothing and gets no
    # gradient; every step reads xw, so only step 0's hidden states are scored
    batch, n = 5, 3
    rng = np.random.default_rng(4)
    xw, w_h = _graded(rng, (batch, 4 * n), (4 * n, n))
    forget = (slice(None), slice(n, 2 * n))

    def step_0():
        return [slice_(reshape(lstm_sequence(xw, w_h, steps), (batch, steps * n)), 1, 0, n)]

    before = _grads(step_0, [xw, w_h], 4)
    np.testing.assert_array_equal(before[1][0][forget], 0.0)
    xw.data[forget] = 1e3 * np.sign(rng.standard_normal((batch, n)))
    after = _grads(step_0, [xw, w_h], 4)
    assert after[0][0].tobytes() == before[0][0].tobytes()
    for g_after, g_before in zip(after[1], before[1]):
        assert g_after.tobytes() == g_before.tobytes()


def test_sum_squares_equals_the_square_sum_add_chain():
    rng = np.random.default_rng(8)
    tensors = _graded(rng, (3, 4), (5,), (2, 2))
    frozen = Tensor(rng.standard_normal(3))  # no gradient wanted

    def chain():
        total = sum_(square(tensors[0]))
        for t in tensors[1:] + [frozen]:
            total = add(total, sum_(square(t)))
        return [scale(total, 0.37)]

    fused = _grads(lambda: [scale(sum_squares(tensors + [frozen]), 0.37)], tensors, 8)
    ref = _grads(chain, tensors, 8)
    assert fused[0][0].tobytes() == ref[0][0].tobytes()
    for g_fused, g_ref in zip(fused[1], ref[1]):
        assert g_fused.tobytes() == g_ref.tobytes()
    assert frozen.grad is None


@pytest.mark.parametrize("weights", [(0.37, 1e-4), (1.0, 0.8, -0.1, 1e-4)])
def test_weighted_sum_equals_the_scale_add_chain(weights):
    for seed in range(16):
        rng = np.random.default_rng(seed)
        tensors = _graded(rng, *[(3, 2)] * len(weights))
        # terms of unlike magnitudes, so that another summing order rounds differently
        coefficients = [Tensor(rng.standard_normal((3, 2)) * 10.0 ** k)
                        for k in range(len(tensors))]
        scaled = []

        def terms():
            return [sum_(mul(t, c)) for t, c in zip(tensors, coefficients)]

        def fused():
            loss, values = weighted_sum(terms(), weights)
            scaled.append(values)
            return [loss]

        def chain():
            s = [scale(t, w) for t, w in zip(terms(), weights)]
            scaled.append([t.item() for t in s])
            # (t0 + t1) + (t2 + t3), as total_loss summed its four weighted terms
            return [add(s[0], s[1]) if len(s) == 2 else add(add(s[0], s[1]), add(s[2], s[3]))]

        (out,), grads = _grads(fused, tensors, seed)
        (ref_out,), ref_grads = _grads(chain, tensors, seed)
        assert out.tobytes() == ref_out.tobytes()
        assert np.array(scaled[0]).tobytes() == np.array(scaled[1]).tobytes()
        for g, g_ref in zip(grads, ref_grads):
            assert g.tobytes() == g_ref.tobytes()
        assert check_param_gradients(lambda: weighted_sum(terms(), weights)[0], tensors) < 1e-6


def test_weighted_sum_takes_a_constant_term_and_a_zero_weight():
    # Tensor(0.0) is l2_penalty's value for a set with nothing to train
    x = Tensor([1.0, -2.0], requires_grad=True)
    with Tape() as tape:
        loss, scaled = weighted_sum([sum_squares([x]), Tensor(0.0)], [0.0, 1e-4])
    assert len(tape) == 2 and loss.item() == 0.0 and scaled == [0.0, 0.0]
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [0.0, 0.0])
    with Tape() as tape:
        loss, scaled = weighted_sum([Tensor(2.0), Tensor(3.0)], [0.5, 2.0])
    assert len(tape) == 0 and not loss.requires_grad and scaled == [1.0, 6.0]
    assert loss.item() == 7.0


def test_weighted_sum_needs_one_weight_per_rank_0_term():
    with pytest.raises(ShapeError):
        weighted_sum([Tensor(1.0), Tensor(2.0)], [1.0])
    with pytest.raises(ShapeError):
        weighted_sum([Tensor([1.0])], [1.0])
    with pytest.raises(ShapeError):
        weighted_sum([], [])
