import math

import numpy as np
import pytest

from lhc.autodiff import (ShapeError, Tape, Tensor, _sigmoid, add, add_bias, concat,
                          check_param_gradients, cross_entropy, linear, lstm_cell,
                          lstm_sequence, matmul, mul, pair_softmax, reshape, scale, sigmoid, slice_, softmax,
                          square, sum_, sum_squares, tanh, transpose)


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


def test_tape_exit_out_of_order_raises():
    outer, inner = Tape(), Tape()
    outer.__enter__()
    inner.__enter__()
    try:
        with pytest.raises(RuntimeError):
            outer.__exit__(None, None, None)
    finally:
        inner.__exit__(None, None, None)
        outer.__exit__(None, None, None)


def test_first_gradient_is_copied_not_aliased():
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


def _cell_unroll(xw, w_h, steps, per_step):
    """lstm_sequence's reference: lstm_cell step by step from the zero state.

    Returns the hidden states stacked as (B*steps, n), row b*steps + t.
    """
    n = w_h.shape[1]
    batch = xw.shape[0] // steps if per_step else xw.shape[0]
    if per_step:  # row b holds sample b's steps side by side
        wide = reshape(xw, (batch, steps * 4 * n))
    h = c = None
    hs = []
    for t in range(steps):
        h, c = lstm_cell(slice_(wide, 1, 4 * n * t, 4 * n * (t + 1)) if per_step else xw,
                         h, w_h, c)
        hs.append(h)
    return reshape(concat(hs, axis=1), (batch * steps, n))


@pytest.mark.parametrize("per_step", [False, True])
@pytest.mark.parametrize("steps", [1, 2, 8])
@pytest.mark.parametrize("batch", [1, 5])
def test_lstm_sequence_matches_an_lstm_cell_unroll(per_step, steps, batch):
    seed = 10 * steps + batch
    rng = np.random.default_rng(seed)
    n = 3
    xw, w_h = _graded(rng, (batch * steps if per_step else batch, 4 * n), (4 * n, n))
    xw.data *= 3.0  # reach the saturated ends of the gates
    seq = _grads(lambda: [lstm_sequence(xw, w_h, steps, per_step=per_step)], [xw, w_h], seed)
    ref = _grads(lambda: [_cell_unroll(xw, w_h, steps, per_step)], [xw, w_h], seed)
    # one exp in the sigmoid, not two: equal to within an ulp or so, not bitwise
    np.testing.assert_allclose(seq[0][0], ref[0][0], rtol=0, atol=1e-15)
    for g_seq, g_ref in zip(seq[1], ref[1]):
        assert np.abs(g_seq - g_ref).max() <= 1e-12 * np.abs(g_ref).max()
    if steps == 1:  # no step read a state, and w_h's gradient says so
        np.testing.assert_array_equal(seq[1][1], 0.0)
    # with no tape only one step of buffers is kept; the values do not change
    assert lstm_sequence(xw, w_h, steps, per_step=per_step).data.tobytes() == \
        seq[0][0].tobytes()


@pytest.mark.parametrize("xw_shape, w_h_shape, steps, per_step", [
    ((6, 12), (12, 4), 2, False),   # w_h is not (4n, n)
    ((6, 13), (12, 3), 2, False),   # xw is not 4n wide
    ((5, 12), (12, 3), 2, True),    # per-step rows are not a multiple of steps
    ((6, 12), (12, 3), 0, False),   # no step
])
def test_lstm_sequence_rejects_bad_shapes(xw_shape, w_h_shape, steps, per_step):
    with pytest.raises(ShapeError):
        lstm_sequence(Tensor(np.zeros(xw_shape)), Tensor(np.zeros(w_h_shape)), steps,
                      per_step=per_step)


def test_pair_softmax_equals_softmax_on_each_pair():
    rng = np.random.default_rng(7)
    (a,) = _graded(rng, (9, 6))
    a.data *= 5.0
    fused = _grads(lambda: [pair_softmax(a)], [a], 7)
    per_pair = _grads(lambda: [concat([softmax(slice_(a, 1, j, j + 2)) for j in (0, 2, 4)],
                                      axis=1)], [a], 7)
    assert fused[0][0].tobytes() == per_pair[0][0].tobytes()
    np.testing.assert_array_equal(fused[1][0], per_pair[1][0])


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
