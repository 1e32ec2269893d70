"""Reverse-mode automatic differentiation on dense float64 arrays.

Rank 0-2 tensors, row-major, no broadcasting: every op states exactly
which shapes it accepts and raises ShapeError otherwise. Ops executed
while a Tape is active append their adjoint closures to it; Tape.backward
replays the closures once, in reverse execution order, accumulating
gradients into every tensor with requires_grad set. It alone skips an op
whose output received no gradient, such as a branch the root never reads.

Typical use::

    w = Tensor(weights, requires_grad=True)
    with Tape() as tape:
        loss = cross_entropy(target, softmax(matmul(x, transpose(w))))
    tape.backward(loss)
    # w.grad now holds dloss/dw

Running the same ops with no active tape performs plain forward
computation (inference mode).

Besides the elementwise and linear-algebra primitives there are fused
ops with hand-written backwards, one tape entry each: `linear` (x W^T + b),
`pair_softmax` (softmax over adjacent column pairs, the packed
bit-distribution layout), `sum_squares` and `weighted_sum` (an objective's
weighted scalar terms). Each gives the same values, bit for bit, as the
chain of primitives it replaces.
`lstm_sequence` runs a whole LSTM layer's unroll as one entry, with the
package's one hand-written LSTM backward (BPTT). Its reference is
`lstm_cell`, one LSTM step composed of primitives: an unroll of it matches
`lstm_sequence` to within an ulp or so, since `lstm_sequence`'s sigmoid
takes one exp where `sigmoid`'s takes two.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Sequence

import numpy as np

LOG_EPS = 1e-12  # floor applied to predictions inside cross_entropy
FD_STEP = 1e-5  # check_param_gradients' central-difference step

_state = threading.local()  # .tape: this thread's active Tape, if any


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


def _active_tape():
    return getattr(_state, "tape", None)


class Tensor:
    """Dense float64 array with an optional accumulated gradient."""

    __slots__ = ("data", "grad", "grad_view", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        # ascontiguousarray promotes 0-d to 1-d; keep true scalars 0-d
        self.data = np.ascontiguousarray(arr) if arr.ndim else arr
        self.grad: np.ndarray | None = None
        self.grad_view: np.ndarray | None = None  # set by nn.Adam for a trainable
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def accumulate_grad(self, g: np.ndarray) -> None:
        # with a grad_view, the first gradient is copied in (so -0.0 survives) and later
        # ones are added in place; without, g is kept as handed over (copied only if not
        # C-ordered) and summed out of place, as ops such as add hand one array to several
        if self.grad is None and self.grad_view is not None:
            np.copyto(self.grad_view, g)
            self.grad = self.grad_view
        elif self.grad is None:
            self.grad = np.asarray(g, dtype=np.float64, order="C")
        elif self.grad is self.grad_view:
            self.grad += g
        else:
            self.grad = self.grad + g

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={list(self.shape)}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of executed ops for one backward pass.

    Entries are appended in execution order, which is automatically a
    topological order of the graph, so a single reversed sweep suffices.
    It runs an entry, an op's backward closure, only once the op's output
    (the closure's .out) holds a gradient. backward() consumes a tape, once,
    and drops its closures with their arrays. A thread has at most one active
    tape: entering a second raises RuntimeError, and ops on one thread never
    record onto another thread's tape.
    """

    def __init__(self):
        self._entries: list[Callable[[], None]] | None = []  # None once consumed

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise RuntimeError("a tape is already active on this thread")
        _state.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _state.tape = None

    def __len__(self) -> int:
        return len(self._entries or ())

    def record(self, backward_fn: Callable[[], None]) -> None:
        self._entries.append(backward_fn)

    def backward(self, root: Tensor) -> None:
        """Seed d(root)/d(root)=1 and accumulate grads through the record, then drop it."""
        if self._entries is None:
            raise RuntimeError("tape already consumed by a previous backward()")
        if root.data.size != 1:
            raise ShapeError(f"backward root must be scalar, got shape {root.shape}")
        entries, self._entries = self._entries, None
        root.accumulate_grad(np.ones_like(root.data))
        for fn in reversed(entries):
            if fn.out.grad is not None:  # else nothing downstream read the op's output
                fn()


def _maybe_record(out: Tensor, backward_fn: Callable[[], None]) -> None:
    """Record backward_fn on the active tape, if any, when out requires a gradient.

    A one-input op is recorded only if its input requires a gradient, which its backward relies on.

    out rides on the closure as .out for Tape.backward: bench/tracer.py wraps record, which takes
    the closure alone, and wraps the closure with functools.wraps, which copies that attribute.
    """
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        backward_fn.out = out
        tape.record(backward_fn)


def _binary_shape_check(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------- basic ops

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner extents differ for {a.shape} and {b.shape}")
    out = Tensor(a.data @ b.data, a.requires_grad or b.requires_grad)

    def backward():
        if a.requires_grad:
            a.accumulate_grad(out.grad @ b.data.T)
        if b.requires_grad:
            b.accumulate_grad(a.data.T @ out.grad)

    _maybe_record(out, backward)
    return out


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a rank-2 operand, got {a.shape}")
    out = Tensor(a.data.T, a.requires_grad)

    def backward():
        a.accumulate_grad(out.grad.T)

    _maybe_record(out, backward)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shape_check("add", a, b)
    out = Tensor(a.data + b.data, a.requires_grad or b.requires_grad)

    def backward():
        if a.requires_grad:
            a.accumulate_grad(out.grad)
        if b.requires_grad:
            b.accumulate_grad(out.grad)

    _maybe_record(out, backward)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shape_check("mul", a, b)
    out = Tensor(a.data * b.data, a.requires_grad or b.requires_grad)

    def backward():
        if a.requires_grad:
            a.accumulate_grad(out.grad * b.data)
        if b.requires_grad:
            b.accumulate_grad(out.grad * a.data)

    _maybe_record(out, backward)
    return out


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c, a.requires_grad)

    def backward():
        a.accumulate_grad(out.grad * c)

    _maybe_record(out, backward)
    return out


def add_bias(m: Tensor, v: Tensor) -> Tensor:
    """Add a length-n vector to every row of an m x n matrix."""
    if m.data.ndim != 2 or v.data.ndim != 1 or m.shape[1] != v.shape[0]:
        raise ShapeError(f"add_bias: got matrix {m.shape} and vector {v.shape}")
    out = Tensor(m.data + v.data[np.newaxis, :], m.requires_grad or v.requires_grad)

    def backward():
        if m.requires_grad:
            m.accumulate_grad(out.grad)
        if v.requires_grad:
            v.accumulate_grad(out.grad.sum(axis=0))

    _maybe_record(out, backward)
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x W^T + b for x of shape (B, in), W (out, in) and b (out,), as one op.

    Values and gradients equal, bit for bit, those of
    add_bias(matmul(x, transpose(w)), b).
    """
    if (x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1
            or x.shape[1] != w.shape[1] or b.shape[0] != w.shape[0]):
        raise ShapeError(f"linear: got input {x.shape}, weight {w.shape} and bias {b.shape}")
    # a C-ordered copy of W^T, as transpose() makes, so BLAS takes the same path
    wt = np.ascontiguousarray(w.data.T)
    y = x.data @ wt
    y += b.data  # in place: no second (B, out) array
    out = Tensor(y, x.requires_grad or w.requires_grad or b.requires_grad)

    def backward():
        g = out.grad
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=0))
        if x.requires_grad:
            x.accumulate_grad(g @ wt.T)
        if w.requires_grad:
            w.accumulate_grad((x.data.T @ g).T)

    _maybe_record(out, backward)
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: exp is only taken of values <= 0.

    Equal bit for bit to the piecewise form 1/(1+e^-|x|) for x >= 0 and
    e^-|x|/(1+e^-|x|) otherwise, without computing both branches.
    """
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def sigmoid(a: Tensor) -> Tensor:
    out = Tensor(_sigmoid(a.data), a.requires_grad)

    def backward():
        a.accumulate_grad(out.grad * out.data * (1.0 - out.data))

    _maybe_record(out, backward)
    return out


@functools.lru_cache(maxsize=16)
def _ifog(n: int) -> np.ndarray:
    """Row order taking (i, f, g, o) gate blocks of n rows each to (i, f, o, g).

    A block swap, so its own inverse. Read-only, since every call with this
    n shares the one array.
    """
    order = np.r_[:2 * n, 3 * n:4 * n, 2 * n:3 * n]
    order.setflags(write=False)
    return order


def _ifo_negated(a: np.ndarray) -> np.ndarray:
    """A C-ordered copy of a, its (i, f, g, o) blocks on axis -2 made (-i, -f, -o, g).

    Negation is exact and commutes with IEEE products, sums and rounding, so
    a gate pre-activation summed from these copies is -z, bit for bit, on
    the sigmoid rows; only the sign of an exact zero can differ, and exp
    gives 1 for either.
    """
    n = a.shape[-2] // 4
    out = np.empty(a.shape)
    np.negative(a[..., :2 * n, :], out=out[..., :2 * n, :])
    np.negative(a[..., 3 * n:, :], out=out[..., 2 * n:3 * n, :])
    out[..., 3 * n:, :] = a[..., 2 * n:3 * n, :]
    return out


def _i_and_o(slab: np.ndarray) -> np.ndarray:
    """The i and o blocks of an (i, f, o) slab of 3n rows, as one (2, n, B) view without f."""
    return slab.reshape(3, -1, slab.shape[-1])[::2]


def _logistic_of_negated(neg_z: np.ndarray, out: np.ndarray) -> None:
    """out <- 1/(1+exp(neg_z)), the logistic of z = -neg_z, in three passes.

    Call under np.errstate(over="ignore"): exp overflows to inf for neg_z
    above about 709, which gives the limit 0. out may be neg_z itself.
    Within an ulp or so of _sigmoid, but not bitwise equal to it.
    """
    np.exp(neg_z, out=out)
    out += 1.0
    np.reciprocal(out, out=out)


def lstm_sequence(xw: Tensor, w_h: Tensor, steps: int) -> Tensor:
    """A whole LSTM layer unrolled `steps` times from the zero state, as one op.

    xw is the (B, 4n) input product x W_x^T + b that every step reads, gate
    columns in lstm_cell's (input, forget, candidate, output) order, n =
    w_h.shape[1] each. Returns the hidden states as (B*steps, n), row
    b*steps + t for sample b at step t, so a head can run over all steps as
    one linear. Each step equals lstm_cell(xw, h, w_h, c), the primitive
    chain this op is tested against, to within an ulp or so: the sigmoid is
    1/(1+exp(-z)), one exp, not _sigmoid.

    Gates are kept feature-major, (4n, B) per step, with the rows reordered
    to (i, f, o, g), so the three sigmoid gates are one contiguous slab and
    each gate block is contiguous. The copies of xw and W_h hold the
    sigmoid rows negated, once per forward, so the step's product gives -z
    and its logistic is exp, +1 and reciprocal. The cell before step 0 is
    zero, so step 0 skips f's logistic, never reads its raw value, and
    gives it a 0 gradient. With no tape recording, one step of gate and
    cell buffers is kept, not `steps`. The backward is hand-written BPTT,
    and with steps = 1 W_h still receives a (zero) gradient.
    """
    n = w_h.shape[1] if w_h.data.ndim == 2 else 0
    batch = xw.shape[0] if xw.data.ndim == 2 else 0
    if steps < 1 or n == 0 or w_h.shape != (4 * n, n) or xw.shape != (batch, 4 * n):
        raise ShapeError(f"lstm_sequence: got xw {xw.shape}, w_h {w_h.shape} "
                         f"and steps {steps}")
    xs = _ifo_negated(xw.data.T)  # (4n, B)
    wn = _ifo_negated(w_h.data)
    needs_grad = xw.requires_grad or w_h.requires_grad
    kept = steps if needs_grad and _active_tape() is not None else 1
    gates = np.empty((kept, 4 * n, batch))
    cells = np.empty((kept, n, batch))
    tanh_c = np.empty((kept, n, batch))
    hs = np.empty((batch, steps, n))  # hs[b, t] = h_t of sample b: the output, row b*steps + t
    h = np.empty((n, batch))
    ig = np.empty((n, batch))
    with np.errstate(over="ignore"):
        for t in range(steps):
            k = t if kept > 1 else 0
            gt = gates[k]
            i, f, o, g = gt[:n], gt[n:2 * n], gt[2 * n:3 * n], gt[3 * n:]
            c = cells[k]
            if t == 0:  # f is left unset
                _logistic_of_negated(_i_and_o(xs[:3 * n]), _i_and_o(gt[:3 * n]))
                np.tanh(xs[3 * n:], out=g)
                np.multiply(i, g, out=c)
            else:
                np.matmul(wn, hs[:, t - 1].T, out=gt)
                gt += xs
                _logistic_of_negated(gt[:3 * n], gt[:3 * n])
                np.tanh(g, out=g)
                np.multiply(i, g, out=ig)
                np.multiply(f, cells[k - 1 if kept > 1 else 0], out=c)
                c += ig
            np.tanh(c, out=tanh_c[k])
            np.multiply(o, tanh_c[k], out=h)
            hs[:, t] = h.T
    out = Tensor(hs.reshape(batch * steps, n), needs_grad)

    def backward():
        ifog = _ifog(n)
        wp = wn.copy()  # W_h's permuted rows, signs restored exactly
        np.negative(wp[:3 * n], out=wp[:3 * n])
        dh_all = out.grad.reshape(batch, steps, n).transpose(1, 2, 0).copy()  # written below
        # xw's gradient is the sum of the steps' gate gradients; step t reads step t + 1's
        dgates = np.empty((2, 4 * n, batch))
        dsum = np.zeros((4 * n, batch))
        dwp = np.zeros((4 * n, n))
        dw_t = np.empty((4 * n, n))
        dc = np.empty((n, batch))
        tmp = np.empty((n, batch))
        for t in reversed(range(steps)):
            gt, tc, dh, dt = gates[t], tanh_c[t], dh_all[t], dgates[t % 2]
            i, f, o, g = gt[:n], gt[n:2 * n], gt[2 * n:3 * n], gt[3 * n:]
            if t < steps - 1:
                dh += np.matmul(wp.T, d_next, out=tmp)
            # dc = dh o (1 - tanh(c)^2), plus what step t + 1 sent back through f
            np.multiply(tc, tc, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            tmp *= o
            tmp *= dh
            if t < steps - 1:
                dc *= gates[t + 1][n:2 * n]
                dc += tmp
            else:
                dc[...] = tmp
            # sigma' = s (1 - s) on i, f and o; at step 0 on i and o only, since f is unset
            s, ds = ((gt[:3 * n], dt[:3 * n]) if t else
                     (_i_and_o(gt[:3 * n]), _i_and_o(dt[:3 * n])))
            np.subtract(1.0, s, out=ds)
            ds *= s
            dt[:n] *= np.multiply(dc, g, out=tmp)
            if t == 0:
                dt[n:2 * n] = 0.0
            else:
                dt[n:2 * n] *= np.multiply(dc, cells[t - 1], out=tmp)
            dt[2 * n:3 * n] *= np.multiply(dh, tc, out=tmp)
            dg = dt[3 * n:]
            np.multiply(g, g, out=dg)
            np.subtract(1.0, dg, out=dg)
            dg *= i
            dg *= dc
            if t > 0:
                dwp += np.matmul(dt, hs[:, t - 1], out=dw_t)
            dsum += dt
            d_next = dt
        if xw.requires_grad:
            xw.accumulate_grad(np.take(dsum, ifog, axis=0).T)
        if w_h.requires_grad:
            # with steps = 1 no step read a state, and W_h gets a zero gradient
            w_h.accumulate_grad(np.take(dwp, ifog, axis=0))

    _maybe_record(out, backward)
    return out


def tanh(a: Tensor) -> Tensor:
    out = Tensor(np.tanh(a.data), a.requires_grad)

    def backward():
        a.accumulate_grad(out.grad * (1.0 - out.data * out.data))

    _maybe_record(out, backward)
    return out


def square(a: Tensor) -> Tensor:
    out = Tensor(a.data * a.data, a.requires_grad)

    def backward():
        a.accumulate_grad(out.grad * 2.0 * a.data)

    _maybe_record(out, backward)
    return out


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concat needs at least one tensor")
    ndim = parts[0].data.ndim
    for p in parts:
        if p.data.ndim != ndim:
            raise ShapeError("concat: mixed ranks")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis),
                 any(p.requires_grad for p in parts))
    offsets = np.cumsum([p.data.shape[axis] for p in parts])[:-1]

    def backward():
        for p, seg in zip(parts, np.split(out.grad, offsets, axis=axis)):
            if p.requires_grad:
                p.accumulate_grad(seg)

    _maybe_record(out, backward)
    return out


def slice_(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) along one axis, copied out."""
    if axis < 0 or axis >= a.data.ndim:
        raise ShapeError(f"slice_: axis {axis} out of range for shape {a.shape}")
    extent = a.shape[axis]
    if not (0 <= start < stop <= extent):
        raise ShapeError(f"slice_: bounds [{start}, {stop}) invalid for extent {extent}")
    index = tuple(slice(start, stop) if d == axis else slice(None) for d in range(a.data.ndim))
    out = Tensor(a.data[index].copy(), a.requires_grad)

    def backward():
        g = np.zeros_like(a.data)
        g[index] = out.grad
        a.accumulate_grad(g)

    _maybe_record(out, backward)
    return out


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.data.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    out = Tensor(a.data.reshape(shape), a.requires_grad)

    def backward():
        a.accumulate_grad(out.grad.reshape(a.data.shape))

    _maybe_record(out, backward)
    return out


def sum_squares(tensors: Sequence[Tensor]) -> Tensor:
    """Sum of the squared elements of every tensor, as one scalar op.

    Sums tensor by tensor in list order, so the value and gradients equal,
    bit for bit, those of add(...add(sum_(square(t0)), sum_(square(t1)))...).
    """
    if not tensors:
        raise ShapeError("sum_squares needs at least one tensor")
    total = (tensors[0].data * tensors[0].data).sum()
    for t in tensors[1:]:
        total = total + (t.data * t.data).sum()
    out = Tensor(total, any(t.requires_grad for t in tensors))

    def backward():
        g2 = out.grad.item() * 2.0
        for t in tensors:
            if t.requires_grad:
                t.accumulate_grad(g2 * t.data)

    _maybe_record(out, backward)
    return out


def weighted_sum(terms: Sequence[Tensor], weights: Sequence[float]) -> tuple[Tensor, list[float]]:
    """sum_k w_k t_k over rank-0 terms, as one op; returns it and each w_k t_k as a float.

    Summed pairwise, (t0 + t1) + (t2 + t3), so the value and gradients equal, bit
    for bit, those of that chain of scale and add. Term k receives out.grad * w_k.
    """
    if not terms or len(terms) != len(weights) or any(t.data.ndim for t in terms):
        raise ShapeError(f"weighted_sum: {len(weights)} weights, terms {[t.shape for t in terms]}")
    scaled = total = [t.item() * float(w) for t, w in zip(terms, weights)]
    while len(total) > 1:  # pairwise; an odd last value carries over
        total = [a + b for a, b in zip(total[::2], total[1::2])] + total[len(total) // 2 * 2:]
    out = Tensor(total[0], any(t.requires_grad for t in terms))

    def backward():
        for t, w in zip(terms, weights):
            if t.requires_grad:
                t.accumulate_grad(out.grad * w)

    _maybe_record(out, backward)
    return out, scaled


def sum_(a: Tensor) -> Tensor:
    """Sum of all elements, as a scalar (rank-0) tensor."""
    out = Tensor(a.data.sum(), a.requires_grad)

    def backward():
        a.accumulate_grad(np.full_like(a.data, out.grad.item()))

    _maybe_record(out, backward)
    return out


def lstm_cell(xw: Tensor, h_prev: Tensor | None, w_h: Tensor,
              c_prev: Tensor | None) -> tuple[Tensor, Tensor]:
    """One LSTM step from the input product xw = x W_x^T + b; returns (h, c).

    The gates xw + h_prev W_h^T are (input, forget, candidate, output), n =
    w_h.shape[1] columns each; c = f c_prev + i g and h = o tanh(c). A None
    state is the zero state. The cell is composed of primitives, each with
    its own backward: it is the reference lstm_sequence is tested against.
    """
    n = w_h.shape[1] if w_h.data.ndim == 2 else 0
    if n == 0 or w_h.shape != (4 * n, n) or xw.data.ndim != 2 or xw.shape[1] != 4 * n:
        raise ShapeError(f"lstm_cell: got xw {xw.shape} and w_h {w_h.shape}")
    zero = Tensor(np.zeros((xw.shape[0], n)))  # the primitives check the states' shapes
    gates = add(xw, matmul(zero if h_prev is None else h_prev, transpose(w_h)))
    i = sigmoid(slice_(gates, 1, 0, n))
    f = sigmoid(slice_(gates, 1, n, 2 * n))
    g = tanh(slice_(gates, 1, 2 * n, 3 * n))
    o = sigmoid(slice_(gates, 1, 3 * n, 4 * n))
    c = add(mul(f, zero if c_prev is None else c_prev), mul(i, g))
    return mul(o, tanh(c)), c


# ----------------------------------------------------- probabilistic ops

def softmax(a: Tensor) -> Tensor:
    """Row-stochastic softmax over the trailing axis, with max-subtraction."""
    if a.data.ndim not in (1, 2):
        raise ShapeError(f"softmax needs rank 1 or 2, got {a.shape}")
    x = a.data
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    s = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(s, a.requires_grad)

    def backward():
        g = out.grad
        dot = (g * out.data).sum(axis=-1, keepdims=True)
        a.accumulate_grad(out.data * (g - dot))

    _maybe_record(out, backward)
    return out


def pair_softmax(a: Tensor) -> Tensor:
    """softmax over each column pair (2i, 2i+1) of a (B, 2L) matrix.

    This is the packed bit-distribution layout: column 2i holds P(bit i = 0)
    and column 2i+1 P(bit i = 1). Values and gradients equal, bit for bit,
    those of softmax applied to every (B, 2) slice on its own.

    Each pair's max, total and dot product is one elementwise op on the
    even and odd column views, in the order softmax's reductions take, so
    numpy never reduces over a size-2 axis, its slow path. The forward is
    one exp over the whole (B, 2L) output and two in-place divides.
    """
    if a.data.ndim != 2 or a.shape[1] == 0 or a.shape[1] % 2:
        raise ShapeError(f"pair_softmax needs a (B, 2L) matrix, got {a.shape}")
    x = a.data
    m = np.maximum(x[:, 0::2], x[:, 1::2])
    s = np.empty(a.shape)
    s0, s1 = s[:, 0::2], s[:, 1::2]
    np.subtract(x[:, 0::2], m, out=s0)
    np.subtract(x[:, 1::2], m, out=s1)
    np.exp(s, out=s)
    total = s0 + s1
    s0 /= total
    s1 /= total
    out = Tensor(s, a.requires_grad)

    def backward():
        g = out.grad
        g0, g1 = g[:, 0::2], g[:, 1::2]
        dot = g0 * s0
        dot += g1 * s1
        d = np.empty(a.shape)
        np.subtract(g0, dot, out=d[:, 0::2])
        np.subtract(g1, dot, out=d[:, 1::2])
        d *= s
        a.accumulate_grad(d)

    _maybe_record(out, backward)
    return out


def cross_entropy(target: Tensor, pred: Tensor, weights: np.ndarray | None = None) -> Tensor:
    """-sum(weights * target * ln(pred)), summed over every entry (all rows).

    weights, when given, holds one factor per column (trailing axis). pred
    is floored at LOG_EPS before the log. Gradients flow to both arguments
    when they require them.
    """
    if target.shape != pred.shape:
        raise ShapeError(f"cross_entropy: support shapes {target.shape} and {pred.shape} differ")
    if weights is not None and np.shape(weights) != target.shape[-1:]:
        raise ShapeError(f"cross_entropy: weights {np.shape(weights)} do not match "
                         f"support shape {target.shape}")
    clamped = np.maximum(pred.data, LOG_EPS)
    log_p = np.log(clamped)
    t = target.data if weights is None else target.data * weights
    out = Tensor(-(t * log_p).sum(), target.requires_grad or pred.requires_grad)

    def backward():
        g = out.grad.item()
        if pred.requires_grad:
            active = pred.data >= LOG_EPS  # floored entries carry no gradient
            pred.accumulate_grad(g * np.where(active, -t / clamped, 0.0))
        if target.requires_grad:
            target.accumulate_grad(g * -(log_p if weights is None else weights * log_p))

    _maybe_record(out, backward)
    return out


# ------------------------------------------------------- gradient checking

def check_param_gradients(loss_fn: Callable[[], Tensor], tensors: Sequence[Tensor]) -> float:
    """Max relative error between the backward pass and central differences.

    loss_fn must return a scalar tensor and rebuild the forward graph from
    the tensors' current data, so central differences of step FD_STEP are
    taken by perturbing each coordinate in place. Relative error per
    coordinate is |analytic - numeric| / max(1, |analytic|); the max is
    over every coordinate of every tensor.
    """
    for t in tensors:
        t.zero_grad()
    with Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    analytics = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]

    worst = 0.0
    for t, analytic in zip(tensors, analytics):
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            f_plus = loss_fn().item()
            flat[i] = orig - FD_STEP
            f_minus = loss_fn().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * FD_STEP)
            a = analytic.reshape(-1)[i]
            err = abs(a - numeric) / max(1.0, abs(a))
            if err > worst:
                worst = err
    for t in tensors:
        t.zero_grad()
    return worst
