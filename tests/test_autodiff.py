"""Gradient tape: every op checked against central finite differences."""

import numpy as np
import pytest

from gridmarl import ShapeError
from gridmarl.nn.autodiff import (
    Var,
    _topo_order,
    add,
    backward,
    columns,
    const,
    gather,
    leaf,
    linear,
    log_softmax,
    min_relu_preactivation,
    mul,
    relu,
    scatter_rows,
    segment_sum,
)

FD_STEP = 1e-6


def fd_grad(f, x: np.ndarray, seed: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """d/dx of sum(seed * f(x)) by central differences, element by element."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        hi = float((seed * f(x)).sum())
        flat[i] = keep - step
        lo = float((seed * f(x)).sum())
        flat[i] = keep
        gf[i] = (hi - lo) / (2 * step)
    return g


def check_op(build, inputs, seed, tol=1e-6):
    """Compare tape gradients for every input against finite differences."""
    leaves = [leaf(v.copy()) for v in inputs]
    out = build(*leaves)
    backward(out, seed)
    for k, v in enumerate(inputs):
        def f(x, k=k):
            vs = [leaf(u.copy()) for u in inputs]
            vs[k] = leaf(x)
            return build(*vs).value
        want = fd_grad(f, v.copy(), seed)
        assert leaves[k].grad is not None
        np.testing.assert_allclose(leaves[k].grad, want, rtol=1e-4, atol=1e-7)


class TestOps:
    def test_linear(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.normal(size=(4, 3))
            w = rng.normal(size=(2, 3))
            b = rng.normal(size=2)
            seed = rng.normal(size=(4, 2))
            check_op(lambda x, w, b: linear(x, w, b), [x, w, b], seed)
            check_op(lambda x, w: linear(x, w), [x, w], seed)

    def test_linear_value(self):
        rng = np.random.default_rng(1)
        x, w, b = rng.normal(size=(5, 3)), rng.normal(size=(4, 3)), rng.normal(size=4)
        out = linear(leaf(x), leaf(w), leaf(b))
        np.testing.assert_allclose(out.value, x @ w.T + b)
        np.testing.assert_allclose(linear(leaf(x), leaf(w)).value, x @ w.T)

    def test_linear_shape_errors(self):
        with pytest.raises(ShapeError):
            linear(leaf(np.zeros((2, 3))), leaf(np.zeros((4, 5))), leaf(np.zeros(4)))
        with pytest.raises(ShapeError):
            linear(leaf(np.zeros((2, 3))), leaf(np.zeros((4, 3))), leaf(np.zeros(3)))

    def test_relu(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 4))
        x[np.abs(x) < 0.05] += 0.2  # keep clear of the kink
        seed = rng.normal(size=(6, 4))
        check_op(relu, [x], seed)

    def test_relu_subgradient_zero_at_kink(self):
        v = leaf(np.array([[-1.0, 0.0, 2.0]]))
        out = relu(v)
        backward(out, np.ones((1, 3)))
        assert v.grad.tolist() == [[0.0, 0.0, 1.0]]

    def test_add_mul(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
        seed = rng.normal(size=(3, 5))
        check_op(add, [a, b], seed)
        check_op(mul, [a, b], seed)

    def test_gather_accumulates_duplicates(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 3))
        idx = np.array([0, 2, 2, 1, 0, 0])
        seed = rng.normal(size=(6, 3))
        v = leaf(x.copy())
        out = gather(v, idx)
        np.testing.assert_allclose(out.value, x[idx])
        backward(out, seed)
        want = np.zeros_like(x)
        for row, i in enumerate(idx):
            want[i] += seed[row]
        np.testing.assert_allclose(v.grad, want)

    def test_segment_sum(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(7, 2))
        seg = np.array([0, 0, 1, 3, 3, 3, 1])
        seed = rng.normal(size=(4, 2))
        v = leaf(x.copy())
        out = segment_sum(v, seg, 4)
        want = np.zeros((4, 2))
        for row, s in enumerate(seg):
            want[s] += x[row]
        np.testing.assert_allclose(out.value, want)
        backward(out, seed)
        np.testing.assert_allclose(v.grad, seed[seg])

    def test_scatter_rows_of_no_rows_is_float_zeros(self):
        # an edge-less batch: np.bincount alone would count in int64
        out = scatter_rows(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 4)
        assert out.dtype == np.float64
        assert out.shape == (4, 3)
        assert not out.any()

    def test_columns(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(3, 7))
        for cols in (slice(0, 2), slice(2, 6), slice(6, None)):
            out = columns(leaf(w), cols)
            assert np.array_equal(out.value, w[:, cols])
            check_op(lambda w: columns(w, cols), [w], rng.normal(size=out.value.shape))

    def test_column_blocks_give_the_whole_layer_gradient(self):
        # a layer over [a, b] is the bias-free product of a's block plus b's
        # with the bias: the blocks' adjoints sum to the whole weight's
        rng = np.random.default_rng(16)
        a, b = rng.normal(size=(4, 2)), rng.normal(size=(4, 3))
        w, bias = rng.normal(size=(5, 5)), rng.normal(size=5)
        seed = rng.normal(size=(4, 5))
        whole, wv, bv = leaf(np.concatenate([a, b], axis=1)), leaf(w.copy()), leaf(bias.copy())
        backward(linear(whole, wv, bv), seed)
        wl, bl = leaf(w.copy()), leaf(bias.copy())
        left = linear(leaf(a), columns(wl, slice(0, 2)))
        split = add(left, linear(leaf(b), columns(wl, slice(2, None)), bl))
        backward(split, seed)
        np.testing.assert_allclose(split.value, np.concatenate([a, b], axis=1) @ w.T + bias)
        np.testing.assert_allclose(wl.grad, wv.grad, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(bl.grad, bv.grad, rtol=1e-12, atol=1e-12)

    def test_log_softmax(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.normal(size=(4, 5)) * 3
            seed = rng.normal(size=(4, 5))
            check_op(log_softmax, [x], seed)

    def test_log_softmax_rows_normalize(self):
        x = np.array([[1000.0, 1000.0, 999.0], [-5.0, 0.0, 5.0]])
        out = log_softmax(leaf(x))
        np.testing.assert_allclose(np.exp(out.value).sum(axis=1), [1.0, 1.0])
        assert np.all(np.isfinite(out.value))


class TestBackward:
    def test_shared_subexpression_accumulates(self):
        # y = x*x + x  (x feeds two paths); dy/dx = 2x + 1
        x = leaf(np.array([[3.0, -2.0]]))
        out = add(mul(x, x), x)
        backward(out, np.ones((1, 2)))
        np.testing.assert_allclose(x.grad, [[7.0, -3.0]])

    def test_deep_chain_is_iterative(self):
        # a graph deep enough to blow a recursive traversal
        x = leaf(np.ones((1, 1)))
        out = x
        for _ in range(5000):
            out = add(out, x)
        backward(out, np.ones((1, 1)))
        assert x.grad[0, 0] == 5001.0

    def test_constants_get_no_adjoint_and_interior_ones_are_released(self):
        rng = np.random.default_rng(9)
        data = const(rng.normal(size=(4, 3)))
        w, b = leaf(rng.normal(size=(2, 3))), leaf(rng.normal(size=2))
        hid = relu(linear(data, w, b))
        out = log_softmax(add(hid, gather(hid, np.array([1, 0, 3, 2]))))
        assert not data.needs_grad and all(p is not data for p, _ in hid.parents[0][0].parents)
        seed = rng.normal(size=(4, 2))
        backward(out, seed)
        assert data.grad is None
        interior = [node for node in _topo_order(out) if node.parents]
        assert len(interior) == 5 and all(node.grad is None for node in interior)
        first = (w.grad, b.grad)
        # the interior adjoints were released, so a second call adds the same again
        backward(out, seed)
        np.testing.assert_array_equal(w.grad, 2 * first[0])
        np.testing.assert_array_equal(b.grad, 2 * first[1])

    def test_seed_shape_checked(self):
        x = leaf(np.zeros((2, 3)))
        out = relu(x)
        with pytest.raises(ShapeError):
            backward(out, np.ones((3, 3)))

    def test_composite_against_fd(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 4))
        w1 = rng.normal(size=(6, 4))
        b1 = rng.normal(size=6)
        w2 = rng.normal(size=(3, 6))
        b2 = rng.normal(size=3)
        seed = rng.normal(size=(5, 3))

        def net(x, w1, b1, w2, b2):
            return log_softmax(linear(relu(linear(x, w1, b1)), w2, b2))

        check_op(net, [x, w1, b1, w2, b2], seed, tol=1e-5)


class TestReluTracking:
    def test_min_preactivation_found(self):
        x = leaf(np.array([[0.5, -0.2], [3.0, 0.001]]))
        out = relu(x)
        assert min_relu_preactivation(out) == pytest.approx(0.001)

    def test_min_over_every_relu_layer(self):
        x = leaf(np.array([[0.5, -0.2]]))
        w = leaf(np.array([[1.0, 0.0], [0.0, 1.0]]))
        b = leaf(np.array([0.1, 0.0]))
        out = relu(linear(relu(x), w, b))
        # inner layer min |pre| = 0.2, outer sees [0.6, 0.0] -> 0.0
        assert min_relu_preactivation(out) == 0.0

    def test_no_relu_gives_infinity(self):
        out = add(leaf(np.zeros((1, 1))), leaf(np.ones((1, 1))))
        assert min_relu_preactivation(out) == np.inf
