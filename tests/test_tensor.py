"""Autodiff core: forward values against hand oracles, gradients against
central differences."""

import tracemalloc
import weakref

import numpy as np
import pytest

from scatternet import engine
from scatternet import tensor as T
from scatternet.engine import ConfigError, ShapeError, WindowTooShort
from scatternet.scatter import scatter_forward
from scatternet.tensor import (Tensor, adaptive_avgpool1d, batchnorm1d, concat,
                               conv1d, dropout, grad_check, linear, maxpool1d,
                               sigmoid, softmax, swish, tensor_sum)


@pytest.fixture(autouse=True)
def _reset_engine():
    engine.set_precision("float32")
    engine.seed(0)
    yield
    engine.set_precision("float32")


def conv1d_bruteforce(x, w, b, stride, padding):
    """Quintuple-loop reference; accumulation order (ci, k), bias added last."""
    bsz, cin, length = x.shape
    cout, _, k = w.shape
    xp = np.zeros((bsz, cin, length + 2 * padding), dtype=x.dtype)
    xp[:, :, padding:padding + length] = x
    lout = (length + 2 * padding - k) // stride + 1
    out = np.zeros((bsz, cout, lout), dtype=x.dtype)
    for bi in range(bsz):
        for co in range(cout):
            for t in range(lout):
                acc = 0.0
                for ci in range(cin):
                    for kk in range(k):
                        acc += xp[bi, ci, t * stride + kk] * w[co, ci, kk]
                out[bi, co, t] = acc + b[co]
    return out


def conv1d_per_tap(x, w, b, stride, padding):
    """Whole-array reference: one numpy multiply-add per (ci, k) tap, in that
    order, from zero; bias added last."""
    bsz, cin, length = x.shape
    cout, _, k = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    lout = (length + 2 * padding - k) // stride + 1
    end = (lout - 1) * stride + 1
    out = np.zeros((bsz, cout, lout), dtype=x.dtype)
    for ci in range(cin):
        for kk in range(k):
            out += xp[:, ci, None, kk:kk + end:stride] * w[None, :, ci, kk, None]
    return out + b[None, :, None]


class TestConv1d:
    def test_identity_kernel(self):
        out = conv1d(Tensor(np.array([[[1.0, 2.0, 3.0]]])),
                     Tensor(np.array([[[1.0]]])))
        np.testing.assert_array_equal(out.data, [[[1.0, 2.0, 3.0]]])

    def test_centered_delta_kernel(self):
        x = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        w = Tensor(np.array([[[0.0, 1.0, 0.0]]]))
        out = conv1d(x, w, stride=1, padding=1)
        np.testing.assert_array_equal(out.data, [[[1.0, 2.0, 3.0, 4.0]]])

    def test_strided_length8_against_bruteforce(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 1, 8)).astype(np.float32)
        w = rng.standard_normal((1, 1, 3)).astype(np.float32)
        b = rng.standard_normal(1).astype(np.float32)
        out = conv1d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1)
        assert out.data.shape == (1, 1, 4)
        np.testing.assert_allclose(out.data, conv1d_bruteforce(x, w, b, 2, 1),
                                   rtol=1e-6, atol=1e-6)

    def test_bruteforce_bitwise_64bit(self):
        # every shape up to (2, 4, 32), both strides, with and without padding
        engine.set_precision("float64")
        rng = np.random.default_rng(2)
        for bsz in (1, 2):
            for cin in (1, 3, 4):
                for cout in (1, 4):
                    for k in (1, 3, 7):
                        for length in (k, k + 4, 32):
                            for stride in (1, 2):
                                for pad in (0, k // 2):
                                    lout = (length + 2 * pad - k) // stride + 1
                                    if lout < 1:
                                        continue
                                    x = rng.standard_normal((bsz, cin, length))
                                    w = rng.standard_normal((cout, cin, k))
                                    b = rng.standard_normal(cout)
                                    got = conv1d(Tensor(x), Tensor(w), Tensor(b),
                                                 stride=stride, padding=pad).data
                                    want = conv1d_bruteforce(x, w, b, stride, pad)
                                    assert np.array_equal(got, want), \
                                        (bsz, cin, cout, k, length, stride, pad)

    # (B, Ci, Co, K, L, stride, padding): several output-channel blocks; the
    # same with stride 2 over an odd length; the scatter geometry (K=9,
    # stride 2, padding 4, one channel) with one plane over several
    # batch-row blocks; and stride 2 over an odd length inside one block.
    @pytest.mark.parametrize("shape", [(8, 3, 40, 1, 1000, 1, 0),
                                       (8, 5, 21, 3, 1001, 2, 1),
                                       (70, 1, 1, 9, 2049, 2, 4),
                                       (3, 4, 5, 7, 33, 2, 3)])
    @pytest.mark.parametrize("block_bytes", [None, 20000])
    def test_block_edges_bitwise_64bit(self, monkeypatch, shape, block_bytes):
        # None keeps the module's block size; 20000 bytes cuts every plane
        # above into batch-row blocks with a short last block.
        if block_bytes is not None:
            monkeypatch.setattr(T, "_BLOCK_BYTES", block_bytes)
        engine.set_precision("float64")
        bsz, cin, cout, k, length, stride, pad = shape
        rng = np.random.default_rng(5)
        x = rng.standard_normal((bsz, cin, length))
        w = rng.standard_normal((cout, cin, k))
        b = rng.standard_normal(cout)
        got = conv1d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=pad).data
        assert np.array_equal(got, conv1d_per_tap(x, w, b, stride, pad))

    def test_window_too_short(self):
        x = Tensor(np.zeros((1, 1, 2), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 5), dtype=np.float32))
        with pytest.raises(WindowTooShort, match="window too short"):
            conv1d(x, w)

    def test_channel_mismatch(self):
        x = Tensor(np.zeros((1, 3, 8), dtype=np.float32))
        w = Tensor(np.zeros((2, 4, 3), dtype=np.float32))
        with pytest.raises(ShapeError):
            conv1d(x, w)

    def test_bad_stride(self):
        x = Tensor(np.zeros((1, 1, 8), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 3), dtype=np.float32))
        with pytest.raises(ShapeError):
            conv1d(x, w, stride=3)

    @pytest.mark.parametrize("stride,padding,k", [(1, 0, 3), (1, 2, 5), (2, 1, 3), (2, 4, 9), (1, 0, 1)])
    def test_grad(self, stride, padding, k):
        engine.set_precision("float64")
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 3, 14)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, k)) * 0.5, requires_grad=True)
        b = Tensor(rng.standard_normal(4) * 0.1, requires_grad=True)

        def f(xx, ww, bb):
            return tensor_sum(conv1d(xx, ww, bb, stride=stride, padding=padding))

        assert grad_check(f, [x, w, b], max_samples=40, seed=0) < 1e-4


class TestBatchnorm:
    def test_constant_channel_maps_to_zero(self):
        x = Tensor(np.full((3, 2, 5), 5.0, dtype=np.float32))
        gamma = Tensor(np.ones(2, dtype=np.float32))
        beta = Tensor(np.zeros(2, dtype=np.float32))
        rm, rv = Tensor(np.zeros(2, dtype=np.float32)), Tensor(np.ones(2, dtype=np.float32))
        out = batchnorm1d(x, gamma, beta, rm, rv, training=True)
        assert np.abs(out.data).max() <= 5.0 * np.sqrt(1e-5)

    def test_train_mode_normalizes(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((8, 3, 16)).astype(np.float32) * 3 + 1)
        gamma = Tensor(np.ones(3, dtype=np.float32))
        beta = Tensor(np.zeros(3, dtype=np.float32))
        rm, rv = Tensor(np.zeros(3, dtype=np.float32)), Tensor(np.ones(3, dtype=np.float32))
        out = batchnorm1d(x, gamma, beta, rm, rv, training=True)
        mean = out.data.mean(axis=(0, 2))
        var = out.data.var(axis=(0, 2))
        np.testing.assert_allclose(mean, 0.0, atol=1e-5)
        np.testing.assert_allclose(var, 1.0, atol=1e-4)

    def test_running_stats_and_eval(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 2, 8)).astype(np.float32) * 2 + 3
        gamma = Tensor(np.array([1.5, 0.5], dtype=np.float32))
        beta = Tensor(np.array([0.1, -0.2], dtype=np.float32))
        rm, rv = Tensor(np.zeros(2, dtype=np.float32)), Tensor(np.ones(2, dtype=np.float32))
        batchnorm1d(Tensor(x), gamma, beta, rm, rv, training=True)
        batch_mean = x.mean(axis=(0, 2))
        n = x.shape[0] * x.shape[2]
        batch_var = x.var(axis=(0, 2)) * n / (n - 1)
        np.testing.assert_allclose(rm.data, 0.1 * batch_mean, rtol=1e-5)
        np.testing.assert_allclose(rv.data, 0.9 + 0.1 * batch_var, rtol=1e-5)

        out = batchnorm1d(Tensor(x), gamma, beta, rm, rv, training=False)
        want = (x - rm.data[None, :, None]) / np.sqrt(rv.data[None, :, None] + 1e-5)
        want = want * gamma.data[None, :, None] + beta.data[None, :, None]
        np.testing.assert_allclose(out.data, want, rtol=1e-5, atol=1e-6)

    def test_grad(self):
        engine.set_precision("float64")
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((4, 3, 6)), requires_grad=True)
        gamma = Tensor(rng.random(3) + 0.5, requires_grad=True)
        beta = Tensor(rng.standard_normal(3) * 0.2, requires_grad=True)
        sel = Tensor(rng.standard_normal((4, 3, 6)))

        def f(xx, gg, bb):
            rm, rv = Tensor(np.zeros(3)), Tensor(np.ones(3))
            return tensor_sum(T.mul(batchnorm1d(xx, gg, bb, rm, rv, training=True), sel))

        assert grad_check(f, [x, gamma, beta], max_samples=48, seed=1) < 1e-4


class TestActivations:
    def test_swish_zero(self):
        assert float(swish(Tensor(np.array(0.0))).data) == 0.0

    def test_sigmoid_zero(self):
        assert float(sigmoid(Tensor(np.array(0.0))).data) == 0.5

    def test_swish_matches_scalar_oracle(self):
        engine.set_precision("float64")
        import math
        xs = np.arange(-5.0, 5.0 + 0.25, 0.25)
        got = swish(Tensor(xs)).data
        want = np.array([v / (1.0 + math.exp(-v)) for v in xs])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_sigmoid_extreme_inputs_stable(self):
        out = sigmoid(Tensor(np.array([-500.0, 500.0], dtype=np.float32)))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] >= 0.0 and out.data[1] <= 1.0

    @pytest.mark.parametrize("op", [sigmoid, swish, T.exp])
    def test_grad(self, op):
        engine.set_precision("float64")
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        assert grad_check(lambda xx: tensor_sum(op(xx)), [x]) < 1e-4


class TestDropout:
    def test_p_zero_identity(self):
        x = Tensor(np.arange(12.0, dtype=np.float32).reshape(3, 4))
        out = dropout(x, 0.0, training=True)
        np.testing.assert_array_equal(out.data, x.data)

    def test_eval_identity(self):
        x = Tensor(np.arange(12.0, dtype=np.float32).reshape(3, 4))
        out = dropout(x, 0.9, training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_drop_fraction(self):
        engine.seed(123)
        x = Tensor(np.ones(1_000_000, dtype=np.float32))
        out = dropout(x, 0.25, training=True)
        frac = float((out.data == 0).mean())
        assert abs(frac - 0.25) < 0.005
        kept = out.data[out.data != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75, rtol=1e-6)

    def test_p_one_rejected(self):
        with pytest.raises(ConfigError):
            dropout(Tensor(np.ones(3, dtype=np.float32)), 1.0, training=True)

    def test_grad_with_reseeded_mask(self):
        # the mask must be identical on every probe, so reseed inside f
        engine.set_precision("float64")
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal(40), requires_grad=True)

        def f(xx):
            engine.seed(55)
            return tensor_sum(dropout(xx, 0.25, training=True))

        assert grad_check(f, [x]) < 1e-4


class TestPooling:
    def test_maxpool_example(self):
        x = Tensor(np.array([[[1.0, 3.0, 2.0, 5.0, 4.0]]], dtype=np.float32))
        out = maxpool1d(x, kernel=3, stride=2, padding=0)
        np.testing.assert_array_equal(out.data, [[[3.0, 5.0]]])

    def test_maxpool_tie_routes_to_lowest_index(self):
        x = Tensor(np.array([[[2.0, 2.0, 1.0]]]), requires_grad=True)
        out = maxpool1d(x, kernel=3, stride=2, padding=0)
        tensor_sum(out).backward()
        np.testing.assert_array_equal(x.grad, [[[1.0, 0.0, 0.0]]])

    def test_maxpool_too_short(self):
        with pytest.raises(WindowTooShort):
            maxpool1d(Tensor(np.zeros((1, 1, 2), dtype=np.float32)), kernel=3,
                      stride=2, padding=0)

    def test_avgpool_pairs(self):
        x = np.arange(16.0, dtype=np.float32).reshape(1, 1, 16)
        out = adaptive_avgpool1d(Tensor(x), 8)
        np.testing.assert_allclose(out.data[0, 0], x[0, 0].reshape(8, 2).mean(axis=1))

    def test_avgpool_uneven_bins(self):
        x = np.arange(10.0, dtype=np.float32).reshape(1, 1, 10)
        out = adaptive_avgpool1d(Tensor(x), 8)
        want = []
        for i in range(8):
            lo = (10 * i) // 8
            hi = (10 * (i + 1)) // 8
            want.append(x[0, 0, lo:hi].mean())
        np.testing.assert_allclose(out.data[0, 0], want, rtol=1e-6)

    def test_avgpool_too_short(self):
        with pytest.raises(WindowTooShort):
            adaptive_avgpool1d(Tensor(np.zeros((1, 1, 5), dtype=np.float32)), 8)

    def test_maxpool_grad(self):
        engine.set_precision("float64")
        rng = np.random.default_rng(9)
        x = Tensor(rng.permutation(24).astype(np.float64).reshape(1, 2, 12),
                   requires_grad=True)
        sel = Tensor(rng.standard_normal((1, 2, 6)))

        def f(xx):
            return tensor_sum(T.mul(maxpool1d(xx, kernel=3, stride=2, padding=1), sel))

        assert grad_check(f, [x]) < 1e-4

    def test_avgpool_grad(self):
        engine.set_precision("float64")
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((2, 2, 11)), requires_grad=True)
        sel = Tensor(rng.standard_normal((2, 2, 4)))

        def f(xx):
            return tensor_sum(T.mul(adaptive_avgpool1d(xx, 4), sel))

        assert grad_check(f, [x]) < 1e-4


class TestLinearAndElementwise:
    def test_linear_identity(self):
        x = np.arange(6.0, dtype=np.float32).reshape(2, 3)
        out = linear(Tensor(x), Tensor(np.eye(3, dtype=np.float32)),
                     Tensor(np.zeros(3, dtype=np.float32)))
        np.testing.assert_array_equal(out.data, x)

    def test_log_sqrt(self):
        assert float(T.log(Tensor(np.array(1.0))).data) == 0.0
        assert float(T.sqrt(Tensor(np.array(4.0))).data) == 2.0

    def test_linear_shape_mismatch(self):
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros((2, 3), dtype=np.float32)),
                   Tensor(np.zeros((4, 5), dtype=np.float32)),
                   Tensor(np.zeros(5, dtype=np.float32)))

    def test_concat_and_reshape_roundtrip(self):
        a = Tensor(np.arange(6.0, dtype=np.float32).reshape(2, 3), requires_grad=True)
        b = Tensor(np.arange(4.0, dtype=np.float32).reshape(2, 2), requires_grad=True)
        joined = concat([a, b], axis=1)
        assert joined.data.shape == (2, 5)
        tensor_sum(T.mul(joined, joined)).backward()
        np.testing.assert_allclose(a.grad, 2 * a.data)
        np.testing.assert_allclose(b.grad, 2 * b.data)

    def test_composite_graph_grad(self):
        engine.set_precision("float64")
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((2, 3, 12)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3)) * 0.4, requires_grad=True)
        gamma = Tensor(rng.random(4) + 0.5, requires_grad=True)
        beta = Tensor(rng.standard_normal(4) * 0.1, requires_grad=True)
        wl = Tensor(rng.standard_normal((4, 2)) * 0.3, requires_grad=True)
        bl = Tensor(rng.standard_normal(2) * 0.1, requires_grad=True)

        def f(xx, ww, gg, bb, wwl, bbl):
            h = conv1d(xx, ww, stride=1, padding=1)
            rm, rv = Tensor(np.zeros(4)), Tensor(np.ones(4))
            h = batchnorm1d(h, gg, bb, rm, rv, training=True)
            h = swish(h)
            h = adaptive_avgpool1d(h, 1)
            h = T.reshape(h, (2, 4))
            return tensor_sum(linear(h, wwl, bbl))

        err = grad_check(f, [x, w, gamma, beta, wl, bl], max_samples=40, seed=2)
        assert err < 1e-4


class TestBackward:
    def test_sum_of_squares_gradient(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        tensor_sum(T.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_swish_analytic_derivative(self):
        engine.set_precision("float64")
        xs = np.linspace(-4, 4, 33)
        x = Tensor(xs.copy(), requires_grad=True)
        tensor_sum(swish(x)).backward()
        sig = 1.0 / (1.0 + np.exp(-xs))
        want = sig + xs * sig * (1.0 - sig)
        np.testing.assert_allclose(x.grad, want, atol=1e-6)

    def test_fanout_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = T.add(T.mul(x, x), T.mul(x, Tensor(np.array([2.0]))))
        tensor_sum(y).backward()
        np.testing.assert_allclose(x.grad, [8.0])  # d(x^2 + 2x)/dx at 3

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            T.mul(x, x).backward()

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(12)
        out = softmax(Tensor(rng.standard_normal((4, 7)).astype(np.float32)), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, rtol=1e-6)

    def test_repeated_run_bit_identical(self):
        def run():
            engine.seed(99)
            rng = engine.rng()
            x = Tensor(rng.standard_normal((2, 3, 16)).astype(np.float32),
                       requires_grad=True)
            w = Tensor(rng.standard_normal((4, 3, 3)).astype(np.float32),
                       requires_grad=True)
            h = swish(conv1d(x, w, stride=2, padding=1))
            h = dropout(h, 0.25, training=True)
            loss = tensor_sum(T.mul(h, h))
            loss.backward()
            return loss.data.copy(), x.grad.copy(), w.grad.copy()

        first, second = run(), run()
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_grad_check_requires_float64(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ConfigError):
            grad_check(lambda xx: tensor_sum(xx), [x])

    @pytest.mark.parametrize("op_name", ["add", "sub", "mul", "div", "log", "sqrt"])
    def test_elementwise_grads(self, op_name):
        engine.set_precision("float64")
        rng = np.random.default_rng(13)
        x = Tensor(rng.random((3, 4)) + 0.5, requires_grad=True)
        y = Tensor(rng.random((3, 4)) + 0.5, requires_grad=True)
        binary = {"add": T.add, "sub": T.sub, "mul": T.mul, "div": T.div}
        if op_name in binary:
            op = binary[op_name]
            f = lambda xx, yy: tensor_sum(T.mul(op(xx, yy), yy))
            assert grad_check(f, [x, y]) < 1e-4
        else:
            op = {"log": T.log, "sqrt": T.sqrt}[op_name]
            assert grad_check(lambda xx: tensor_sum(op(xx)), [x]) < 1e-4

    def test_broadcast_grads(self):
        engine.set_precision("float64")
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        row = Tensor(rng.standard_normal((1, 3)), requires_grad=True)
        f = lambda xx, rr: tensor_sum(T.mul(T.add(xx, rr), xx))
        assert grad_check(f, [x, row]) < 1e-4

    def test_matmul_grad(self):
        engine.set_precision("float64")
        rng = np.random.default_rng(15)
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 4, 5)), requires_grad=True)
        f = lambda aa, bb: tensor_sum(T.matmul(aa, bb))
        assert grad_check(f, [a, b]) < 1e-4


def sigmoid_select(a):
    """The earlier sigmoid kernel: a select over the sign, then one division."""
    ez = np.exp(-np.abs(a))
    return np.where(a >= 0, 1, ez) / (1 + ez)


def batchnorm_eval_reference(x, gamma, beta, rm, rv, eps=1e-5):
    """The earlier eval-mode batchnorm: returns (out, xhat, inv) on whole arrays."""
    inv = 1.0 / np.sqrt(rv + eps)
    xhat = (x - rm[None, :, None]) * inv[None, :, None]
    return gamma[None, :, None] * xhat + beta[None, :, None], xhat, inv


SIGMOID_SPECIALS = [0.0, -0.0, 100.0, -100.0, 88.7, -88.7, 710.0, -710.0,
                    np.inf, -np.inf, 1e-40, -1e-40, 5e-324, -5e-324]


class TestBlockedKernelsBitwise:
    """The row-blocked, branch-free forward kernels give the same bits as the
    whole-array formulas they replaced."""

    # 0-d; one block; a 3-D array over several blocks with a short last
    # block; rows larger than a block (one row per block).
    @pytest.mark.parametrize("shape", [(), (84, 256), (9, 48, 1280), (3, 140000)])
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("record", [True, False])
    def test_sigmoid_swish(self, shape, precision, record):
        engine.set_precision(precision)
        rng = np.random.default_rng(16)
        a = (rng.standard_normal(shape) * 10).astype(engine.dtype())
        if a.ndim:
            a.flat[:len(SIGMOID_SPECIALS)] = np.array(SIGMOID_SPECIALS).astype(a.dtype)
        sig = sigmoid_select(a)
        g = rng.standard_normal(shape).astype(a.dtype)
        with np.errstate(invalid="ignore"):
            want_swish = a * sig
            want_grad = g * (sig + a * sig * (1.0 - sig))
        for op, want in ((sigmoid, sig), (swish, want_swish)):
            x = Tensor(a, requires_grad=record)
            if record:
                with np.errstate(invalid="ignore"):
                    out = op(x)
            else:
                with engine.no_grad(), np.errstate(invalid="ignore"):
                    out = op(x)
            assert out.data.shape == a.shape and out.data.dtype == a.dtype
            assert out.data.tobytes() == want.tobytes(), op.__name__
        if record:
            # swish's backward reads the sigmoid it kept in forward
            x = Tensor(a, requires_grad=True)
            with np.errstate(invalid="ignore"):
                swish(x).backward(g)
            assert x.grad.tobytes() == want_grad.tobytes()

    def _bn_inputs(self, shape, seed):
        rng = np.random.default_rng(seed)
        c = shape[1]
        x = (rng.standard_normal(shape) * 2 + 1).astype(np.float32)
        gamma = (rng.random(c) + 0.5).astype(np.float32)
        beta = rng.standard_normal(c).astype(np.float32)
        rm = rng.standard_normal(c).astype(np.float32)
        rv = (rng.random(c) + 0.1).astype(np.float32)
        return x, gamma, beta, rm, rv

    # one block, and several blocks with a short last block
    @pytest.mark.parametrize("shape", [(4, 3, 50), (9, 48, 1280)])
    def test_batchnorm_eval(self, shape):
        x, gamma, beta, rm, rv = self._bn_inputs(shape, 17)
        want, xhat, inv = batchnorm_eval_reference(x, gamma, beta, rm, rv)
        with engine.no_grad():
            plain = batchnorm1d(Tensor(x), Tensor(gamma), Tensor(beta), rm, rv,
                                training=False)
        xt = Tensor(x, requires_grad=True)
        gt, bt = Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True)
        recorded = batchnorm1d(xt, gt, bt, rm, rv, training=False)
        assert plain.data.tobytes() == want.tobytes()
        assert recorded.data.tobytes() == want.tobytes()

        # Training steps update the running arrays in place; backward must
        # still use the statistics the forward saw.
        rm += 1.0
        rv *= 3.0
        g = np.random.default_rng(18).standard_normal(shape).astype(np.float32)
        recorded.backward(g)
        assert gt.grad.tobytes() == (g * xhat).sum(axis=(0, 2)).tobytes()
        assert bt.grad.tobytes() == g.sum(axis=(0, 2)).tobytes()
        assert xt.grad.tobytes() == (g * (gamma * inv)[None, :, None]).tobytes()

    def test_batchnorm_eval_allocates_only_its_result(self):
        # Without a graph the normalized x is written into the result, so the
        # call holds no second output-sized array; the slack covers the
        # per-channel copies and Python objects.
        x, gamma, beta, rm, rv = self._bn_inputs((8, 64, 4096), 20)
        with engine.no_grad():
            tracemalloc.start()
            try:
                out = batchnorm1d(Tensor(x), Tensor(gamma), Tensor(beta), rm, rv,
                                  training=False)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert out.data.nbytes == x.nbytes
        assert peak < x.nbytes + 64 * 1024, (peak, x.nbytes)

    def test_batchnorm_train(self):
        x, gamma, beta, rm, rv = self._bn_inputs((6, 5, 40), 19)
        mu, var = x.mean(axis=(0, 2)), x.var(axis=(0, 2))
        inv = 1.0 / np.sqrt(var + 1e-5)
        xhat = (x - mu[None, :, None]) * inv[None, :, None]
        want = gamma[None, :, None] * xhat + beta[None, :, None]
        out = batchnorm1d(Tensor(x), Tensor(gamma), Tensor(beta), rm, rv, training=True)
        assert out.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kernel,stride,padding", [(3, 2, 1), (3, 1, 0), (2, 2, 0),
                                                        (3, 2, 0), (1, 1, 0)])
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_maxpool_forward(self, kernel, stride, padding, precision):
        # Small integers give many tied windows; zeros of both signs tie
        # too, and a NaN must win its windows.
        engine.set_precision(precision)
        rng = np.random.default_rng(20)
        x = rng.integers(-2, 3, size=(3, 4, 101)).astype(engine.dtype())
        zeros = x == 0
        x[zeros] = rng.choice(np.array([0.0, -0.0]), size=int(zeros.sum()))
        x.flat[::97] = np.nan
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)), constant_values=-np.inf)
        l_out = (x.shape[2] + 2 * padding - kernel) // stride + 1
        want = T._window_view(xp, kernel, stride, l_out).max(axis=2)
        got = maxpool1d(Tensor(x), kernel=kernel, stride=stride, padding=padding).data
        assert got.flags.c_contiguous
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def batchnorm_train_reference(x, gamma, beta, rm, rv, g, momentum=0.1, eps=1e-5):
    """Training batchnorm with x.mean/x.var: output, running arrays and the
    x/gamma/beta gradients for the seed gradient g."""
    axes = (0, 2)
    n = x.shape[0] * x.shape[2]
    mu, var = x.mean(axis=axes), x.var(axis=axes)
    rm, rv = rm.copy(), rv.copy()
    rm *= 1.0 - momentum
    rm += momentum * mu
    if n > 1:
        rv *= 1.0 - momentum
        rv += momentum * var * (n / (n - 1.0))
    inv = 1.0 / np.sqrt(var + eps)
    xhat = x - mu[None, :, None]
    xhat *= inv[None, :, None]
    out = gamma[None, :, None] * xhat
    out += beta[None, :, None]
    dxhat = g * gamma[None, :, None]
    s1 = dxhat.sum(axis=axes)
    s2 = (dxhat * xhat).sum(axis=axes)
    gx = dxhat - (s1[None, :, None] + xhat * s2[None, :, None]) / n
    gx *= inv[None, :, None]
    return out, rm, rv, gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)


def conv1d_backward_reference(x, w, g, stride, padding):
    """conv1d's x/w/bias gradients with einsum(optimize=True) and tensordot."""
    k = w.shape[2]
    bsz, ci, l_in = x.shape
    l_out = g.shape[2]
    # With padding, conv1d's backward reads a transposed view of its
    # channel-major padded copy; einsum's bits on a size-1 axis follow the
    # layout, so the reference uses the same one.
    xc = np.zeros((ci, bsz, l_in + 2 * padding), dtype=x.dtype)
    xc[:, :, padding:padding + l_in] = x.transpose(1, 0, 2)
    xp = xc.transpose(1, 0, 2) if padding else x
    if k == 1:
        xs = xp[:, :, ::stride][:, :, :l_out]
        gw = np.einsum("bol,bcl->oc", g, xs, optimize=True)[:, :, None]
    else:
        win = T._window_view(xp, k, stride, l_out)
        gw = np.tensordot(g, win, axes=([0, 2], [0, 3]))
    gxp = np.zeros_like(xp)
    dwin = np.tensordot(w, g, axes=([0], [1])).transpose(2, 0, 1, 3)
    for kk in range(k):
        gxp[:, :, kk:kk + stride * l_out:stride] += dwin[:, :, kk, :]
    return gxp[:, :, padding:padding + l_in], gw, g.sum(axis=(0, 2))


class TestTrainStepBitwise:
    """The training step's batchnorm statistics, conv1d backward and
    first-gradient hand-over give the same bits as the formulas they
    replaced."""

    # B = 1, C = 1, L = 1, and several channels over longer rows
    @pytest.mark.parametrize("shape", [(1, 4, 30), (5, 1, 30), (6, 3, 1), (16, 48, 160)])
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_batchnorm_train(self, shape, precision):
        engine.set_precision(precision)
        rng = np.random.default_rng(24)
        dt = engine.dtype()
        c = shape[1]
        x = (rng.standard_normal(shape) * 2 + 1).astype(dt)
        gamma = (rng.random(c) + 0.5).astype(dt)
        beta = rng.standard_normal(c).astype(dt)
        rm = rng.standard_normal(c).astype(dt)
        rv = (rng.random(c) + 0.1).astype(dt)
        g = rng.standard_normal(shape).astype(dt)
        want = batchnorm_train_reference(x, gamma, beta, rm, rv, g)
        xt = Tensor(x, requires_grad=True)
        gt, bt = Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True)
        out = batchnorm1d(xt, gt, bt, rm, rv, training=True)
        out.backward(g)
        got = (out.data, rm, rv, xt.grad, gt.grad, bt.grad)
        for name, a, b in zip(("out", "running_mean", "running_var", "x", "gamma",
                               "beta"), got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    # (B, Ci, Co, L); L None means the longest length that leaves L_out = 1,
    # or 1 where the padding is wider than the kernel. At stride 2,
    # (8, 1, 7, 66) and (8, 48, 1, None) are shapes where the k = 1 weight
    # gradient's einsum and a plain matmul differ in the last bit.
    @pytest.mark.parametrize("bsz,ci,co,length", [
        (3, 4, 5, 33), (1, 4, 5, 33), (3, 1, 5, 33), (3, 4, 1, 33), (3, 4, 5, None),
        (8, 1, 7, 66), (8, 48, 1, None), (8, 24, 48, 160)])
    @pytest.mark.parametrize("k", [1, 3, 7, 9])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padded", [False, True])
    def test_conv1d_backward(self, bsz, ci, co, length, k, stride, padded):
        padding = max(1, k // 2) if padded else 0
        if length is None:
            length = max(1, k - 2 * padding + stride - 1)
        rng = np.random.default_rng(25)
        x = rng.standard_normal((bsz, ci, length)).astype(np.float32)
        w = rng.standard_normal((co, ci, k)).astype(np.float32)
        b = rng.standard_normal(co).astype(np.float32)
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = conv1d(xt, wt, bt, stride=stride, padding=padding)
        g = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(g)
        want = conv1d_backward_reference(x, w, g, stride, padding)
        for name, got, ref in zip("xwb", (xt.grad, wt.grad, bt.grad), want):
            assert got.shape == ref.shape and got.tobytes() == np.ascontiguousarray(
                ref).tobytes(), name

    def test_fresh_gradients_sum_and_leave_upstream_alone(self):
        # x feeds conv1d and swish, which both hand over a fresh x gradient
        rng = np.random.default_rng(26)
        x = rng.standard_normal((2, 3, 16)).astype(np.float32)
        w = rng.standard_normal((3, 3, 3)).astype(np.float32)
        r1 = rng.standard_normal((2, 3, 16)).astype(np.float32)
        r2 = rng.standard_normal((2, 3, 16)).astype(np.float32)

        def branch_grads(op, r):
            xt = Tensor(x, requires_grad=True)
            op(xt).backward(r)
            return xt.grad

        def conv(t):
            return conv1d(t, Tensor(w), padding=1)

        want = branch_grads(conv, r1) + branch_grads(swish, r2)
        xt = Tensor(x, requires_grad=True)
        y1, y2 = conv(xt), swish(xt)
        loss = tensor_sum(T.mul(y1, r1)) + tensor_sum(T.mul(y2, r2))
        loss.backward()
        assert xt.grad.tobytes() == want.tobytes()
        assert y1.grad.tobytes() == r1.tobytes()
        assert y2.grad.tobytes() == r2.tobytes()


def conv1d_channel_major(x, w, b, stride, padding):
    """The forward built whole as (Co, B, L_out): taps in (ci, k) order from
    zero, then one transposing pass that adds the bias."""
    bsz, cin, length = x.shape
    cout, _, k = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding))).transpose(1, 0, 2)
    lout = (length + 2 * padding - k) // stride + 1
    end = (lout - 1) * stride + 1
    out = np.zeros((cout, bsz, lout), dtype=x.dtype)
    for ci in range(cin):
        for kk in range(k):
            out += w[:, ci, kk, None, None] * xp[ci, None, :, kk:kk + end:stride]
    if b is None:
        return np.ascontiguousarray(out.transpose(1, 0, 2))
    return np.add(out.transpose(1, 0, 2), b[None, :, None], order="C")


class TestConv1dOutputWrite:
    """conv1d writes each finished block straight into its (B, Co, L_out)
    result."""

    # (B, Ci, Co, K, L, stride, padding, block bytes): several channel
    # blocks with a short last one; batch-row blocks of one channel with a
    # short last one; the module's block size over channel blocks.
    @pytest.mark.parametrize("shape", [(3, 2, 12, 3, 101, 1, 1, 6000),
                                       (7, 3, 4, 5, 1003, 2, 2, 6000),
                                       (4, 2, 20, 1, 4096, 1, 0, None)])
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_float32_bytes(self, monkeypatch, shape, with_bias):
        bsz, cin, cout, k, length, stride, pad, block_bytes = shape
        if block_bytes is not None:
            monkeypatch.setattr(T, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(27)
        x = rng.standard_normal((bsz, cin, length)).astype(np.float32)
        w = rng.standard_normal((cout, cin, k)).astype(np.float32)
        b = rng.standard_normal(cout).astype(np.float32) if with_bias else None
        got = conv1d(Tensor(x), Tensor(w), None if b is None else Tensor(b),
                     stride=stride, padding=pad).data
        want = conv1d_channel_major(x, w, b, stride, pad)
        assert got.dtype == np.float32 and got.flags.c_contiguous
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_no_second_output_sized_array(self):
        rng = np.random.default_rng(28)
        x = Tensor(rng.standard_normal((8, 16, 4096)).astype(np.float32))
        w = Tensor(rng.standard_normal((64, 16, 3)).astype(np.float32))
        padded = x.data.nbytes + 8 * 16 * 2 * 4
        out_bytes = 8 * 64 * 4096 * 4
        # the accumulator and the product scratch are a block each; the slack
        # covers numpy's 8192-element copy buffer and the loop's Python objects
        bound = padded + out_bytes + 2 * T._BLOCK_BYTES + 64 * 1024
        with engine.no_grad():
            tracemalloc.start()
            try:
                out = conv1d(x, w, padding=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert out.data.nbytes == out_bytes
        assert peak < bound, (peak, bound)

    def test_stride2_holds_no_second_input_copy(self):
        # Without a graph the stride-2 phases are built straight from x, so
        # the forward holds no more above its output than at stride 1; the
        # slack covers the loop's Python objects.
        rng = np.random.default_rng(29)
        x = Tensor(rng.standard_normal((8, 64, 4096)).astype(np.float32))
        w = Tensor(rng.standard_normal((64, 64, 3)).astype(np.float32))
        held = {}
        for stride in (1, 2):
            with engine.no_grad():
                tracemalloc.start()
                try:
                    out = conv1d(x, w, stride=stride, padding=1)
                    held[stride] = tracemalloc.get_traced_memory()[1] - out.data.nbytes
                finally:
                    tracemalloc.stop()
            del out
        assert held[2] <= held[1] + 16 * 1024, held


def conv_bn_act_chain(x, w, b, gamma, beta, rm, rv, training, stride, padding,
                      skip, act):
    """The unfused chain conv_bn_act replaces."""
    h = batchnorm1d(conv1d(x, w, b, stride=stride, padding=padding), gamma, beta,
                    rm, rv, training=training)
    if skip is not None:
        h = T.add(skip, h)
    return swish(h) if act else h


class TestConvBnAct:
    """The fused conv -> batchnorm -> (skip) -> swish node gives the chain's
    output, gradients and running arrays bit for bit."""

    # (B, Ci, Co, L, K, stride, padding, block bytes): None keeps the
    # module's block size; 600 bytes cuts the k=7 output into channel blocks
    # with a short last one, 1100 bytes cuts the (5, 3, 64) output into
    # batch-row blocks with a short last one.
    GEOMETRIES = [(3, 4, 6, 37, 1, 1, 0, None), (3, 4, 6, 37, 1, 2, 0, None),
                  (3, 4, 6, 37, 3, 2, 1, None), (4, 3, 4, 20, 3, 1, 0, None),
                  (2, 3, 5, 41, 7, 2, 3, 600), (4, 3, 4, 20, 7, 1, 0, None),
                  (5, 2, 3, 64, 3, 1, 1, 1100)]

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_matches_chain_bitwise(self, monkeypatch, geometry, training, record,
                                   precision):
        bsz, ci, co, length, k, stride, pad, block_bytes = geometry
        if block_bytes is not None:
            monkeypatch.setattr(T, "_BLOCK_BYTES", block_bytes)
        engine.set_precision(precision)
        dt = engine.dtype()
        rng = np.random.default_rng(30)
        arrays = {"x": rng.standard_normal((bsz, ci, length)) * 2,
                  "w": rng.standard_normal((co, ci, k)) * 0.5,
                  "b": rng.standard_normal(co) * 0.1,
                  "gamma": rng.random(co) + 0.5,
                  "beta": rng.standard_normal(co) * 0.2}
        l_out = (length + 2 * pad - k) // stride + 1
        skip_data = rng.standard_normal((bsz, co, l_out)) * 3
        g = rng.standard_normal((bsz, co, l_out)).astype(dt)
        rm0 = rng.standard_normal(co).astype(dt)
        rv0 = (rng.random(co) + 0.1).astype(dt)
        for with_skip in (False, True):
            for act in (False, True):
                results = []
                for op in (T.conv_bn_act, conv_bn_act_chain):
                    ts = {n: Tensor(a, requires_grad=True) for n, a in arrays.items()}
                    skip = Tensor(skip_data, requires_grad=True) if with_skip else None
                    rm, rv = rm0.copy(), rv0.copy()
                    if record:
                        out = op(ts["x"], ts["w"], ts["b"], ts["gamma"], ts["beta"],
                                 rm, rv, training, stride, pad, skip, act)
                        # backward must use the statistics the forward saw
                        rm += 1.0
                        rv *= 3.0
                        out.backward(g)
                    else:
                        with engine.no_grad():
                            out = op(ts["x"], ts["w"], ts["b"], ts["gamma"], ts["beta"],
                                     rm, rv, training, stride, pad, skip, act)
                    grads = [t.grad for t in ts.values()]
                    if skip is not None:
                        grads.append(skip.grad)
                    results.append([out.data, rm, rv] + grads)
                case = (with_skip, act)
                for i, (got, want) in enumerate(zip(*results)):
                    if want is None:
                        assert got is None, (case, i)
                        continue
                    assert got.dtype == want.dtype, (case, i)
                    assert got.shape == want.shape, (case, i)
                    assert got.tobytes() == want.tobytes(), (case, i)

    def test_skip_shape_mismatch(self):
        x = Tensor(np.zeros((2, 3, 8)))
        w = Tensor(np.zeros((4, 3, 1)))
        with pytest.raises(ShapeError, match="skip"):
            T.conv_bn_act(x, w, None, np.ones(4), np.zeros(4), np.zeros(4), np.ones(4),
                          training=False, skip=Tensor(np.zeros((2, 4, 7))))

    def test_eval_allocates_only_its_result(self):
        # In eval without a graph each conv block takes batchnorm, the skip
        # and swish in cache: besides its result the call holds the padded
        # input copy and a few block-sized scratch arrays, not a second
        # output-sized array.
        rng = np.random.default_rng(31)
        x = Tensor(rng.standard_normal((8, 16, 4096)).astype(np.float32))
        w = Tensor(rng.standard_normal((64, 16, 3)).astype(np.float32))
        b, gamma, beta = (Tensor(rng.standard_normal(64).astype(np.float32))
                          for _ in range(3))
        rm = rng.standard_normal(64).astype(np.float32)
        rv = (rng.random(64) + 0.1).astype(np.float32)
        skip = Tensor(rng.standard_normal((8, 64, 4096)).astype(np.float32))
        padded = x.data.nbytes + 8 * 16 * 2 * 4
        out_bytes = skip.data.nbytes
        # conv accumulator and product, sigmoid exponent, sign mask and
        # sigmoid: under five blocks; the slack covers numpy's copy buffer
        # and Python objects
        bound = padded + out_bytes + 5 * T._BLOCK_BYTES + 64 * 1024
        with engine.no_grad():
            tracemalloc.start()
            try:
                out = T.conv_bn_act(x, w, b, gamma, beta, rm, rv, training=False,
                                    padding=1, skip=skip)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert out.data.nbytes == out_bytes
        assert peak < bound, (peak, bound)


class TestGraphFreedByBackward:
    """backward walks a graph once and frees it as it goes."""

    def _graph(self):
        rng = np.random.default_rng(40)
        x = Tensor(rng.standard_normal((2, 3, 16)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3)).astype(np.float32), requires_grad=True)
        h = swish(conv1d(x, w, padding=1))
        return x, w, h, tensor_sum(T.mul(h, h))

    def test_second_walk_raises_and_moves_no_grad(self):
        x, w, h, loss = self._graph()
        loss.backward()
        before = [t.grad.copy() for t in (x, w, h, loss)]
        with pytest.raises(ShapeError, match="already walked"):
            loss.backward()
        # a new graph that reaches a walked node raises before it moves a gradient
        with pytest.raises(ShapeError, match="already walked"):
            tensor_sum(T.mul(h, h)).backward()
        for got, want in zip((x.grad, w.grad, h.grad, loss.grad), before):
            assert got.tobytes() == want.tobytes()

    def test_inner_activation_is_freed_by_the_walk(self):
        x, w, h, loss = self._graph()
        activation = weakref.ref(h.data)
        del h
        loss.backward()
        assert activation() is None
        assert x.grad is not None and w.grad is not None

    def test_recorded_conv_bn_act_holds_three_output_arrays(self):
        # After a recorded training forward the node holds the normalized
        # conv output, the sigmoid and its output, not also the pre-activation.
        # k = 1 without padding reads x in place; the slack covers the
        # per-channel statistics and Python objects.
        rng = np.random.default_rng(41)
        x = Tensor(rng.standard_normal((8, 4, 4096)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((64, 4, 1)).astype(np.float32), requires_grad=True)
        gamma = Tensor(np.ones(64, dtype=np.float32), requires_grad=True)
        beta = Tensor(np.zeros(64, dtype=np.float32), requires_grad=True)
        rm, rv = np.zeros(64, dtype=np.float32), np.ones(64, dtype=np.float32)
        out_bytes = 8 * 64 * 4096 * 4
        tracemalloc.start()
        try:
            out = T.conv_bn_act(x, w, None, gamma, beta, rm, rv, training=True)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.data.nbytes == out_bytes
        assert 3 * out_bytes <= held < 3 * out_bytes + 64 * 1024, (held, out_bytes)


def conv_blocks_default_buffer(phases, w, stride, l_out):
    """conv1d's tap loop as it ran under numpy's default ufunc buffer: the same
    blocks, each taking its (ci, k) taps in order from 0."""
    co, ci, k = w.shape
    _, bsz, _ = phases[0].shape
    row_bytes = l_out * phases[0].itemsize
    if bsz * row_bytes <= T._BLOCK_BYTES:
        c_step, b_step = min(co, T._BLOCK_BYTES // (bsz * row_bytes)), bsz
    else:
        c_step, b_step = 1, max(1, T._BLOCK_BYTES // row_bytes)
    acc = np.empty((c_step, b_step, l_out), dtype=phases[0].dtype)
    scratch = np.empty(acc.shape, dtype=np.result_type(acc.dtype, w.dtype))
    for c0 in range(0, co, c_step):
        c1 = min(c0 + c_step, co)
        for b0 in range(0, bsz, b_step):
            b1 = min(b0 + b_step, bsz)
            block = acc[:c1 - c0, :b1 - b0]
            block.fill(0)
            prod = scratch[:c1 - c0, :b1 - b0]
            for c_in in range(ci):
                for kk in range(k):
                    off = kk // stride
                    run = phases[kk % stride][c_in, b0:b1, off:off + l_out]
                    np.multiply(w[c0:c1, c_in, kk, None, None], run, out=prod)
                    block += prod
            yield c0, c1, b0, b1, block


def conv_into_default_buffer(out, phases, w, bias, stride):
    for c0, c1, b0, b1, block in conv_blocks_default_buffer(phases, w, stride,
                                                            out.shape[2]):
        dst = out[b0:b1, c0:c1]
        if bias is None:
            dst[...] = block.transpose(1, 0, 2)
        else:
            np.add(block.transpose(1, 0, 2), bias[c0:c1, None], out=dst)


# (Ci, Co, K, stride, L_out) of every conv the train-full workload runs, at
# B = 4: the baseline model, full preset, window 5120
TRAIN_FULL_CONVS = [
    (3, 6, 3, 1, 1280), (6, 12, 3, 1, 640), (6, 12, 3, 2, 640), (6, 48, 1, 1, 1280),
    (12, 24, 3, 1, 320), (12, 24, 3, 2, 320), (12, 24, 7, 2, 2560), (12, 96, 1, 1, 640),
    (24, 3, 1, 1, 1280), (24, 48, 1, 1, 1280), (24, 48, 3, 1, 160), (24, 48, 3, 2, 160),
    (24, 192, 1, 1, 320), (48, 3, 1, 1, 1280), (48, 6, 1, 1, 1280), (48, 96, 1, 2, 640),
    (48, 384, 1, 1, 160), (96, 6, 1, 1, 640), (96, 12, 1, 1, 640), (96, 192, 1, 2, 320),
    (192, 12, 1, 1, 320), (192, 24, 1, 1, 320), (192, 384, 1, 2, 160),
    (384, 24, 1, 1, 160), (384, 96, 1, 2, 80)]
# the eval-full workload's convs (scatter model, full preset) that train-full
# does not run: the stacked scatter filters (K = 9, stride 2, padding 4) over
# rows of 160, 320 and 640, and the scatter blocks' own k = 1 convs
EVAL_FULL_CONVS = [
    (1, 3, 9, 2, 160), (1, 3, 9, 2, 320), (1, 3, 9, 2, 640), (384, 96, 1, 2, 80)] + [
    s for s in TRAIN_FULL_CONVS if s[3] == 1]


def _conv_case(rng, bsz, ci, co, k, stride, l_out, dtype, specials):
    """x, w, bias and padding for one conv shape: padding k // 2, and an input
    length that gives l_out. With ``specials`` some inputs are -0 and inf and
    some weights -0, so products of -0, inf and nan reach the sums."""
    padding = k // 2
    l_in = l_out * stride
    x = rng.standard_normal((bsz, ci, l_in)).astype(dtype)
    w = rng.standard_normal((co, ci, k)).astype(dtype)
    if specials:
        x.reshape(-1)[::7] = -0.0
        x.reshape(-1)[3::101] = np.inf
        x.reshape(-1)[5::103] = -np.inf
        w.reshape(-1)[::5] = -0.0
    bias = rng.standard_normal(co).astype(dtype)
    return x, w, bias, padding


class TestTapLoopBuffer:
    """The tap loop runs under a small ufunc buffer: same bytes as under the
    default buffer, and the caller's buffer size back at every yield."""

    def _assert_same_output(self, x, w, bias, stride, padding):
        l_out = (x.shape[2] + 2 * padding - w.shape[2]) // stride + 1
        phases = T._conv_phases(x, w.shape[2], stride, padding)
        got = np.empty((x.shape[0], w.shape[0], l_out), dtype=x.dtype)
        want = np.empty_like(got)
        with np.errstate(invalid="ignore"):
            T._conv_into(got, phases, w, bias, stride)
            conv_into_default_buffer(want, phases, w, bias, stride)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", TRAIN_FULL_CONVS)
    def test_train_full_convs_bitwise(self, shape):
        rng = np.random.default_rng(50)
        ci, co, k, stride, l_out = shape
        x, w, bias, padding = _conv_case(rng, 4, ci, co, k, stride, l_out,
                                         np.float32, specials=False)
        self._assert_same_output(x, w, bias, stride, padding)

    # B = 2: the k = 1 runs (B * L) are 160 to 2560 elements and the k > 1
    # runs (L) 160 to 1280, on both sides of the 256-element buffer
    @pytest.mark.parametrize("shape", EVAL_FULL_CONVS)
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_eval_full_convs_bitwise(self, shape, precision):
        rng = np.random.default_rng(51)
        ci, co, k, stride, l_out = shape
        x, w, bias, padding = _conv_case(rng, 2, ci, co, k, stride, l_out,
                                         np.dtype(precision), specials=False)
        self._assert_same_output(x, w, None if k == 9 else bias, stride, padding)

    # (B, Ci, Co, K, stride, L_out): padded k = 3, 7 and 9 at both strides,
    # k = 1 at stride 2, rows shorter and longer than the buffer; 600 and 1100
    # bytes cut the planes into batch-row blocks with a short last block
    @pytest.mark.parametrize("shape", [(5, 3, 4, 3, 1, 300), (5, 3, 4, 3, 2, 100),
                                       (3, 2, 5, 7, 2, 260), (7, 1, 3, 9, 2, 160),
                                       (4, 6, 5, 1, 2, 70), (3, 4, 2, 9, 1, 513)])
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("block_bytes", [600, 1100])
    @pytest.mark.parametrize("specials", [False, True])
    def test_block_edges_and_special_values_bitwise(self, monkeypatch, shape,
                                                    precision, block_bytes,
                                                    specials):
        monkeypatch.setattr(T, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(52)
        bsz, ci, co, k, stride, l_out = shape
        x, w, bias, padding = _conv_case(rng, bsz, ci, co, k, stride, l_out,
                                         np.dtype(precision), specials)
        self._assert_same_output(x, w, bias, stride, padding)

    @staticmethod
    def _blocks():
        rng = np.random.default_rng(53)
        x = rng.standard_normal((3, 4, 300)).astype(np.float32)
        w = rng.standard_normal((5, 4, 3)).astype(np.float32)
        return T._conv_blocks(T._conv_phases(x, 3, 1, 1), w, 1, 300)

    @pytest.mark.parametrize("caller", [8192, 4096])
    def test_caller_buffer_at_every_yield(self, monkeypatch, caller):
        monkeypatch.setattr(T, "_BLOCK_BYTES", 2000)  # several blocks
        old = np.setbufsize(caller)
        try:
            blocks = 0
            for _ in self._blocks():
                assert np.getbufsize() == caller
                blocks += 1
            assert blocks > 1
            assert np.getbufsize() == caller
        finally:
            np.setbufsize(old)

    @pytest.mark.parametrize("caller", [8192, 4096])
    def test_caller_buffer_after_close_and_throw(self, caller):
        old = np.setbufsize(caller)
        try:
            gen = self._blocks()
            next(gen)
            gen.close()
            assert np.getbufsize() == caller
            gen = self._blocks()
            next(gen)
            with pytest.raises(KeyError):
                gen.throw(KeyError("consumer failed"))
            assert np.getbufsize() == caller
        finally:
            np.setbufsize(old)

    @pytest.mark.parametrize("caller", [8192, 4096])
    def test_caller_buffer_after_a_failing_tap(self, caller):
        # a phase one sample short makes the last tap's multiply raise
        rng = np.random.default_rng(54)
        phases = [rng.standard_normal((2, 3, 40)).astype(np.float32)]
        w = rng.standard_normal((4, 2, 3)).astype(np.float32)
        old = np.setbufsize(caller)
        try:
            with pytest.raises(ValueError):
                next(T._conv_blocks(phases, w, 1, 39))
            assert np.getbufsize() == caller
        finally:
            np.setbufsize(old)

    def test_taps_run_under_the_small_buffer(self, monkeypatch):
        seen = []
        multiply = np.multiply

        def spy(*args, **kwargs):
            seen.append(np.getbufsize())
            return multiply(*args, **kwargs)

        monkeypatch.setattr(T.np, "multiply", spy)
        list(self._blocks())
        monkeypatch.undo()
        assert seen and set(seen) == {T._TAP_BUFSIZE}


class TestCo1WeightGradient:
    """The k = 1 weight gradient with one output channel is the product that
    einsum(optimize=True) ends in, with its bits."""

    # (B, Ci, L): the tiny preset's Co = 1 convs, then batch 1 and length 1
    @pytest.mark.parametrize("bsz,ci,length", [(4, 24, 128), (4, 12, 256), (4, 6, 256),
                                               (1, 24, 128), (1, 6, 256), (4, 24, 1),
                                               (4, 6, 1), (1, 12, 1)])
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_einsum(self, bsz, ci, length, precision, stride):
        engine.set_precision(precision)
        dt = engine.dtype()
        rng = np.random.default_rng(55)
        x = rng.standard_normal((bsz, ci, length * stride)).astype(dt)
        w = rng.standard_normal((1, ci, 1)).astype(dt)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = conv1d(xt, wt, stride=stride)
        g = rng.standard_normal(out.shape).astype(dt)
        g.reshape(-1)[::9] = -0.0
        out.backward(g)
        xs = x[:, :, ::stride][:, :, :length]
        want = np.einsum("bol,bcl->oc", g, xs, optimize=True)[:, :, None]
        assert wt.grad.shape == want.shape
        assert wt.grad.tobytes() == np.ascontiguousarray(want).tobytes()


def conv_backward_kept_copy(g, x, w, stride, padding):
    """conv1d's x, w and bias gradients as they were computed from a padded
    copy that the forward kept: channel-major (Ci, B, L + 2p), read as a
    (B, Ci, L + 2p) view; x itself without padding."""
    co, ci, k = w.shape
    bsz, _, l_in = x.shape
    l_out = g.shape[2]
    if padding:
        xc = np.zeros((ci, bsz, l_in + 2 * padding), dtype=x.dtype)
        xc[:, :, padding:padding + l_in] = x.transpose(1, 0, 2)
        xp = xc.transpose(1, 0, 2)
    else:
        xp = x
    if k == 1:
        xs = xp[:, :, ::stride][:, :, :l_out]
        if min(bsz, ci, l_out) > 1:
            gw = (xs.transpose(1, 0, 2).reshape(ci, -1)
                  @ g.transpose(0, 2, 1).reshape(-1, co)).T[:, :, None]
        else:
            gw = np.einsum("bol,bcl->oc", g, xs, optimize=True)[:, :, None]
    else:
        win = T._window_view(xp, k, stride, l_out)
        gw = np.dot(g.transpose(1, 0, 2).reshape(co, -1),
                    win.transpose(0, 3, 1, 2).reshape(-1, ci * k)).reshape(co, ci, k)
    dwin = np.dot(w.transpose(1, 2, 0).reshape(ci * k, co),
                  g.transpose(1, 0, 2).reshape(co, -1)
                  ).reshape(ci, k, bsz, l_out).transpose(2, 0, 1, 3)
    gxp = np.zeros(xp.shape, dtype=x.dtype)
    for kk in range(k):
        gxp[:, :, kk:kk + stride * l_out:stride] += dwin[:, :, kk]
    return gxp[:, :, padding:padding + l_in], gw, g.sum(axis=(0, 2))


def maxpool_backward_kept_copy(g, x, kernel, stride, padding):
    """maxpool1d's x gradient from the -inf padded copy that np.pad made."""
    l_in = x.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)), constant_values=-np.inf)
    arg = T._window_view(xp, kernel, stride, g.shape[2]).argmax(axis=2)
    gxp = np.zeros_like(xp)
    for kk in range(kernel):
        sel = arg == kk
        gxp[:, :, kk:kk + stride * g.shape[2]:stride][sel] += g[sel]
    return gxp[:, :, padding:padding + l_in]


def _signed_zeros(a):
    a.reshape(-1)[::7] = -0.0
    a.reshape(-1)[3::11] = 0.0
    return a


# (B, Ci, Co, K, L, stride, padding): padded k = 1 with one batch row, one
# input or output channel or one input sample, at stride 1 and 2; padded
# k = 3 with L_out of 1; the stem's k = 7 stride 2; unpadded for contrast
PADDED_CONVS = [(1, 4, 5, 1, 33, 1, 1), (1, 4, 5, 1, 33, 2, 1), (3, 1, 5, 1, 33, 2, 1),
                (3, 4, 1, 1, 33, 2, 1), (3, 4, 5, 1, 1, 2, 1), (4, 6, 8, 1, 40, 2, 2),
                (3, 4, 5, 3, 1, 1, 1), (3, 4, 5, 3, 2, 2, 1), (2, 12, 8, 7, 64, 2, 3),
                (4, 8, 8, 3, 40, 1, 1), (3, 4, 5, 3, 33, 2, 0)]


class TestPaddedInputRebuilt:
    """Recorded convs and the max pool keep x; backward rebuilds the padded
    input, and the gradients keep the bits of the kept padded copy."""

    @pytest.mark.parametrize("bsz,ci,co,k,length,stride,padding", PADDED_CONVS)
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_conv1d_gradients(self, bsz, ci, co, k, length, stride, padding, precision):
        engine.set_precision(precision)
        dt = engine.dtype()
        rng = np.random.default_rng(61)
        x = _signed_zeros(rng.standard_normal((bsz, ci, length)).astype(dt))
        w = rng.standard_normal((co, ci, k)).astype(dt)
        b = rng.standard_normal(co).astype(dt)
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = conv1d(xt, wt, bt, stride=stride, padding=padding)
        g = _signed_zeros(rng.standard_normal(out.shape).astype(dt))
        out.backward(g)
        want = conv_backward_kept_copy(g, x, w, stride, padding)
        for name, got, ref in zip("xwb", (xt.grad, wt.grad, bt.grad), want):
            assert got.dtype == ref.dtype and got.shape == ref.shape, name
            assert got.tobytes() == np.ascontiguousarray(ref).tobytes(), name

    @pytest.mark.parametrize("bsz,ci,co,k,length,stride,padding", PADDED_CONVS)
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_conv_bn_act_conv_gradients(self, monkeypatch, bsz, ci, co, k, length,
                                        stride, padding, precision):
        # the gradient that reaches the conv is caught on its way in, so
        # the conv's part of the node is checked on its own
        engine.set_precision(precision)
        dt = engine.dtype()
        rng = np.random.default_rng(62)
        x = _signed_zeros(rng.standard_normal((bsz, ci, length)).astype(dt))
        w = rng.standard_normal((co, ci, k)).astype(dt)
        b = rng.standard_normal(co).astype(dt)
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        gamma = Tensor((rng.random(co) + 0.5).astype(dt), requires_grad=True)
        beta = Tensor(rng.standard_normal(co).astype(dt), requires_grad=True)
        rm, rv = np.zeros(co, dtype=dt), np.ones(co, dtype=dt)
        seen = []
        conv_backward = T._conv_backward

        def catch(gy, *args, **kwargs):
            seen.append(gy.copy())
            conv_backward(gy, *args, **kwargs)

        monkeypatch.setattr(T, "_conv_backward", catch)
        out = T.conv_bn_act(xt, wt, bt, gamma, beta, rm, rv, training=True,
                            stride=stride, padding=padding)
        out.backward(_signed_zeros(rng.standard_normal(out.shape).astype(dt)))
        assert len(seen) == 1
        want = conv_backward_kept_copy(seen[0], x, w, stride, padding)
        for name, got, ref in zip("xwb", (xt.grad, wt.grad, bt.grad), want):
            assert got.dtype == ref.dtype and got.shape == ref.shape, name
            assert got.tobytes() == np.ascontiguousarray(ref).tobytes(), name

    @pytest.mark.parametrize("kernel,stride,padding", [(3, 2, 1), (3, 1, 1), (5, 2, 2),
                                                        (3, 2, 0), (1, 1, 0)])
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_maxpool_gradient(self, kernel, stride, padding, precision):
        # small integers tie many windows, zeros of both signs tie, and a
        # NaN wins its windows
        engine.set_precision(precision)
        dt = engine.dtype()
        rng = np.random.default_rng(63)
        x = rng.integers(-2, 3, size=(3, 4, 41)).astype(dt)
        zeros = x == 0
        x[zeros] = rng.choice(np.array([0.0, -0.0]), size=int(zeros.sum()))
        x.flat[::37] = np.nan
        xt = Tensor(x, requires_grad=True)
        out = maxpool1d(xt, kernel=kernel, stride=stride, padding=padding)
        g = _signed_zeros(rng.standard_normal(out.shape).astype(dt))
        out.backward(g)
        want = maxpool_backward_kept_copy(g, x, kernel, stride, padding)
        assert xt.grad.dtype == want.dtype and xt.grad.shape == want.shape
        assert xt.grad.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("op", ["conv1d stride 1", "conv1d stride 2", "maxpool1d"])
    def test_recorded_node_holds_no_padded_copy(self, op):
        # Between forward and backward the node holds x, which the caller
        # holds too, and its output: no (B, C, L + 2p) copy of x. The
        # slack covers Python objects and the per-call scratch.
        rng = np.random.default_rng(64)
        x = Tensor(rng.standard_normal((4, 8, 8192)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 8, 3)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            if op == "maxpool1d":
                out = maxpool1d(x, kernel=3, stride=2, padding=1)
            else:
                out = conv1d(x, w, stride=int(op[-1]), padding=1)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < out.data.nbytes + x.data.nbytes // 4, (held, out.data.nbytes)
        out.backward(np.ones_like(out.data))
        assert x.grad.shape == x.data.shape


def _bn_op_runs(op, x_data, co, g, seed, others=()):
    """op(x, gamma, beta, rm, rv) run twice, with x needing a gradient and
    without: per run x.grad, then gamma's and beta's gradients, both running
    arrays and the gradients of the ``others`` tensors op also reads."""
    rng = np.random.default_rng(seed)
    gamma0, beta0 = rng.random(co) + 0.5, rng.standard_normal(co) * 0.2
    rm0 = rng.standard_normal(co).astype(g.dtype)
    rv0 = (rng.random(co) + 0.1).astype(g.dtype)
    runs = []
    for needs in (True, False):
        x = Tensor(x_data, requires_grad=needs)
        gamma, beta = Tensor(gamma0, requires_grad=True), Tensor(beta0, requires_grad=True)
        rm, rv = rm0.copy(), rv0.copy()
        for t in others:
            t.grad = None
        op(x, gamma, beta, rm, rv).backward(g)
        runs.append((x.grad, gamma.grad, beta.grad, rm, rv, *(t.grad for t in others)))
    return runs


class TestBatchnormInputWithoutGradient:
    """Batchnorm over an x that needs no gradient gives gamma's and beta's
    gradients and the running arrays of the run where x needs one, byte for
    byte, and leaves x without a gradient."""

    def _check(self, runs):
        (gx, *want), (no_gx, *got) = runs
        assert gx is not None and no_gx is None
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            assert a is None or (a.dtype == b.dtype and a.tobytes() == b.tobytes())

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_batchnorm1d(self, training, precision):
        engine.set_precision(precision)
        rng = np.random.default_rng(70)
        x = rng.standard_normal((3, 4, 17)).astype(engine.dtype())
        g = rng.standard_normal(x.shape).astype(engine.dtype())
        self._check(_bn_op_runs(
            lambda xx, gg, bb, rm, rv: batchnorm1d(xx, gg, bb, rm, rv, training=training),
            x, 4, g, 71))

    @pytest.mark.parametrize("conv_grad", [True, False])
    @pytest.mark.parametrize("act", [True, False])
    def test_conv_bn_act_train(self, conv_grad, act):
        # without conv_grad only gamma and beta need a gradient
        rng = np.random.default_rng(72)
        x = rng.standard_normal((3, 4, 20)).astype(np.float32)
        w = Tensor(rng.standard_normal((5, 4, 3)) * 0.5, requires_grad=conv_grad)
        b = Tensor(rng.standard_normal(5) * 0.1, requires_grad=conv_grad)
        g = rng.standard_normal((3, 5, 10)).astype(np.float32)
        self._check(_bn_op_runs(
            lambda xx, gg, bb, rm, rv: T.conv_bn_act(xx, w, b, gg, bb, rm, rv,
                                                     training=True, stride=2,
                                                     padding=1, act=act),
            x, 5, g, 73, others=(w, b)))

    @pytest.mark.parametrize("training", [True, False])
    def test_scatter_forward(self, training):
        rng = np.random.default_rng(74)
        x = rng.standard_normal((2, 3, 21)).astype(np.float32)
        g = rng.standard_normal((2, 6, 11)).astype(np.float32)
        self._check(_bn_op_runs(
            lambda xx, gg, bb, rm, rv: scatter_forward(xx, gg, bb, rm, rv,
                                                       training=training),
            x, 6, g, 75))


# -- ops built by _unary and _binary against their hand-written nodes ----------------------
#
# Each op in OwnClosureOps is a copy of the op as it was when it wrote its
# own backward closure. The same op built by tensor._unary or
# tensor._binary must give the same output and gradient bytes.


class OwnClosureOps:
    @staticmethod
    def add(a, b):
        a, b = T._coerce(a), T._coerce(b)
        data = a.data + b.data

        def backward(g):
            if a.requires_grad:
                a._accumulate(T._unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accumulate(T._unbroadcast(g, b.data.shape))

        return Tensor._result(data, (a, b), backward)

    @staticmethod
    def sub(a, b):
        a, b = T._coerce(a), T._coerce(b)
        data = a.data - b.data

        def backward(g):
            if a.requires_grad:
                a._accumulate(T._unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accumulate(T._unbroadcast(-g, b.data.shape))

        return Tensor._result(data, (a, b), backward)

    @staticmethod
    def mul(a, b):
        a, b = T._coerce(a), T._coerce(b)
        data = a.data * b.data

        def backward(g):
            if a.requires_grad:
                a._accumulate(T._unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(T._unbroadcast(g * a.data, b.data.shape))

        return Tensor._result(data, (a, b), backward)

    @staticmethod
    def div(a, b):
        a, b = T._coerce(a), T._coerce(b)
        data = a.data / b.data

        def backward(g):
            if a.requires_grad:
                a._accumulate(T._unbroadcast(g / b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(T._unbroadcast(-g * a.data / (b.data * b.data),
                                             b.data.shape))

        return Tensor._result(data, (a, b), backward)

    @staticmethod
    def log(x):
        x = T._coerce(x)
        data = np.log(x.data)

        def backward(g):
            x._accumulate(g / x.data)

        return Tensor._result(data, (x,), backward)

    @staticmethod
    def exp(x):
        x = T._coerce(x)
        data = np.exp(x.data)

        def backward(g):
            x._accumulate(g * data)

        return Tensor._result(data, (x,), backward)

    @staticmethod
    def sqrt(x):
        x = T._coerce(x)
        data = np.sqrt(x.data)

        def backward(g):
            x._accumulate(g * (0.5 / data))

        return Tensor._result(data, (x,), backward)

    @staticmethod
    def clip(x, lo, hi):
        x = T._coerce(x)
        data = np.clip(x.data, lo, hi)
        inside = x.data >= lo
        if hi is not None:
            inside &= x.data <= hi

        def backward(g):
            x._accumulate(g * inside)

        return Tensor._result(data, (x,), backward)

    @staticmethod
    def sigmoid(x):
        x = T._coerce(x)
        data = np.empty_like(x.data)
        T._sigmoid(x.data, data, None)

        def backward(g):
            x._accumulate(g * data * (1.0 - data))

        return Tensor._result(data, (x,), backward)

    @staticmethod
    def softmax(x, axis=-1):
        x = T._coerce(x)
        data = x.data - x.data.max(axis=axis, keepdims=True)
        np.exp(data, out=data)
        data /= data.sum(axis=axis, keepdims=True)

        def backward(g):
            inner = (g * data).sum(axis=axis, keepdims=True)
            x._accumulate(data * (g - inner))

        return Tensor._result(data, (x,), backward)

    @staticmethod
    def reshape(x, shape):
        x = T._coerce(x)
        old = x.data.shape
        data = x.data.reshape(shape)

        def backward(g):
            x._accumulate(g.reshape(old))

        return Tensor._result(data, (x,), backward)

    @staticmethod
    def transpose(x, axes):
        x = T._coerce(x)
        axes = tuple(axes)
        data = x.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def backward(g):
            x._accumulate(g.transpose(inverse))

        return Tensor._result(data, (x,), backward)

    @staticmethod
    def tensor_sum(x, axis=None):
        x = T._coerce(x)
        data = x.data.sum(axis=axis)

        def backward(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            x._accumulate(np.broadcast_to(g, x.data.shape).copy())

        return Tensor._result(np.asarray(data), (x,), backward)

    @staticmethod
    def matmul(a, b):
        a, b = T._coerce(a), T._coerce(b)
        data = a.data @ b.data

        def backward(g):
            if a.requires_grad:
                ga = g @ b.data.swapaxes(-1, -2)
                a._accumulate(T._unbroadcast(ga, a.data.shape))
            if b.requires_grad:
                gb = a.data.swapaxes(-1, -2) @ g
                b._accumulate(T._unbroadcast(gb, b.data.shape))

        return Tensor._result(data, (a, b), backward)

    @staticmethod
    def dropout(x, p, training):
        x = T._coerce(x)
        if not training or p == 0.0:
            data = x.data

            def backward_id(g):
                x._accumulate(g)

            return Tensor._result(data, (x,), backward_id)

        keep = engine.rng().random(x.data.shape) >= p
        scale = np.asarray(1.0 / (1.0 - p), dtype=x.data.dtype)
        mask = keep.astype(x.data.dtype) * scale
        data = x.data * mask

        def backward(g):
            x._accumulate(g * mask)

        return Tensor._result(data, (x,), backward)


def _helper_op_cases():
    """(id, graph, input shapes, positive inputs, requires_grad flags): each
    graph takes an ops namespace and its input Tensors."""
    cases = []
    grads2 = [(True, False), (False, True), (True, True)]
    for name in ("add", "sub", "mul", "div"):
        for shapes in [((3, 4), (4,)), ((4,), (3, 4)), ((3, 1), (1, 4)), ((3, 4), (3, 4))]:
            for rg in grads2:
                cases.append((f"{name}-{shapes}", lambda o, a, b, n=name: getattr(o, n)(a, b),
                              shapes, (False, name == "div"), rg))
        cases.append((f"{name}-scalar", lambda o, a, n=name: getattr(o, n)(a, 0.75),
                      ((2, 3),), (False,), (True,)))
    for shapes in [((2, 3, 4), (4, 5)), ((3, 4), (2, 4, 5)), ((2, 1, 3, 4), (3, 4, 2))]:
        for rg in grads2:
            cases.append((f"matmul-{shapes}", lambda o, a, b: o.matmul(a, b), shapes,
                          (False, False), rg))
    unary = [
        ("log", lambda o, x: o.log(x), True),
        ("exp", lambda o, x: o.exp(x), False),
        ("sqrt", lambda o, x: o.sqrt(x), True),
        ("clip-hi", lambda o, x: o.clip(x, -0.5, 0.5), False),
        ("clip-no-hi", lambda o, x: o.clip(x, -0.5, None), False),
        ("sigmoid", lambda o, x: o.sigmoid(x), False),
        ("softmax-last", lambda o, x: o.softmax(x), False),
        ("softmax-axis1", lambda o, x: o.softmax(x, axis=1), False),
        ("reshape", lambda o, x: o.reshape(x, (6, 5)), False),
        ("transpose", lambda o, x: o.transpose(x, (2, 0, 1)), False),
        ("sum-all", lambda o, x: o.tensor_sum(x), False),
        ("sum-axis1", lambda o, x: o.tensor_sum(x, axis=1), False),
        ("dropout-train", lambda o, x: o.dropout(x, 0.3, training=True), False),
        ("dropout-p0", lambda o, x: o.dropout(x, 0.0, training=True), False),
        ("dropout-eval", lambda o, x: o.dropout(x, 0.3, training=False), False),
    ]
    for name, graph, positive in unary:
        for rg in (True, False):
            cases.append((name, graph, ((2, 3, 5),), (positive,), (rg,)))
    # x feeds several ops, so its gradient sums all of them
    for rg in grads2[::2]:
        cases.append(("shared", lambda o, x, y: o.add(o.mul(x, y), o.exp(x)),
                      ((2, 3), (3,)), (False, False), rg))
        cases.append(("shared-twice", lambda o, x, y: o.sub(o.div(x, y), o.tensor_sum(
            o.mul(x, x), axis=0)), ((2, 3), (3,)), (False, True), rg))
    return [pytest.param(graph, shapes, positive, rg, precision,
                         id=f"{name}-{'-'.join('g' if r else 'n' for r in rg)}-{precision}")
            for name, graph, shapes, positive, rg in cases
            for precision in ("float32", "float64")]


class TestOpsBuiltByHelpers:
    @pytest.mark.parametrize("graph,shapes,positive,rg,precision", _helper_op_cases())
    def test_output_and_gradients_match_own_closures(self, graph, shapes, positive, rg,
                                                     precision):
        engine.set_precision(precision)
        rng = np.random.default_rng(90)
        arrays = []
        for shape, pos in zip(shapes, positive):
            a = rng.standard_normal(shape)
            if pos:
                a = np.abs(a) + 0.5
            else:
                a.flat[:2] = (-0.5, 0.5)  # on clip's bounds, which pass the gradient
            arrays.append(a)

        def run(ops):
            engine.seed(91)  # dropout draws the same mask on both sides
            inputs = [Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays, rg)]
            out = graph(ops, *inputs)
            if out.requires_grad:
                g = np.random.default_rng(92).standard_normal(out.shape)
                out.backward(g.astype(out.data.dtype))
            return out, inputs

        out, inputs = run(T)
        want, want_inputs = run(OwnClosureOps)
        assert out.data.dtype == want.data.dtype and out.shape == want.shape
        assert out.data.tobytes() == want.data.tobytes()
        assert out.requires_grad == want.requires_grad
        for x, y in zip(inputs, want_inputs):
            assert (x.grad is None) == (y.grad is None)
            if x.grad is not None:
                assert x.grad.dtype == y.grad.dtype and x.grad.shape == y.grad.shape
                assert x.grad.tobytes() == y.grad.tobytes()


class TestTensorRepr:
    def test_repr_gives_shape_and_requires_grad(self):
        assert repr(Tensor(np.zeros((2, 3)), requires_grad=True)) == \
            "Tensor(shape=(2, 3), requires_grad=True)"
        assert repr(Tensor(1.5)) == "Tensor(shape=(), requires_grad=False)"
