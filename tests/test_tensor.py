"""Autodiff core: forward values against hand oracles, gradients against
central differences."""

import numpy as np
import pytest

from scatternet import engine
from scatternet import tensor as T
from scatternet.engine import ConfigError, ShapeError, WindowTooShort
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
