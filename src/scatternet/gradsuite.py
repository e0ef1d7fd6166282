"""Reusable 64-bit gradient verification suite shared by the CLI and tests."""

from __future__ import annotations

import numpy as np

from . import engine
from .model import ModelConfig, build_model
from .scatter import scatter_forward
from .tensor import (Tensor, batchnorm1d, conv1d, grad_check, linear,
                     maxpool1d, sigmoid, softmax, swish, tensor_sum)
from . import tensor as T


def _t(rng, *shape, scale=1.0) -> Tensor:
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


def run_op_checks(verbose: bool = False) -> float:
    """Central-difference check over every differentiable op; returns the
    worst relative error seen."""
    worst = 0.0
    with engine.precision("float64"):
        rng = np.random.default_rng(7)
        cases = []

        x = _t(rng, 2, 5)
        y = _t(rng, 2, 5)
        cases.append(("add", lambda *_: tensor_sum(T.add(x, y) * y), [x, y]))
        cases.append(("mul", lambda *_: tensor_sum(T.mul(x, y)), [x, y]))
        d = Tensor(rng.random((2, 5)) + 0.5, requires_grad=True)
        cases.append(("div", lambda *_: tensor_sum(T.div(x, d)), [x, d]))
        p = Tensor(rng.random((3, 4)) + 0.1, requires_grad=True)
        cases.append(("log", lambda *_: tensor_sum(T.log(p)), [p]))
        cases.append(("exp", lambda *_: tensor_sum(T.exp(x)), [x]))
        cases.append(("sqrt", lambda *_: tensor_sum(T.sqrt(p)), [p]))
        cases.append(("sigmoid", lambda *_: tensor_sum(sigmoid(x)), [x]))
        cases.append(("swish", lambda *_: tensor_sum(swish(x)), [x]))
        cases.append(("softmax", lambda *_: tensor_sum(T.mul(softmax(x, axis=-1), y)),
                      [x, y]))
        a = _t(rng, 3, 4)
        b = _t(rng, 4, 2)
        cases.append(("matmul", lambda *_: tensor_sum(T.matmul(a, b)), [a, b]))
        w = _t(rng, 4, 3)
        bias = _t(rng, 3)
        xin = _t(rng, 5, 4)
        cases.append(("linear", lambda *_: tensor_sum(linear(xin, w, bias)),
                      [xin, w, bias]))

        xc = _t(rng, 2, 3, 12)
        wc = _t(rng, 4, 3, 5, scale=0.5)
        bc = _t(rng, 4, scale=0.1)
        cases.append(("conv1d_s1", lambda *_: tensor_sum(
            conv1d(xc, wc, bc, stride=1, padding=2)), [xc, wc, bc]))
        cases.append(("conv1d_s2", lambda *_: tensor_sum(
            conv1d(xc, wc, bc, stride=2, padding=2)), [xc, wc, bc]))
        w1 = _t(rng, 4, 3, 1, scale=0.5)
        cases.append(("conv1d_k1", lambda *_: tensor_sum(
            conv1d(xc, w1, bc, stride=1, padding=0)), [xc, w1, bc]))
        # distinct values keep argmax away from ties, where the true
        # derivative does not exist
        xm = Tensor(rng.permutation(2 * 3 * 12).astype(np.float64).reshape(2, 3, 12),
                    requires_grad=True)
        sel_max = Tensor(rng.standard_normal((2, 3, 6)))
        cases.append(("maxpool", lambda *_: tensor_sum(
            T.mul(maxpool1d(xm, kernel=3, stride=2, padding=1), sel_max)), [xm]))
        xa = _t(rng, 2, 3, 10)
        sel_avg = Tensor(rng.standard_normal((2, 3, 4)))
        cases.append(("avgpool", lambda *_: tensor_sum(
            T.mul(T.adaptive_avgpool1d(xa, 4), sel_avg)), [xa]))

        gamma = Tensor(rng.random(3) + 0.5, requires_grad=True)
        beta = _t(rng, 3, scale=0.2)
        xb = _t(rng, 4, 3, 6)
        sel_bn = Tensor(np.arange(72.0).reshape(4, 3, 6))

        def bn_loss(*_):
            rm = Tensor(np.zeros(3))
            rv = Tensor(np.ones(3))
            out = batchnorm1d(xb, gamma, beta, rm, rv, training=True)
            return tensor_sum(T.mul(out, sel_bn))

        cases.append(("batchnorm", bn_loss, [xb, gamma, beta]))
        # eval mode only reads its running arrays
        stats_b = np.array([0.1, -0.2, 0.3]), np.array([0.5, 1.0, 2.0])
        cases.append(("batchnorm_eval", lambda *_: tensor_sum(T.mul(
            batchnorm1d(xb, gamma, beta, *stats_b, training=False), sel_bn)),
            [xb, gamma, beta]))

        xs = _t(rng, 2, 3, 16)
        sel_sc = Tensor(rng.standard_normal((2, 6, 8)))
        cases.append(("scatter", lambda *_: tensor_sum(
            T.mul(scatter_forward(xs), sel_sc)), [xs]))

        gamma_c = Tensor(rng.random(4) + 0.5, requires_grad=True)
        beta_c = _t(rng, 4, scale=0.2)
        skip_c = _t(rng, 2, 4, 6)
        stats_c = rng.standard_normal(4) * 0.1, rng.random(4) + 0.5
        sel_c = Tensor(rng.standard_normal((2, 4, 6)))

        def conv_bn_act_loss(training):
            def loss(*_):
                # fresh running arrays: training mode updates them per call
                rm, rv = (Tensor(a.copy()) for a in stats_c)
                out = T.conv_bn_act(xc, wc, bc, gamma_c, beta_c, rm, rv,
                                    training=training, stride=2, padding=2,
                                    skip=skip_c, act=True)
                return tensor_sum(T.mul(out, sel_c))
            return loss

        for mode in ("train", "eval"):
            cases.append((f"conv_bn_act_{mode}", conv_bn_act_loss(mode == "train"),
                          [xc, wc, bc, gamma_c, beta_c, skip_c]))

        gamma_s = Tensor(rng.random(6) + 0.5, requires_grad=True)
        beta_s = _t(rng, 6, scale=0.2)
        skip_s = _t(rng, 2, 6, 8)
        stats_s = rng.standard_normal(6) * 0.1, rng.random(6) + 0.5

        def scatter_bn_loss(training):
            def loss(*_):
                rm, rv = (Tensor(a.copy()) for a in stats_s)
                out = scatter_forward(xs, gamma_s, beta_s, rm, rv, training=training,
                                      skip=skip_s)
                return tensor_sum(T.mul(out, sel_sc))
            return loss

        for mode in ("train", "eval"):
            cases.append((f"scatter_bn_{mode}", scatter_bn_loss(mode == "train"),
                          [xs, gamma_s, beta_s, skip_s]))

        for name, fn, inputs in cases:
            err = grad_check(fn, inputs, max_samples=48, seed=11)
            worst = max(worst, err)
            if verbose:
                print(f"  gradcheck {name:<12} rel err {err:.3e}")
    return worst


def run_model_check(verbose: bool = False) -> float:
    """End-to-end gradient check through a one-block tiny scatter model."""
    with engine.precision("float64"):
        engine.seed(3)
        # time shrinks 64x, rounding up, before the 8-bin pool, so the
        # shortest window is model.MIN_WINDOW (449); 512 is just above it
        cfg = ModelConfig(n_leads=2, n_classes=2, window=512, heads=2,
                          width_scale=0.25, fc_hidden=8, dropout=0.0)
        model = build_model(cfg, "scatter")
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 2, 512)) * 0.5, requires_grad=True)
        aux = Tensor(rng.random((2, 2)))
        t = rng.integers(0, 2, size=(2, 2)).astype(np.float64)
        sel = Tensor(rng.standard_normal((2, 2)))

        def loss_fn(*_):
            logits = model.forward(x, aux, mode="eval")
            return tensor_sum(T.mul(sigmoid(logits), sel))

        params = [x] + [p for _, p in model.named_parameters()][:6]
        err = grad_check(loss_fn, params, max_samples=40, seed=2)
        if verbose:
            print(f"  gradcheck tiny-model rel err {err:.3e}")
    return err
