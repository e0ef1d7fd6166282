"""Scatter layer: filter responses, shape law, equivariance, stability."""

import tracemalloc

import numpy as np
import pytest

from scatternet import engine
from scatternet import tensor as T
from scatternet.engine import ShapeError, WindowTooShort
from scatternet.scatter import scatter_forward
from scatternet.tensor import Tensor, grad_check, tensor_sum
from scatternet.wavelets import analyticity_report, filter_bank

EPS_MOD = 1e-12


@pytest.fixture(autouse=True)
def _reset():
    engine.set_precision("float32")
    engine.seed(0)
    yield
    engine.set_precision("float32")


class TestImpulseAndConstant:
    def test_impulse_reads_even_taps(self):
        engine.set_precision("float64")
        fb = filter_bank()
        x = np.zeros((1, 1, 64))
        x[0, 0, 32] = 1.0
        out = scatter_forward(Tensor(x)).data
        low, mod = out[0, 0], out[0, 1]
        # output j reads input 2j; tap k of the kernel sees input 2j - 4 + k,
        # so the impulse at 32 shows up at j = 16 + d with kernel index 4 - 2d
        for d in (-2, -1, 0, 1, 2):
            k = 4 - 2 * d
            assert low[16 + d] == pytest.approx(fb.phi[k], abs=1e-12)
            psi_mag = abs(fb.psi_re[k] + 1j * fb.psi_im[k])
            assert mod[16 + d] == pytest.approx(psi_mag, abs=np.sqrt(EPS_MOD) + 1e-12)
        assert abs(low[10]) < 1e-12  # far from the impulse

    def test_constant_input(self):
        engine.set_precision("float64")
        x = np.ones((1, 3, 64))
        out = scatter_forward(Tensor(x)).data
        interior = slice(8, -8)
        for c in range(3):
            np.testing.assert_allclose(out[0, 2 * c, interior], 1.0, atol=1e-9)
            assert out[0, 2 * c + 1, interior].max() <= np.sqrt(EPS_MOD) + 1e-9


class TestShapes:
    def test_documented_shape(self):
        x = Tensor(np.zeros((2, 12, 5120), dtype=np.float32))
        assert scatter_forward(x).data.shape == (2, 24, 2560)

    @pytest.mark.parametrize("b,c,l", [(1, 1, 2), (1, 1, 3), (2, 3, 17),
                                       (3, 5, 64), (1, 2, 101)])
    def test_channel_doubling_time_halving(self, b, c, l):
        x = Tensor(np.random.default_rng(l).standard_normal((b, c, l)).astype(np.float32))
        out = scatter_forward(x)
        assert out.data.shape == (b, 2 * c, (l + 1) // 2)

    def test_variable_count_identity(self):
        # same number of scalars out as in (for even L)
        x = Tensor(np.zeros((2, 3, 64), dtype=np.float32))
        out = scatter_forward(x)
        assert out.data.size == x.data.size

    def test_too_short(self):
        with pytest.raises(WindowTooShort):
            scatter_forward(Tensor(np.zeros((1, 1, 1), dtype=np.float32)))

    def test_rank_checked(self):
        with pytest.raises(ShapeError):
            scatter_forward(Tensor(np.zeros((3, 8), dtype=np.float32)))

    def test_interleave_order(self):
        # channel c of the input lands at output channels 2c and 2c+1
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 4, 32)).astype(np.float32)
        full = scatter_forward(Tensor(x)).data
        for c in range(4):
            alone = scatter_forward(Tensor(x[:, c:c + 1])).data
            np.testing.assert_array_equal(full[:, 2 * c:2 * c + 2], alone)

    def test_modulus_nonnegative(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((2, 3, 50)).astype(np.float32))
        out = scatter_forward(x).data
        assert out[:, 1::2].min() >= 0.0


class TestEquivariance:
    def test_even_shift(self):
        engine.set_precision("float64")
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 2, 128))
        shifted = np.roll(x, 2, axis=-1)
        out = scatter_forward(Tensor(x)).data
        out_shifted = scatter_forward(Tensor(shifted)).data
        want = np.roll(out, 1, axis=-1)
        np.testing.assert_allclose(out_shifted[:, :, 8:-8], want[:, :, 8:-8],
                                   atol=1e-6)

    def test_scaling_homogeneity(self):
        engine.set_precision("float64")
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 2, 64))
        base = scatter_forward(Tensor(x)).data
        double = scatter_forward(Tensor(2.0 * x)).data
        np.testing.assert_allclose(double, 2.0 * base, atol=1e-6)


class TestStability:
    def test_non_expansive_over_random_pairs(self):
        engine.set_precision("float64")
        c_star = analyticity_report(fft_len=256)["lipschitz_bound"]
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            shape = (1, int(rng.integers(1, 4)), int(rng.integers(16, 96)))
            x = rng.standard_normal(shape)
            y = x + rng.standard_normal(shape) * rng.uniform(0.01, 2.0)
            sx = scatter_forward(Tensor(x)).data
            sy = scatter_forward(Tensor(y)).data
            num = np.linalg.norm(sx - sy)
            den = np.linalg.norm(x - y)
            worst = max(worst, num / den)
        assert worst <= c_star + 1e-9

    def test_twice_composition(self):
        x = Tensor(np.random.default_rng(8).standard_normal((2, 3, 41)).astype(np.float32))
        once = scatter_forward(x)
        twice = scatter_forward(once)
        assert twice.data.shape == (2, 12, 11)  # 4C channels, ceil(ceil(41/2)/2)


class TestGradients:
    def test_grad_check(self):
        engine.set_precision("float64")
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((1, 2, 32)), requires_grad=True)
        assert grad_check(lambda xx: tensor_sum(scatter_forward(xx)), [x],
                          max_samples=64, seed=0) < 1e-4

    def test_gradient_finite_at_zero(self):
        x = Tensor(np.zeros((1, 2, 32), dtype=np.float32), requires_grad=True)
        out = scatter_forward(x)
        tensor_sum(out).backward()
        assert np.all(np.isfinite(x.grad))

    def test_weighted_grad_check(self):
        engine.set_precision("float64")
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((2, 2, 20)), requires_grad=True)
        sel = Tensor(rng.standard_normal((2, 4, 10)))

        def f(xx):
            return tensor_sum(T.mul(scatter_forward(xx), sel))

        assert grad_check(f, [x], max_samples=48, seed=1) < 1e-4


def scatter_chain(x):
    """The composed graph the scatter node replaces: three single-filter
    conv1d calls, the modulus and the interleave."""
    fb = filter_bank()
    dt = engine.dtype()
    w_phi, w_re, w_im = (Tensor(np.asarray(f, dtype=dt)[None, None, :])
                         for f in (fb.phi, fb.psi_re, fb.psi_im))
    b, c, length = x.shape
    flat = T.reshape(x, (b * c, 1, length))
    low = T.conv1d(flat, w_phi, stride=2, padding=4)
    re = T.conv1d(flat, w_re, stride=2, padding=4)
    im = T.conv1d(flat, w_im, stride=2, padding=4)
    mod = T.sqrt(T.add(T.add(T.mul(re, re), T.mul(im, im)), EPS_MOD))
    return T.reshape(T.concat([low, mod], axis=1), (b, 2 * c, low.shape[2]))


def scatter_bn_chain(x, gamma, beta, rm, rv, training, skip):
    """scatter, then batchnorm1d, then the skip add, as separate ops."""
    h = scatter_chain(x)
    if gamma is not None:
        h = T.batchnorm1d(h, gamma, beta, rm, rv, training=training)
    return h if skip is None else T.add(skip, h)


def _node(x, gamma, beta, rm, rv, training, skip):
    return scatter_forward(x, gamma, beta, rm, rv, training=training, skip=skip)


class TestScatterNode:
    """scatter_forward with batchnorm and the skip add folded in gives the
    composed chain's output, gradients and running arrays bit for bit."""

    # (B, C, L, block bytes, zeros): None keeps the module's block size; 600
    # and 1100 bytes cut the (B*C) fold into several row blocks with a short
    # last one (and the recorded conv into several blocks); zeros puts +0
    # and -0 into the input, with one channel all -0.
    GEOMETRIES = [(2, 3, 41, None, False), (3, 2, 2, None, False),
                  (1, 1, 17, None, False), (3, 3, 41, 600, False),
                  (5, 2, 32, 1100, True), (2, 2, 20, None, True)]

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_matches_chain_bitwise(self, monkeypatch, geometry, training, record,
                                   precision):
        bsz, c, length, block_bytes, zeros = geometry
        if block_bytes is not None:
            monkeypatch.setattr(T, "_BLOCK_BYTES", block_bytes)
        engine.set_precision(precision)
        dt = engine.dtype()
        rng = np.random.default_rng(40)
        x_data = rng.standard_normal((bsz, c, length)) * 2
        if zeros:
            x_data[:, :, ::3] = 0.0
            x_data[:, :, 1::3] *= -0.0
            x_data[:, -1] = -0.0
        shape = (bsz, 2 * c, (length + 1) // 2)
        params = {"gamma": rng.random(2 * c) + 0.5,
                  "beta": rng.standard_normal(2 * c) * 0.2}
        skip_data = rng.standard_normal(shape) * 3
        g = rng.standard_normal(shape).astype(dt)
        rm0 = rng.standard_normal(2 * c).astype(dt)
        rv0 = (rng.random(2 * c) + 0.1).astype(dt)
        for with_bn in (False, True):
            for with_skip in (False, True):
                results = []
                for op in (_node, scatter_bn_chain):
                    x = Tensor(x_data, requires_grad=True)
                    ts = {n: Tensor(a, requires_grad=True) for n, a in params.items()}
                    gamma, beta = (ts["gamma"], ts["beta"]) if with_bn else (None, None)
                    skip = Tensor(skip_data, requires_grad=True) if with_skip else None
                    rm, rv = rm0.copy(), rv0.copy()
                    if record:
                        out = op(x, gamma, beta, rm, rv, training, skip)
                        # backward must use the statistics the forward saw
                        rm += 1.0
                        rv *= 3.0
                        out.backward(g)
                    else:
                        with engine.no_grad():
                            out = op(x, gamma, beta, rm, rv, training, skip)
                    grads = [x.grad] + [t.grad for t in ts.values()]
                    if skip is not None:
                        grads.append(skip.grad)
                    results.append([out.data, rm, rv] + grads)
                case = (with_bn, with_skip)
                for i, (got, want) in enumerate(zip(*results)):
                    if want is None:
                        assert got is None, (case, i)
                        continue
                    assert got.dtype == want.dtype, (case, i)
                    assert got.shape == want.shape, (case, i)
                    assert got.tobytes() == want.tobytes(), (case, i)

    def test_skip_shape_mismatch(self):
        with pytest.raises(ShapeError, match="skip"):
            scatter_forward(Tensor(np.zeros((2, 3, 8))), skip=Tensor(np.zeros((2, 6, 5))))

    def test_gamma_shape_checked(self):
        with pytest.raises(ShapeError):
            scatter_forward(Tensor(np.zeros((2, 3, 8))), np.ones(3), np.zeros(3),
                            np.zeros(3), np.ones(3))

    def test_eval_allocates_only_its_result(self):
        # In eval without a graph each row block takes the stacked taps, the
        # modulus, batchnorm and the skip add in cache: besides its result
        # the call holds one block's phase copies, conv output, accumulator
        # and product, not a second output-sized array.
        rng = np.random.default_rng(41)
        x = Tensor(rng.standard_normal((8, 16, 4096)).astype(np.float32))
        gamma, beta = (Tensor(rng.standard_normal(32).astype(np.float32))
                       for _ in range(2))
        rm = rng.standard_normal(32).astype(np.float32)
        rv = (rng.random(32) + 0.1).astype(np.float32)
        skip = Tensor(rng.standard_normal((8, 32, 2048)).astype(np.float32))
        out_bytes = skip.data.nbytes
        # phases under one block, conv output, accumulator and product one
        # block each; the slack covers numpy's copy buffer, the per-row
        # batchnorm arrays and Python objects
        bound = out_bytes + 4 * T._BLOCK_BYTES + 64 * 1024
        with engine.no_grad():
            tracemalloc.start()
            try:
                out = scatter_forward(x, gamma, beta, rm, rv, training=False, skip=skip)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert out.data.nbytes == out_bytes
        assert peak < bound, (peak, bound)
