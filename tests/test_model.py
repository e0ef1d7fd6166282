"""Architecture table, parameter accounting, block semantics, forward
determinism."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from scatternet import engine
from scatternet import tensor as T
from scatternet.engine import ConfigError, ShapeError, WindowTooShort
from scatternet.model import (MIN_WINDOW, AttentionBlock, BottleneckBlock, Conv1d,
                              Model, ModelConfig, ScatterBlock, build_model,
                              count_by_top_layer, layer_specs, layer_table,
                              parameter_count, tiny_config)
from scatternet.scatter import scatter_forward
from scatternet.tensor import Tensor

# totals measured once from the literal table-driven build, then frozen;
# cross-checked against the arithmetic oracle below
BASELINE_TOTAL = 533_283
SCATTER_TOTAL = 431_223


@pytest.fixture(autouse=True)
def _reset():
    engine.set_precision("float32")
    engine.seed(0)
    yield
    engine.set_precision("float32")


def _identity_bn(bn) -> None:
    bn.gamma.data[:] = 1.0
    bn.beta.data[:] = 0.0
    bn.running_mean[:] = 0.0
    bn.running_var[:] = 1.0 - 1e-5  # cancels eps so eval bn is exactly x


def bottleneck_param_oracle(c_in, c_out, w1, w2, project):
    """Arithmetic parameter count for one residual block."""
    n = (c_in * w1 + w1) + 2 * w1          # conv1 + bn1
    n += (w1 * w2 * 3 + w2) + 2 * w2       # conv2 (k3) + bn2
    n += (w2 * c_out + c_out) + 2 * c_out  # conv3 + bn3
    if project:
        n += (c_in * c_out + c_out) + 2 * c_out
    return n


def scatter_block_param_oracle(c_in, c_out, w1, w2):
    n = (c_in * w1 + w1) + 2 * w1          # conv1 + bn1
    n += 2 * w2                            # bn after scatter
    n += (w2 * c_out + c_out) + 2 * c_out  # conv2 + bn2
    n += 2 * c_out                         # skip bn
    return n


def total_param_oracle(variant: str) -> int:
    """Independent recomputation of the full-model count from the layer table."""
    stage_out = [48, 96, 192, 384]
    stage_blocks = [3, 4, 6, 3]
    n = 12 * 24 * 7 + 24 + 2 * 24          # stem conv + bn
    c_in = 24
    for si, (out, blocks) in enumerate(zip(stage_out, stage_blocks)):
        w1, w2 = out // 16, out // 8
        downsamples = si > 0
        if variant == "scatter" and downsamples:
            n += scatter_block_param_oracle(c_in, out, w1, w2)
        else:
            n += bottleneck_param_oracle(c_in, out, w1, w2, project=True)
        n += (blocks - 1) * bottleneck_param_oracle(out, out, w1, w2, project=False)
        c_in = out
    n += 384 * 96 + 96 + 2 * 96            # head conv + bn
    n += 4 * (96 * 96 + 96)                # attention q/k/v/out
    n += 770 * 256 + 256                   # fc.1
    n += 256 * 24 + 24                     # fc.2
    return n


class TestLayerSpecs:
    def test_baseline_table(self):
        specs = {s.name: s for s in layer_specs(ModelConfig(), "baseline")}
        stem = specs["conv1d.1"]
        assert (stem.in_channels, stem.out_channels, stem.kernel, stem.stride) == (12, 24, 7, 2)
        pool = specs["maxpool.1"]
        assert (pool.kernel, pool.stride) == (3, 2)
        expect = {
            "residual.1": (24, 48, 3, 3, 6, 1),
            "residual.2": (48, 96, 4, 6, 12, 2),
            "residual.3": (96, 192, 6, 12, 24, 2),
            "residual.4": (192, 384, 3, 24, 48, 2),
        }
        for name, (ci, co, reps, w1, w2, stride) in expect.items():
            s = specs[name]
            assert (s.in_channels, s.out_channels, s.repeat, s.w1, s.w2, s.stride) == \
                (ci, co, reps, w1, w2, stride)
        head = specs["conv1d.2"]
        assert (head.in_channels, head.out_channels, head.kernel, head.stride) == (384, 96, 1, 2)
        assert specs["attention.1"].out_channels == 96
        assert specs["avgpool"].kernel == 8  # adaptive output bins
        fc1, fc2 = specs["fc.1"], specs["fc.2"]
        assert (fc1.in_channels, fc1.out_channels) == (770, 256)
        assert (fc2.in_channels, fc2.out_channels) == (256, 24)

    def test_scatter_variant_swaps_downsampling_stages(self):
        base = {s.name: s.kind for s in layer_specs(ModelConfig(), "baseline")}
        scat = {s.name: s.kind for s in layer_specs(ModelConfig(), "scatter")}
        changed = {n for n in base if base[n] != scat[n]}
        assert changed == {"residual.2", "residual.3", "residual.4"}
        assert all(scat[n] == "scatter_stage" for n in changed)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            layer_specs(ModelConfig(), "hybrid")


class TestParameterCount:
    def test_single_conv_arithmetic(self):
        conv = Conv1d(12, 24, 7, stride=2, padding=3)
        total = sum(p.data.size for _, p in conv.named_parameters())
        assert total == 12 * 24 * 7 + 24 == 2040

    def test_frozen_totals_match_arithmetic_oracle(self):
        assert total_param_oracle("baseline") == BASELINE_TOTAL
        assert total_param_oracle("scatter") == SCATTER_TOTAL

    def test_built_models_match_frozen_totals(self):
        assert parameter_count(build_model(ModelConfig(), "baseline")) == BASELINE_TOTAL
        assert parameter_count(build_model(ModelConfig(), "scatter")) == SCATTER_TOTAL

    def test_scatter_has_fewer_parameters(self):
        assert SCATTER_TOTAL < BASELINE_TOTAL

    def test_structural_diff_identity(self):
        # the variants differ only inside the three downsampling stages, and
        # the per-stage delta is exactly (removed convs) - (added bns)
        base = count_by_top_layer(build_model(ModelConfig(), "baseline"))
        scat = count_by_top_layer(build_model(ModelConfig(), "scatter"))
        assert set(base) == set(scat)
        stage_in = {"stage2": 48, "stage3": 96, "stage4": 192}
        for name in base:
            if name not in stage_in:
                assert base[name] == scat[name], name
                continue
            c_in = stage_in[name]
            c_out = 2 * c_in
            w1, w2 = c_out // 16, c_out // 8
            removed = (w1 * w2 * 3 + w2) + 2 * w2          # mid conv3 + its bn
            removed += (w2 * c_out + c_out)                # out conv of main path
            removed += (c_in * c_out + c_out)              # skip projection conv
            added = 2 * w2                                 # bn after main scatter
            # conv2 in the scatter block re-adds w2*c_out+c_out, bn counts equal
            added += (w2 * c_out + c_out)
            assert base[name] - scat[name] == removed - added, name

    def test_layer_table_sums_to_total(self):
        model = build_model(tiny_config(), "scatter")
        rows = layer_table(model)
        assert sum(count for _, _, count in rows) == parameter_count(model)

    def test_scatter_stage_channel_arithmetic_enforced(self):
        with pytest.raises(ConfigError):
            ScatterBlock(48, 100, 6, 12)
        with pytest.raises(ConfigError):
            ScatterBlock(48, 96, 6, 13)


class TestBottleneckBlock:
    def test_identity_when_f_is_zero(self):
        engine.seed(2)
        block = BottleneckBlock(8, 8, 2, 4, stride=1)
        for _, p in block.named_parameters():
            p.data[:] = 0.0
        for bn in (block.bn1, block.bn2, block.bn3):
            _identity_bn(bn)
        x = Tensor(np.random.default_rng(0).standard_normal((2, 8, 10)).astype(np.float32))
        out = block.residual_sum(x, mode="eval")
        np.testing.assert_allclose(out.data, x.data, atol=1e-6)

    def test_forward_is_swish_of_residual_sum(self):
        engine.seed(3)
        block = BottleneckBlock(4, 8, 1, 2, stride=2)
        x = Tensor(np.random.default_rng(1).standard_normal((1, 4, 12)).astype(np.float32))
        pre = block.residual_sum(x, mode="eval")
        out = block.forward(x, mode="eval")
        np.testing.assert_allclose(out.data, T.swish(pre).data, atol=1e-7)

    def test_downsampling_shapes(self):
        engine.seed(4)
        block = BottleneckBlock(4, 8, 1, 2, stride=2)
        x = Tensor(np.zeros((2, 4, 12), dtype=np.float32))
        assert block.forward(x, mode="eval").data.shape == (2, 8, 6)


class TestScatterBlock:
    def test_zero_main_path_leaves_skip(self):
        engine.seed(5)
        block = ScatterBlock(4, 8, 1, 2)
        block.conv2.w.data[:] = 0.0
        block.conv2.b.data[:] = 0.0
        x = Tensor(np.random.default_rng(2).standard_normal((2, 4, 16)).astype(np.float32))
        out = block.forward(x, mode="eval")
        want = block.skip_bn.forward(scatter_forward(x), mode="eval")
        np.testing.assert_allclose(out.data, want.data, atol=1e-6)

    def test_shapes_halve_time_double_channels(self):
        engine.seed(6)
        block = ScatterBlock(4, 8, 1, 2)
        x = Tensor(np.zeros((2, 4, 16), dtype=np.float32))
        assert block.forward(x, mode="eval").data.shape == (2, 8, 8)

    def test_scatter_contributes_no_parameters(self):
        block = ScatterBlock(4, 8, 1, 2)
        names = [n for n, _ in block.named_parameters()]
        assert all("scatter" not in n for n in names)


class TestAttentionBlock:
    def test_zero_projections_identity(self):
        engine.seed(7)
        block = AttentionBlock(8, 2, pos_encoding=False)
        for _, p in block.named_parameters():
            p.data[:] = 0.0
        x = Tensor(np.random.default_rng(3).standard_normal((2, 8, 6)).astype(np.float32))
        np.testing.assert_allclose(block.forward(x, "eval").data, x.data, atol=1e-7)

    def test_zero_queries_average_values(self):
        engine.seed(8)
        block = AttentionBlock(4, 2, pos_encoding=False)
        block.q.w.data[:] = 0.0
        block.q.b.data[:] = 0.0
        block.out.w.data[:] = np.eye(4, dtype=np.float32)
        block.out.b.data[:] = 0.0
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 4, 5)).astype(np.float32)
        out = block.forward(Tensor(x), "eval").data
        xt = x[0].T                                    # (T, C)
        v = xt @ block.v.w.data + block.v.b.data
        want = (x[0] + np.tile(v.mean(axis=0)[:, None], (1, 5))).astype(np.float32)
        np.testing.assert_allclose(out[0], want, atol=1e-5)

    def test_permutation_equivariance_without_encoding(self):
        engine.seed(9)
        block = AttentionBlock(8, 2, pos_encoding=False)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 8, 7)).astype(np.float32)
        perm = rng.permutation(7)
        out = block.forward(Tensor(x), "eval").data
        out_perm = block.forward(Tensor(x[:, :, perm]), "eval").data
        np.testing.assert_allclose(out_perm, out[:, :, perm], atol=1e-5)

    def test_encoding_breaks_permutation_equivariance(self):
        engine.seed(10)
        block = AttentionBlock(8, 2, pos_encoding=True)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 8, 7)).astype(np.float32)
        perm = np.roll(np.arange(7), 3)
        out = block.forward(Tensor(x), "eval").data
        out_perm = block.forward(Tensor(x[:, :, perm]), "eval").data
        assert np.abs(out_perm - out[:, :, perm]).max() > 1e-3

    def test_heads_must_divide_channels(self):
        with pytest.raises(ConfigError):
            AttentionBlock(10, 3)


class TestForward:
    def test_zero_input_finite_logits(self):
        engine.seed(11)
        model = build_model(tiny_config(n_classes=5), "scatter")
        x = Tensor(np.zeros((2, 12, 1024), dtype=np.float32))
        aux = Tensor(np.zeros((2, 2), dtype=np.float32))
        logits = model.forward(x, aux, mode="eval")
        assert logits.data.shape == (2, 5)
        assert np.all(np.isfinite(logits.data))

    def test_identical_rows_identical_logits(self):
        engine.seed(12)
        model = build_model(tiny_config(n_classes=3), "baseline")
        rng = np.random.default_rng(7)
        row = rng.standard_normal((1, 12, 1024)).astype(np.float32)
        aux = rng.random((1, 2)).astype(np.float32)
        x = Tensor(np.concatenate([row, row]))
        a = Tensor(np.concatenate([aux, aux]))
        logits = model.forward(x, a, mode="eval").data
        np.testing.assert_allclose(logits[0], logits[1], atol=1e-6)

    def test_batch_concat_invariance(self):
        engine.seed(13)
        model = build_model(tiny_config(n_classes=3), "scatter")
        rng = np.random.default_rng(8)
        # settle the running statistics first; a freshly built model has
        # neutral stats, so raw eval activations blow up and the absolute
        # tolerance would be meaningless
        for _ in range(40):
            xb = rng.standard_normal((4, 12, 1024)).astype(np.float32)
            ab = rng.random((4, 2)).astype(np.float32)
            model.forward(Tensor(xb), Tensor(ab), mode="train")
        x = rng.standard_normal((2, 12, 1024)).astype(np.float32)
        aux = rng.random((2, 2)).astype(np.float32)
        single = model.forward(Tensor(x), Tensor(aux), mode="eval").data
        doubled = model.forward(Tensor(np.concatenate([x, x])),
                                Tensor(np.concatenate([aux, aux])), mode="eval").data
        np.testing.assert_allclose(doubled[:2], single, atol=1e-5)
        np.testing.assert_allclose(doubled[2:], single, atol=1e-5)

    def test_repeated_eval_bit_identical(self):
        engine.seed(14)
        model = build_model(tiny_config(n_classes=3), "scatter")
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((2, 12, 1024)).astype(np.float32))
        aux = Tensor(rng.random((2, 2)).astype(np.float32))
        first = model.forward(x, aux, mode="eval").data
        second = model.forward(x, aux, mode="eval").data
        np.testing.assert_array_equal(first, second)

    def test_wrong_window_rejected(self):
        engine.seed(15)
        model = build_model(tiny_config(n_classes=3), "baseline")
        with pytest.raises(ShapeError):
            model.forward(Tensor(np.zeros((1, 12, 999), dtype=np.float32)),
                          Tensor(np.zeros((1, 2), dtype=np.float32)), mode="eval")

    def test_wrong_lead_count_rejected(self):
        engine.seed(16)
        model = build_model(tiny_config(n_classes=3), "baseline")
        with pytest.raises(ShapeError):
            model.forward(Tensor(np.zeros((1, 3, 1024), dtype=np.float32)),
                          Tensor(np.zeros((1, 2), dtype=np.float32)), mode="eval")

    def test_full_size_forward_shape(self):
        engine.seed(17)
        model = build_model(ModelConfig(), "scatter")
        x = Tensor(np.zeros((1, 12, 5120), dtype=np.float32))
        aux = Tensor(np.zeros((1, 2), dtype=np.float32))
        assert model.forward(x, aux, mode="eval").data.shape == (1, 24)


class TestMinWindow:
    """MIN_WINDOW is the shortest window whose forward pass leaves the pool
    its 8 positions, in both variants."""

    @pytest.mark.parametrize("variant", ["baseline", "scatter"])
    def test_forward_at_min_window(self, variant):
        engine.seed(18)
        cfg = dataclasses.replace(tiny_config(n_classes=3), window=MIN_WINDOW)
        model = build_model(cfg, variant)
        x = Tensor(np.random.default_rng(10).standard_normal((2, 12, MIN_WINDOW)))
        logits = model.forward(x, Tensor(np.zeros((2, 2))), mode="eval")
        assert logits.data.shape == (2, 3)
        assert np.all(np.isfinite(logits.data))

    @pytest.mark.parametrize("variant", ["baseline", "scatter"])
    def test_one_shorter_is_too_short(self, variant):
        engine.seed(18)
        cfg = dataclasses.replace(tiny_config(n_classes=3), window=MIN_WINDOW - 1)
        model = build_model(cfg, variant)
        with pytest.raises(WindowTooShort):
            model.forward(Tensor(np.zeros((1, 12, MIN_WINDOW - 1))),
                          Tensor(np.zeros((1, 2))), mode="eval")


class TestAttentionMemory:
    def test_eval_holds_two_scores_sized_arrays_at_most(self):
        # Without a graph softmax builds the weights in one array and the
        # scores are freed once it has them. So at any time at most two
        # (B, H, T, T) arrays are alive (the product and the scaled scores,
        # then the scores and the weights; before, softmax alone held three
        # besides the scores). The slack covers the (B, T, C)-sized
        # projections and transposes and Python objects.
        engine.seed(11)
        bsz, c, heads, t_len = 4, 16, 4, 128
        block = AttentionBlock(c, heads)
        x = Tensor(np.random.default_rng(7).standard_normal((bsz, c, t_len))
                   .astype(np.float32))
        scores_bytes = bsz * heads * t_len * t_len * 4
        slack = 16 * x.data.nbytes + 64 * 1024
        with engine.no_grad():
            tracemalloc.start()
            try:
                out = block.forward(x, "eval")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert out.data.shape == x.data.shape
        assert slack < scores_bytes
        assert peak < 2 * scores_bytes + slack, (peak, scores_bytes)


class TestForwardMode:
    @pytest.mark.parametrize("mode", ["training", "Train", "", None])
    def test_unknown_mode_raises_before_any_layer_runs(self, mode):
        model = build_model(tiny_config(n_classes=3), "baseline")
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((2, 12, 1024)).astype(np.float32))
        aux = Tensor(rng.random((2, 2)).astype(np.float32))
        before = [b.copy() for _, b in model.named_buffers()]
        with pytest.raises(ConfigError, match=f"mode must be train or eval, got {mode!r}"):
            model.forward(x, aux, mode=mode)
        for (name, b), was in zip(model.named_buffers(), before):
            assert b.tobytes() == was.tobytes(), name


def _full_batch_attention(block: AttentionBlock, x: Tensor) -> Tensor:
    """AttentionBlock.forward with its scores made for the whole batch at once."""
    b, c, t_len = x.shape
    dh = c // block.heads
    xt = T.transpose(x, (0, 2, 1))
    attended_in = T.add(xt, Tensor(block._encoding(t_len))) if block.pos_encoding else xt
    flat = T.reshape(attended_in, (b * t_len, c))

    def split(proj):
        h = T.reshape(proj.forward(flat, "eval"), (b, t_len, block.heads, dh))
        return T.transpose(h, (0, 2, 1, 3))

    q, k, v = split(block.q), split(block.k), split(block.v)
    weights = T.softmax(T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))),
                              1.0 / np.sqrt(dh)), axis=-1)
    ctx = T.reshape(T.transpose(T.matmul(weights, v), (0, 2, 1, 3)), (b * t_len, c))
    proj = T.reshape(block.out.forward(ctx, "eval"), (b, t_len, c))
    return T.transpose(T.add(xt, proj), (0, 2, 1))


def _full_batch_forward(model: Model, x: Tensor, aux: Tensor, mode: str) -> Tensor:
    """Model.forward as one pass over the whole batch, nothing chunked."""
    h = model.stem.forward(x, mode, model.stem_bn)
    h = T.maxpool1d(h, kernel=3, stride=2, padding=1)
    for blocks in model.stages:
        for block in blocks:
            h = block.forward(h, mode)
    h = model.head.forward(h, mode, model.head_bn)
    h = _full_batch_attention(model.attention, h)
    h = T.adaptive_avgpool1d(h, 8)
    h = T.reshape(h, (h.shape[0], h.shape[1] * h.shape[2]))
    h = T.concat([h, aux], axis=1)
    h = T.swish(model.fc1.forward(h, mode))
    h = T.dropout(h, model.config.dropout, training=(mode == "train"))
    return model.fc2.forward(h, mode)


def _settled(cfg: ModelConfig, variant: str, seed: int) -> Model:
    """A model whose running statistics have seen a few training batches."""
    engine.seed(seed)
    model = build_model(cfg, variant)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        x = rng.standard_normal((4, cfg.n_leads, cfg.window))
        model.forward(Tensor(x), Tensor(rng.random((4, 2))), mode="train")
    return model


def _batch(bsz: int, window: int, seed: int) -> tuple[Tensor, Tensor]:
    rng = np.random.default_rng(seed)
    return (Tensor(rng.standard_normal((bsz, 12, window))),
            Tensor(rng.random((bsz, 2))))


class TestEvalChunks:
    """Without a graph, Model.forward runs its conv trunk over chunks of
    windows and attention its scores over chunks of rows; every output
    byte equals that of a forward over the whole batch."""

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("variant", ["baseline", "scatter"])
    def test_bytes_equal_whole_batch_forward(self, monkeypatch, precision, variant):
        engine.set_precision(precision)
        model = _settled(tiny_config(n_classes=3), variant, 21)
        itemsize = np.dtype(precision).itemsize
        t_att = 16  # the tiny window's length after the head
        # attention chunks of 8 rows, and so trunk chunks of 2 windows
        rows = 8
        monkeypatch.setattr(T, "_CHUNK_BYTES", rows * 12 * t_att * t_att * itemsize)
        assert T._CHUNK_BYTES // (12 * 1024 * itemsize) == 2
        for bsz in (1, rows - 1, rows, rows + 1, 2 * rows + 3):
            x, aux = _batch(bsz, 1024, bsz)
            with engine.no_grad():
                got = model.forward(x, aux, mode="eval").data
                want = _full_batch_forward(model, x, aux, "eval").data
            assert got.dtype == want.dtype == np.dtype(precision)
            assert got.tobytes() == want.tobytes(), bsz

    def test_full_preset_bytes_and_traced_peak(self):
        # the real chunk budget: trunk chunks of 17 windows, attention chunks
        # of 13 rows, both with a tail at this batch
        model = _settled(ModelConfig(n_classes=4), "scatter", 22)
        bsz = 2 * 17 + 3
        x, aux = _batch(bsz, 5120, 3)
        with engine.no_grad():
            model.forward(*_batch(1, 5120, 4), mode="eval")  # warm-up
            peaks = {}
            for name, forward in (("chunked", model.forward),
                                  ("whole", lambda *a: _full_batch_forward(model, *a))):
                tracemalloc.start()
                try:
                    out = forward(x, aux, "eval").data
                    peaks[name] = tracemalloc.get_traced_memory()[1], out
                finally:
                    tracemalloc.stop()
        (chunked, got), (whole, want) = peaks["chunked"], peaks["whole"]
        assert got.tobytes() == want.tobytes()
        # every stage's output is as large as its input, so the trunk holds
        # about four chunk inputs at once (16.2 MB seen), and the whole
        # batch about 3.2 inputs per window (29.4 MB seen)
        assert chunked < 5 * T._CHUNK_BYTES < whole, (chunked, whole)


class TestRecordedForwardUnchunked:
    """Training, and an eval forward that records a graph, run on the whole
    batch: outputs, gradients and running statistics equal a whole-batch
    forward's, even when the chunk budget would split every row."""

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_gradients_equal_whole_batch(self, monkeypatch, mode):
        monkeypatch.setattr(T, "_CHUNK_BYTES", 1)
        cfg = tiny_config(n_classes=3)
        runs = []
        for forward in (Model.forward, _full_batch_forward):
            engine.seed(23)
            model = build_model(cfg, "scatter")
            x, aux = _batch(5, 1024, 5)
            engine.seed(24)  # the same dropout draws
            out = forward(model, x, aux, mode)
            T.tensor_sum(T.mul(out, out)).backward()
            runs.append((out.data, [p.grad for _, p in model.named_parameters()],
                         [b for _, b in model.named_buffers()]))
        (out, grads, bufs), (want_out, want_grads, want_bufs) = runs
        assert out.tobytes() == want_out.tobytes()
        for g, want in zip(grads + bufs, want_grads + want_bufs):
            assert g.tobytes() == want.tobytes()


class TestAttentionChunkMemory:
    def test_eval_holds_two_chunk_scores_arrays_at_most(self):
        # 32 rows of (H, T, T) = (2, 256, 256) float32 scores: 512 KiB a
        # row, so chunks of 8 rows, 4 MiB of scores each. A whole-batch
        # pass would hold two 16 MiB arrays at once.
        engine.seed(25)
        bsz, c, heads, t_len = 32, 8, 2, 256
        block = AttentionBlock(c, heads)
        x = Tensor(np.random.default_rng(9).standard_normal((bsz, c, t_len))
                   .astype(np.float32))
        row_scores = heads * t_len * t_len * 4
        rows = T._CHUNK_BYTES // row_scores
        slack = 16 * x.data.nbytes + 64 * 1024
        with engine.no_grad():
            tracemalloc.start()
            try:
                out = block.forward(x, "eval")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            want = _full_batch_attention(block, x)
        assert out.data.tobytes() == want.data.tobytes()
        assert bsz == 4 * rows
        assert peak < 2 * rows * row_scores + slack, (peak, rows * row_scores)


class TestWindowBelowMinimum:
    """A forward below MIN_WINDOW fails with one line before the stem, so a
    train forward moves no running buffer."""

    @pytest.mark.parametrize("variant", ["baseline", "scatter"])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_fails_before_any_buffer_moves(self, variant, mode):
        window = MIN_WINDOW - 1
        model = build_model(ModelConfig(n_classes=3, window=window, width_scale=0.25,
                                        fc_hidden=8), variant)
        before = [(name, b.copy()) for name, b in model.named_buffers()]
        x, aux = _batch(2, window, 26)
        with pytest.raises(WindowTooShort) as info:
            model.forward(x, aux, mode)
        assert str(info.value) and "\n" not in str(info.value)
        for (name, want), (_, got) in zip(before, model.named_buffers()):
            assert got.tobytes() == want.tobytes(), name
