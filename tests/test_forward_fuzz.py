"""Property: Model.forward over any small batch, near-minimal window, variant,
mode and precision ends in a (B, K) output or in a one-line engine error,
and a training forward of an empty batch moves no running array.

Empty batches follow one rule: an eval forward of B = 0 returns a (0, K)
array, and a training batchnorm over no samples raises ShapeError before it
updates anything."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatternet import engine
from scatternet import tensor as T
from scatternet.engine import (ConfigError, DataError, NumericalAbort, ShapeError,
                               WindowTooShort)
from scatternet.model import MIN_WINDOW, ModelConfig, build_model
from scatternet.scatter import scatter_forward
from scatternet.tensor import Tensor

# Fixed examples and no example database keep tier-1 time and results the
# same from run to run.
FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)

ENGINE_ERRORS = (ShapeError, ConfigError, DataError, NumericalAbort)
N_CLASSES = 3


def _buffers(model) -> list[bytes]:
    return [b.tobytes() for _, b in model.named_buffers()]


def _one_line(err: Exception) -> bool:
    msg = str(err)
    return bool(msg) and "\n" not in msg


@FUZZ
@given(batch=st.integers(0, 3),
       window=st.integers(MIN_WINDOW - 1, MIN_WINDOW + 3),
       variant=st.sampled_from(["baseline", "scatter"]),
       mode=st.sampled_from(["train", "eval", "eval-no-grad"]),
       precision=st.sampled_from(["float32", "float64"]),
       width_scale=st.sampled_from([0.25, 0.5]))
def test_forward_ends_in_an_output_or_an_engine_error(batch, window, variant, mode,
                                                      precision, width_scale):
    engine.seed(0)
    with engine.precision(precision):
        model = build_model(ModelConfig(n_classes=N_CLASSES, window=window,
                                        width_scale=width_scale, fc_hidden=8), variant)
        x = engine.rng().normal(size=(batch, 12, window))
        aux = np.ones((batch, 2))
        before = _buffers(model)
        try:
            if mode == "eval-no-grad":
                with engine.no_grad():
                    out = model.forward(x, aux, "eval")
            else:
                out = model.forward(x, aux, mode)
        except ENGINE_ERRORS as err:
            assert _one_line(err)
            if batch == 0 and mode == "train":
                assert isinstance(err, ShapeError)
            else:
                assert isinstance(err, WindowTooShort)
                assert window < MIN_WINDOW
        else:
            assert window >= MIN_WINDOW
            assert not (batch == 0 and mode == "train")
            assert out.shape == (batch, N_CLASSES)
            assert out.data.dtype == engine.dtype()
            assert np.isfinite(out.data).all()
        if batch == 0 and mode == "train":
            assert _buffers(model) == before


def _bn_params(c):
    return (Tensor(np.ones(c), requires_grad=True),
            Tensor(np.zeros(c), requires_grad=True), np.full(c, 0.5), np.full(c, 2.0))


class TestEmptyTrainingBatchnorm:
    """Each training batchnorm path raises on an input with no samples and
    leaves its running arrays as they were."""

    @pytest.mark.parametrize("shape", [(0, 3, 8), (2, 3, 0)])
    def test_batchnorm1d(self, shape):
        gamma, beta, rm, rv = _bn_params(3)
        with pytest.raises(ShapeError, match="training needs samples"):
            T.batchnorm1d(Tensor(np.zeros(shape)), gamma, beta, rm, rv, training=True)
        assert (rm == 0.5).all() and (rv == 2.0).all()

    def test_conv_bn_act(self):
        gamma, beta, rm, rv = _bn_params(4)
        w = Tensor(np.ones((4, 3, 3)), requires_grad=True)
        with pytest.raises(ShapeError, match="training needs samples"):
            T.conv_bn_act(Tensor(np.zeros((0, 3, 8))), w, None, gamma, beta, rm, rv,
                          training=True, padding=1)
        assert (rm == 0.5).all() and (rv == 2.0).all()

    def test_scatter_forward(self):
        gamma, beta, rm, rv = _bn_params(6)
        with pytest.raises(ShapeError, match="training needs samples"):
            scatter_forward(Tensor(np.zeros((0, 3, 8))), gamma, beta, rm, rv,
                            training=True)
        assert (rm == 0.5).all() and (rv == 2.0).all()


@pytest.mark.parametrize("stride", [1, 2])
def test_conv1d_of_an_empty_batch_is_empty(stride):
    w = Tensor(np.ones((4, 3, 3)))
    out = T.conv1d(Tensor(np.zeros((0, 3, 8))), w, Tensor(np.zeros(4)),
                   stride=stride, padding=1)
    assert out.shape == (0, 4, 8 // stride)
