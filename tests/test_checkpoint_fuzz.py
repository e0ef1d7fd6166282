"""Property: a damaged checkpoint either loads into a model or raises
DataError, whatever the damage."""

import functools
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scatternet import engine, trainer
from scatternet.engine import DataError
from scatternet.model import ModelConfig, build_model
from scatternet.trainer import Adam, Checkpoint, TrainConfig

# Fixed examples and no example database keep tier-1 time and results the
# same from run to run.
FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

_HEAD = len(trainer._MAGIC) + 8


@pytest.fixture(autouse=True)
def _reset():
    engine.seed(0)
    yield


@functools.cache
def _valid() -> tuple[bytes, dict, bytes]:
    """A small valid checkpoint file: (its bytes, its manifest, its payload)."""
    engine.seed(0)
    mcfg = ModelConfig(n_leads=2, n_classes=2, window=256, heads=2,
                       width_scale=0.25, fc_hidden=4, dropout=0.0)
    model = build_model(mcfg, "baseline")
    opt = Adam(model.named_parameters())
    ckpt = Checkpoint.from_state(
        "baseline", mcfg, TrainConfig(), ("a", "b"), epoch=0, best_score=0.0,
        params=[(n, p.data) for n, p in model.named_parameters()],
        buffers=model.named_buffers(), moments=opt.moments(), adam_t=0)
    payload = b"".join(ckpt.arrays[Checkpoint._key(e["kind"], e["name"])].tobytes()
                       for e in ckpt.manifest["index"])
    return _file(ckpt.manifest, payload), ckpt.manifest, payload


def _file(manifest: dict, payload: bytes) -> bytes:
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return trainer._MAGIC + struct.pack("<Q", len(blob)) + blob + payload


def _with_index_value(entry: int, field: str, value) -> bytes:
    _, manifest, payload = _valid()
    manifest = json.loads(json.dumps(manifest))
    index = manifest["index"]
    index[entry % len(index)][field] = value
    return _file(manifest, payload)


def _load(tmp_path, raw: bytes):
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(raw)
    return Checkpoint.load(path).build_model()


def _loads_or_data_error(tmp_path, raw: bytes) -> None:
    try:
        _load(tmp_path, raw)
    except DataError:
        pass


def test_valid_checkpoint_builds(tmp_path):
    assert _load(tmp_path, _valid()[0]).config.window == 256


@FUZZ
@given(data=st.data())
def test_truncated(tmp_path, data):
    raw = _valid()[0]
    cut = data.draw(st.integers(0, len(raw) - 1))
    with pytest.raises(DataError):
        _load(tmp_path, raw[:cut])


@FUZZ
@given(region=st.sampled_from(["header", "manifest", "payload"]), data=st.data())
def test_byte_flips(tmp_path, region, data):
    raw, _, payload = _valid()
    lo, hi = {"header": (0, _HEAD), "manifest": (_HEAD, len(raw) - len(payload)),
              "payload": (len(raw) - len(payload), len(raw))}[region]
    positions = data.draw(st.lists(st.integers(lo, hi - 1), min_size=1, max_size=4))
    raw = bytearray(raw)
    for pos in positions:
        raw[pos] ^= data.draw(st.integers(1, 255))
    _loads_or_data_error(tmp_path, bytes(raw))


_INDEX_VALUES = st.one_of(
    st.integers(-2, 2**70), st.none(), st.booleans(), st.floats(allow_nan=False),
    st.text(max_size=3), st.lists(st.integers(-2, 2**70), max_size=4),
    # empty shapes, which hold no bytes whatever their other axis
    st.integers(0, 2**70).map(lambda n: [0, n]))


@FUZZ
@given(entry=st.integers(0, 1000), field=st.sampled_from(["shape", "offset"]),
       value=_INDEX_VALUES)
def test_index_values(tmp_path, entry, field, value):
    _loads_or_data_error(tmp_path, _with_index_value(entry, field, value))


def test_zero_sized_shape_with_huge_axis(tmp_path):
    # holds no bytes, so it passes the payload checks, but numpy cannot shape it
    with pytest.raises(DataError, match=r"has shape \[0, 1180591620717411303424\]"):
        _load(tmp_path, _with_index_value(-1, "shape", [0, 2**70]))


def test_payload_bytes_reach_the_model(tmp_path):
    # a flipped payload byte is a valid checkpoint with another value
    raw, _, payload = _valid()
    raw = bytearray(raw)
    raw[len(raw) - len(payload)] ^= 0x01
    first = next(iter(_load(tmp_path, bytes(raw)).named_parameters()))[1].data.ravel()[0]
    assert first != np.frombuffer(payload[:4], dtype="<f4")[0]
