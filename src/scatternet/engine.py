"""Global numeric state shared by every module.

One precision setting, one counter-based random generator, one autograd
switch. Keeping these in a single place is what makes fixed-seed runs
bit-identical: every stochastic op draws from the stream owned here, in a
deterministic order, and every array is created in the active dtype. The
error types and the atomic write of checkpoints and CSV files live here too.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
from typing import Iterator

import numpy as np

_PRECISIONS = {
    "float32": np.float32,
    "float64": np.float64,
}


class ShapeError(ValueError):
    """An array argument has the wrong rank or incompatible dimensions."""


class WindowTooShort(ShapeError):
    """A sliding op would produce an empty output along time."""


class ConfigError(ValueError):
    """A configuration value is outside its documented domain."""


class DataError(RuntimeError):
    """Dataset files are missing, malformed, or mutually inconsistent."""


class NumericalAbort(RuntimeError):
    """A non-finite value appeared where the math guarantees finite ones."""


def is_finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


class _State:
    __slots__ = ("dtype_name", "rng", "grad_enabled")

    def __init__(self) -> None:
        self.dtype_name = "float32"
        self.rng = _make_rng(0)
        self.grad_enabled = True


def _make_rng(*entropy: int) -> np.random.Generator:
    # Philox is counter-based: the stream is a pure function of the key,
    # independent of draw batching, which is what reproducibility needs.
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(entropy))))


_state = _State()


def dtype() -> type:
    """Active numpy float type (float32 by default)."""
    return _PRECISIONS[_state.dtype_name]


def set_precision(name: str) -> None:
    if name not in _PRECISIONS:
        raise ConfigError(f"precision must be one of {sorted(_PRECISIONS)}, got {name!r}")
    _state.dtype_name = name


@contextlib.contextmanager
def precision(name: str) -> Iterator[None]:
    """Temporarily switch the global dtype (gradient checks run in float64)."""
    old = _state.dtype_name
    set_precision(name)
    try:
        yield
    finally:
        _state.dtype_name = old


def seed(value: int) -> None:
    """Reset the engine stream. Identical seeds give identical runs."""
    _state.rng = _make_rng(int(value))


def rng() -> np.random.Generator:
    return _state.rng


def _key_to_int(key: int | str) -> int:
    if isinstance(key, bool):
        raise ConfigError("rng keys must be ints or strings, not bool")
    if isinstance(key, int):
        return key & (2**63 - 1)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")

def derived_rng(*keys: int | str) -> np.random.Generator:
    """Independent stream keyed by (seed, record id, epoch, ...) tuples.

    Strings are hashed with sha256 so the derivation does not depend on
    PYTHONHASHSEED. Used for per-record augmentation so records could be
    processed in parallel without sharing the main stream.
    """
    return _make_rng(*[_key_to_int(k) for k in keys])


def grad_enabled() -> bool:
    return _state.grad_enabled


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph construction (evaluation, numeric differencing)."""
    old = _state.grad_enabled
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = old


@contextlib.contextmanager
def atomic_write(path, mode: str, **open_args):
    """Open a temporary file beside ``path`` and rename it onto ``path`` when
    the block ends. On any error the temporary file is removed and whatever
    was at ``path`` stays; an OSError becomes DataError("cannot write ...")."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_args) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise DataError(f"cannot write {path}: {exc}") from exc
        raise
