"""Record ingestion, preprocessing, augmentation, and synthetic data.

A dataset is a directory: per record an ``<id>.json`` manifest plus an
``<id>.f32`` blob of raw little-endian float32 samples, lead-major, and a
dataset-level ``classes.csv`` weight matrix. Preprocessing follows the order
resample to 500 Hz, split into 10240-sample pieces, normalize per lead
(zero mean, unit variance, then arctan), and windows of 5120 samples are
cropped from pieces at train/eval time.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from . import engine
from .engine import DataError, ShapeError, atomic_write, is_finite_number
from .loss import WeightMatrix, identity_weight_matrix, load_weight_matrix, \
    save_weight_matrix

TARGET_FS = 500.0
PIECE_LEN = 10240
WINDOW_LEN = 5120
N_LEADS = 12
EPS_STD = 1e-6
# Longest record accepted, in 500 Hz sample steps: one hour, above every
# PhysioNet 2020 record. Longer records are data errors.
MAX_SPAN_500 = 1_800_000


@dataclass
class Record:
    id: str
    fs: float
    signal: np.ndarray                      # (12, N) float32
    labels: tuple[str, ...] = ()
    age: float | None = None
    sex: str | None = None                  # female | male | unknown
    origin_offset: int = 0                  # sample offset within the source record

    def __post_init__(self) -> None:
        sig = np.asarray(self.signal, dtype=np.float32)
        if sig.ndim != 2 or sig.shape[0] != N_LEADS:
            raise DataError(f"record {self.id}: signal must be ({N_LEADS}, N)")
        if sig.shape[1] < 1:
            raise DataError(f"record {self.id}: empty signal")
        if not np.all(np.isfinite(sig)):
            raise DataError(f"record {self.id}: non-finite samples")
        if not (math.isfinite(self.fs) and self.fs > 0):
            raise DataError(f"record {self.id}: fs must be a finite number > 0")
        self.signal = sig
        self.labels = tuple(self.labels)


@dataclass
class Window:
    data: np.ndarray                        # (12, WINDOW_LEN)
    target: np.ndarray                      # (K,) binary
    aux: np.ndarray                         # (2,)
    record_id: str


# (low, high) ranges the power-line and baseline-drift corruptions draw from
POWER_FREQ = (49.5, 50.5)
POWER_AMP = (0.0, 0.1)
DRIFT_FREQ = (0.05, 0.5)
DRIFT_AMP = (0.0, 0.3)


@dataclass(frozen=True)
class AugmentConfig:
    power_prob: float = 0.5
    gauss_prob: float = 0.5
    gauss_std: float = 0.08
    drift_prob: float = 0.5


def disabled_augment() -> AugmentConfig:
    return AugmentConfig(power_prob=0.0, gauss_prob=0.0, drift_prob=0.0)


# -- preprocessing ------------------------------------------------------------------


def resample_to_500(rec: Record) -> Record:
    """Linear interpolation onto a 500 Hz grid spanning the same duration.

    A record that lasts longer than MAX_SPAN_500 steps at 500 Hz is a
    DataError, raised before anything is allocated.
    """
    n = rec.signal.shape[1]
    span = (n - 1) / rec.fs * TARGET_FS
    if not span <= MAX_SPAN_500:
        raise DataError(f"record {rec.id}: {n} samples at {rec.fs:g} Hz last "
                        f"longer than the {MAX_SPAN_500 / TARGET_FS:g} s limit")
    if rec.fs == TARGET_FS:
        return rec
    n_out = max(1, int(round(span)) + 1)
    t_out = np.arange(n_out) / TARGET_FS
    t_in = np.arange(n) / rec.fs
    out = np.empty((N_LEADS, n_out), dtype=np.float32)
    for lead in range(N_LEADS):
        out[lead] = np.interp(t_out, t_in, rec.signal[lead].astype(np.float64))
    return replace(rec, fs=TARGET_FS, signal=out)


def piece_offsets(n: int, win: int = PIECE_LEN) -> list[int]:
    """Start offsets of the contiguous pieces; the tail piece may overlap."""
    if n <= win:
        return [0]
    count = math.ceil(n / win)
    offsets = [i * win for i in range(count - 1)]
    offsets.append(n - win)
    return offsets


def split_windows(rec: Record) -> list[Record]:
    """Cut a 500 Hz record into equal pieces of PIECE_LEN samples.

    Shorter records pass through as a single piece (padding happens at crop
    time). Labels and aux fields are copied onto every piece; each piece
    remembers its global offset.
    """
    if rec.fs != TARGET_FS:
        raise DataError(f"record {rec.id}: split_windows needs 500 Hz input")
    n = rec.signal.shape[1]
    if n <= PIECE_LEN:
        return [rec]
    pieces = []
    for idx, start in enumerate(piece_offsets(n)):
        pieces.append(replace(rec, id=f"{rec.id}#{idx}",
                              signal=rec.signal[:, start:start + PIECE_LEN],
                              origin_offset=rec.origin_offset + start))
    return pieces


def normalize_arctan(x: np.ndarray) -> np.ndarray:
    """Per lead: zero mean, unit variance (std floored at 1e-6), then arctan."""
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ShapeError("normalize_arctan expects (leads, L >= 2)")
    # the steps and roundings of x.std, with its mean taken once
    d = x - x.mean(axis=1, keepdims=True)
    var = np.add.reduce(d * d, axis=1, keepdims=True) / x.shape[1]
    d /= np.maximum(np.sqrt(var), EPS_STD)
    return np.arctan(d, out=d)


def _pad_centered(x: np.ndarray, out_len: int) -> np.ndarray:
    left = (out_len - x.shape[1]) // 2
    out = np.zeros((x.shape[0], out_len), dtype=x.dtype)
    out[:, left:left + x.shape[1]] = x
    return out


def _slice_window(x: np.ndarray, start: int, out_len: int) -> np.ndarray:
    if x.shape[1] < out_len:
        return _pad_centered(x, out_len)
    return x[:, start:start + out_len].copy()


def _crop_start(l_in: int, out_len: int, rng: np.random.Generator | None) -> int:
    """The center without an rng; 0 for a short input; else one uniform draw."""
    if rng is None:
        return max(0, (l_in - out_len) // 2)
    if l_in <= out_len:
        return 0
    return int(rng.integers(0, l_in - out_len + 1))


def random_crop_pad(x: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
    """Uniform random crop to WINDOW_LEN; short inputs zero-pad symmetrically
    (left pad floor((WINDOW_LEN-L)/2))."""
    x = np.asarray(x)
    start = _crop_start(x.shape[1], WINDOW_LEN, engine.rng() if rng is None else rng)
    return _slice_window(x, start, WINDOW_LEN)


def center_crop_pad(x: np.ndarray) -> np.ndarray:
    """Deterministic center crop to WINDOW_LEN (evaluation path), zero-pad when short."""
    x = np.asarray(x)
    return _slice_window(x, _crop_start(x.shape[1], WINDOW_LEN, None), WINDOW_LEN)


def augment(x: np.ndarray, rng: np.random.Generator,
            cfg: AugmentConfig = AugmentConfig()) -> np.ndarray:
    """The three window corruptions, each applied with its own probability.

    Power noise shares one sinusoid across all leads; drift draws a phase
    per lead; Gaussian noise is i.i.d. The input is not modified.
    """
    x = np.asarray(x, dtype=np.float32)
    out = x.copy()
    t = np.arange(x.shape[1], dtype=np.float64) / TARGET_FS

    if rng.random() < cfg.power_prob:
        freq = rng.uniform(*POWER_FREQ)
        amp = rng.uniform(*POWER_AMP)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        wave = (amp * np.sin(2.0 * np.pi * freq * t + phase)).astype(np.float32)
        out += wave[None, :]

    if rng.random() < cfg.gauss_prob:
        out += rng.normal(0.0, cfg.gauss_std, size=out.shape).astype(np.float32)

    if rng.random() < cfg.drift_prob:
        freq = rng.uniform(*DRIFT_FREQ)
        amp = rng.uniform(*DRIFT_AMP)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=out.shape[0])
        drift = amp * np.sin(2.0 * np.pi * freq * t[None, :] + phases[:, None])
        out += drift.astype(np.float32)

    return out


# the sex values a manifest may hold, and the aux feature code of each
SEX_CODES = {"female": 0.0, "unknown": 0.5, "male": 1.0}


def aux_features(rec: Record) -> np.ndarray:
    """(normalized age, sex code): age/100 clipped to [0,1], defaulting to 0.5
    when absent; sex by SEX_CODES, defaulting to 0 when absent."""
    if rec.age is None:
        age = 0.5
    else:
        age = min(max(float(rec.age) / 100.0, 0.0), 1.0)
    if rec.sex is None:
        sex = 0.0
    else:
        if rec.sex not in SEX_CODES:
            raise DataError(f"record {rec.id}: sex must be female/male/unknown")
        sex = SEX_CODES[rec.sex]
    return np.array([age, sex], dtype=np.float32)


def target_vector(labels: tuple[str, ...], table: dict[str, int], k: int) -> np.ndarray:
    t = np.zeros(k, dtype=np.float32)
    for label in labels:
        if label in table:
            t[table[label]] = 1.0
    return t


def prepare_pieces(records: Iterable[Record]) -> list[Record]:
    """Resample, split, and normalize; the output pieces feed window cropping.
    Records are taken one at a time, so an iterator that lets each go as it
    is handed on frees it once its pieces exist.

    A record with fewer than 2 samples at 500 Hz cannot be normalized and is
    a DataError."""
    pieces = []
    for rec in records:
        for piece in split_windows(resample_to_500(rec)):
            if piece.signal.shape[1] < 2:
                raise DataError(f"record {rec.id}: 1 sample at 500 Hz, "
                                "normalizing needs 2")
            pieces.append(replace(piece, signal=normalize_arctan(piece.signal)))
    return pieces


def make_window(piece: Record, table: dict[str, int], k: int,
                out_len: int = WINDOW_LEN,
                rng: np.random.Generator | None = None,
                aug: AugmentConfig | None = None) -> Window:
    """Crop one training/eval window from a normalized piece.

    With an rng the crop start is uniform and ``aug`` (if given) is applied;
    without one the crop is the deterministic center and nothing is added.
    """
    start = _crop_start(piece.signal.shape[1], out_len, rng)
    data = _slice_window(piece.signal, start, out_len)
    if rng is not None and aug is not None:
        data = augment(data, rng, aug)
    return Window(data=data, target=target_vector(piece.labels, table, k),
                  aux=aux_features(piece), record_id=piece.id)


# -- synthetic data -------------------------------------------------------------------


def _class_component(k: int, t: np.ndarray, phase: float) -> np.ndarray:
    # Distinct fundamental per class keeps desk-scale classes separable.
    freq = 3.0 + 4.0 * k
    burst = 1.0 + 0.5 * np.sign(np.sin(2.0 * np.pi * (0.25 + 0.1 * k) * t))
    return np.sin(2.0 * np.pi * freq * t + phase) * burst


def make_synthetic_dataset(n_records: int, n_classes: int,
                           rng: np.random.Generator) -> list[Record]:
    """Multilabel records with one characteristic component per active class."""
    if n_classes < 1 or n_classes > 24:
        raise DataError(f"n_classes must be in [1, 24], got {n_classes}")
    t = np.arange(PIECE_LEN, dtype=np.float64) / TARGET_FS
    records = []
    sexes = ("female", "male", "unknown", None)
    for idx in range(n_records):
        n_active = 1 + int(rng.integers(0, min(3, n_classes)))
        active = rng.choice(n_classes, size=n_active, replace=False)
        signal = rng.normal(0.0, 0.05, size=(N_LEADS, PIECE_LEN))
        for k in sorted(int(a) for a in active):
            comp = _class_component(k, t, phase=rng.uniform(0.0, 2.0 * np.pi))
            gains = rng.uniform(0.5, 1.5, size=N_LEADS)
            signal += gains[:, None] * comp[None, :]
        age = float(rng.integers(20, 90)) if rng.random() < 0.9 else None
        sex = sexes[int(rng.integers(0, len(sexes)))]
        records.append(Record(
            id=f"syn{idx:04d}", fs=TARGET_FS, signal=signal.astype(np.float32),
            labels=tuple(f"c{int(a):02d}" for a in sorted(active)),
            age=age, sex=sex))
    return records


def synthetic_weight_matrix(n_classes: int) -> WeightMatrix:
    return identity_weight_matrix([f"c{k:02d}" for k in range(n_classes)])


# -- dataset directory I/O ---------------------------------------------------------------


def write_dataset(path, records: list[Record], wm: WeightMatrix) -> None:
    """Each file is written atomically. Every manifest's text is made before
    the first file is written, so a record that cannot be serialized raises
    and leaves the directory as it was."""
    manifests = [json.dumps({
        "id": rec.id,
        "fs": rec.fs,
        "n_samples": int(rec.signal.shape[1]),
        "leads": N_LEADS,
        "labels": list(rec.labels),
        "age": rec.age,
        "sex": rec.sex,
    }, sort_keys=True) for rec in records]
    try:
        os.makedirs(path, exist_ok=True)
        for rec, text in zip(records, manifests):
            with atomic_write(os.path.join(path, f"{rec.id}.json"), "w",
                              encoding="utf-8") as fh:
                fh.write(text)
            with atomic_write(os.path.join(path, f"{rec.id}.f32"), "wb") as fh:
                np.ascontiguousarray(rec.signal, dtype="<f4").tofile(fh)
        save_weight_matrix(os.path.join(path, "classes.csv"), wm)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


# manifest field -> (check, what the check wants); age and sex may be absent
_MANIFEST_FIELDS = {
    "id": (lambda v: isinstance(v, str) and v.isprintable() and v not in ("", ".", "..")
           and "/" not in v and os.sep not in v, "a printable file name"),
    "fs": (lambda v: is_finite_number(v) and v > 0, "a positive number"),
    "n_samples": (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1,
                  "an integer >= 1"),
    "leads": (lambda v: v == N_LEADS, f"{N_LEADS}"),
    "labels": (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
               "a list of strings"),
    "age": (lambda v: v is None or is_finite_number(v), "a finite number or null"),
    "sex": (lambda v: v in (None, *SEX_CODES), "female, male, unknown or null"),
}


def _read_manifest(path: str, name: str) -> dict:
    """A record's manifest, each field checked; DataError names the file and
    the field."""
    try:
        with open(os.path.join(path, name), encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read manifest {name}: {exc}") from exc
    except ValueError as exc:  # bad JSON or bytes that are not UTF-8
        raise DataError(f"bad manifest {name}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"manifest {name} is not a JSON object")
    for key, (ok, want) in _MANIFEST_FIELDS.items():
        if key not in manifest:
            if key in ("age", "sex"):
                continue
            raise DataError(f"manifest {name} lacks field {key!r}")
        if not ok(manifest[key]):
            got = repr(manifest[key])
            got = got if len(got) <= 40 else got[:37] + "..."
            raise DataError(f"manifest {name}: field {key!r} must be {want}, got {got}")
    return manifest


def load_dataset(path) -> tuple[list[Record], WeightMatrix]:
    if not os.path.isdir(path):
        raise DataError(f"dataset directory {path} does not exist")
    wm_path = os.path.join(path, "classes.csv")
    if not os.path.isfile(wm_path):
        raise DataError(f"dataset {path} is missing classes.csv")
    wm = load_weight_matrix(wm_path)
    records = []
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json"):
            continue
        manifest = _read_manifest(path, name)
        if name != f"{manifest['id']}.json":
            raise DataError(f"manifest {name}: id {manifest['id']!r} does not match "
                            "its file name")
        blob_path = os.path.join(path, f"{manifest['id']}.f32")
        if not os.path.isfile(blob_path):
            raise DataError(f"record {manifest['id']}: missing .f32 payload")
        flat = np.fromfile(blob_path, dtype="<f4")
        n = manifest["n_samples"]
        if flat.size != N_LEADS * n:
            raise DataError(f"record {manifest['id']}: payload has {flat.size} "
                            f"samples, expected {N_LEADS * n}")
        records.append(Record(
            id=manifest["id"], fs=float(manifest["fs"]),
            signal=flat.reshape(N_LEADS, n),
            labels=tuple(manifest["labels"]),
            age=manifest.get("age"), sex=manifest.get("sex")))
    return records, wm


# -- filtering and splitting ----------------------------------------------------------------


def filter_and_split(records: list[Record], wm: WeightMatrix, seed: int = 0
                     ) -> dict[str, list[Record]]:
    """Drop unscored records, then a deterministic 90/9/1 split.

    Records are ordered by sha256(seed:record_id) and cut at exact quotas,
    so the split is a pure function of (ids, seed) with sizes within
    rounding of the 90/9/1 fractions.
    """
    scored = set(wm.labels)
    for label_group in wm.labels:
        scored.update(label_group.split("|"))
    kept = [r for r in records if any(lb in scored for lb in r.labels)]
    if not kept:
        raise DataError("no scored records after filtering")

    def sort_key(rec: Record) -> str:
        return hashlib.sha256(f"{seed}:{rec.id}".encode("utf-8")).hexdigest()

    ordered = sorted(kept, key=sort_key)
    n = len(ordered)
    n_train = round(0.90 * n)
    n_val = round(0.09 * n)
    return {
        "train": ordered[:n_train],
        "val": ordered[n_train:n_train + n_val],
        "holdout": ordered[n_train + n_val:],
    }
