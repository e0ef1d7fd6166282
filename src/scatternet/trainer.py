"""Adam training loop with plateau scheduling, checkpointing, evaluation.

The loop is deliberately plain: seeded shuffling, per-record derived RNG
streams for augmentation (so worker parallelism could never change the
data), combined-loss backward, Adam, and a plateau scheduler watching the
epoch-mean training loss. Model selection keeps the epoch with the best
validation challenge score. Checkpoints are a JSON manifest plus one flat
little-endian float32 payload holding parameters, bn running statistics,
and optimizer moments; save/load/save round-trips are byte-identical.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import engine
from .engine import ConfigError, DataError, NumericalAbort, ShapeError
from . import tensor as T
from .tensor import Tensor
from .loss import (WeightMatrix, bce, combined_loss, discrete_challenge_score,
                   load_weight_matrix, merged_class_table, predict)
from .model import Model, ModelConfig, build_model, tiny_config
from .pipeline import (AugmentConfig, Record, filter_and_split, load_dataset,
                       make_window, prepare_pieces)

_MAGIC = b"SCTN\x01"


@dataclass
class TrainConfig:
    data: str = ""
    weights: str = ""
    out: str = ""
    variant: str = "baseline"
    preset: str = "full"
    seed: int = 0
    lr: float = 0.003
    plateau_patience: int = 12
    plateau_factor: float = 0.1
    plateau_tol: float = 1e-6
    lr_floor: float = 1e-6
    max_epochs: int = 256
    max_steps: int = 0                  # 0 = no step cap (cap used by tests)
    batch_size: int = 256
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    threshold: float = 0.5
    pooled: bool = False
    window: int = 0                     # 0 = preset default
    power_prob: float = 0.5
    gauss_prob: float = 0.5
    drift_prob: float = 0.5
    gauss_std: float = 0.08
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise ConfigError("lr must be > 0")
        if not 0.0 < self.plateau_factor < 1.0:
            raise ConfigError("plateau_factor must be in (0, 1)")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")
        if self.variant not in ("baseline", "scatter"):
            raise ConfigError(f"variant must be baseline or scatter, got {self.variant!r}")
        if self.preset not in ("full", "tiny"):
            raise ConfigError(f"preset must be full or tiny, got {self.preset!r}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("threshold must be in (0, 1)")

    def model_config(self, n_classes: int) -> ModelConfig:
        base = tiny_config(n_classes) if self.preset == "tiny" \
            else ModelConfig(n_classes=n_classes)
        if self.window:
            base = dataclasses.replace(base, window=self.window)
        return base

    def augment_config(self) -> AugmentConfig:
        return AugmentConfig(power_prob=self.power_prob,
                             gauss_prob=self.gauss_prob,
                             drift_prob=self.drift_prob,
                             gauss_std=self.gauss_std)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def load_config_file(path) -> dict[str, str]:
    """Flat ``key=value`` lines, UTF-8, '#' starts a comment."""
    pairs: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DataError(f"{path}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                pairs[key.strip()] = value.strip()
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    return pairs


def config_from_mapping(pairs: dict[str, str],
                        base: TrainConfig | None = None) -> TrainConfig:
    """Typed merge of string pairs onto a base config."""
    values = (base.to_dict() if base else TrainConfig().to_dict())
    fields = {f.name: f for f in dataclasses.fields(TrainConfig)}
    for key, raw in pairs.items():
        if key not in fields:
            raise ConfigError(f"unknown config key {key!r}")
        kind = fields[key].type
        try:
            if kind == "bool":
                low = raw.lower()
                if low in _BOOL_TRUE:
                    values[key] = True
                elif low in _BOOL_FALSE:
                    values[key] = False
                else:
                    raise ValueError(f"not a boolean: {raw!r}")
            elif kind == "int":
                values[key] = int(raw)
            elif kind == "float":
                values[key] = float(raw)
            else:
                values[key] = raw
        except ValueError as exc:
            raise ConfigError(f"config key {key}: {exc}") from exc
    return TrainConfig(**values)


# -- optimizer -----------------------------------------------------------------


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: dict,
              lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """One bias-corrected Adam update, in place on params and state."""
    if len(params) != len(grads):
        raise ShapeError("adam_step: params/grads length mismatch")
    if "m" not in state:
        state["m"] = [np.zeros_like(p) for p in params]
        state["v"] = [np.zeros_like(p) for p in params]
        state["t"] = 0
    if len(state["m"]) != len(params):
        raise ShapeError("adam_step: state size mismatch")
    state["t"] += 1
    t = state["t"]
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        if g is None:
            continue
        if g.shape != p.shape or m.shape != p.shape:
            raise ShapeError(f"adam_step: shape mismatch {g.shape} vs {p.shape}")
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def _flat_offset(a: np.ndarray) -> int | None:
    """Element offset of a C-contiguous ``a`` in the flat array it views, or
    None when ``a`` is not such a view."""
    base = a.base
    if (not isinstance(base, np.ndarray) or base.ndim != 1 or base.dtype != a.dtype
            or not base.flags.c_contiguous or not a.flags.c_contiguous):
        return None
    return ((a.__array_interface__["data"][0] - base.__array_interface__["data"][0])
            // a.itemsize)


class Adam:
    """Binds ``adam_step`` to a list of named parameters.

    The first and second moments live in two flat arrays, one slice per
    parameter in list order. A step hands ``adam_step`` runs: parameters
    that each have a gradient of their own shape and dtype and lie back to
    back in one flat array, as in a model's parameter arena, go as one view
    with their gradients concatenated. Any other parameter (one without a
    gradient, or a tensor outside an arena) is a run of one, passed as it is.
    """

    def __init__(self, named_params: list[tuple[str, Tensor]],
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
        self.named = named_params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self._data = [p.data for _, p in named_params]
        self._bounds = list(accumulate((d.size for d in self._data), initial=0))
        dtype = np.result_type(*{d.dtype for d in self._data}) if self._data \
            else engine.dtype()
        self._m = np.zeros(self._bounds[-1], dtype=dtype)
        self._v = np.zeros_like(self._m)
        self._m_views = [self._m[lo:hi].reshape(d.shape) for lo, hi, d in
                         zip(self._bounds, self._bounds[1:], self._data)]
        self._v_views = [self._v[lo:hi].reshape(d.shape) for lo, hi, d in
                         zip(self._bounds, self._bounds[1:], self._data)]
        # _follows[i]: parameter i's data starts where parameter i-1's ends,
        # in the same flat array
        self._offsets = [_flat_offset(d) for d in self._data]
        self._follows = [i > 0 and off is not None and self._offsets[i - 1] is not None
                         and d.base is self._data[i - 1].base
                         and off == self._offsets[i - 1] + self._data[i - 1].size
                         for i, (d, off) in enumerate(zip(self._data, self._offsets))]

    def zero_grad(self) -> None:
        for _, p in self.named:
            p.grad = None

    def _runs(self) -> list[list]:
        """[start, stop, packable] index ranges that cover the parameters."""
        runs: list[list] = []
        for i, (_, p) in enumerate(self.named):
            g = p.grad
            packable = (g is not None and p.data is self._data[i]
                        and g.shape == p.data.shape and g.dtype == p.data.dtype)
            if packable and self._follows[i] and runs[-1][2]:
                runs[-1][1] = i + 1
            else:
                runs.append([i, i + 1, packable])
        return runs

    def step(self, lr: float) -> None:
        params, grads, ms, vs = [], [], [], []
        for a, b, _ in self._runs():
            if b - a == 1:
                params.append(self.named[a][1].data)
                grads.append(self.named[a][1].grad)
                ms.append(self._m_views[a])
                vs.append(self._v_views[a])
                continue
            lo, hi = self._bounds[a], self._bounds[b]
            start = self._offsets[a]
            params.append(self._data[a].base[start:start + hi - lo])
            grads.append(np.concatenate([p.grad for _, p in self.named[a:b]], axis=None))
            ms.append(self._m[lo:hi])
            vs.append(self._v[lo:hi])
        state = {"m": ms, "v": vs, "t": self.step_count}
        adam_step(params, grads, state, lr, self.beta1, self.beta2, self.eps)
        self.step_count = state["t"]

    def moments(self) -> list[tuple[str, np.ndarray, np.ndarray]]:
        """(name, m, v) per parameter; m and v are views of the moment arrays."""
        return [(n, m, v) for (n, _), m, v in
                zip(self.named, self._m_views, self._v_views)]


def lr_schedule_step(state: dict, train_loss: float) -> float:
    """Plateau rule: cut lr by the factor after ``patience`` epochs without
    an improvement larger than ``tol``; lr never drops below ``floor``."""
    if train_loss < state["best"] - state["tol"]:
        state["best"] = train_loss
        state["bad"] = 0
    else:
        state["bad"] += 1
        if state["bad"] >= state["patience"]:
            state["lr"] = max(state["lr"] * state["factor"], state["floor"])
            state["bad"] = 0
    return state["lr"]


def new_schedule_state(cfg: TrainConfig) -> dict:
    return {"lr": cfg.lr, "best": math.inf, "bad": 0,
            "patience": cfg.plateau_patience, "factor": cfg.plateau_factor,
            "tol": cfg.plateau_tol, "floor": cfg.lr_floor}


# -- checkpoint -----------------------------------------------------------------


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _valid_index_entry(entry) -> bool:
    """An index entry names its array and gives its shape and payload offset."""
    return (isinstance(entry, dict)
            and isinstance(entry.get("kind"), str)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(map(_is_count, entry["shape"]))
            and _is_count(entry.get("offset")))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# What each ModelConfig field of a manifest must hold, and how to say so.
_MODEL_VALUES = {
    **dict.fromkeys(("n_leads", "n_classes", "window", "heads", "aux_features",
                     "fc_hidden"), (lambda v: _is_count(v) and v >= 1, "an integer >= 1")),
    "dropout": (lambda v: _is_number(v) and 0 <= v < 1, "a number in [0, 1)"),
    "width_scale": (lambda v: _is_number(v) and math.isfinite(v) and v > 0,
                    "a finite number > 0"),
    "pos_encoding": (lambda v: isinstance(v, bool), "a boolean"),
}


def _manifest_problem(manifest) -> str | None:
    """Why a decoded manifest cannot describe a checkpoint, or None."""
    if not isinstance(manifest, dict):
        return "not a JSON object"
    index = manifest.get("index")
    if not isinstance(index, list) or not all(map(_valid_index_entry, index)):
        return "no valid array index"
    if manifest.get("variant") not in ("baseline", "scatter"):
        return f"variant must be baseline or scatter, got {manifest.get('variant')!r}"
    model = manifest.get("model")
    if not isinstance(model, dict):
        return "model is not an object"
    unknown = model.keys() - _MODEL_VALUES.keys()
    if unknown:
        return f"unknown model keys {sorted(unknown)}"
    for key, value in model.items():
        valid, what = _MODEL_VALUES[key]
        if not valid(value):
            return f"model.{key} must be {what}, got {value!r}"
    cfg = manifest.get("train_config")
    seed = cfg.get("seed") if isinstance(cfg, dict) else None
    if not isinstance(seed, int) or isinstance(seed, bool):
        return "train_config has no integer seed"
    classes = manifest.get("classes")
    if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
        return "classes is not a list of strings"
    return None


@dataclass
class Checkpoint:
    manifest: dict
    arrays: dict[str, np.ndarray]
    history: list = field(default_factory=list, compare=False)

    @staticmethod
    def _key(kind: str, name: str) -> str:
        return f"{kind}:{name}"

    @classmethod
    def from_state(cls, variant: str, mcfg: ModelConfig, cfg: TrainConfig,
                   classes: tuple[str, ...], epoch: int, best_score: float,
                   params: list[tuple[str, np.ndarray]],
                   buffers: list[tuple[str, np.ndarray]],
                   moments: list[tuple[str, np.ndarray, np.ndarray]],
                   adam_t: int) -> "Checkpoint":
        arrays: dict[str, np.ndarray] = {}
        index = []
        offset = 0

        def put(kind: str, name: str, arr: np.ndarray) -> None:
            nonlocal offset
            arr32 = np.ascontiguousarray(arr, dtype="<f4")
            arrays[cls._key(kind, name)] = arr32
            index.append({"kind": kind, "name": name,
                          "shape": list(arr32.shape), "offset": offset})
            offset += arr32.nbytes

        for name, arr in params:
            put("param", name, arr)
        for name, arr in buffers:
            put("buffer", name, arr)
        for name, m, v in moments:
            put("adam_m", name, m)
            put("adam_v", name, v)

        manifest = {
            "version": 1,
            "variant": variant,
            "model": dataclasses.asdict(mcfg),
            # out is where the file goes, not a training setting: identical
            # trainings saved under two paths give identical files
            "train_config": {k: v for k, v in cfg.to_dict().items() if k != "out"},
            "classes": list(classes),
            "epoch": epoch,
            "best_score": best_score,
            "adam_step": adam_t,
            "index": index,
        }
        return cls(manifest=manifest, arrays=arrays)

    def save(self, path) -> None:
        """Write to a temporary file beside ``path``, then rename it onto
        ``path``: a failed save leaves whatever was there untouched."""
        blob = json.dumps(self.manifest, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(_MAGIC)
                fh.write(struct.pack("<Q", len(blob)))
                fh.write(blob)
                for entry in self.manifest["index"]:
                    fh.write(self.arrays[self._key(entry["kind"], entry["name"])].tobytes())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise

    @classmethod
    def load(cls, path) -> "Checkpoint":
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
        if raw[: len(_MAGIC)] != _MAGIC:
            raise DataError(f"{path} is not a checkpoint (bad magic)")
        start = len(_MAGIC) + 8
        if len(raw) < start:
            raise DataError(f"{path}: header truncated at {len(raw)} bytes")
        (blob_len,) = struct.unpack_from("<Q", raw, len(_MAGIC))
        try:
            manifest = json.loads(raw[start:start + blob_len].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: corrupt manifest: {exc}") from exc
        problem = _manifest_problem(manifest)
        if problem:
            raise DataError(f"{path}: corrupt manifest: {problem}")
        payload = raw[start + blob_len:]
        arrays: dict[str, np.ndarray] = {}
        end = 0
        # the index must tile the payload in order, as save writes it
        for entry in manifest["index"]:
            if entry["offset"] != end:
                raise DataError(f"{path}: array {entry['name']} at offset "
                                f"{entry['offset']}, expected {end}")
            shape = tuple(entry["shape"])
            begin, end = end, end + 4 * math.prod(shape)
            if end > len(payload):
                raise DataError(f"{path}: payload truncated at {entry['name']}")
            key = cls._key(entry["kind"], entry["name"])
            if key in arrays:
                raise DataError(f"{path}: index lists {key} twice")
            arrays[key] = np.frombuffer(payload[begin:end], dtype="<f4").reshape(shape)
        if end != len(payload):
            raise DataError(f"{path}: {len(payload) - end} bytes after the last array")
        return cls(manifest=manifest, arrays=arrays)

    def model_config(self) -> ModelConfig:
        return ModelConfig(**self.manifest["model"])

    def build_model(self) -> Model:
        model = build_model(self.model_config(), self.manifest["variant"])
        self.restore_into(model)
        return model

    def restore_into(self, model: Model, adam: "Adam | None" = None) -> None:
        dt = engine.dtype()
        for name, p in model.named_parameters():
            key = self._key("param", name)
            if key not in self.arrays:
                raise DataError(f"checkpoint lacks parameter {name}")
            if tuple(p.data.shape) != self.arrays[key].shape:
                raise DataError(f"checkpoint parameter {name} has shape "
                                f"{self.arrays[key].shape}, model wants {p.data.shape}")
            # written in place: a model's parameters are views of its arena
            p.data[...] = self.arrays[key]
        for name, buf in model.named_buffers():
            key = self._key("buffer", name)
            if key not in self.arrays:
                raise DataError(f"checkpoint lacks buffer {name}")
            buf[...] = self.arrays[key].astype(dt)
        if adam is not None:
            for name, m, v in adam.moments():
                m[...] = self.arrays[self._key("adam_m", name)]
                v[...] = self.arrays[self._key("adam_v", name)]
            adam.step_count = int(self.manifest["adam_step"])


# -- batching helpers ---------------------------------------------------------------


def _stack_windows(windows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = np.stack([w.data for w in windows]).astype(engine.dtype())
    aux = np.stack([w.aux for w in windows]).astype(engine.dtype())
    t = np.stack([w.target for w in windows]).astype(engine.dtype())
    return x, aux, t


def _forward_probs(model: Model, x: np.ndarray, aux: np.ndarray,
                   mode: str) -> Tensor:
    logits = model.forward(Tensor(x), Tensor(aux), mode)
    return T.sigmoid(logits)


def _eval_windows(model: Model, windows, batch_size: int
                  ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Deterministic eval-mode pass; returns (probs, truth, window ids)."""
    probs, truth, ids = [], [], []
    with engine.no_grad():
        for i in range(0, len(windows), batch_size):
            chunk = windows[i:i + batch_size]
            x, aux, t = _stack_windows(chunk)
            p = _forward_probs(model, x, aux, "eval")
            probs.append(p.data.copy())
            truth.append(t)
            ids.extend(w.record_id for w in chunk)
    return np.concatenate(probs), np.concatenate(truth), ids


def evaluate_model(model: Model, records: list[Record], wm: WeightMatrix,
                   threshold: float = 0.5, batch_size: int = 256,
                   pooled: bool = False) -> dict:
    """Center-cropped, augmentation-free metrics over a record list."""
    merged, table = merged_class_table(wm)
    if merged.k != model.config.n_classes:
        raise DataError(f"model has {model.config.n_classes} classes, weight "
                        f"matrix merges to {merged.k}")
    pieces = prepare_pieces(records)
    windows = [make_window(p, table, merged.k, out_len=model.config.window)
               for p in pieces]
    probs, truth, ids = _eval_windows(model, windows, batch_size)
    pred = predict(probs, threshold)
    tp = ((pred > 0.5) & (truth > 0.5)).sum(axis=0).astype(np.float64)
    fp = ((pred > 0.5) & (truth <= 0.5)).sum(axis=0).astype(np.float64)
    fn = ((pred <= 0.5) & (truth > 0.5)).sum(axis=0).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
    return {
        "score": discrete_challenge_score(truth, pred, merged, pooled=pooled),
        "bce": float(bce(truth.astype(np.float64), probs.astype(np.float64))),
        "precision": precision,
        "recall": recall,
        "ids": ids,
        "probs": probs,
        "truth": truth,
        "classes": merged.labels,
    }


# -- training loop ----------------------------------------------------------------------


def _snapshot(model: Model, adam: Adam) -> dict:
    return {
        "params": [(n, p.data.copy()) for n, p in model.named_parameters()],
        "buffers": [(n, b.copy()) for n, b in model.named_buffers()],
        "moments": [(n, m.copy(), v.copy()) for n, m, v in adam.moments()],
        "adam_t": adam.step_count,
    }


def train(cfg: TrainConfig, dataset: tuple[list[Record], WeightMatrix] | None = None
          ) -> Checkpoint:
    """Full training run; returns the best-validation-score checkpoint.

    ``dataset`` bypasses directory loading for in-process callers. The
    checkpoint is also written to ``cfg.out`` when that path is set.
    """
    engine.seed(cfg.seed)
    if dataset is None:
        records, wm = load_dataset(cfg.data)
    else:
        records, wm = dataset
    if cfg.weights:
        wm = load_weight_matrix(cfg.weights)
    merged, table = merged_class_table(wm)
    splits = filter_and_split(records, merged, seed=cfg.seed)
    if not splits["train"] or not splits["val"]:
        raise DataError("train/val splits must be nonempty")

    train_pieces = prepare_pieces(splits["train"])
    mcfg = cfg.model_config(merged.k)
    model = build_model(mcfg, cfg.variant)
    adam = Adam(model.named_parameters(), cfg.beta1, cfg.beta2, cfg.eps)
    sched = new_schedule_state(cfg)
    aug = cfg.augment_config()

    best_score = -math.inf
    best_epoch = -1
    best_state = _snapshot(model, adam)
    history: list[dict] = []
    steps = 0
    step_cap = cfg.max_steps or None

    for epoch in range(cfg.max_epochs):
        order = engine.rng().permutation(len(train_pieces))
        losses, bces = [], []
        for lo in range(0, len(order), cfg.batch_size):
            batch_idx = order[lo:lo + cfg.batch_size]
            windows = []
            for pi in batch_idx:
                piece = train_pieces[pi]
                rng = engine.derived_rng(cfg.seed, piece.id, epoch)
                windows.append(make_window(piece, table, merged.k,
                                           out_len=mcfg.window, rng=rng, aug=aug))
            x, aux, t = _stack_windows(windows)
            p = _forward_probs(model, x, aux, "train")
            loss = combined_loss(Tensor(t), p, merged)
            if not np.isfinite(loss.data):
                raise NumericalAbort(
                    f"non-finite loss at epoch {epoch} batch {lo // cfg.batch_size} "
                    f"lr {sched['lr']:.3g}")
            adam.zero_grad()
            loss.backward()
            adam.step(sched["lr"])
            losses.append(float(loss.data))
            with engine.no_grad():
                bces.append(float(bce(Tensor(t), p).data))
            steps += 1
            if step_cap and steps >= step_cap:
                break

        train_loss = float(np.mean(losses))
        lr_now = lr_schedule_step(sched, train_loss)
        val = evaluate_model(model, splits["val"], merged,
                             threshold=cfg.threshold, batch_size=cfg.batch_size,
                             pooled=cfg.pooled)
        # ties keep the most recent state so continued training is not discarded
        if val["score"] >= best_score:
            best_score = val["score"]
            best_epoch = epoch
            best_state = _snapshot(model, adam)
        history.append({"epoch": epoch, "train_loss": train_loss,
                        "train_bce": float(np.mean(bces)),
                        "val_score": val["score"], "lr": lr_now,
                        "best_score": best_score})
        if cfg.verbose:
            print(f"epoch {epoch:3d} loss {train_loss:.4f} "
                  f"bce {history[-1]['train_bce']:.4f} "
                  f"val {val['score']:.4f} lr {lr_now:.2e}")
        if step_cap and steps >= step_cap:
            break

    ckpt = Checkpoint.from_state(
        cfg.variant, mcfg, cfg, merged.labels, best_epoch, best_score,
        best_state["params"], best_state["buffers"], best_state["moments"],
        best_state["adam_t"])
    ckpt.history = history
    if cfg.out:
        out_dir = os.path.dirname(os.path.abspath(cfg.out))
        os.makedirs(out_dir, exist_ok=True)
        ckpt.save(cfg.out)
    return ckpt
