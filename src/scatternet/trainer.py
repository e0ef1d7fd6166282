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

import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator

import numpy as np

from . import engine
from .engine import ConfigError, DataError, NumericalAbort, ShapeError, atomic_write
from . import tensor as T
from .tensor import Tensor
from .loss import (WeightMatrix, bce, combined_loss, discrete_challenge_score,
                   load_weight_matrix, merged_class_table, predict)
from .model import (_MODEL_VALUES, MIN_WINDOW, Model, ModelConfig, build_model,
                    flat_views, tiny_config)
from .pipeline import (AugmentConfig, Record, filter_and_split, load_dataset,
                       make_window, prepare_pieces)

_MAGIC = b"SCTN\x01"


# What a TrainConfig field must hold, and how to say so; window 0 means the
# preset's default, and a shorter window leaves the pool too few positions
_CONFIG_RULES = {
    **dict.fromkeys(("lr", "eps"), (lambda v: v > 0, "> 0")),
    **dict.fromkeys(("beta1", "beta2"), (lambda v: 0 <= v < 1, "in [0, 1)")),
    **dict.fromkeys(("plateau_factor", "threshold"), (lambda v: 0 < v < 1, "in (0, 1)")),
    **dict.fromkeys(("power_prob", "gauss_prob", "drift_prob"),
                    (lambda v: 0 <= v <= 1, "in [0, 1]")),
    **dict.fromkeys(("seed", "gauss_std", "lr_floor", "plateau_tol", "max_steps",
                     "plateau_patience"), (lambda v: v >= 0, ">= 0")),
    "window": (lambda v: v == 0 or v >= MIN_WINDOW, f"0 or >= {MIN_WINDOW}"),
    **dict.fromkeys(("batch_size", "max_epochs"), (lambda v: v >= 1, ">= 1")),
    "variant": (lambda v: v in ("baseline", "scatter"), "baseline or scatter"),
    "preset": (lambda v: v in ("full", "tiny"), "full or tiny"),
}


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
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
            valid, what = _CONFIG_RULES.get(f.name, (None, None))
            if valid and not valid(value):
                raise ConfigError(f"{f.name} must be {what}, got {value!r}")

    def model_config(self, n_classes: int) -> ModelConfig:
        base = tiny_config(n_classes) if self.preset == "tiny" \
            else ModelConfig(n_classes=n_classes)
        if self.window:
            base = dataclasses.replace(base, window=self.window)
        return base

    def augment_config(self) -> AugmentConfig:
        return AugmentConfig(**{f.name: getattr(self, f.name)
                                for f in dataclasses.fields(AugmentConfig)})

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
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
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


def _arena_of(data: list[np.ndarray]) -> np.ndarray | None:
    """The 1-D array of which ``data`` are exactly the ``flat_views``, or None."""
    arena = data[0].base if data else None
    tiled = (isinstance(arena, np.ndarray) and arena.shape == (sum(d.size for d in data),)
             and all(d.base is arena and d.__array_interface__ == w.__array_interface__
                     for d, w in zip(data, flat_views(arena, [d.shape for d in data]))))
    return arena if tiled else None


class Adam:
    """Binds ``adam_step`` to a list of named parameters, whose moments live in
    two flat arrays laid out by ``flat_views``. A step updates the parameters'
    arena as one array while each still holds its view of it and has a
    gradient of its own shape and dtype; otherwise it passes each alone.
    """

    def __init__(self, named_params: list[tuple[str, Tensor]],
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
        self.named = named_params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self._data = [p.data for _, p in named_params]
        dtype = np.result_type(*{d.dtype for d in self._data}) if self._data \
            else engine.dtype()
        self._m = np.zeros(sum(d.size for d in self._data), dtype=dtype)
        self._v = np.zeros_like(self._m)
        self._m_views, self._v_views = (flat_views(a, [d.shape for d in self._data])
                                        for a in (self._m, self._v))
        self._arena = _arena_of(self._data)

    def zero_grad(self) -> None:
        for _, p in self.named:
            p.grad = None

    def step(self, lr: float) -> None:
        params = [p.data for _, p in self.named]
        grads = [p.grad for _, p in self.named]
        ms, vs = self._m_views, self._v_views
        if self._arena is not None and all(
                p is d and g is not None and g.shape == d.shape and g.dtype == d.dtype
                for p, g, d in zip(params, grads, self._data)):
            params, ms, vs = [self._arena], [self._m], [self._v]
            grads = [np.concatenate(grads, axis=None)]
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
    try:
        ModelConfig(**model)
    except ConfigError as exc:
        return f"model.{exc}"
    cfg = manifest.get("train_config")
    seed = cfg.get("seed") if isinstance(cfg, dict) else None
    if not isinstance(seed, int) or isinstance(seed, bool):
        return "train_config has no integer seed"
    classes = manifest.get("classes")
    if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
        return "classes is not a list of strings"
    return None


def _payload(params: list[tuple[str, np.ndarray]], buffers: list[tuple[str, np.ndarray]],
             moments: list[tuple[str, np.ndarray, np.ndarray]]
             ) -> list[tuple[str, str, np.ndarray]]:
    """The checkpoint's (kind, name, array) entries in payload order: the
    parameters, the buffers, then each parameter's Adam m and v."""
    entries = [("param", n, a) for n, a in params]
    entries += [("buffer", n, a) for n, a in buffers]
    for n, m, v in moments:
        entries += [("adam_m", n, m), ("adam_v", n, v)]
    return entries


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
        # copies, so that the checkpoint never changes with what it was made from
        return cls._holding(np.array, variant, mcfg, cfg, classes, epoch, best_score,
                            params, buffers, moments, adam_t)

    @classmethod
    def _holding(cls, convert, variant, mcfg, cfg, classes, epoch, best_score,
                 params, buffers, moments, adam_t) -> "Checkpoint":
        """from_state, with ``convert`` (np.array or np.asarray) giving each
        array as little-endian float32 in C order; with np.asarray the
        checkpoint holds arrays that only its caller owns without a copy."""
        arrays: dict[str, np.ndarray] = {}
        index = []
        offset = 0
        for kind, name, arr in _payload(params, buffers, moments):
            arr32 = convert(arr, dtype="<f4", order="C")
            arrays[cls._key(kind, name)] = arr32
            index.append({"kind": kind, "name": name,
                          "shape": list(arr32.shape), "offset": offset})
            offset += arr32.nbytes

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
        """Write atomically (see atomic_write): a failed save leaves whatever
        was there untouched."""
        blob = json.dumps(self.manifest, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        with atomic_write(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for entry in self.manifest["index"]:
                fh.write(self.arrays[self._key(entry["kind"], entry["name"])].tobytes())

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
        # views of the file's bytes, not copies: the arrays are read-only,
        # and restore_into copies out of them
        payload = memoryview(raw)[start + blob_len:]
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
            try:
                arrays[key] = np.frombuffer(payload[begin:end], dtype="<f4").reshape(shape)
            except ValueError as exc:  # an empty shape numpy cannot hold
                raise DataError(f"{path}: array {entry['name']} has shape "
                                f"{list(shape)}: {exc}") from exc
        if end != len(payload):
            raise DataError(f"{path}: {len(payload) - end} bytes after the last array")
        return cls(manifest=manifest, arrays=arrays)

    def model_config(self) -> ModelConfig:
        return ModelConfig(**self.manifest["model"])

    def build_model(self) -> Model:
        variant = self.manifest["variant"]
        try:
            model = build_model(self.model_config(), variant)
        except ConfigError as exc:
            raise DataError(f"checkpoint {variant} model cannot be built: {exc}") from exc
        self.restore_into(model)
        return model

    def restore_into(self, model: Model, adam: "Adam | None" = None) -> None:
        """Copy the checkpoint's parameters and buffers into ``model``, and
        its Adam moments and step into ``adam`` when given.

        Every array is checked for presence and shape before the first
        write, so a checkpoint that does not fit raises ``DataError`` and
        leaves the model and the moments as they were.
        """
        if adam is not None:
            step = self.manifest.get("adam_step")
            if not _is_count(step):
                raise DataError(f"checkpoint adam_step must be an integer >= 0, "
                                f"got {step!r}")
        targets = _payload([(n, p.data) for n, p in model.named_parameters()],
                           model.named_buffers(), [] if adam is None else adam.moments())
        for kind, name, dst in targets:
            key = self._key(kind, name)
            if key not in self.arrays:
                raise DataError(f"checkpoint lacks {key}")
            if self.arrays[key].shape != dst.shape:
                raise DataError(f"checkpoint {key} has shape {self.arrays[key].shape}, "
                                f"model wants {dst.shape}")
        for kind, name, dst in targets:
            # written in place: parameters and moments are views of their arenas
            dst[...] = self.arrays[self._key(kind, name)]
        if adam is not None:
            adam.step_count = step


# -- batching helpers ---------------------------------------------------------------


def _stack_windows(windows, rows: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]] | None:
    """The next ``rows`` windows of ``windows``, or as many as are left, as
    (x, aux, targets, record ids); None when none are left.

    Each window is copied into its row of batch arrays made for ``rows``
    windows as it is drawn, and let go once the next one has been drawn, so
    a batch drawn from an iterator is held once, not as its windows plus
    their copy. A short batch is the first rows of those arrays; the rows
    past it are never written, so the pages under them are never touched."""
    dt = engine.dtype()
    ids: list[str] = []
    for i, w in enumerate(islice(windows, rows)):
        if not ids:
            x = np.empty((rows,) + w.data.shape, dtype=dt)
            aux = np.empty((rows,) + w.aux.shape, dtype=dt)
            t = np.empty((rows,) + w.target.shape, dtype=dt)
        x[i], aux[i], t[i] = w.data, w.aux, w.target
        ids.append(w.record_id)
    n = len(ids)
    return (x[:n], aux[:n], t[:n], ids) if n else None


def _forward_probs(model: Model, x: np.ndarray, aux: np.ndarray,
                   mode: str) -> Tensor:
    logits = model.forward(Tensor(x), Tensor(aux), mode)
    return T.sigmoid(logits)


def evaluate_model(model: Model, records: list[Record], wm: WeightMatrix,
                   threshold: float = 0.5, batch_size: int = 256,
                   pooled: bool = False) -> dict:
    """Center-cropped, augmentation-free metrics over a record list. ``bce``
    runs in the engine precision, as the model does."""
    if batch_size < 1:
        raise ConfigError(f"evaluate_model: batch_size must be >= 1, got {batch_size}")
    if not records:
        raise DataError("evaluate_model: no records to evaluate")
    merged, table = merged_class_table(wm)
    if merged.k != model.config.n_classes:
        raise DataError(f"model has {model.config.n_classes} classes, weight "
                        f"matrix merges to {merged.k}")
    # made record by record as batches draw on them, so memory holds one
    # batch of windows, not the whole set
    windows = (make_window(p, table, merged.k, out_len=model.config.window)
               for rec in records for p in prepare_pieces([rec]))
    probs, truth, ids = [], [], []
    with engine.no_grad():
        while batch := _stack_windows(windows, batch_size):
            x, aux, t, batch_ids = batch
            ids.extend(batch_ids)
            probs.append(_forward_probs(model, x, aux, "eval").data)
            truth.append(t)
    probs, truth = np.concatenate(probs), np.concatenate(truth)
    pred = predict(probs, threshold)
    tp = ((pred > 0.5) & (truth > 0.5)).sum(axis=0).astype(np.float64)
    fp = ((pred > 0.5) & (truth <= 0.5)).sum(axis=0).astype(np.float64)
    fn = ((pred <= 0.5) & (truth > 0.5)).sum(axis=0).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
    return {
        "score": discrete_challenge_score(truth, pred, merged, pooled=pooled),
        "bce": float(bce(truth, probs)),
        "precision": precision,
        "recall": recall,
        "ids": ids,
        "probs": probs,
        "truth": truth,
        "classes": merged.labels,
    }


# -- training loop ----------------------------------------------------------------------


def _flat_copy(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Copies of ``arrays`` made as one flat copy, of which each is a view."""
    return flat_views(np.concatenate(arrays, axis=None), [a.shape for a in arrays])


def _snapshot(model: Model, adam: Adam) -> dict:
    params, buffers, moments = (model.named_parameters(), model.named_buffers(),
                                adam.moments())
    names = [n for n, _, _ in moments]
    return {
        "params": list(zip((n for n, _ in params), _flat_copy([p.data for _, p in params]))),
        "buffers": list(zip((n for n, _ in buffers), _flat_copy([b for _, b in buffers]))),
        "moments": list(zip(names, _flat_copy([m for _, m, _ in moments]),
                            _flat_copy([v for _, _, v in moments]))),
        "adam_t": adam.step_count,
    }


def _drained(items: list) -> Iterator:
    """The items of ``items`` in order; each slot is cleared as its item is
    handed on, so the list no longer keeps what the consumer lets go."""
    for i in range(len(items)):
        item, items[i] = items[i], None
        yield item


def train(cfg: TrainConfig, dataset: tuple[list[Record], WeightMatrix] | None = None
          ) -> Checkpoint:
    """Full training run; returns the best-validation-score checkpoint.

    ``dataset`` bypasses directory loading for in-process callers; their
    list and records are left as they were. The checkpoint is also written
    to ``cfg.out`` when that path is set.

    The run holds the train pieces and the val records, and nothing else of
    the data: the holdout and unscored records go once the split is made,
    and each raw train record goes as soon as its pieces exist, so the
    train split is never held twice.
    """
    if cfg.out and os.path.isdir(cfg.out):
        raise DataError(f"cannot write {cfg.out}: it is a directory")
    engine.seed(cfg.seed)
    if dataset is None:
        records, wm = load_dataset(cfg.data)
    else:
        records, wm = dataset
    if cfg.weights:
        wm = load_weight_matrix(cfg.weights)
    merged, table = merged_class_table(wm)
    splits = filter_and_split(records, merged, seed=cfg.seed)
    train_split, val_records = splits["train"], splits["val"]
    # only the train pieces and the val records are read from here on; the
    # splits are new lists, so a caller's list is not touched
    del records, splits
    if not train_split or not val_records:
        raise DataError("train/val splits must be nonempty")

    train_pieces = prepare_pieces(_drained(train_split))
    mcfg = cfg.model_config(merged.k)
    model = build_model(mcfg, cfg.variant)
    adam = Adam(model.named_parameters(), cfg.beta1, cfg.beta2, cfg.eps)
    sched = new_schedule_state(cfg)
    aug = cfg.augment_config()

    best_score = -math.inf
    best_epoch = -1
    best_state = None
    history: list[dict] = []
    steps = 0
    step_cap = cfg.max_steps or None

    for epoch in range(cfg.max_epochs):
        order = engine.rng().permutation(len(train_pieces))
        losses, bces = [], []
        for lo in range(0, len(order), cfg.batch_size):
            pieces = [train_pieces[pi] for pi in order[lo:lo + cfg.batch_size]]
            windows = (make_window(piece, table, merged.k, out_len=mcfg.window,
                                   rng=engine.derived_rng(cfg.seed, piece.id, epoch),
                                   aug=aug)
                       for piece in pieces)
            x, aux, t, _ = _stack_windows(windows, len(pieces))
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
        val = evaluate_model(model, val_records, merged,
                             threshold=cfg.threshold, batch_size=cfg.batch_size,
                             pooled=cfg.pooled)
        # ties keep the most recent state so continued training is not discarded
        if best_state is None or val["score"] >= best_score:
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

    # the snapshot's copies are this run's own, so the checkpoint takes them
    # over instead of copying them again
    ckpt = Checkpoint._holding(np.asarray, cfg.variant, mcfg, cfg, merged.labels,
                               best_epoch, best_score, **best_state)
    ckpt.history = history
    if cfg.out:
        try:
            os.makedirs(os.path.dirname(os.path.abspath(cfg.out)), exist_ok=True)
        except OSError as exc:
            raise DataError(f"cannot write {cfg.out}: {exc}") from exc
        ckpt.save(cfg.out)
    return ckpt
