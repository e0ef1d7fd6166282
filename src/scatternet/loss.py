"""Training objective and scoring: BCE minus a soft challenge reward.

The challenge reward t'Wp credits partially-correct predictions according
to a class-confusion weight matrix; dividing by the soft-OR count n keeps
an all-positive predictor from collecting every reward. The discrete score
applies the same formula to thresholded predictions. Minimizing
``bce - challenge`` trades calibration against reward, 1:1.

All differentiable pieces accept plain arrays or graph Tensors; they return
a Tensor when any probability input is a Tensor, else a float, or, for
``soft_or_norm`` of batched arrays, an array of one count per record.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .engine import DataError, ShapeError, atomic_write
from . import tensor as T
from .tensor import Tensor

EPS_N = 1e-8
EPS_P = 1e-7


@dataclass(frozen=True)
class WeightMatrix:
    """Square reward matrix: w[i, j] = reward for predicting j when i is true."""

    labels: tuple[str, ...]
    w: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=np.float64)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "labels", tuple(self.labels))
        k = len(self.labels)
        if w.shape != (k, k):
            raise DataError(f"weight matrix must be {k}x{k}, got {w.shape}")
        if len(set(self.labels)) != k:
            raise DataError("duplicate class identifiers in weight matrix")
        if k and not np.all(np.diag(w) >= w.max(axis=1) - 1e-12):
            raise DataError("weight matrix diagonal must hold the row maxima")

    @property
    def k(self) -> int:
        return len(self.labels)


def identity_weight_matrix(labels: list[str] | tuple[str, ...]) -> WeightMatrix:
    return WeightMatrix(tuple(labels), np.eye(len(labels)))


def read_csv_table(path, what: str, corners: tuple[str, ...], labelled: bool
                   ) -> tuple[list[str], list[str], np.ndarray]:
    """(row labels, column labels, values) of a CSV table of finite floats.

    A first header cell that is one of ``corners`` (stripped, any case)
    heads a first column of row labels; with ``labelled`` that column is
    there without it too. Otherwise the rows are labelled "0", "1", ...
    Empty lines are skipped. DataError names ``what``, the file and a bad
    row's number from 1.
    """
    name = f"{what} {path}" if what else str(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r]
    except OSError as exc:
        raise DataError(f"cannot read {name}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{name}: {exc}") from exc
    if len(rows) < 2:
        raise DataError(f"{name}: no data rows")
    header = rows[0]
    if header[0].strip().lower() in corners:
        header, labelled = header[1:], True
    columns = [h.strip() for h in header]
    labels, values = [], np.empty((len(rows) - 1, len(columns)), dtype=np.float64)
    for i, row in enumerate(rows[1:]):
        labels.append(row[0] if labelled else str(i))
        cells = row[1:] if labelled else row
        if len(cells) != len(columns):
            raise DataError(f"{name} row {i + 1}: expected {len(columns)} values, "
                            f"got {len(cells)}")
        try:
            values[i] = [float(c) for c in cells]
        except ValueError as exc:
            raise DataError(f"{name} row {i + 1}: {exc}") from exc
        if not np.isfinite(values[i]).all():
            raise DataError(f"{name} row {i + 1}: values must be finite")
    return labels, columns, values


def write_csv_table(path, corner: str, labels, columns, values) -> None:
    """Write the corner cell and the column labels, then one labelled row of
    repr(float(v)) values per line, atomically (see engine.atomic_write)."""
    with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([corner] + list(columns))
        for label, row in zip(labels, values):
            writer.writerow([label] + [repr(float(v)) for v in row])


def load_weight_matrix(path) -> WeightMatrix:
    """CSV: header row of class ids, then one row per class (id, rewards...)."""
    row_ids, labels, values = read_csv_table(
        path, "weight matrix", ("", "class", "classes", "id"), labelled=True)
    if [r.strip() for r in row_ids] != labels:
        raise DataError(f"weight matrix {path}: rows must be the header's "
                        f"{len(labels)} classes in its order, got {len(row_ids)} rows")
    return WeightMatrix(tuple(labels), values)


def save_weight_matrix(path, wm: WeightMatrix) -> None:
    write_csv_table(path, "", wm.labels, wm.labels, wm.w)


def merge_identical_classes(wm: WeightMatrix,
                            label_map: dict[str, str] | None = None
                            ) -> tuple[WeightMatrix, dict[str, int]]:
    """Fuse classes whose W rows AND columns are elementwise identical.

    Returns the reduced matrix (merged identifiers joined with '|') and a
    table mapping every original identifier, plus any aliases in
    ``label_map`` (alias -> original id), to its merged class index.
    Idempotent: distinct merged classes never share a row/column pair.
    """
    k = wm.k
    groups: list[list[int]] = []
    key_to_group: dict[bytes, int] = {}
    for i in range(k):
        key = wm.w[i, :].tobytes() + wm.w[:, i].tobytes()
        if key in key_to_group:
            groups[key_to_group[key]].append(i)
        else:
            key_to_group[key] = len(groups)
            groups.append([i])

    reps = [g[0] for g in groups]
    merged_labels = tuple("|".join(wm.labels[i] for i in g) for g in groups)
    merged_w = wm.w[np.ix_(reps, reps)].copy()
    table: dict[str, int] = {}
    for gi, group in enumerate(groups):
        for i in group:
            table[wm.labels[i]] = gi
    if label_map:
        for alias, target in label_map.items():
            if target not in table:
                raise DataError(f"label_map target {target!r} is not a class")
            table[alias] = table[target]
    return WeightMatrix(merged_labels, merged_w), table


def merged_class_table(wm: WeightMatrix) -> tuple[WeightMatrix, dict[str, int]]:
    """Merge, then also map each member of a previously joined identifier.

    Records keep their original label strings, so when the input matrix has
    already been merged (labels like "a|b") the member ids must still hit
    the right index.
    """
    merged, table = merge_identical_classes(wm)
    for joint, idx in list(table.items()):
        for part in joint.split("|"):
            table.setdefault(part, idx)
    return merged, table


# -- differentiable pieces ----------------------------------------------------------


def _as_tensor_pair(t, p) -> tuple[Tensor, Tensor, bool]:
    was_tensor = isinstance(p, Tensor)
    t = t if isinstance(t, Tensor) else Tensor(t)
    p = p if isinstance(p, Tensor) else Tensor(p)
    if t.shape != p.shape:
        raise ShapeError(f"t and p shapes differ: {t.shape} vs {p.shape}")
    if t.ndim not in (1, 2):
        raise ShapeError("t/p must be (K,) or (B, K)")
    return t, p, was_tensor


def _maybe_float(out: Tensor, was_tensor: bool):
    """out itself, or its value: a float when out is a scalar, else its array."""
    if was_tensor:
        return out
    return float(out.data) if out.ndim == 0 else out.data


def soft_or_norm(t, p):
    """n = sum_i (t_i + p_i - t_i p_i); the differentiable OR count."""
    t, p, was = _as_tensor_pair(t, p)
    n = T.tensor_sum(T.sub(T.add(t, p), T.mul(t, p)), axis=-1)
    return _maybe_float(n, was)


def challenge_term(t, p, w):
    """t'Wp / max(n, 1e-8); batched inputs average over records."""
    t, p, was = _as_tensor_pair(t, p)
    w_arr = w.w if isinstance(w, WeightMatrix) else np.asarray(w, dtype=np.float64)
    if w_arr.shape != (t.shape[-1], t.shape[-1]):
        raise ShapeError(f"W must be ({t.shape[-1]}, {t.shape[-1]})")
    squeeze = t.ndim == 1
    if squeeze:
        t, p = T.reshape(t, (1, -1)), T.reshape(p, (1, -1))
    tw = T.matmul(t, Tensor(w_arr))                       # (B, K)
    reward = T.tensor_sum(T.mul(tw, p), axis=-1)          # (B,)
    n = T.clip(soft_or_norm(t, p), EPS_N, None)
    per_record = T.div(reward, n)
    out = T.reshape(per_record, ()) if squeeze else T.mean(per_record)
    return _maybe_float(out, was)


def bce(t, p):
    """Binary cross entropy summed over classes; probabilities clamped to
    [1e-7, 1 - 1e-7]; batched inputs average over records."""
    t, p, was = _as_tensor_pair(t, p)
    pc = T.clip(p, EPS_P, 1.0 - EPS_P)
    per_class = T.add(T.mul(t, T.log(pc)), T.mul(T.sub(1.0, t), T.log(T.sub(1.0, pc))))
    per_record = T.mul(T.tensor_sum(per_class, axis=-1), -1.0)
    out = T.reshape(per_record, ()) if t.ndim == 1 else T.mean(per_record)
    return _maybe_float(out, was)


def combined_loss(t, p, w):
    """bce - challenge_term, the 1:1 weighted objective (lower is better)."""
    b = bce(t, p)
    c = challenge_term(t, p, w)
    if not isinstance(p, Tensor):
        return float(b - c)
    return T.sub(b, c)


# -- discrete scoring ------------------------------------------------------------------


def predict(p, threshold: float = 0.5) -> np.ndarray:
    """Binarize probabilities at the threshold (inclusive)."""
    if not 0.0 < threshold < 1.0:
        raise DataError(f"threshold must be in (0, 1), got {threshold}")
    return (np.asarray(p) >= threshold).astype(np.float64)


def discrete_challenge_score(truth, pred_bin, w, pooled: bool = False) -> float:
    """Challenge reward of binary predictions.

    Per-record (default): mean over records of t'Wy / |t OR y|, a record
    with t = y = 0 contributing 0. Pooled: sum of rewards over records
    divided by the summed OR counts.
    """
    w_arr = w.w if isinstance(w, WeightMatrix) else np.asarray(w, dtype=np.float64)
    t = np.atleast_2d(np.asarray(truth, dtype=np.float64))
    y = np.atleast_2d(np.asarray(pred_bin, dtype=np.float64))
    if t.shape != y.shape or t.shape[1] != w_arr.shape[0]:
        raise ShapeError(f"score shapes disagree: t {t.shape}, y {y.shape}, "
                         f"W {w_arr.shape}")
    rewards = np.einsum("rk,kj,rj->r", t, w_arr, y)
    norms = np.logical_or(t > 0.5, y > 0.5).sum(axis=1).astype(np.float64)
    if pooled:
        total = norms.sum()
        return float(rewards.sum() / total) if total > 0 else 0.0
    live = norms > 0
    per_record = np.zeros(t.shape[0])
    per_record[live] = rewards[live] / norms[live]
    return float(per_record.mean()) if t.shape[0] else 0.0
