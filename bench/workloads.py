"""The benchmark's workloads: inputs made from the seed, set-up, one pass, checks.

A pass is one user-level operation of fixed size: one ``trainer.train`` call
for the train workloads, one ``evaluate_model`` over the eval set for
``eval-full``. Repeating a pass with the same seed must give the same digest.
Why each workload exists is recorded in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from scatternet import engine, loss, model, pipeline, trainer

HERE = os.path.dirname(os.path.abspath(__file__))

# Probabilities from float32 and float64 forwards of one checkpoint may differ
# by float32 rounding only; 2.7e-7 was the largest difference seen.
F64_ATOL = 1e-4


@dataclass
class PassResult:
    windows: int                      # windows the pass processed
    seconds: float                    # wall time of the train/evaluate call
    loss_final: float
    digest: str
    raw: object = None                # what the checks need


def _input_rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, int.from_bytes(tag.encode(), "little") % 2**32])


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()[:16]


def _same_bytes_after_reload(path: str) -> bool:
    copy = path + ".resaved"
    trainer.Checkpoint.load(path).save(copy)
    with open(path, "rb") as a, open(copy, "rb") as b:
        same = a.read() == b.read()
    os.remove(copy)
    return same


class TrainWorkload:
    """``trainer.train`` on a synthetic 500 Hz dataset written to disk."""

    step_marks = "adam"
    aliases = {"windows_per_s": "train_samples_per_s, validation included",
               "step_ms.mean": "one optimizer step, windowing to Adam",
               "loss_final": "train_loss_final, the last epoch's mean loss"}

    def __init__(self, records: int, classes: int, **cfg) -> None:
        self.records = records
        self.classes = classes
        self.cfg_kwargs = cfg

    def prepare(self, seed: int, tmp: str, cache: str) -> None:
        del cache
        data = os.path.join(tmp, "data")
        recs = pipeline.make_synthetic_dataset(self.records, self.classes,
                                               _input_rng(seed, "train"))
        pipeline.write_dataset(data, recs, pipeline.synthetic_weight_matrix(self.classes))
        self.cfg = trainer.TrainConfig(data=data, out=os.path.join(tmp, "train.ckpt"),
                                       batch_size=4, seed=0, **self.cfg_kwargs)

    def setup(self) -> int:
        """What train() does before its first window; returns windows per pass."""
        records, wm = pipeline.load_dataset(self.cfg.data)
        merged, _ = loss.merged_class_table(wm)
        splits = pipeline.filter_and_split(records, merged, seed=self.cfg.seed)
        pieces = pipeline.prepare_pieces(splits["train"])
        m = model.build_model(self.cfg.model_config(merged.k), self.cfg.variant)
        trainer.Adam(m.named_parameters())
        return len(pieces) * self.cfg.max_epochs

    def pass_input(self, windows: int) -> int:
        """train() loads and prepares its own data, so a pass needs no more."""
        return windows

    def run(self, windows: int) -> PassResult:
        t0 = time.perf_counter()
        ckpt = trainer.train(self.cfg)
        seconds = time.perf_counter() - t0
        history = json.dumps(ckpt.history, sort_keys=True).encode()
        params = [arr.tobytes() for key, arr in sorted(ckpt.arrays.items())
                  if key.startswith("param:")]
        return PassResult(windows=windows, seconds=seconds,
                          loss_final=ckpt.history[-1]["train_loss"],
                          digest=_sha(history, *params), raw=ckpt.history)

    def checks(self, state, result: PassResult) -> list[tuple[str, bool]]:
        history = result.raw
        return [("checkpoint save-load-save is byte-identical",
                 _same_bytes_after_reload(self.cfg.out)),
                ("the last epoch's loss is below the first epoch's",
                 history[-1]["train_loss"] < history[0]["train_loss"])]

    def final_checks(self, state, result: PassResult) -> list[tuple[str, bool]]:
        return []


@dataclass
class EvalState:
    ckpt: trainer.Checkpoint
    model: model.Model
    records: list
    wm: loss.WeightMatrix


class EvalWorkload:
    """``Checkpoint.load``, ``build_model`` and ``evaluate_model`` at batch 256."""

    step_marks = "forward"
    aliases = {"windows_per_s": "eval_windows_per_s",
               "step_ms.mean": "one forward batch under no_grad",
               "loss_final": "bce of the eval probabilities"}
    batch_size = 256               # what `scatternet eval` uses
    rates = (250.0, 257.0, 500.0, 1000.0)
    # durations in seconds: shorter than a 10.24 s window (centered padding),
    # one piece longer than a window (center crop), two and three 20.48 s
    # pieces (the last one overlapping its neighbour)
    durations = ((6.0, 9.5), (11.0, 19.0), (22.0, 38.0), (43.0, 59.0))
    per_duration = 12

    def prepare(self, seed: int, tmp: str, cache: str) -> None:
        # keyed by the library sources, so a code change trains a new one
        src = os.path.dirname(os.path.abspath(trainer.__file__))
        sources = []
        for name in sorted(os.listdir(src)):
            if name.endswith(".py"):
                with open(os.path.join(src, name), "rb") as fh:
                    sources.append(fh.read())
        self.ckpt_path = os.path.join(cache, f"eval-full-{_sha(*sources)}.ckpt")
        if not os.path.isfile(self.ckpt_path):
            subprocess.run([sys.executable, os.path.join(HERE, "make_checkpoint.py"),
                            self.ckpt_path], check=True, timeout=600)
        classes = trainer.Checkpoint.load(self.ckpt_path).manifest["classes"]
        self.data = os.path.join(tmp, "data")
        rng = _input_rng(seed, "eval")
        n = self.per_duration * len(self.durations)
        base = pipeline.make_synthetic_dataset(n, len(classes), rng)
        records = []
        for i, rec in enumerate(base):
            lo, hi = self.durations[i // self.per_duration]
            fs = self.rates[i % len(self.rates)]
            duration = rng.uniform(lo, hi)
            # the 20.48 s base signal repeats to cover the longest records
            t_base = np.arange(3 * rec.signal.shape[1]) / pipeline.TARGET_FS
            t_out = np.arange(int(duration * fs)) / fs
            tiled = np.tile(rec.signal, 3)
            signal = np.stack([np.interp(t_out, t_base, lead) for lead in tiled])
            records.append(pipeline.Record(id=f"ev{i:03d}", fs=fs, signal=signal,
                                           labels=rec.labels, age=rec.age, sex=rec.sex))
        # one record of each duration, each at another rate
        self.f64_ids = {f"ev{d * self.per_duration + d:03d}"
                        for d in range(len(self.durations))}
        pipeline.write_dataset(self.data, records,
                               pipeline.synthetic_weight_matrix(len(classes)))

    def pass_input(self, state: EvalState | None = None) -> EvalState:
        """What `scatternet eval` loads before ``evaluate_model``."""
        ckpt = trainer.Checkpoint.load(self.ckpt_path)
        m = ckpt.build_model()
        records, wm = pipeline.load_dataset(self.data)
        return EvalState(ckpt, m, records, wm)

    def setup(self) -> EvalState:
        """Loading plus the piece preparation evaluate_model repeats inside."""
        state = self.pass_input()
        pipeline.prepare_pieces(state.records)
        return state

    def _evaluate(self, m, records, wm) -> dict:
        return trainer.evaluate_model(m, records, wm, batch_size=self.batch_size)

    def run(self, state: EvalState) -> PassResult:
        t0 = time.perf_counter()
        res = self._evaluate(state.model, state.records, state.wm)
        seconds = time.perf_counter() - t0
        return PassResult(windows=len(res["ids"]), seconds=seconds, loss_final=res["bce"],
                          digest=_sha(res["probs"].tobytes(), repr(res["score"]).encode()),
                          raw=res)

    def checks(self, state: EvalState, result: PassResult) -> list[tuple[str, bool]]:
        res = result.raw
        merged, _ = loss.merged_class_table(state.wm)
        rescored = loss.discrete_challenge_score(res["truth"], loss.predict(res["probs"]),
                                                 merged)
        return [("score equals the score recomputed from the probabilities",
                 rescored == res["score"])]

    def final_checks(self, state: EvalState, result: PassResult) -> list[tuple[str, bool]]:
        """A float64 forward of the same checkpoint on a subset of records."""
        res = result.raw
        subset = [r for r in state.records if r.id in self.f64_ids]
        with engine.precision("float64"):
            ref = self._evaluate(state.ckpt.build_model(), subset, state.wm)
        rows = {wid: i for i, wid in enumerate(res["ids"])}
        mine = res["probs"][[rows[wid] for wid in ref["ids"]]]
        diff = float(np.max(np.abs(mine.astype(np.float64) - ref["probs"])))
        return [(f"float64 forward agrees within {F64_ATOL} (max diff {diff:.2e})",
                 diff <= F64_ATOL)]


def make(name: str):
    if name == "train-tiny":
        # criterion 6's settings, run for a fixed number of epochs per pass
        return TrainWorkload(64, 4, variant="scatter", preset="tiny", lr=0.003,
                             plateau_patience=60, max_epochs=8,
                             power_prob=0.0, gauss_prob=0.0, drift_prob=0.0)
    if name == "train-full":
        return TrainWorkload(40, 24, variant="baseline", preset="full", max_epochs=2)
    if name == "eval-full":
        return EvalWorkload()
    raise KeyError(name)
