"""scatternet benchmark: one workload, one process.

    python3 bench/run.py --workload train-tiny|train-full|eval-full \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src``.
With ``--trace 0`` the run sets up the workload several times (``setup_s`` is
the median), then repeats fixed-size passes until ``--seconds`` is used up
and reports the end-to-end metrics. The only instrumentation is a timestamp
at each optimizer step (or eval forward batch) boundary. With ``--trace 1``
it alternates untraced and traced passes and reports the per-layer metrics
of the traced ones plus the tracing overhead. Human-readable lines come
first; the last line is one JSON object. Scratch files go to
``.bench_build/scatternet`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "scatternet")
SETUP_REPEATS = 21
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "windows_per_s": "1/s",
    "step_ms.mean": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_clock = time.perf_counter


def one_blas_thread() -> int:
    """Run BLAS and OpenMP pools single-threaded; returns the usable cores.

    The library is single-threaded numpy. On its array sizes a second
    OpenBLAS thread mostly spins: on a 2-core Xeon VM train-tiny steps took
    50 ms with two threads against 39 ms with one.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def machine(nproc: int) -> str:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return (f"nproc={nproc} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas!r} "
            f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")


class StepClock:
    """Timestamps at step boundaries, from wrappers around two trainer calls.

    ``adam``: a mark when ``Adam.step`` returns and when validation
    (``evaluate_model``) returns; a step is the time between two consecutive
    ``Adam.step`` marks, so the first step after set-up or validation is left
    out. ``forward``: the duration of each ``_forward_probs`` batch.
    """

    def __init__(self, kind: str) -> None:
        from scatternet import trainer

        self.trainer = trainer
        self.kind = kind
        self.marks: list[tuple[str, float]] = []
        self.durations: list[float] = []
        self._patches = tracing.Patches()

    def install(self) -> None:
        trainer, marks = self.trainer, self.marks
        if self.kind == "adam":
            step, evaluate = trainer.Adam.step, trainer.evaluate_model

            def step_mark(self_, lr):
                step(self_, lr)
                marks.append(("step", _clock()))

            def evaluate_mark(*args, **kwargs):
                out = evaluate(*args, **kwargs)
                marks.append(("epoch", _clock()))
                return out

            self._patches.set(trainer.Adam, "step", step_mark)
            self._patches.set(trainer, "evaluate_model", evaluate_mark)
        else:
            forward, durations = trainer._forward_probs, self.durations

            def forward_mark(*args, **kwargs):
                t0 = _clock()
                out = forward(*args, **kwargs)
                durations.append(_clock() - t0)
                return out

            self._patches.set(trainer, "_forward_probs", forward_mark)

    def uninstall(self) -> None:
        self._patches.undo()

    def steps_ms(self) -> list[float]:
        out = [d * 1e3 for d in self.durations]
        for (kind0, t0), (kind1, t1) in zip(self.marks, self.marks[1:]):
            if kind0 == kind1 == "step":
                out.append((t1 - t0) * 1e3)
        return out


class Tally:
    """Operations and correctness checks attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def checks(self, items) -> None:
        for name, ok in items:
            self.check(name, ok)

    def op(self, name: str, func, *args):
        """Run one operation; a raised exception counts as a failure."""
        self.attempted += 1
        try:
            return func(*args)
        except Exception:  # noqa: BLE001 - the run reports it and stops
            traceback.print_exc()
            self.failures.append(name)
            return None


def measure(wl, seconds: float, tally: Tally) -> tuple[dict, list[str]]:
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = _clock()
        state = wl.setup()
        setup_s.append(_clock() - t0)

    clock = StepClock(wl.step_marks)
    clock.install()
    results = []
    start = _clock()
    try:
        while True:
            t0 = _clock()
            res = tally.op("pass", wl.run, state)
            if res is None:
                break
            took = _clock() - t0
            results.append(res)
            tally.checks(wl.checks(state, res))
            if _clock() - start + took > seconds:
                break
    finally:
        clock.uninstall()
    if not results:
        raise RuntimeError("no pass completed")
    tally.checks(wl.final_checks(state, results[-1]))
    digests = {r.digest for r in results}
    tally.check("passes of one seed give one digest", len(digests) == 1)

    steps = clock.steps_ms()
    metrics = {
        "windows_per_s": sum(r.windows for r in results) / sum(r.seconds for r in results),
        "step_ms.mean": statistics.fmean(steps),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    lines = [f"passes={len(results)} windows/pass={results[0].windows} "
             f"steps={len(steps)} digest={results[0].digest}",
             "pass_s " + " ".join(f"{r.seconds:.3f}" for r in results),
             f"loss_final {results[0].loss_final:.6g} 1  ({wl.aliases['loss_final']})",
             f"step_ms.p50 {statistics.median(steps):.6g} ms ({len(steps)} steps)"]
    if len(steps) >= 100:
        p90 = statistics.quantiles(steps, n=10)[8]
        beyond = sum(s > p90 for s in steps)
        lines.append(f"step_ms.p90 {p90:.6g} ms ({beyond} steps beyond it)")
    else:
        lines.append(f"step_ms.p90 not reported: {len(steps)} steps leave fewer "
                     f"than 10 beyond it")
    return metrics, lines


def trace(wl, seconds: float, tally: Tally) -> tuple[dict, list[str]]:
    state = wl.setup()
    plain, traced, layer = [], [], []
    start = _clock()
    while True:
        t0 = _clock()
        st = wl.pass_input(state)
        ref = tally.op("pass", wl.run, st)
        plain.append(_clock() - t0)
        if ref is not None:
            tally.checks(wl.checks(st, ref))

        tracer = tracing.Tracer()
        tracer.install()
        t1 = _clock()
        try:
            st_traced = wl.pass_input(state)
            res = tally.op("traced pass", wl.run, st_traced)
        finally:
            tracer.uninstall()
        traced.append(_clock() - t1)
        layer.append(tracer.metrics())
        if ref is None or res is None:
            break
        tally.checks(wl.checks(st_traced, res))
        tally.check("tracing leaves the results unchanged", ref.digest == res.digest)
        if _clock() - start + (_clock() - t0) > seconds:
            break
    if res is None:
        raise RuntimeError("the traced pass failed")
    metrics = {name: statistics.median(m[name] for m in layer) for name in layer[0]}
    metrics["trace.pass_s"] = statistics.median(traced)
    metrics["trace.overhead_pct"] = (metrics["trace.pass_s"] / statistics.median(plain)
                                     - 1.0) * 100.0
    return metrics, [f"traced passes={len(traced)} untraced passes={len(plain)} "
                     f"digest={res.digest}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-tiny", "train-full", "eval-full"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "scatternet", "__init__.py")):
        print(f"bench: no scatternet sources under {SRC}", file=sys.stderr)
        return 2
    nproc = one_blas_thread()
    sys.path.insert(0, SRC)
    import workloads  # imports numpy, so only once the thread settings are in place

    wl = workloads.make(args.workload)
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    tally = Tally()
    try:
        wl.prepare(args.seed, tmp, WORK)
        if args.trace:
            metrics, lines = trace(wl, args.seconds, tally)
            units = tracing.metric_units()
        else:
            metrics, lines = measure(wl, args.seconds, tally)
            units = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"machine: {machine(nproc)}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} " + lines[0])
    for line in lines[1:]:
        print(line)
    for name, unit in units.items():
        alias = f"  ({wl.aliases[name]})" if not args.trace and name in wl.aliases else ""
        print(f"{name} {metrics[name]:.6g} {unit}{alias}")
    failed = len(tally.failures)
    print(f"error_rate {failed / tally.attempted:.6g} ({failed} failed of "
          f"{tally.attempted} operations and checks)")
    for name in tally.failures:
        print(f"FAILED: {name}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
