"""Stage benchmark for ``neat``: seeded exploration and pretraining workloads,
timed end to end, with a separate traced run for per-layer numbers.

Run from the repository root:

    python3 bench/run.py --workload collect-tall --seed 1 --seconds 25 --trace 0
    python3 bench/run.py            # every workload, untraced then traced

One run sets up its inputs, runs one fully checked warm-up unit of stage
calls, then repeats set-up and unit until ``--seconds`` have passed. Timings
are medians over units (``stage_s``) and set-ups (``setup_s``), calibrated
against a reference kernel (see ``REFERENCE_S``). With
``--trace 1`` untraced and traced units alternate, so ``trace.overhead``
compares neighbours. The last line of
standard output is one JSON object: correct, attempted, failed and metrics.
The exit code is 1 when any correctness check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))

# BLAS may use at most one thread per available core; set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    if not os.environ.get(_var, "").isdigit() or not 0 < int(os.environ[_var]) <= NPROC:
        os.environ[_var] = str(NPROC)

if not (ROOT / "src" / "neat").is_dir():
    sys.exit(f"bench: no neat sources under {ROOT / 'src'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, CollectWorkload, Outcome  # noqa: E402

SETUPS = 3           # set-ups before each timed unit; setup_s is the median of all
MIN_UNITS = 3        # timed units per run, whatever --seconds says

# The 2-vCPU VM this benchmark was built on changes speed by a third within a
# minute (a pure Python loop, timed in 5 s windows), so raw wall times largely
# measure the neighbours. Each set-up and unit time is therefore scaled by
# REFERENCE_S / (time of a fixed kernel measured just before it): reported
# seconds are those of a machine on which that kernel takes 20 ms, about its
# time on that VM when quiet. Raw times are in the report line.
REFERENCE_S = 0.02

END_TO_END = {"setup_s": "s", "stage_s": "s", "items_per_s": "items/s", "peak_rss_mb": "MB"}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": NPROC, "cpu_model": cpu}


def reference_s() -> float:
    """Median of 3 timings of a fixed numpy and Python kernel that uses no neat
    code: pairwise distances and a partition, small batched matmuls, a loop."""
    rng = np.random.default_rng(0)
    rows, stack, weights = (rng.normal(size=(400, 16)), rng.normal(size=(64, 24, 64)),
                            rng.normal(size=(64, 64)))
    sq = (rows * rows).sum(axis=1)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(4):      # a few MB of temporaries, below every workload's peak
            d2 = sq[:, None] + sq[None, :] - 2.0 * (rows @ rows.T)
            np.partition(d2, 5, axis=0)
        for _ in range(20):
            np.maximum(stack @ weights, 0.0).mean(axis=1)
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Run:
    """One workload at one seed: its inputs, units and their checks."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: Outcome | None = None
        self.inputs = None

    def setup(self) -> list[float]:
        """Build the inputs SETUPS times; return the wall times."""
        out = []
        for _ in range(SETUPS):
            gc.collect()
            start = time.perf_counter()
            self.inputs = self.workload.setup(self.seed, self.workdir)
            out.append(time.perf_counter() - start)
        return out

    def unit(self, tracer: spans.Tracer | None = None) -> float | None:
        """Time one unit of stage calls and check its outputs; None if it raised."""
        spans.check_untraced()
        gc.collect()
        try:
            with spans.traced(tracer) if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                result = self.workload.stage(self.inputs)
                seconds = time.perf_counter() - start
            out = self.workload.outcome(self.inputs, result)
            if self.first is None:
                self.workload.verify(self.inputs, result, out)
                self.first = out
            elif out.hashes != self.first.hashes:
                out.fail(out.items, "unit output differs from the first unit of this run")
        except Exception:   # any failure of the program is reported, not raised
            traceback.print_exc(file=sys.stderr)
            self.attempted += self.workload.items
            self.failed += self.workload.items
            self.problems.append(f"{self.name}: stage raised")
            return None
        self.attempted += out.items
        self.failed += out.failed
        self.problems += out.problems
        return seconds


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return the result object and a report of ungated fields."""
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=work_root))
    run_id = workdir.name
    try:
        run = Run(name, seed, workdir)
        reference_s()                    # warm-up: first BLAS calls start threads
        references = [reference_s()]
        raw_setup = run.setup()
        setup_s = [t * REFERENCE_S / references[-1] for t in raw_setup]
        setup_tracer = spans.Tracer(f"{run_id}-setup")
        if trace:
            with spans.traced(setup_tracer, spans.SETUP_TARGETS):
                run.inputs = run.workload.setup(seed, workdir)
        plain, stage_s, traced, profiles = [], [], [], []
        if run.unit() is not None:       # warm-up, fully verified
            start = time.perf_counter()
            while len(plain) < MIN_UNITS or time.perf_counter() - start < seconds:
                # Set-ups are spread over the run, so that setup_s and stage_s
                # sample the same stretch of machine time.
                references.append(reference_s())
                scale = REFERENCE_S / references[-1]
                times = run.setup()
                raw_setup += times
                setup_s += [t * scale for t in times]
                t = run.unit()
                if t is None:
                    break
                plain.append(t)
                stage_s.append(t * scale)
                if trace:
                    tracer = spans.Tracer(f"{run_id}-{len(traced)}")
                    t = run.unit(tracer)
                    if t is None:
                        break
                    traced.append(t)
                    profiles.append(tracer.totals())
        correct = run.failed == 0 and bool(plain)
        result = {"correct": correct, "attempted": max(run.attempted, 1), "failed": run.failed}
        if not correct:
            result["metrics"] = {}
        elif trace:
            result["metrics"] = layer_metrics(run, setup_tracer, profiles, plain, traced)
        else:
            values = {"setup_s": statistics.median(setup_s),
                      "stage_s": statistics.median(stage_s),
                      "items_per_s": run.first.items / statistics.median(stage_s),
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            result["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        first = run.first
        report = {
            "workload": name, "seed": seed, "run": run_id, "trace": int(trace),
            "units": len(plain), "setups": len(setup_s),
            "wall_stage_s": _spread(plain), "wall_stage_s_traced": _spread(traced),
            "wall_setup_s": _spread(raw_setup), "reference_s": _spread(references),
            "hashes": first.hashes if first else {},
            "quality": first.quality if first else {},
            "error_rate": run.failed / max(run.attempted, 1),
            "problems": run.problems[:20], "environment": environment(),
        }
        return {"result": result, "report": report}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):      # kept while another run uses it
            work_root.rmdir()


def _spread(values: list[float]) -> dict:
    if not values:
        return {}
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def layer_metrics(run: Run, setup_tracer, profiles, plain, traced) -> dict:
    """Per-layer metrics: medians over the traced units, plus ratios."""
    totals = spans.merge(profiles)
    totals.update({name: row for name, row in setup_tracer.totals().items()
                   if row["calls"]})
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = (totals[name]["calls"], "count")
        metrics[f"{name}.self_ms"] = (totals[name]["self_ms"], "ms")
    mdcg = totals["utility.mdcg"]
    metrics["utility.mdcg.ms_per_call"] = (
        mdcg["self_ms"] / mdcg["calls"] if mdcg["calls"] else 0.0, "ms")
    metrics["utility.mdcg.cols"] = (mdcg["count"], "count")
    w = run.workload
    collect = isinstance(w, CollectWorkload)
    metrics["collector.append_ratio"] = (
        (mdcg["calls"] - w.total_episodes) / w.items if collect else 0.0, "ratio")
    encodes = totals["encoder.encode_many"]["calls"]
    metrics["encoder.stacks_per_batch"] = (
        totals["encoder.forward_stack"]["calls"] / encodes if encodes else 0.0, "ratio")
    quality = run.first.quality
    metrics["encoder.skipped_ratio"] = (quality.get("skipped_ratio", 0.0), "ratio")
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(plain) - 1, "ratio")
    metrics["quality.best_utility"] = (quality.get("best_utility", 0.0), "mDCG")
    metrics["quality.mean_utility"] = (quality.get("mean_utility", 0.0), "mDCG")
    metrics["quality.final_loss"] = (quality.get("final_loss", 0.0), "NT-Xent")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def print_result(out: dict) -> None:
    for name, m in out["result"]["metrics"].items():
        print(f"{out['report']['workload']:>13}  {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"report": out["report"]}))
    print(json.dumps(out["result"]))


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            print(proc.stdout, end="")
            ok &= proc.returncode == 0
    print(json.dumps({"all_correct": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; default: all, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(out)
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
