"""Tests of the benchmark itself, on tiny shapes of each workload.

Run from the repository root: ``python -m pytest -q bench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads
from neat import collector, utility

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY = {
    # More than max_rows=1000 rows, so mdcg takes the subsample path.
    "collect-tall": workloads.CollectWorkload(rows=1100, cols=3, steps=4, episodes=1,
                                              collects=2),
    # 72 steps, so the replay buffers pass batch_size=64 and agents train.
    "collect-wide": workloads.CollectWorkload(rows=40, cols=6, steps=12, episodes=6),
    "pretrain": workloads.PretrainWorkload(rows=100, cols=4, records=12, max_crosses=3,
                                           depth=3, attr_rows=16, epochs=2, batch=1024),
}

COLLECT_CALLS = {"tabular.load_csv", "collector.collect", "utility.mdcg", "expr.eval_cross",
                 "collector.describe_state", "collector.QAgent.select",
                 "collector.write_records", "collector.read_records"}
ENCODER = {name for name in spans.SPAN_NAMES if name.startswith("encoder.")}
# Span names with calls on each workload; every other span must have none.
CALLED = {
    "collect-tall": COLLECT_CALLS,
    "collect-wide": COLLECT_CALLS | {"collector.bellman_update", "nn.Adam.step"},
    "pretrain": ENCODER | {"tabular.load_csv", "expr.eval_cross", "expr.apply_sequence",
                           "collector.read_records", "nn.Adam.step",
                           "checkpoint.save_checkpoint"},
}


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    for name, shape in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, shape)
    monkeypatch.setattr(run, "MIN_UNITS", 1)
    monkeypatch.setattr(run, "SETUPS", 1)


def test_spec_lists_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name):
    out = run.measure(name, seed=3, seconds=0, trace=False)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * TINY[name].items
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(out["report"]["environment"]) == {
        "python", "numpy", "blas", "blas_threads", "nproc", "cpu_model"}


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_reports_every_layer_and_restores_originals(name):
    out = run.measure(name, seed=3, seconds=0, trace=True)
    metrics = {k: m["value"] for k, m in out["result"]["metrics"].items()}
    assert out["result"]["correct"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: m["unit"] for k, m in out["result"]["metrics"].items()}
    called = {span for span in spans.SPAN_NAMES if metrics[f"{span}.calls"] > 0}
    assert called == CALLED[name]
    assert all(metrics[f"{span}.self_ms"] > 0 for span in called)
    # One traced unit: its self times partition part of its stage time.
    stage_ms = out["report"]["wall_stage_s_traced"]["median"] * 1e3
    assert sum(metrics[f"{span}.self_ms"] for span in spans.SPAN_NAMES
               if span != "tabular.load_csv") <= stage_ms
    spans.check_untraced()
    assert collector.mdcg is utility.mdcg


def test_layer_ratios_follow_the_counts():
    wide = {k: m["value"] for k, m in
            run.measure("collect-wide", 3, 0, True)["result"]["metrics"].items()}
    shape = TINY["collect-wide"]
    assert wide["collector.append_ratio"] == (
        (wide["utility.mdcg.calls"] - shape.total_episodes) / shape.items)
    assert wide["utility.mdcg.cols"] >= wide["utility.mdcg.calls"] * shape.cols
    pre = {k: m["value"] for k, m in
           run.measure("pretrain", 3, 0, True)["result"]["metrics"].items()}
    assert pre["encoder.stacks_per_batch"] == (
        pre["encoder.forward_stack.calls"] / pre["encoder.encode_many.calls"])
    assert pre["encoder.stacks_per_batch"] >= 1


@pytest.mark.parametrize("name", list(TINY))
def test_seed_fixes_the_hashes(name):
    first = run.measure(name, 5, 0, False)["report"]["hashes"]
    again = run.measure(name, 5, 0, False)["report"]["hashes"]
    other = run.measure(name, 6, 0, False)["report"]["hashes"]
    assert first == again
    assert all(first[k] != other[k] for k in first)


def test_wrong_utility_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(workloads.utility, "mdcg", lambda F, cfg: 0.5)
    assert run.main(["--workload", "collect-wide", "--seed", "1", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == workloads.UTILITY_SAMPLE


def test_rebound_layer_stops_the_run(monkeypatch):
    monkeypatch.setattr(collector, "mdcg", lambda F, cfg: 0.0)
    with pytest.raises(RuntimeError, match="neat.collector.mdcg"):
        run.measure("collect-wide", 1, 0, False)


def test_failing_stage_counts_every_item(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(collector, "_advance", broken)
    result = run.measure("collect-tall", 1, 0, False)["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == TINY["collect-tall"].items


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "pretrain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
