"""The benchmark's workloads: seeded input generation, the timed stage calls,
and the checks on their outputs.

A workload's inputs are a pure function of its seed. The program receives only
the generated table (a CSV read back with ``load_csv``) or, for pretraining, a
record file written with ``write_records``. Every unit of a run repeats the
same stage calls on the same inputs, so every unit must produce the same
hashes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from neat import checkpoint, collector, encoder, expr, tabular, utility

# Record utilities recomputed per collect run.
UTILITY_SAMPLE = 8


@dataclass
class Inputs:
    seed: int
    table: tabular.DataTable
    workdir: Path
    streams: tuple[int, ...]           # derived seeds: agents, corpus, rows, model, training
    corpus: list = field(default_factory=list)
    rows: tabular.RowSample | None = None

    @property
    def records_path(self) -> Path:
        return self.workdir / "records.tsv"


@dataclass
class Outcome:
    """What one unit produced, judged without timing."""

    items: int
    hashes: dict[str, str]             # must be the same for every unit of a run
    quality: dict[str, float]
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, items: int, problem: str) -> None:
        self.failed = min(self.items, self.failed + items)
        self.problems.append(problem)


def write_table(path: Path, rows: int, cols: int, seed: int) -> None:
    """N(0,1) features with a planted target y = x0*x1 + sin(x2) + noise."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(rows, cols))
    y = X[:, 0] * X[:, 1] + np.sin(X[:, 2]) + 0.1 * rng.normal(size=rows)
    lines = [",".join([f"x{i}" for i in range(cols)] + ["y"])]
    lines += [",".join(map(repr, row)) for row in np.column_stack([X, y]).tolist()]
    path.write_text("\n".join(lines) + "\n")


def _setup_table(rows: int, cols: int, seed: int, workdir: Path) -> Inputs:
    table_seed, *streams = np.random.SeedSequence(seed).generate_state(6).tolist()
    path = workdir / "table.csv"
    write_table(path, rows, cols, table_seed)
    table = tabular.load_csv(path, "y", "regression", dataset_id=f"bench-{seed}")
    return Inputs(seed, table, workdir, tuple(streams))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check_round_trip(out: Outcome, written, read_back) -> None:
    bad = sum(a.sequence != b.sequence or a.utility != b.utility
              for a, b in zip(written, read_back))
    bad += abs(len(written) - len(read_back))
    if bad:
        out.fail(out.items, f"{bad} record(s) differ after read_records")


@dataclass(frozen=True)
class CollectWorkload:
    """Q-agent exploration of one table by ``collects`` independent ``collect``
    calls; an item is one exploration step."""

    rows: int
    cols: int
    steps: int
    episodes: int                      # per collect call
    collects: int = 1

    @property
    def total_episodes(self) -> int:
        return self.collects * self.episodes

    @property
    def items(self) -> int:
        return self.total_episodes * self.steps

    def setup(self, seed: int, workdir: Path) -> Inputs:
        return _setup_table(self.rows, self.cols, seed, workdir)

    def stage(self, inp: Inputs):
        records = []
        for k in range(self.collects):
            records += collector.collect(inp.table, self.episodes, self.steps,
                                         rng=np.random.default_rng([inp.streams[0], k]))
        collector.write_records(inp.records_path, records, inp.table.dataset_id,
                                inp.seed, self.total_episodes, self.steps)
        back, _ = collector.read_records(inp.records_path)
        return records, back

    def outcome(self, inp: Inputs, result) -> Outcome:
        records, back = result
        utilities = np.array([r.utility for r in records])
        out = Outcome(self.items, {"records_sha256": _sha256(inp.records_path.read_bytes())}, {
            "best_utility": float(utilities.max()),
            "mean_utility": float(utilities.mean()),
        })
        if len(records) != self.items:
            out.fail(out.items, f"{len(records)} records for {self.items} steps")
        bad = int((~np.isfinite(utilities)).sum())
        if bad:
            out.fail(bad, f"{bad} non-finite record utilities")
        _check_round_trip(out, records, back)
        return out

    def verify(self, inp: Inputs, result, out: Outcome) -> None:
        """Recompute a seeded sample of record utilities from their sequences."""
        records, _ = result
        cfg = collector.CollectorConfig().utility
        pick = np.random.default_rng(inp.seed).choice(
            len(records), size=min(UTILITY_SAMPLE, len(records)), replace=False)
        bad = [int(i) for i in pick
               if utility.mdcg(expr.apply_sequence(records[i].sequence, inp.table), cfg)
               != records[i].utility]
        if bad:
            out.fail(len(bad), f"recomputed utility differs for records {bad}")


@dataclass(frozen=True)
class PretrainWorkload:
    """Contrastive pretraining on a random-cross corpus; an item is one
    record-epoch, counting the no-update pass as an epoch."""

    rows: int
    cols: int
    records: int
    max_crosses: int
    depth: int
    attr_rows: int
    epochs: int
    batch: int

    @property
    def items(self) -> int:
        return self.records * (self.epochs + 1)

    def setup(self, seed: int, workdir: Path) -> Inputs:
        inp = _setup_table(self.rows, self.cols, seed, workdir)
        rng = np.random.default_rng(inp.streams[1])
        originals = [expr.FeatureCross((expr.feature_token(j),)) for j in range(self.cols)]
        for i in range(self.records):
            crosses = [expr.random_cross(self.cols, self.depth, rng)
                       for _ in range(int(rng.integers(1, self.max_crosses + 1)))]
            # Utilities are not scored here: pretraining never reads them.
            inp.corpus.append(collector.ExplorationRecord(
                expr.CrossSequence.from_crosses(originals + crosses), 0.0, 0, i))
        collector.write_records(inp.records_path, inp.corpus, inp.table.dataset_id,
                                seed, 1, self.records)
        inp.rows = tabular.RowSample(
            tabular.sample_indices(self.rows, self.attr_rows, inp.streams[2]), inp.streams[2])
        return inp

    def _pretrain(self, inp: Inputs, records, epochs: int):
        model = encoder.EncoderModel(len(inp.rows.indices),
                                     np.random.default_rng(inp.streams[3]), hidden=64)
        result = encoder.pretrain(records, inp.table, model, inp.rows, epochs=epochs,
                                  batch=self.batch, rng=np.random.default_rng(inp.streams[4]))
        return model, result

    def stage(self, inp: Inputs):
        records, _ = collector.read_records(inp.records_path)
        model, result = self._pretrain(inp, records, self.epochs)
        checkpoint.save_checkpoint(inp.workdir / "encoder.ckpt", model.param_dict(),
                                   {"dataset_id": inp.table.dataset_id, "seed": str(inp.seed)})
        return records, model, result

    def outcome(self, inp: Inputs, result) -> Outcome:
        records, model, run = result
        kept = len(records) - run.skipped_records
        losses = run.losses
        out = Outcome(kept * (self.epochs + 1), {
            "loss_log_sha256": _sha256("\n".join(map(repr, losses)).encode()),
            "records_sha256": _sha256(inp.records_path.read_bytes()),
        }, {"final_loss": losses[-1], "skipped_ratio": run.skipped_records / len(records)})
        bad = sum(not math.isfinite(loss) for loss in losses)
        if bad:
            out.fail(kept * bad, f"{bad} non-finite epoch losses")
        if len(losses) != self.epochs + 1:
            out.fail(out.items, f"{len(losses)} epoch losses for {self.epochs} epochs")
        _check_round_trip(out, inp.corpus, records)
        params, _ = checkpoint.load_checkpoint(inp.workdir / "encoder.ckpt")
        saved = model.param_dict()
        if params.keys() != saved.keys() or any(
                not np.array_equal(params[k], saved[k]) for k in saved):
            out.fail(out.items, "checkpoint does not round-trip the model parameters")
        return out

    def verify(self, inp: Inputs, result, out: Outcome) -> None:
        """losses[0] must equal a fresh model's no-update pass on the same seed."""
        records, _, run = result
        _, fresh = self._pretrain(inp, records, 0)
        if fresh.losses[0] != run.losses[0]:
            out.fail(out.items, f"epoch-0 loss {run.losses[0]!r} != fresh pass {fresh.losses[0]!r}")


WORKLOADS = {
    # Single-episode calls explore at epsilon 1, so every seed does the same
    # number of mDCG calls (13 per call). In longer runs the greedy episodes
    # repeat actions, and the no-op count, and with it the mDCG work, varies
    # by about 12% between seeds.
    "collect-tall": CollectWorkload(rows=2000, cols=12, steps=16, episodes=1, collects=6),
    "collect-wide": CollectWorkload(rows=100, cols=32, steps=32, episodes=16),
    "pretrain": PretrainWorkload(rows=1000, cols=12, records=512, max_crosses=12, depth=3,
                                 attr_rows=64, epochs=10, batch=1024),
}
