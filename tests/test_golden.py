"""The benchmark's seed-1 outputs, pinned.

Each workload of ``bench/workloads.py`` runs once at seed 1, as one unit of
``bench/run.py --seed 1`` does, and its output hashes must equal the digests
below, also when a stage runs a second time on the same inputs. A change
that moves a hash on purpose edits the digest here and says why.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

SEED_1_HASHES = {
    "collect-tall": {
        "records_sha256": "5974f74d44a8f8ebea56abd657752bbddd2a80b8a3681feca5ffc5198e665c14",
    },
    "collect-wide": {
        "records_sha256": "9770f75a4f9a8df9260636d7fb1c966932dc62b3011da32bad280e17d11899ce",
    },
    "pretrain": {
        "loss_log_sha256": "85c949196c4de8f425d4a371414837ae3f114738861ad32a919bffa9377e9f2c",
        "records_sha256": "3dc1828e52299264f503dc65f35e7ff27010aa78df622e98b6c032152a2be4e5",
    },
}


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


@pytest.mark.parametrize("name", sorted(SEED_1_HASHES))
def test_seed_1_outputs_keep_their_hashes(workloads, tmp_path, name):
    spec = workloads.WORKLOADS[name]
    inp = spec.setup(1, tmp_path)
    out = spec.outcome(inp, spec.stage(inp))
    assert out.problems == []
    assert out.hashes == SEED_1_HASHES[name]


@pytest.mark.parametrize("name", sorted(SEED_1_HASHES))
def test_a_second_stage_on_the_same_inputs_keeps_the_hashes(workloads, tmp_path, name):
    # The second stage finds every collect call's table already scored, and
    # rewrites the first stage's output files.
    spec = workloads.WORKLOADS[name]
    inp = spec.setup(1, tmp_path)
    spec.stage(inp)
    out = spec.outcome(inp, spec.stage(inp))
    assert out.problems == []
    assert out.hashes == SEED_1_HASHES[name]
