"""Self-tests of the benchmark, on the two smallest ladder points.

    python3 -m pytest perfbench
"""

import json
from pathlib import Path

import pytest

import bench
from stackfp import env as envmod
from tracer import MissingSpanError

SMALL = bench.POINTS[:2]


def traced(workload: str, seed: int, workdir: Path):
    w = bench.WORKLOADS[workload]
    bench.generate(w, seed, workdir, points=SMALL)
    return bench.run_traced(w, seed, workdir, rounds=2)


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_traced_counts_repeat_for_a_seed(workload, tmp_path):
    runs = [traced(workload, 5, tmp_path / f"run{i}") for i in range(2)]
    units = dict(bench.PER_LAYER)
    exact = [k for k, u in units.items()
             if u == "count" or (u == "ratio" and not k.startswith("trace."))]
    first, second = (layer for _, _, layer in runs)
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert "env.dead_end_frac" in exact
    for tally, _, _ in runs:
        assert tally.failed == 0, tally.problems
    assert runs[0][0].digest() == runs[1][0].digest()


def test_vanished_function_fails_the_traced_run(tmp_path, monkeypatch):
    monkeypatch.delattr(envmod, "occupancy_grid")
    with pytest.raises(MissingSpanError, match="occupancy_grid"):
        traced("env-rollout", 5, tmp_path)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
