"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload untraced and traced on a few dozen small graphs and
checks that every metric named in BENCHMARK.json is emitted with its unit,
that nothing failed, and that the trace's spans nest.
"""

import json
import math
import os
import sys
from dataclasses import replace
from functools import partial

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import datasets  # noqa: E402
import harness  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

_TINY_DATA = {
    "train-mutag": partial(datasets.mutag_shaped, n_graphs=30, n_positive=20,
                           nodes=(6, 12), mean_nodes=8.5),
    "eval-mutag": partial(datasets.mutag_shaped, n_graphs=30, n_positive=20,
                          nodes=(6, 12), mean_nodes=8.5),
}


def tiny(name):
    workload = harness.WORKLOADS[name]
    config = replace(workload.config, epochs=1, keys=4, batch_size=8,
                     encoder_dims=(8, 8, 4))
    return replace(workload, make_data=_TINY_DATA[name], config=config)


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(harness.WORKLOADS)


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted(name, trace, tmp_path):
    result, _ = harness.run(tiny(name), seed=3, seconds=0.05, trace=trace,
                            trace_dir=str(tmp_path))
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in listed}
    for entry in listed:
        value = metrics[entry["name"]]
        assert value["unit"] == entry["unit"]
        assert math.isfinite(value["value"])
        if not trace:
            assert value["value"] > 0.0, entry["name"]
    if not trace:
        return
    assert metrics["failed_frac"]["value"] == 0.0
    spans_file = tmp_path / f"trace-{name}-seed3.jsonl"
    spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
    assert spans
    for span in spans:
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start_us"] <= span["start_us"] <= span["end_us"] \
                <= parent["end_us"]
            assert parent["unit"] == span["unit"]
    training_layers = [m for m in metrics
                       if m.startswith(("tensor.", "training."))]
    if name == "eval-mutag":
        assert all(metrics[m]["value"] == 0.0 for m in training_layers)
    else:
        assert all(metrics[m]["value"] > 0.0 for m in training_layers)


def test_generators_are_deterministic():
    for make in _TINY_DATA.values():
        first, second = make(7), make(7)
        assert [g.adjacency.tobytes() for g in first.graphs] == \
            [g.adjacency.tobytes() for g in second.graphs]
        assert first.labels.tobytes() == second.labels.tobytes()


def test_mutag_size_profile():
    bundle = datasets.mutag_shaped(5)
    nodes = [g.adjacency.shape[0] for g in bundle.graphs]
    assert len(nodes) == datasets.MUTAG_GRAPHS
    assert int(bundle.labels.sum()) == datasets.MUTAG_POSITIVE
    assert min(nodes) >= 10 and max(nodes) == 28
    assert abs(sum(nodes) / len(nodes) - datasets.MUTAG_MEAN_NODES) < 0.01


def test_tail_percentile_keeps_ten_samples_beyond():
    assert harness.tail_percentile(5000) == 99.0
    assert harness.tail_percentile(200) == pytest.approx(95.0)
