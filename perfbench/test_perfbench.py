"""Self-check of the benchmark at tiny sizes: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json

import pytest

import run
import spans
import workloads

TINY = {
    "intraop-register": workloads.RegisterSizes(n_markers=6, scenes=3, traced_scenes=2),
    "ct-prep": workloads.CtPrepSizes(dims=(48, 48, 48), body_radii=(21.0, 19.0, 20.0),
                                     bone_edge=8),
    "mc-sweep": workloads.SweepSizes(marker_counts=(3, 4), trials_per_cell=1),
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "bytes")


def _run(name, trace, seed=5):
    line, report = run.run(name, seed, 0.01, trace, sizes=TINY[name])
    json.dumps(line)  # the printed line must serialise
    return line, report


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_reported_with_its_unit(name):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        line, _ = _run(name, trace)
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
        assert all(isinstance(v["value"], float) for v in line["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_layer_counts_repeat_for_a_seed(name):
    def counts():
        line, _ = _run(name, True)
        return {k: v["value"] for k, v in line["metrics"].items() if v["unit"] in COUNT_UNITS}

    first = counts()
    assert any(first.values())
    assert counts() == first


@pytest.mark.parametrize("name", sorted(TINY))
def test_child_self_time_within_parent_duration(name):
    _, report = _run(name, True)
    rows = [json.loads(line) for line in
            (run.ROOT / report["spans_file"]).read_text().splitlines()]
    assert rows
    table = [[r["name"], r["start_s"], r["end_s"], r["parent"], r["op"], r["counts"]]
             for r in rows]
    selfs = spans.self_times(table)
    for row, self_s in zip(rows, selfs):
        assert self_s >= -1e-9
        if row["parent"] >= 0:
            parent = rows[row["parent"]]
            assert self_s <= parent["end_s"] - parent["start_s"]
            assert parent["start_s"] <= row["start_s"] <= row["end_s"] <= parent["end_s"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_span_self_time_is_reported(name):
    """The per-layer times add up to all traced self time: none goes missing."""
    line, report = _run(name, True)
    rows = [json.loads(text) for text in
            (run.ROOT / report["spans_file"]).read_text().splitlines()]
    table = [[r["name"], r["start_s"], r["end_s"], r["parent"], r["op"], r["counts"]]
             for r in rows]
    traced = sum(spans.self_times(table)) / report["operations"]
    reported = sum(v["value"] for v in line["metrics"].values() if v["unit"] == "s")
    assert reported == pytest.approx(traced, rel=1e-9)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert workloads.tail_percentile(list(range(19)))[0] == 50.0
    assert workloads.tail_percentile(list(range(40)))[0] == 75.0
    level, value = workloads.tail_percentile(list(range(100)))
    assert level == 90.0 and value == pytest.approx(89.1)
