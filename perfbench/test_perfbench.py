"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench

They check the benchmark, not the program: every metric is reported with
its unit, a bypassed entry point and injected numeric faults are counted
as failures, and traced self times are consistent with their spans.
"""

import dataclasses
import json
import math
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import harness  # noqa: E402
from ibpdgm import bbvi, training  # noqa: E402

TINY = {
    "c6-train": dict(n=100, d=12, k=4, h=8, b=25, s=4, epochs=3, gen_n=5),
    "mnist-train": dict(n=60, d=16, c=3, k=4, h=8, b=20, s=2, lr=1e-2,
                        labeled_fraction=0.1, epochs=3, gen_n=5),
}


def tiny(name):
    return dataclasses.replace(harness.WORKLOADS[name], **TINY[name])


def run(tmp_path, name, trace, faults=()):
    return harness.run(tiny(name), 3, 1, trace, str(tmp_path), 1, faults)


def benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_harness():
    spec = benchmark_json()
    assert {w["name"] for w in spec["workloads"]} == set(harness.WORKLOADS)
    for key, table in (("end_to_end", harness.END_TO_END),
                       ("per_layer", harness.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == table
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(tmp_path, name, trace):
    result, record = run(tmp_path, name, trace)
    table = harness.PER_LAYER if trace else harness.END_TO_END
    assert set(result["metrics"]) == set(table)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == table[metric][0]
        assert isinstance(entry["value"], (int, float)), metric
        assert math.isfinite(entry["value"]), metric
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    env = record["environment"]
    assert env["seed"] == 3 and env["workload"]["name"] == name
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in table)
    # every time is measured (never 0), except the overhead, a difference
    positive = [m for m, (unit, _) in table.items()
                if unit in ("s", "ms") and m != "trace.overhead_ms"]
    assert all(result["metrics"][m]["value"] > 0 for m in positive)


def test_bypassed_entry_point_is_a_failure(tmp_path):
    # training calls the estimator through a copy of the module, which the
    # benchmark's hooks do not see: the call counts must not match
    copy = types.SimpleNamespace(**vars(bbvi))
    result, record = run(tmp_path, "c6-train", 0, faults=[(training, "bbvi", copy)])
    assert not result["correct"] and result["failed"] >= 1
    assert any("bypassed" in p for p in record["problems"])


def _faulty_estimator(at_call, action):
    state = {"calls": 0}

    def factory():
        original = bbvi.estimate_elbo_and_grads

        def faulty(*args, **kwargs):
            state["calls"] += 1
            if state["calls"] == at_call and action == "raise":
                raise bbvi.NumericError("recon", "injected")
            bd = original(*args, **kwargs)
            if state["calls"] == at_call:
                bd.total = float("nan")
            return bd
        return faulty
    return factory


@pytest.mark.parametrize("trace", [0, 1])
def test_injected_nonfinite_row_counts_as_failed(tmp_path, trace):
    w = tiny("mnist-train")
    first_metrics_call = harness.steps_per_epoch(w) + 1
    fault = _faulty_estimator(first_metrics_call, "nan")
    result, record = run(tmp_path, "mnist-train", trace,
                         faults=[(bbvi, "estimate_elbo_and_grads", fault())])
    assert not result["correct"] and result["failed"] >= 1
    assert any("non-finite" in p for p in record["problems"])
    if trace:
        assert result["metrics"]["ops_failed_frac"]["value"] > 0


def test_numeric_error_is_counted_not_raised(tmp_path):
    fault = _faulty_estimator(3, "raise")
    result, record = run(tmp_path, "c6-train", 0,
                         faults=[(bbvi, "estimate_elbo_and_grads", fault())])
    assert not result["correct"] and result["failed"] >= 1
    assert any("NumericError" in p for p in record["problems"])


def test_traced_self_times_are_consistent(tmp_path):
    result, record = run(tmp_path, "mnist-train", 1)
    with open(tmp_path / record["detail"]["spans_file"]) as fh:
        spans = [json.loads(line) for line in fh]
    assert spans and result["metrics"]["trace.spans"]["value"] == len(spans)
    children = {}
    for s in spans:
        assert s["end"] >= s["start"]
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            assert s["op"] == parent["op"]
            children.setdefault(s["parent"], []).append(s)
    for pid, kids in children.items():
        kids.sort(key=lambda s: s["start"])
        for a, b in zip(kids, kids[1:]):
            assert a["end"] <= b["start"], "sibling spans overlap"
        parent = spans[pid]
        self_time = (parent["end"] - parent["start"]) - sum(k["end"] - k["start"]
                                                            for k in kids)
        assert self_time >= 0.0
    # the estimator's self time is its duration minus its direct children
    est = [s for s in spans if s["name"] == harness.ESTIMATOR]
    own = sum((s["end"] - s["start"]) - sum(k["end"] - k["start"]
                                            for k in children.get(s["id"], []))
              for s in est)
    assert result["metrics"]["bbvi.estimate.self_s"]["value"] == pytest.approx(own)


def test_speed_correction_scales_by_the_nearby_probes():
    # the CPU runs at half speed for the second half: its calls take twice
    # as long and so do the probes around them
    ref = harness.PROBE_REF_S
    timed = [(1.0, ref)] * 10 + [(2.0, 2 * ref)] * 10
    fixed = harness.corrected(timed)
    assert fixed[:5] == [1.0] * 5 and fixed[-5:] == [1.0] * 5


def test_steps_leave_the_probes_out(tmp_path):
    w = dataclasses.replace(tiny("c6-train"), epochs=2)
    per_epoch = harness.steps_per_epoch(w) + 1
    ref = harness.PROBE_REF_S
    # each call: probe 0.5 s from start to entry, 2 s in the estimator, 1 s
    # of clip and Adam after it; every probe reads twice the reference
    calls, t = [], 0.0
    for _ in range(2 * per_epoch):
        calls.append((t, t + 0.5, t + 2.5))
        t += 3.5
    ends = [calls[per_epoch - 1][2] + 0.25, calls[-1][2] + 0.25]
    trial = harness.Trial(0.0, calls, ends, [], [2 * ref] * len(calls))
    steps, raw, metrics_s, epochs = harness.trial_times(w, trial)
    assert raw == [3.0] * (2 * (per_epoch - 1))
    assert steps == [1.5] * len(raw)
    assert metrics_s == [1.125, 1.125]
    # an epoch: per_epoch calls of 3.5 s less their 0.5 s probes, halved
    assert epochs == [pytest.approx(per_epoch * 3.0 / 2)]
