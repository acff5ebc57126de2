"""Smoke test of the benchmark harness: every workload at tiny sizes for a
few steps.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

import record_reference
import run
import spans
import workloads

DECLARED = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "cylinder_bulk": {"n_rho": 6, "n_theta": 8, "n_z": 4},
    "ball_coupled": {"n_rho": 5, "n_theta": 8, "n_phi": 5},
    "disk_snapshots": {"n_rho": 6, "n_theta": 8},
}


def tiny(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    every = 2 if w.snapshot_every else None
    return dataclasses.replace(w, dims=TINY[name], steps=5, snapshot_every=every)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_declared_metric_is_emitted_with_its_unit(name, trace):
    w = tiny(name)
    want = record_reference.reference_fingerprint(w, 3)
    result = run.measure(w, 3, 0.0, trace, want)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(got["value"]), metric["name"]
        if not trace:
            assert got["value"] > 0, metric["name"]
        if "self" in metric["name"]:
            assert got["value"] >= 0, metric["name"]


def test_gate_fails_on_a_perturbed_reference():
    w = tiny("ball_coupled")
    want = record_reference.reference_fingerprint(w, 1)
    assert workloads.compare(want, want) == []
    for index in range(4):
        bad = {name: list(values) for name, values in want.items()}
        bad["v"][index] *= 1 + 1e-6
        assert len(workloads.compare(want, bad)) == 1
    result = run.measure(w, 1, 0.0, False, bad)["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_gate_checks_the_final_snapshot(tmp_path):
    w = tiny("disk_snapshots")
    with spans.Recorder(False) as recorder:
        report = workloads.run(w, 1, tmp_path)
    want = workloads.fingerprint(recorder.system, recorder.fields)
    assert workloads.gate(w, recorder.system, recorder.fields, report, tmp_path, want) == []
    final = tmp_path / f"u_{w.steps:07d}.csv"
    lines = final.read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",0.5"
    final.write_text("\n".join(lines) + "\n")
    (tmp_path / "v_0000000.ppm").unlink()
    problems = workloads.gate(w, recorder.system, recorder.fields, report, tmp_path, want)
    assert any("u_0000005.csv" in p for p in problems)
    assert any("heatmaps" in p for p in problems)


def test_missing_attribute_omits_its_layer_with_a_note(monkeypatch):
    monkeypatch.delattr(spans.output, "write_timeseries")
    w = tiny("cylinder_bulk")
    record = run.measure(w, 1, 0.0, True, record_reference.reference_fingerprint(w, 1))
    assert record["result"]["correct"]
    assert "output.write_timeseries.s" not in record["result"]["metrics"]
    assert "output.write_snapshot.s" in record["result"]["metrics"]
    assert any("write_timeseries" in note for note in record["notes"])
