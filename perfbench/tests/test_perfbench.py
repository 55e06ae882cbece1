"""Self-test of the benchmark: every workload at a tiny size, fixed seed.

    python3 -m pytest perfbench/tests -q

Each workload runs once untraced and once traced, as subprocesses from the
root of the checkout, at ``--scale 0.1`` (corpora of 20 to 200 files).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
import speed  # noqa: E402

_runs: dict[tuple[str, int], tuple[dict, dict]] = {}


def run(workload: str, trace: int) -> tuple[dict, dict]:
    """(result line, report line) of one tiny run, cached per module."""
    key = (workload, trace)
    if key not in _runs:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
             "--scale", "0.1"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[-2].startswith("report ")
        _runs[key] = (json.loads(lines[-1]),
                      json.loads(lines[-2][len("report "):]))
    return _runs[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    result, report = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"], m["name"]
        assert isinstance(emitted["value"], float), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_self_times_fit_inside_the_traced_pass(workload):
    _, report = run(workload, 1)
    lines = (ROOT / report["spans_file"]).read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    tracer = spans.Tracer()
    for line in lines[1:]:
        s = json.loads(line)
        tracer.records.append([s["name"], s["start"], s["end"], s["parent"],
                               s["file"], s["items"]])
    assert tracer.records, "the traced pass recorded no spans"
    self_times = tracer.self_times()
    assert min(self_times) >= -1e-9
    assert sum(self_times) <= header["pass_wall_s"] + 1e-9
    assert {r[0] for r in tracer.records} <= set(spans.SPANS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_are_identical_across_runs_of_one_seed(workload):
    _, untraced_run = run(workload, 0)
    _, traced_run = run(workload, 1)
    assert untraced_run["sha256"] == traced_run["sha256"]


def test_out_of_subset_files_come_back_as_error_records():
    result, report = run("scan-mostly-clean", 0)
    counts = report["counts"]
    assert counts["out_of_subset_files"] > 0
    assert counts["error_records"] == counts["out_of_subset_files"]
    assert counts["files_scanned"] == (
        counts["error_records"] + counts["verdicts"])
    assert result["correct"] is True


def test_probed_list_probes_between_items_and_keeps_them():
    probe = speed.Probe()
    probe.sample()
    items = probe.units(["a", "b", "c"])
    seen = []
    for item in items:
        seen.append(item)
        time.sleep(speed.INTERVAL_S)
    assert seen == ["a", "b", "c"] and len(items) == 3
    assert len(probe.times) == 3          # the first item came too soon
    assert probe.spent == pytest.approx(sum(probe.times))


def test_reference_seconds_scale_by_the_typical_probe():
    probe = speed.Probe()
    probe.times = [2 * speed.REF_S] * 5 + [4 * speed.REF_S] * 4
    probe.times.append(100 * speed.REF_S)     # the slowest tenth is dropped
    assert probe.typical() == pytest.approx(26 / 9 * speed.REF_S)
    assert probe.reference_seconds(26 / 9) == pytest.approx(1.0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_pass_was_probed(workload):
    _, report = run(workload, 0)
    assert report["pass_probe_ms"] and min(report["pass_probe_ms"]) > 0
