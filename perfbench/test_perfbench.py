"""The benchmark's own tests: smoke runs of every workload, and its files.

Run from the repository root: ``python3 -m pytest perfbench -q``.
Smoke runs use ``workloads.SMOKE`` and compute their scalar references
live, so they take seconds and never touch the stored reference data.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import reference  # noqa: E402
from workloads import SMOKE, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _run(tmp_path, workload, seed=1, trace=0, cwd=ROOT, script=None):
    script = script or os.path.join(HERE, "run.py")
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke", "--out", str(tmp_path)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert list(SMOKE) == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER
    ]
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == {
        "pages_per_s", "events_per_s", "setup_s", "peak_rss_mb"
    }
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("workload", list(SMOKE))
def test_smoke_run_is_correct_and_reports_every_metric(tmp_path, workload):
    result = _result(_run(tmp_path, workload))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(SMOKE))
def test_traced_run_passes_consistency_checks(tmp_path, workload):
    result = _result(_run(tmp_path, workload, trace=1))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        name: unit for name, unit, _ in layers.PER_LAYER
    }
    assert metrics["kernel.handle_fault.calls"]["value"] > 0
    assert metrics["sim.quantum.vectorized_share"]["value"] == 1.0
    assert metrics["mmu.make_walk_batch.unbatched"]["value"] == 0
    spans = tmp_path / f"spans-{workload}-seed1.npz"
    assert spans.stat().st_size > 0


def test_held_out_seed_changes_the_digest(tmp_path):
    digests = []
    for seed in (1, 2):
        for workload in SMOKE:
            result = _result(_run(tmp_path, workload, seed=seed))
            assert result["failed"] == 0
        digests.append([
            json.loads((tmp_path / f"result-{w}-seed{seed}-trace0.json").read_text())["digest"]
            for w in SMOKE
        ])
    assert all(a != b for a, b in zip(*digests))


def test_fails_without_simulator_sources(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare / "BENCHMARK.json")
    proc = _run(tmp_path, "populate", cwd=bare, script=str(bare / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_recorder_restores_every_wrapped_attribute():
    import importlib

    def current():
        out = []
        for target in layers.TARGETS:
            owner = importlib.import_module(target.module)
            if target.owner:
                owner = getattr(owner, target.owner)
            out.append(vars(owner)[target.attr])
        return out

    before = current()
    with layers.SpanRecorder():
        assert all(a is not b for a, b in zip(before, current()))
    assert all(a is b for a, b in zip(before, current()))


def test_self_time_subtracts_children():
    recorder = layers.SpanRecorder()
    # Two spans: a parent of 10 ns containing a child of 4 ns.
    for name, parent, start, end in ((0, -1, 0, 10), (1, 0, 3, 7)):
        recorder._name.append(name)
        recorder._cell.append(0)
        recorder._parent.append(parent)
        recorder._start.append(start)
        recorder._end.append(end)
    stats = recorder.span_stats()
    parent, child = layers.SPAN_NAMES[0], layers.SPAN_NAMES[1]
    assert stats[parent]["s"] == pytest.approx(10e-9)
    assert stats[parent]["self_s"] == pytest.approx(6e-9)
    assert stats[child]["self_s"] == pytest.approx(4e-9)


def test_stored_references_match_the_workload_definitions():
    for workload in WORKLOADS.values():
        path = os.path.join(reference.REFERENCE_DIR, f"{workload.name}.json")
        with open(path, encoding="utf-8") as handle:
            stored = json.load(handle)
        assert stored["fingerprint"] == reference.canonical(workload.fingerprint())
        assert stored["seeds"], workload.name
