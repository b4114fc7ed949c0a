"""Tests of the benchmark itself (not of kslab).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the default ``pytest`` collection of the
repository's suite; they start kslab child processes and take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import child  # noqa: E402
import run as bench  # noqa: E402


def _bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _expect_metrics(result, table):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _unit in table}
    for name, unit in table:
        entry = result["metrics"][name]
        assert entry["unit"] == unit
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_every_metric_emitted_with_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--max-steps", "5")
    table = bench.PER_LAYER if trace == "1" else bench.END_TO_END
    _expect_metrics(_result(proc), table)
    assert "failed_ratio:" in proc.stdout
    assert "env: nproc=" in proc.stdout


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(bench.END_TO_END)
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == set(bench.PER_LAYER)


def _layer_attributes():
    attrs = [(owner, attr) for owner, attr, _name in child.LAYERS]
    return attrs + [(child.kslab.harness, "mms_sources")]


@pytest.mark.parametrize("setup_only", [False, True])
def test_wrappers_are_restored(tmp_path, monkeypatch, setup_only):
    originals = [(o, a, o.__dict__[a]) for o, a in _layer_attributes()]
    (tmp_path / "cfg.ini").write_text("[run]\nscenario = constant_decay\nout_dir = out\n")
    monkeypatch.chdir(tmp_path)
    tracer = child.Tracer(enabled=True)
    code, stamps = child.execute(["run", "--config", "cfg.ini", "--max-steps", "3"],
                                 tracer, setup_only=setup_only)
    assert code == 0
    assert stamps["first_run_ns"] > 0
    names = {tracer.names[s[0]] for s in tracer.spans}
    assert "harness.load_config" in names
    assert ("solver.step" in names) is not setup_only
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{attr} left wrapped"


def test_self_time_subtracts_children(tmp_path):
    tracer = child.Tracer(enabled=True)
    tracer.names = ["outer", "inner"]
    tracer.spans = [[0, 0, 100, -1], [1, 10, 40, 0], [1, 50, 70, 0]]
    path = tmp_path / "rec.npz"
    child.write_record(path, tracer, {"first_run_ns": 1})
    stats, _counters = bench.layer_stats([path])
    assert stats["outer"]["self_ns"] == 50
    assert stats["inner"]["calls"] == 2 and stats["inner"]["self_ns"] == 50


@pytest.mark.parametrize("trace", ["0", "1"])
def test_injected_failure_counts_in_failed(trace):
    # chi = 1000 at cfl_safety = 1 on the stress inputs loses positivity
    # within a few steps, and kslab exits 2
    proc = _bench("--workload", "stress3d_dense", "--seed", "1", "--seconds", "1",
                  "--trace", trace, "--override", "solver.chi=1000",
                  "--override", "solver.cfl_safety=1.0")
    result = _result(proc)
    assert result["correct"] is False
    full_runs = proc.stdout.count("FAILED: run exited 2")
    assert full_runs >= (2 if trace == "1" else 1)
    assert result["failed"] == full_runs


def test_seeded_inputs_are_reproducible_and_distinct():
    a = bench.stress_inputs(5)
    b = bench.stress_inputs(5)
    c = bench.stress_inputs(6)
    assert a[0] == b[0] and (a[1] == b[1]).all()
    assert a[0] != c[0]
    for params, _n0, _c0 in (a, c):
        assert all(0.25 <= x <= 0.75 for x in params["center"])


def test_refuses_to_run_without_the_kslab_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench("--workload", "eq2d_small", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
