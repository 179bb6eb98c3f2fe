"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest benchmarks/tests -q

Runs every workload untraced and traced, checks that every metric is printed
with its unit, and that each correctness check fires on a deliberately wrong
output.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import psitomo  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from psitomo import cli, harness  # noqa: E402
from psitomo.errors import DegenerateFringe  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The workload-specific names each workload prints besides the shared ones.
OWN_METRICS = {
    "outcomes-d14": {"trials_per_s": "1/s"},
    "frames-d14": {"trials_per_s": "1/s"},
    "calibrate-d2": {"wall_s": "s"},
    "acquire-d14": {"acq_ms_p50": "ms", "acq_ms_p90": "ms"},
}


@pytest.fixture(autouse=True)
def bench_out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)


def tiny_run(name, trace=0):
    return run.run_benchmark(name, 3, 0.05, trace, tiny=True)


def printed(record, capsys):
    run.report(record)
    return capsys.readouterr().out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics_printed_with_units(name, capsys):
    record, summary = tiny_run(name)
    assert summary["correct"], record["failures"]
    assert summary["attempted"] >= 1 and summary["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == want
    assert all(v["value"] > 0 for v in summary["metrics"].values())
    out = printed(record, capsys)
    for metric, unit in {**want, **OWN_METRICS[name], "fail_frac": "frac"}.items():
        assert any(line.split()[:1] == [metric] and line.endswith(unit)
                   for line in out.splitlines()), metric
    assert record["seed"] == 3 and record["host"]["nproc"] >= 1


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_per_layer_metrics_printed_with_units(name, capsys):
    record, summary = tiny_run(name, trace=1)
    assert summary["correct"], record["failures"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == want
    assert all(v["value"] is not None for v in summary["metrics"].values())
    out = printed(record, capsys)
    for metric, unit in want.items():
        assert any(line.split()[:1] == [metric] and line.endswith(unit)
                   for line in out.splitlines()), metric
    assert len(record["profile_top10"]) == 10
    # Every layer the issue names is covered, and the wrappers are gone again.
    assert {k.split(".")[0] for k in want} >= set(run.FUNCTIONS)
    assert not hasattr(harness.run_batch, "__wrapped__")
    assert not hasattr(np.random.default_rng, "__wrapped__")


def test_layer_counts_repeat_exactly():
    first = tiny_run("outcomes-d14", trace=1)[1]["metrics"]
    second = tiny_run("outcomes-d14", trace=1)[1]["metrics"]
    assert first["states.normalize.calls"]["value"] == 2.0
    for name, m in first.items():
        if m["unit"].startswith("count"):
            assert second[name]["value"] == m["value"], name


def test_absent_name_is_null_not_zero(monkeypatch):
    monkeypatch.delattr(psitomo.reconstruct, "circular_mean")
    metrics = tiny_run("outcomes-d14", trace=1)[1]["metrics"]
    assert metrics["reconstruct.circular_mean.calls"]["value"] is None
    assert metrics["reconstruct.circular_mean.self_frac"]["value"] is None


def wrong_state(real):
    """A reconstructor that returns the first basis state instead of the result."""

    def stub(*args, **kwargs):
        report = real(*args, **kwargs)
        basis = np.zeros(report.state.dim, dtype=complex)
        basis[0] = 1.0
        return dataclasses.replace(report, state=psitomo.PureState(basis))

    return stub


def failing(*args, **kwargs):
    raise DegenerateFringe("stubbed failure")


@pytest.mark.parametrize(
    "name, owner, attr, stub, message",
    [
        ("outcomes-d14", harness, "reconstruct_from_outcomes", "wrong", "mean fidelity"),
        ("frames-d14", harness, "reconstruct_from_frames", "wrong", "mean fidelity"),
        ("acquire-d14", cli, "reconstruct_from_frames", "wrong", "mean fidelity"),
        ("outcomes-d14", harness, "reconstruct_from_outcomes", failing, "fail_frac"),
        ("acquire-d14", cli, "reconstruct_from_frames", failing, "fail_frac"),
        ("outcomes-d14", harness, "fidelity", lambda a, b: 1.0, "reported fidelity"),
    ],
)
def test_check_fires_on_wrong_output(monkeypatch, name, owner, attr, stub, message):
    if stub == "wrong":
        stub = wrong_state(getattr(owner, attr))
    monkeypatch.setattr(owner, attr, stub)
    record, summary = tiny_run(name)
    assert not summary["correct"]
    assert any(message in f for f in record["failures"]), record["failures"]


def test_calibration_tolerance_check_fires(monkeypatch):
    real = harness.calibrate_noise

    def off_target(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), achieved_mean_fidelity=0.9)

    monkeypatch.setattr(harness, "calibrate_noise", off_target)
    record, summary = tiny_run("calibrate-d2")
    assert not summary["correct"]
    assert any("calibration reached" in f for f in record["failures"])


def test_determinism_check_fires(monkeypatch):
    real = cli.run_batch

    def order_depends_on_workers(spec, workers=1):
        stats = real(spec, workers)
        if workers > 1:
            stats = dataclasses.replace(stats, trials=stats.trials[::-1])
        return stats

    monkeypatch.setattr(cli, "run_batch", order_depends_on_workers)
    record, summary = tiny_run("calibrate-d2")
    assert not summary["correct"]
    assert any("trials.csv differs" in f for f in record["failures"])


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "outcomes-d14",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
