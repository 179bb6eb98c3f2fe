"""A dimension or trial count too large to allocate is refused as a configuration error.

Each command runs in a subprocess whose address space is capped at 2 GiB, so
a refusal that came too late would end in a MemoryError traceback there
instead of taking the host's memory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import psitomo
from psitomo.cli import EXIT_CONFIG, EXIT_OK

resource = pytest.importorskip("resource")

CAP = 2 << 30
HUGE = "1000000000000"


def _capped():
    resource.setrlimit(resource.RLIMIT_AS, (CAP, CAP))


@pytest.mark.parametrize("argv", [
    ["sweep", "--dim", HUGE, "--seed", "1"],
    ["sweep", "--dim", HUGE, "--pipeline", "frames", "--seed", "1"],
    ["simulate", "--dim", HUGE, "--seed", "1"],
], ids=["sweep-outcomes", "sweep-frames", "simulate"])
def test_huge_dimension_exits_2_under_a_memory_cap(tmp_path, argv):
    src = str(Path(psitomo.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "psitomo.cli", *argv, "--out-dir",
                           str(tmp_path)], env=env, capture_output=True, text=True,
                          preexec_fn=_capped, timeout=60)
    assert done.returncode == EXIT_CONFIG, done.stderr
    assert done.stderr.startswith(f"error: qudit dimension {HUGE} is too large: "), done.stderr
    assert not any(tmp_path.iterdir())


def test_an_outcome_sweep_allocates_no_camera_image_under_a_memory_cap(tmp_path):
    """At d = 70000 the standard layout's 128-row image would not fit under
    the cap; an outcome sweep never builds it."""
    src = str(Path(psitomo.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "psitomo.cli", "sweep", "--dim", "70000",
                           "--trials", "2", "--photons", "1e6", "--seed", "1", "--out-dir",
                           str(tmp_path)], env=env, capture_output=True, text=True,
                          preexec_fn=_capped, timeout=60)
    assert done.returncode == EXIT_OK, done.stderr
    assert json.loads((tmp_path / "summary.json").read_text())["n_trials"] == 2


@pytest.mark.parametrize("width", [HUGE, str(10**30)], ids=["1e12", "1e30"])
def test_a_frames_optical_block_too_large_to_allocate_exits_2_under_a_memory_cap(tmp_path,
                                                                                   width):
    """A frames sweep whose optical config's image cannot be allocated is refused
    when its spec is built, before any file is written."""
    config = tmp_path / "optical.json"
    config.write_text(json.dumps({"pipeline": "frames", "reference_mode": "fixed", "optical": {
        "n_slits": 2, "ref_index": 0, "image_dims": [16, int(width)],
        "roi_layout": [[0, 0, 10, 16], [30, 0, 10, 16]], "envelope_kind": "sinc"}}))
    out = tmp_path / "out"
    src = str(Path(psitomo.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "psitomo.cli", "sweep", "--config", str(config),
                           "--seed", "1", "--out-dir", str(out)], env=env, capture_output=True,
                          text=True, preexec_fn=_capped, timeout=60)
    assert done.returncode == EXIT_CONFIG, done.stderr
    assert done.stderr == (f"error: {config}: the optical config is too large: its 16x{width} "
                           "image cannot be allocated\n")
    assert not any(out.iterdir())


@pytest.mark.parametrize("source", ["bloch", "haar"])
def test_a_trial_count_too_large_to_allocate_exits_2_under_a_memory_cap(tmp_path, source):
    """run_batch could not hold the fidelities of 10**30 trials, so the count is
    refused in one line that names it, before any state is drawn or file written."""
    count = 10**30
    src = str(Path(psitomo.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "psitomo.cli", "sweep", "--dim", "2",
                           "--source", source, "--trials", str(count), "--seed", "1",
                           "--out-dir", str(tmp_path)], env=env, capture_output=True, text=True,
                          preexec_fn=_capped, timeout=30)
    assert done.returncode == EXIT_CONFIG, done.stderr
    assert done.stderr == (f"error: the trial count is too large: its {count} fidelities "
                           "cannot be allocated\n")
    assert not any(tmp_path.iterdir())
