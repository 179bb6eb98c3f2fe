"""Command line interface tests.

Everything drives psitomo.cli.main directly so exit codes and files can be
checked without spawning subprocesses.
"""

import json

import numpy as np
import pytest

from psitomo import (
    OpticalConfig,
    PureState,
    exact_outcomes,
    fidelity,
    haar_random,
    normalize,
    render_frames,
    save_frames,
)
from psitomo.cli import (
    EXIT_CONFIG,
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_WEAK_REFERENCE,
    OUT_DIR_ENV,
    main,
)


def read_report_state(path):
    payload = json.loads(path.read_text())
    return PureState.from_dict(payload["state"])


def test_simulate_then_reconstruct_round_trip(tmp_path):
    out = str(tmp_path)
    assert main(["simulate", "--dim", "3", "--seed", "5", "--out-dir", out]) == EXIT_OK
    assert (tmp_path / "frame_0.pgm").exists()
    assert (tmp_path / "true_state.json").exists()

    code = main(
        ["reconstruct", "--frames-dir", out, "--report", "r.json", "--out-dir", out]
    )
    assert code == EXIT_OK
    truth = PureState.from_dict(json.loads((tmp_path / "true_state.json").read_text()))
    recon = read_report_state(tmp_path / "r.json")
    assert fidelity(truth, recon) >= 1.0 - 1e-6


def test_simulate_calibration_and_preview(tmp_path):
    out = str(tmp_path)
    code = main(
        [
            "simulate", "--dim", "2", "--seed", "8", "--calibration", "--preview",
            "--out-dir", out,
        ]
    )
    assert code == EXIT_OK
    steps = sorted(int(p.stem.split("_")[1]) for p in tmp_path.glob("frame_*.pgm"))
    assert steps == [0, 1, 2, 3, 4]
    assert (tmp_path / "preview.pgm").exists()


def test_simulate_requires_dim_or_state_file(tmp_path):
    assert main(["simulate", "--seed", "1", "--out-dir", str(tmp_path)]) == EXIT_CONFIG


def test_simulate_from_state_file_with_extra_slit(tmp_path):
    psi = haar_random(3, seed=9)
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(psi.to_dict()))
    out = str(tmp_path / "frames")
    code = main(
        [
            "simulate", "--state-file", str(state_path), "--extra-slit",
            "--seed", "4", "--out-dir", out,
        ]
    )
    assert code == EXIT_OK
    code = main(
        ["reconstruct", "--frames-dir", out, "--report", "rep.json", "--out-dir", out]
    )
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "frames" / "rep.json").read_text())
    embedded = PureState.from_dict(payload["state"])
    kept = normalize(embedded.amps[:3])
    assert fidelity(psi, kept) >= 1.0 - 1e-6
    assert payload["reference"] == 3


def test_reconstruct_from_outcomes_file(tmp_path):
    psi = haar_random(4, seed=12)
    out_path = tmp_path / "outcomes.json"
    out_path.write_text(json.dumps(exact_outcomes(psi).to_dict()))
    code = main(
        [
            "reconstruct", "--outcomes", str(out_path), "--report", "rep.json",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    recon = read_report_state(tmp_path / "rep.json")
    assert fidelity(psi, recon) >= 1.0 - 1e-10


def test_reconstruct_rejects_nan_outcomes(tmp_path):
    payload = exact_outcomes(haar_random(3, seed=13)).to_dict()
    payload["populations"][1] = float("nan")
    out_path = tmp_path / "outcomes.json"
    out_path.write_text(json.dumps(payload))
    assert "NaN" in out_path.read_text()
    code = main(
        [
            "reconstruct", "--outcomes", str(out_path), "--report", "rep.json",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_CONFIG
    assert not (tmp_path / "rep.json").exists()


def test_reconstruct_needs_exactly_one_input(tmp_path):
    assert main(["reconstruct", "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert (
        main(
            [
                "reconstruct", "--frames-dir", "x", "--outcomes", "y",
                "--out-dir", str(tmp_path),
            ]
        )
        == EXIT_CONFIG
    )


def test_weak_reference_exit_code(tmp_path):
    psi = normalize(np.array([0.0, 1.0]))
    out_path = tmp_path / "outcomes.json"
    out_path.write_text(json.dumps(exact_outcomes(psi).to_dict()))
    code = main(
        ["reconstruct", "--outcomes", str(out_path), "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_WEAK_REFERENCE


def test_degenerate_fringe_exit_code(tmp_path):
    psi = normalize(np.array([0.0, 1.0]))
    frames = render_frames(psi, OpticalConfig.for_dim(2), seed=1)
    save_frames(tmp_path, frames, seed=1)
    code = main(
        ["reconstruct", "--frames-dir", str(tmp_path), "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_DEGENERATE


def test_sweep_writes_deterministic_outputs(tmp_path):
    args = ["sweep", "--dim", "2", "--trials", "6", "--seed", "3", "--photons", "1e4"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(a)]) == EXIT_OK
    assert main(args + ["--out-dir", str(b), "--workers", "3"]) == EXIT_OK
    assert (a / "trials.csv").read_bytes() == (b / "trials.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_sweep_config_file_with_flag_override(tmp_path):
    cfg = {
        "dim": 3,
        "trials": 4,
        "pipeline": "outcomes",
        "noise": {"photons_per_frame": 5e3, "phase_step_jitter_sd": 0.02},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(
        [
            "sweep", "--config", str(cfg_path), "--trials", "5", "--seed", "2",
            "--out-dir", str(out),
        ]
    )
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["dim"] == 3
    assert summary["n_trials"] == 5  # the flag wins over the config file
    assert summary["photons_per_frame"] == 5e3


def test_figure_modes_and_determinism(tmp_path):
    out = tmp_path / "sweep"
    assert (
        main(
            [
                "sweep", "--dim", "2", "--source", "bloch", "--trials", "16",
                "--seed", "1", "--photons", "2e4", "--out-dir", str(out),
            ]
        )
        == EXIT_OK
    )
    csv_path = str(out / "trials.csv")
    for mode in ("hist", "bloch"):
        f1 = f"{mode}1.svg"
        f2 = f"{mode}2.svg"
        assert main(["figure", "--mode", mode, "--csv", csv_path, "--out", f1,
                     "--out-dir", str(out)]) == EXIT_OK
        assert main(["figure", "--mode", mode, "--csv", csv_path, "--out", f2,
                     "--out-dir", str(out)]) == EXIT_OK
        assert (out / f1).read_bytes() == (out / f2).read_bytes()
        assert (out / f1).read_text().startswith("<svg")


def test_figure_bloch_rejects_higher_dims(tmp_path):
    out = tmp_path / "sweep"
    assert (
        main(["sweep", "--dim", "3", "--trials", "4", "--seed", "1",
              "--out-dir", str(out)])
        == EXIT_OK
    )
    code = main(
        ["figure", "--mode", "bloch", "--csv", str(out / "trials.csv"),
         "--out-dir", str(out)]
    )
    assert code == EXIT_CONFIG


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "envout"))
    assert main(["sweep", "--dim", "2", "--trials", "3", "--seed", "6"]) == EXIT_OK
    assert (tmp_path / "envout" / "trials.csv").exists()


def test_missing_outcome_file_is_config_error(tmp_path):
    code = main(
        ["reconstruct", "--outcomes", str(tmp_path / "nope.json"),
         "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_CONFIG
