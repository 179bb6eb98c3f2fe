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


@pytest.mark.parametrize("flag", ["--photons", "--jitter"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_sweep_rejects_non_finite_noise(tmp_path, flag, value):
    args = ["sweep", "--dim", "3", "--trials", "5", "--seed", "1", flag, value]
    assert main(args + ["--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert not (tmp_path / "summary.json").exists()
    assert not (tmp_path / "trials.csv").exists()


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


@pytest.mark.parametrize(
    "sweep, rows_kept",
    [(["--source", "haar"], 16), (["--source", "bloch"], 15)],
    ids=["haar-source", "rows-dropped"],
)
def test_figure_bloch_needs_the_whole_bloch_sweep(tmp_path, sweep, rows_kept):
    """The markers sit at the lattice points of trials 0..n-1, so the CSV must
    be every row of a Bloch-lattice sweep, as its summary.json says."""
    out = tmp_path / "sweep"
    assert main(["sweep", "--dim", "2", "--trials", "16", "--seed", "1", *sweep,
                 "--out-dir", str(out)]) == EXIT_OK
    csv_path = out / "trials.csv"
    lines = csv_path.read_text().splitlines(keepends=True)
    csv_path.write_text("".join(lines[: 1 + rows_kept]))
    code = main(["figure", "--mode", "bloch", "--csv", str(csv_path), "--out-dir", str(out)])
    assert code == EXIT_CONFIG
    assert not (out / "figure.svg").exists()


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


def test_sweep_rejects_config_optics_with_wrong_slit_count(tmp_path):
    optical = OpticalConfig.for_dim(5)
    cfg = {
        "dim": 3,
        "trials": 5,
        "pipeline": "frames",
        "reference_mode": "fixed",
        "optical": {
            "n_slits": optical.n_slits,
            "ref_index": optical.ref_index,
            "image_dims": list(optical.image_dims),
            "roi_layout": [list(r) for r in optical.roi_layout],
            "ref_envelope": list(optical.ref_envelope),
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--seed", "1", "--out-dir", str(out)]) == (
        EXIT_CONFIG
    )
    assert not (out / "trials.csv").exists()


@pytest.mark.parametrize(
    "pipeline, bad",
    [
        ("outcomes", {"ref_envelope": [1.0, float("nan"), 0.5]}),
        ("frames", {"envelope_width": 0.0}),
        ("frames", {"envelope_width": float("nan")}),
    ],
    ids=["nan-envelope", "zero-width", "nan-width"],
)
def test_sweep_rejects_config_optics_with_invalid_envelope(tmp_path, pipeline, bad):
    optical = OpticalConfig.for_dim(3)
    block = {
        "n_slits": optical.n_slits,
        "ref_index": optical.ref_index,
        "image_dims": list(optical.image_dims),
        "roi_layout": [list(r) for r in optical.roi_layout],
        "ref_envelope": list(optical.ref_envelope),
        **bad,
    }
    cfg = {"dim": 3, "trials": 5, "pipeline": pipeline, "reference_mode": "fixed",
           "optical": block}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--seed", "1", "--out-dir", str(out)]) == (
        EXIT_CONFIG
    )
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "cfg",
    [
        {"noise": {"photons": 1e5, "jitter": 0.1}},
        {"noise": {"photons_per_frame": 1e5}, "tau": 0.0},
        {"noise": [1e5]},
        [3, 5],
    ],
    ids=["noise-keys", "top-level-key", "noise-not-object", "config-not-object"],
)
def test_sweep_rejects_unknown_config_keys(tmp_path, cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--seed", "1", "--out-dir", str(out)]) == (
        EXIT_CONFIG
    )
    assert not (out / "trials.csv").exists()


@pytest.mark.parametrize("declared, code", [([1.0, 1.0, 1.0], EXIT_CONFIG), (None, EXIT_OK)])
def test_sweep_config_optics_envelope_follows_roi_spacing(tmp_path, declared, code):
    """ROIs 200 px apart: a sinc envelope of (1, 1, 1) is not the one this
    layout gives, and without a declared envelope every slit stays lit, so
    noiseless adaptive frames trials all reconstruct."""
    block = {
        "n_slits": 3,
        "ref_index": 0,
        "image_dims": [128, 700],
        "roi_layout": [[100, 56, 10, 16], [300, 56, 10, 16], [500, 56, 10, 16]],
        "envelope_kind": "sinc",
    }
    if declared is not None:
        block["ref_envelope"] = declared
    cfg = {"dim": 3, "trials": 6, "pipeline": "frames", "reference_mode": "adaptive",
           "optical": block}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--seed", "1", "--out-dir", str(out)]) == code
    if code == EXIT_CONFIG:
        assert not (out / "summary.json").exists()
    else:
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_failed"] == 0
        assert summary["mean_fidelity"] > 1.0 - 1e-9


@pytest.mark.parametrize("pipeline", ["outcomes", "frames"])
@pytest.mark.parametrize(
    "mode, optics",
    [
        ("fixed", OpticalConfig.for_dim(3).with_reference(2)),
        ("extra_slit", OpticalConfig.for_dim(3, extra_reference=True).with_reference(0)),
    ],
    ids=["fixed-reference-2", "extra_slit-reference-0"],
)
def test_sweep_rejects_config_optics_whose_reference_contradicts_the_mode(
    tmp_path, pipeline, mode, optics
):
    block = {
        "n_slits": optics.n_slits,
        "ref_index": optics.ref_index,
        "image_dims": list(optics.image_dims),
        "roi_layout": [list(r) for r in optics.roi_layout],
        "envelope_kind": optics.envelope_kind,
    }
    cfg = {"dim": 3, "trials": 4, "pipeline": pipeline, "reference_mode": mode, "optical": block}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--seed", "1", "--out-dir", str(out)]) == (
        EXIT_CONFIG
    )
    assert not (out / "trials.csv").exists()
    assert not (out / "summary.json").exists()


def _state_file(where, text):
    (where / "in.json").write_text(text)
    return ["simulate", "--state-file", str(where / "in.json"), "--seed", "1"]


def _outcomes_file(where, text):
    (where / "in.json").write_text(text)
    return ["reconstruct", "--outcomes", str(where / "in.json")]


def _sweep_config(where, text):
    (where / "in.json").write_text(text)
    return ["sweep", "--config", str(where / "in.json"), "--seed", "1"]


def _frame_sidecar(where, text):
    frames = render_frames(haar_random(2, seed=1), OpticalConfig.for_dim(2), seed=1)
    save_frames(where, frames, seed=1)
    (where / "frame_2.json").write_text(text)
    return ["reconstruct", "--frames-dir", str(where)]


def _bloch_summary(where, text):
    assert main(["sweep", "--dim", "2", "--source", "bloch", "--trials", "4", "--seed", "1",
                 "--out-dir", str(where)]) == EXIT_OK
    (where / "summary.json").write_text(text)
    return ["figure", "--mode", "bloch", "--csv", str(where / "trials.csv")]


@pytest.mark.parametrize(
    "write, text",
    [
        (_state_file, "[1]"),
        (_state_file, '{"dim": 2, "re": {"0": 1}, "im": [0, 0]}'),
        (_outcomes_file, "[1]"),
        (_outcomes_file, '{"dim": [2], "ref_index": 0, "populations": [1, 0], '
                         '"interference": [[0.5, 0.5, 0.5]]}'),
        (_sweep_config, "[3, 5]"),
        (_sweep_config, '{"dim": [3]}'),
        (_sweep_config, '{"trials": {"n": 3}}'),
        (_sweep_config, '{"noise": [1e5]}'),
        (_sweep_config, '{"noise": {"photons_per_frame": [1]}}'),
        (_sweep_config, '{"optical": [1, 2]}'),
        (_sweep_config, '{"optical": {"n_slits": [3]}}'),
        (_sweep_config, "{"),
        (_frame_sidecar, "[1]"),
        (_frame_sidecar, '{"step": 2, "n_slits": 2, "ref_index": 0, "image_dims": [128, 120], '
                         '"roi": 3}'),
        (_bloch_summary, "[1]"),
    ],
    ids=["state-list", "state-re-object", "outcomes-list", "outcomes-dim-list", "config-list",
         "config-dim-list", "config-trials-object", "noise-list", "noise-value-list",
         "optical-list", "optical-slits-list", "config-truncated", "sidecar-list",
         "sidecar-roi-number", "summary-list"],
)
def test_json_input_of_the_wrong_shape_is_a_config_error(tmp_path, capsys, write, text):
    """Every JSON file the CLI reads: a value of the wrong shape exits 2 with
    an error line, not a traceback, and writes no output."""
    given = tmp_path / "given"
    given.mkdir()
    argv = write(given, text)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())
