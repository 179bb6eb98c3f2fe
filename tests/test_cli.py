"""Command line interface tests.

Everything drives psitomo.cli.main directly so exit codes and files can be
checked without spawning subprocesses.
"""

import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

import psitomo
from psitomo import (
    OpticalConfig,
    PureState,
    exact_outcomes,
    fidelity,
    haar_random,
    load_frames,
    normalize,
    reconstruct_from_frames,
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


def test_library_reads_a_saved_calibrated_set_as_the_cli_does(tmp_path):
    """The loaded five-frame set, passed whole, gives the report the CLI writes."""
    out = str(tmp_path)
    code = main(["simulate", "--dim", "4", "--seed", "3", "--calibration", "--out-dir", out])
    assert code == EXIT_OK
    assert main(["reconstruct", "--frames-dir", out, "--out-dir", out]) == EXIT_OK
    frames = load_frames(out)
    assert [f.step_index for f in frames] == [0, 1, 2, 3, 4]
    report = json.loads((tmp_path / "report.json").read_text())
    assert reconstruct_from_frames(frames).to_dict() == report


def test_simulate_requires_dim_or_state_file(tmp_path, capsys):
    capsys.readouterr()
    assert main(["simulate", "--seed", "1", "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "need --dim when no --state-file is given" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_simulate_refuses_a_dim_the_state_file_contradicts(tmp_path, capsys):
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(haar_random(3, seed=9).to_dict()))
    capsys.readouterr()
    code = main(["simulate", "--state-file", str(state_path), "--dim", "4", "--seed", "4",
                 "--out-dir", str(tmp_path / "frames")])
    assert code == EXIT_CONFIG
    assert "--dim disagrees with the state file" in capsys.readouterr().err
    assert not list((tmp_path / "frames").glob("frame_*"))


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


def test_reconstruct_needs_exactly_one_input(tmp_path, capsys):
    """Neither input is refused, and so are both, though each works alone."""
    out = str(tmp_path)
    assert main(["simulate", "--dim", "2", "--seed", "1", "--out-dir", out]) == EXIT_OK
    outcomes = tmp_path / "outcomes.json"
    outcomes.write_text(json.dumps(exact_outcomes(haar_random(2, seed=1)).to_dict()))
    for given in ([], ["--frames-dir", out, "--outcomes", str(outcomes)]):
        capsys.readouterr()
        assert main(["reconstruct", *given, "--out-dir", out]) == EXIT_CONFIG
        assert "pass exactly one of --frames-dir or --outcomes" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


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


def _sidecar_removed(where):
    (where / "frame_2.json").unlink()


def _not_p5(where):
    (where / "frame_1.pgm").write_bytes(b"P2\n2 1\n255\n0 0\n")


def _truncated(where):
    pgm = where / "frame_3.pgm"
    pgm.write_bytes(pgm.read_bytes()[:-1])


@pytest.mark.parametrize(
    "spoil, names",
    [(None, "no frame_*.pgm files in"), (_sidecar_removed, "missing sidecar"),
     (_not_p5, "frame_1.pgm is not a binary (P5) PGM file"), (_truncated, "frame_3.pgm is truncated")],
    ids=["empty", "sidecar-removed", "not-p5", "truncated"],
)
def test_reconstruct_refuses_a_broken_frames_dir(tmp_path, capsys, spoil, names):
    """A frames directory without frames, with a frame whose sidecar is
    missing, or with a PGM that is not binary or is cut short: exit 2 with
    an error that says so, and no report."""
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    if spoil is not None:
        save_frames(frames_dir, render_frames(haar_random(2, seed=1), OpticalConfig.for_dim(2),
                                              seed=1), seed=1)
        spoil(frames_dir)
    capsys.readouterr()
    code = main(["reconstruct", "--frames-dir", str(frames_dir), "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and names in err, err
    assert not (tmp_path / "report.json").exists()


def test_reconstruct_refuses_frames_of_two_acquisitions(tmp_path, capsys):
    """A shorter acquisition leaves the calibration frame of a longer one
    behind; the set's sidecars then disagree on seed and scale."""
    out = str(tmp_path)
    for seed, extra in (("1", ["--calibration"]), ("2", [])):
        argv = ["simulate", "--dim", "5", "--seed", seed, *extra, "--out-dir", out]
        assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert main(["reconstruct", "--frames-dir", out, "--out-dir", out]) == EXIT_CONFIG
    assert f"error: {tmp_path} mixes frames of different acquisitions" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_each_command_prints_one_line(tmp_path, capsys):
    out = ["--out-dir", str(tmp_path)]
    capsys.readouterr()
    assert main(["simulate", "--dim", "2", "--seed", "1", *out]) == EXIT_OK
    assert capsys.readouterr().out == f"wrote 4 frames to {tmp_path}\n"

    assert main(["reconstruct", "--frames-dir", str(tmp_path), *out]) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert capsys.readouterr().out == (
        f"dim 2, reference {report['reference']}, budget {report['outcome_budget']}, "
        f"verdict {report['verdict']}; report: {tmp_path / 'report.json'}\n")

    assert main(["sweep", "--trials", "3", "--seed", "1", *out]) == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert capsys.readouterr().out == (
        f"3 trials, mean F = {summary['mean_fidelity']:.5f}, sd = {summary['std_fidelity']:.5f}, "
        f"{summary['n_failed']} failed; wrote {tmp_path}\n")

    csv_path = str(tmp_path / "trials.csv")
    assert main(["figure", "--mode", "hist", "--csv", csv_path, *out]) == EXIT_OK
    assert capsys.readouterr().out == f"wrote {tmp_path / 'figure.svg'}\n"


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
            "--pipeline", "frames", "--ref-mode", "extra_slit", "--out-dir", str(out),
        ]
    )
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["dim"] == 3
    # The flags win over the config file and the defaults.
    assert summary["n_trials"] == 5
    assert (summary["pipeline"], summary["reference_mode"]) == ("frames", "extra_slit")
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


def test_a_sweep_and_figures_over_a_longer_run_match_a_fresh_directory(tmp_path):
    """trials.csv, summary.json and both SVGs of a 4-trial sweep, written over
    the longer files of a 16-trial one, leave no tail of the old bytes."""
    def sweep(out, trials):
        assert main(["sweep", "--dim", "2", "--source", "bloch", "--trials", str(trials),
                     "--seed", "1", "--out-dir", str(out)]) == EXIT_OK
        for mode in ("hist", "bloch"):
            assert main(["figure", "--mode", mode, "--csv", str(out / "trials.csv"),
                         "--out", f"{mode}.svg", "--out-dir", str(out)]) == EXIT_OK

    again, fresh = tmp_path / "again", tmp_path / "fresh"
    sweep(again, 16)
    longer = {p.name: p.stat().st_size for p in again.iterdir()}
    sweep(again, 4)
    sweep(fresh, 4)
    assert sorted(longer) == sorted(p.name for p in fresh.iterdir())
    for name, size in longer.items():
        assert (again / name).read_bytes() == (fresh / name).read_bytes(), name
        assert size > len((fresh / name).read_bytes()), name


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--frames-dir", "{out}", "--report", os.devnull],
    ["figure", "--mode", "hist", "--csv", "{out}/trials.csv", "--out", os.devnull],
], ids=["report", "figure"])
def test_an_output_may_be_the_null_device(tmp_path, argv):
    """The null device is written to but, being no regular file, not cut to length."""
    out = str(tmp_path)
    assert main(["simulate", "--dim", "3", "--seed", "5", "--out-dir", out]) == EXIT_OK
    assert main(["sweep", "--dim", "2", "--trials", "4", "--seed", "1", "--out-dir", out]) \
        == EXIT_OK
    names = sorted(p.name for p in tmp_path.iterdir())
    assert main([a.format(out=out) for a in argv] + ["--out-dir", out]) == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == names


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


@pytest.mark.parametrize("mode", ["hist", "bloch"])
@pytest.mark.parametrize("value", ["nan", "inf", "1.5", "-0.25", "abc", "no-column", "no-rows"])
def test_figure_refuses_non_physical_fidelities(tmp_path, capsys, mode, value):
    """A fidelity outside [0, 1], one that is not a number, no fidelity
    column at all, or a header without rows: exit 2 with an error that names
    the CSV, and no SVG."""
    out = tmp_path / "sweep"
    assert main(["sweep", "--dim", "2", "--source", "bloch", "--trials", "4", "--seed", "1",
                 "--out-dir", str(out)]) == EXIT_OK
    csv_path = out / "trials.csv"
    lines = csv_path.read_text().splitlines(keepends=True)
    if value == "no-column":
        lines[0] = lines[0].replace("fidelity", "fid")
    elif value == "no-rows":
        lines = lines[:1]
    else:
        row = lines[2].split(",")
        row[2] = value
        lines[2] = ",".join(row)
    csv_path.write_text("".join(lines))
    capsys.readouterr()
    code = main(["figure", "--mode", mode, "--csv", str(csv_path), "--out-dir", str(out)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {csv_path}")
    assert not (out / "figure.svg").exists()


@pytest.mark.parametrize("flags", [["--dim", "1"], ["--photons", "-5"], ["--workers", "0"]],
                         ids=["dim", "photons", "workers"])
def test_sweep_flag_errors_do_not_name_the_config(tmp_path, capsys, flags):
    """A valid --config file with a bad flag: the error is the flag's, so it
    does not carry the file's path."""
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text('{"dim": 3}')
    capsys.readouterr()
    code = main(["sweep", "--config", str(cfg_path), "--seed", "1", *flags,
                 "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(cfg_path) not in err, err
    assert not (tmp_path / "out" / "trials.csv").exists()


@pytest.mark.parametrize(
    "cfg, names",
    [({"dim": 1}, "qudit dimension must be at least 2"),
     ({"noise": {"photons_per_frame": -5}}, "photons_per_frame must be"),
     ({"source": "mystery"}, "unknown source 'mystery'")],
    ids=["dim", "photons", "source"],
)
def test_sweep_config_errors_name_the_config(tmp_path, capsys, cfg, names):
    """A bad value in the --config file names the file, even when a flag
    would override it."""
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    code = main(["sweep", "--config", str(cfg_path), "--seed", "1", "--dim", "3",
                 "--photons", "1e4", "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {cfg_path}: {names}")
    assert not (tmp_path / "out" / "trials.csv").exists()


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


def _sidecar(**changes):
    """A frame_2.json of the dim-2 standard layout, with ``changes`` applied."""
    meta = {"step": 2, "roi": [[40, 56, 10, 16], [70, 56, 10, 16]], "seed": 1,
            "ref_index": 0, "n_slits": 2, "image_dims": [128, 120], "scale": 1.0}
    return json.dumps({**meta, **changes})


def _bloch_summary(where, text):
    assert main(["sweep", "--dim", "2", "--source", "bloch", "--trials", "4", "--seed", "1",
                 "--out-dir", str(where)]) == EXIT_OK
    (where / "summary.json").write_text(text)
    return ["figure", "--mode", "bloch", "--csv", str(where / "trials.csv")]


@pytest.mark.parametrize(
    "write, text, names",
    [
        (_state_file, "[1]", "not an object"),
        (_state_file, '{"dim": 2, "re": {"0": 1}, "im": [0, 0]}', None),
        (_state_file, '{"re": [1, 0], "im": [0, 0]}', "missing key 'dim'"),
        (_state_file, '{"dim": 2.5, "re": [1, 0], "im": [0, 0]}', "integer"),
        (_outcomes_file, "[1]", "not an object"),
        (_outcomes_file, '{"dim": [2], "ref_index": 0, "populations": [1, 0], '
                         '"interference": [[0.5, 0.5, 0.5]]}', None),
        (_outcomes_file, "{}", "missing key 'dim'"),
        (_outcomes_file, '{"dim": 2, "ref_index": 5, "populations": [1, 0], '
                         '"interference": [[0.5, 0.5, 0.5]]}', "reference index 5"),
        (_outcomes_file, '{"dim": 2, "ref_index": 0.5, "populations": [1, 0], '
                         '"interference": [[0.5, 0.5, 0.5]]}', "integer"),
        (_sweep_config, "[3, 5]", "not an object"),
        (_sweep_config, '{"dim": [3]}', None),
        (_sweep_config, '{"trials": {"n": 3}}', None),
        (_sweep_config, '{"dim": 2.9, "trials": 3.7}', "integer"),
        (_sweep_config, '{"noise": [1e5]}', "noise must be a JSON object"),
        (_sweep_config, '{"noise": {"photons_per_frame": [1]}}', None),
        (_sweep_config, '{"optical": [1, 2]}', None),
        (_sweep_config, '{"optical": {"n_slits": [3]}}', None),
        (_sweep_config, '{"optical": {"n_slits": 2, "ref_index": 0, "image_dims": [128, 120.5], '
                        '"roi_layout": [[40, 56, 10, 16], [70, 56, 10, 16]]}}', "integer"),
        (_sweep_config, "{", None),
        (_frame_sidecar, "[1]", "not an object"),
        (_frame_sidecar, '{"step": 2, "n_slits": 2, "ref_index": 0, "image_dims": [128, 120], '
                         '"roi": 3}', None),
        (_frame_sidecar, '{"step": 2, "n_slits": 2, "ref_index": 0, "image_dims": [128, 120]}',
         "missing key 'roi'"),
        (_frame_sidecar, _sidecar(step=2.7), "integer"),
        (_frame_sidecar, _sidecar(step=7), "step index 7 outside 0..4"),
        (_frame_sidecar, _sidecar(image_dims=[128, 600]), "does not match the configured image"),
        (_bloch_summary, "[1]", "not an object"),
        (_state_file, '{"dim": true, "re": [1, 0], "im": [0, 0]}', "integer"),
        (_outcomes_file, '{"dim": 2, "ref_index": true, "populations": [0, 1], '
                         '"interference": [[0.5, 0.5, 0.5]]}', "integer"),
        (_sweep_config, '{"trials": true}', "integer"),
        (_sweep_config, '{"optical": {"n_slits": 2, "ref_index": false, "image_dims": [128, 120], '
                        '"roi_layout": [[40, 56, 10, 16], [70, 56, 10, 16]]}}', "integer"),
        (_frame_sidecar, _sidecar(step=True), "integer"),
        (_outcomes_file, '{"dim": 0, "ref_index": 0, "populations": [], "interference": []}',
         "qudit dimension must be at least 2"),
        (_sweep_config, f'{{"noise": {{"photons_per_frame": {10**400}}}}}',
         "photons_per_frame must be finite and non-negative, got 1000"),
        (_outcomes_file, f'{{"dim": 2, "ref_index": 0, "populations": [{10**400}, 0], '
                         '"interference": [[0.5, 0.5, 0.5]]}', "expected a number, got 1000"),
    ],
    ids=["state-list", "state-re-object", "state-no-dim", "state-dim-float", "outcomes-list",
         "outcomes-dim-list", "outcomes-empty", "outcomes-bad-reference",
         "outcomes-reference-float", "config-list", "config-dim-list", "config-trials-object",
         "config-dim-trials-float", "noise-list", "noise-value-list", "optical-list",
         "optical-slits-list", "optical-image-dims-float", "config-truncated", "sidecar-list",
         "sidecar-roi-number", "sidecar-no-roi", "sidecar-step-float", "sidecar-step-7",
         "sidecar-image-dims-wrong", "summary-list", "state-dim-true", "outcomes-reference-true",
         "config-trials-true", "optical-reference-false", "sidecar-step-true", "outcomes-dim-0",
         "noise-photons-huge-int", "outcomes-population-huge-int"],
)
def test_json_input_of_the_wrong_shape_is_a_config_error(tmp_path, capsys, write, text, names):
    """Every JSON file the CLI reads: a value of the wrong shape or a missing
    key exits 2 with an error line that names the file, not a traceback, and
    writes no output."""
    given = tmp_path / "given"
    given.mkdir()
    argv = write(given, text)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    named = re.search(re.escape(str(given)) + r"/(\w+)\.json: ", err)
    assert named and named.group(1) in {"in", "frame_2", "summary"}, err
    assert names is None or names in err, err
    assert not out.exists() or not any(out.iterdir())


def test_package_version_is_the_one_pyproject_declares():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1) == psitomo.__version__
