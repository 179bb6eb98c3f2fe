"""Command-line interface: simulate frames, reconstruct states, sweep, plot.

Exit codes: 0 on success, 2 for configuration or input errors, 3 when the
reference slit is too weak to anchor a reconstruction, 4 when the fringe is
degenerate.  Stochastic commands require --seed; the only environment
variable honored is PSITOMO_OUT_DIR as a default output directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .errors import DegenerateFringe, TomographyError, WeakReference
from .figures import bloch_figure, histogram_figure
from .harness import (
    ExperimentSpec,
    StateSource,
    run_batch,
    write_summary_json,
    write_trials_csv,
)
from .imaging import (
    CALIBRATION_STEP,
    NoiseModel,
    OpticalConfig,
    annotate_rois,
    render_frames,
)
from .pgmio import PGM_MAXVAL, load_frames, save_frames, write_pgm
from .projectors import ProjectorOutcomes
from .reconstruct import reconstruct_from_frames, reconstruct_from_outcomes
from .states import PureState, bloch_grid, haar_random

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_WEAK_REFERENCE = 3
EXIT_DEGENERATE = 4

OUT_DIR_ENV = "PSITOMO_OUT_DIR"


def _out_dir(args) -> Path:
    chosen = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


#: The noise flags of simulate and sweep: flag -> (NoiseModel field, help).
NOISE_FLAGS = {
    "--photons": ("photons_per_frame", "expected photons per frame (0 = noiseless)"),
    "--jitter": ("phase_step_jitter_sd", "rms phase-step error in radians"),
    "--inhom": ("phase_inhomogeneity_sd", "rms static per-pixel phase in radians"),
    "--dark": ("dark_rate", "expected dark counts per pixel per frame"),
}

#: Every key a sweep --config file may set, and its value when neither the
#: file nor a flag sets it; a "noise" block may set any NoiseModel field.
SWEEP_DEFAULTS = {
    "dim": 2,
    "trials": 100,
    "source": "haar",
    "pipeline": "outcomes",
    "reference_mode": "adaptive",
    "noise": {field: 0.0 for field, _ in NOISE_FLAGS.values()},
    "optical": None,
}


def _add_noise_args(parser) -> None:
    for flag, (field, text) in NOISE_FLAGS.items():
        parser.add_argument(flag, dest=field, type=float, metavar=flag[2:].upper(), help=text)


def _given(args, keys) -> dict:
    """The flags among ``keys`` given on the command line (the others are None)."""
    return {key: value for key, value in vars(args).items() if key in keys and value is not None}


def _merged(defaults: dict, given, where: str) -> dict:
    """``defaults`` updated by ``given``; refuses keys ``defaults`` does not have."""
    if not isinstance(given, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ValueError(f"unknown {where} keys {unknown}; known: {sorted(defaults)}")
    return {**defaults, **given}


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    if args.state_file:
        with open(args.state_file) as fh:
            psi = PureState.from_dict(json.load(fh))
        if args.dim is not None and psi.dim != args.dim:
            raise ValueError("--dim disagrees with the state file")
    else:
        if args.dim is None:
            raise ValueError("need --dim when no --state-file is given")
        psi = haar_random(args.dim, np.random.SeedSequence([args.seed, 0]))

    config = OpticalConfig.for_dim(psi.dim, extra_reference=args.extra_slit)
    noise = NoiseModel(**_given(args, SWEEP_DEFAULTS["noise"]))
    frames = render_frames(
        psi, config, noise, args.seed, include_calibration=args.calibration
    )
    save_frames(out, frames, args.seed)
    with open(out / "true_state.json", "w") as fh:
        json.dump(psi.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.preview:
        marked = annotate_rois(frames[1])
        peak = float(marked.max())
        scaled = np.rint(marked * (PGM_MAXVAL / peak)).astype(np.uint16)
        write_pgm(out / "preview.pgm", scaled)
    print(f"wrote {4 + int(args.calibration)} frames to {out}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    out = _out_dir(args)
    if bool(args.frames_dir) == bool(args.outcomes):
        raise ValueError("pass exactly one of --frames-dir or --outcomes")
    if args.frames_dir:
        frames = load_frames(args.frames_dir)
        calibration = None
        main = []
        for f in frames:
            if f.step_index == CALIBRATION_STEP:
                calibration = f
            else:
                main.append(f)
        report = reconstruct_from_frames(main, calibration)
    else:
        with open(args.outcomes) as fh:
            outcomes = ProjectorOutcomes.from_dict(json.load(fh))
        report = reconstruct_from_outcomes(outcomes)

    report_path = out / args.report
    with open(report_path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    verdict = "PURE" if report.purity_verdict.pure else "NOT_PURE"
    print(
        f"dim {report.state.dim}, reference {report.reference_used}, "
        f"budget {report.outcome_budget}, verdict {verdict}; report: {report_path}"
    )
    return EXIT_OK


def _spec_from_args(args) -> ExperimentSpec:
    """Merge the defaults, the --config file and the flags given, in that order."""
    config = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
    merged = {**_merged(SWEEP_DEFAULTS, config, "config"), **_given(args, SWEEP_DEFAULTS)}
    noise = _merged(SWEEP_DEFAULTS["noise"], merged["noise"], "noise")
    noise.update(_given(args, noise))

    source = merged["source"]
    if source not in ("haar", "bloch", "bloch_grid"):
        raise ValueError(f"unknown source {source!r}; use haar or bloch")
    return ExperimentSpec(
        dim=int(merged["dim"]),
        source=StateSource("haar" if source == "haar" else "bloch_grid", int(merged["trials"])),
        root_seed=args.seed,
        pipeline=merged["pipeline"],
        reference_mode=merged["reference_mode"],
        noise=NoiseModel(**{field: float(v) for field, v in noise.items()}),
        optical=None if merged["optical"] is None else OpticalConfig.from_dict(merged["optical"]),
    )


def cmd_sweep(args) -> int:
    out = _out_dir(args)
    spec = _spec_from_args(args)
    stats = run_batch(spec, workers=args.workers)
    write_trials_csv(out / "trials.csv", stats)
    write_summary_json(out / "summary.json", stats, spec)
    print(
        f"{stats.n_trials} trials, mean F = {stats.mean_fidelity:.5f}, "
        f"sd = {stats.std_fidelity:.5f}, {stats.n_failed} failed; wrote {out}"
    )
    return EXIT_OK


def cmd_figure(args) -> int:
    out = _out_dir(args)
    with open(args.csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{args.csv} holds no trial rows")
    fids = [float(r["fidelity"]) for r in rows]
    if args.mode == "hist":
        svg = histogram_figure(fids)
    else:
        # Row i is trial i of the lattice only in a whole dim-2 Bloch sweep.
        with open(Path(args.csv).with_name("summary.json")) as fh:
            summary = json.load(fh)
        if not isinstance(summary, dict):
            raise ValueError("the summary.json beside the CSV must hold a JSON object")
        made = [summary.get(key) for key in ("source", "dim", "n_trials")]
        if made != ["bloch_grid", 2, len(rows)]:
            raise ValueError(f"bloch figures need a whole dim-2 bloch sweep, not {made}")
        states = bloch_grid(len(rows))
        mean = float(np.mean(fids))
        std = float(np.std(fids))
        svg = bloch_figure(states, fids, mean, std)
    fig_path = out / args.out
    fig_path.write_text(svg)
    print(f"wrote {fig_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psitomo",
        description="Simulate and reconstruct slit-encoded qudit states via "
        "three-step phase-shifting interferometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="render a four-frame acquisition to PGM files")
    sim.add_argument("--dim", type=int, default=None, help="qudit dimension")
    sim.add_argument("--seed", type=int, required=True, help="simulation seed")
    sim.add_argument("--state-file", default=None, help="JSON state to render (default: random)")
    sim.add_argument("--extra-slit", action="store_true", help="append a max-transmission reference slit")
    sim.add_argument("--calibration", action="store_true", help="also render the reference-only frame")
    sim.add_argument("--preview", action="store_true", help="write preview.pgm with ROI outlines")
    sim.add_argument("--out-dir", default=None, help="output directory")
    _add_noise_args(sim)
    sim.set_defaults(func=cmd_simulate)

    rec = sub.add_parser("reconstruct", help="reconstruct a state from frames or outcomes")
    rec.add_argument("--frames-dir", default=None, help="directory with frame_*.pgm/.json")
    rec.add_argument("--outcomes", default=None, help="JSON file with projector outcomes")
    rec.add_argument("--report", default="report.json", help="report file name")
    rec.add_argument("--out-dir", default=None, help="output directory")
    rec.set_defaults(func=cmd_reconstruct)

    swp = sub.add_parser("sweep", help="run a Monte Carlo batch and write CSV + summary")
    swp.add_argument("--config", default=None, help="JSON config with experiment defaults")
    swp.add_argument("--dim", type=int, default=None)
    swp.add_argument("--trials", type=int, default=None)
    swp.add_argument("--source", choices=("haar", "bloch"), default=None)
    swp.add_argument("--pipeline", choices=("outcomes", "frames"), default=None)
    swp.add_argument("--ref-mode", dest="reference_mode", choices=("fixed", "adaptive", "extra_slit"))
    swp.add_argument("--seed", type=int, required=True, help="batch root seed")
    swp.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility; every sweep runs in one thread",
    )
    swp.add_argument("--out-dir", default=None)
    _add_noise_args(swp)
    swp.set_defaults(func=cmd_sweep)

    fig = sub.add_parser("figure", help="render an SVG figure from a sweep CSV")
    fig.add_argument("--mode", choices=("bloch", "hist"), required=True)
    fig.add_argument("--csv", required=True, help="trials.csv from a sweep")
    fig.add_argument("--out", default="figure.svg", help="output SVG file name")
    fig.add_argument("--out-dir", default=None)
    fig.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WeakReference as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WEAK_REFERENCE
    except DegenerateFringe as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (TomographyError, OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
