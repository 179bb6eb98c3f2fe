"""The one real-number rule (``states._check_real``) and the values it builds.

Every real argument the rule owns is refused as a string, a bool, NaN, inf
and a negative number (and 0 where it must be positive), with a ValueError
that names the argument and the value.  Accepted values are stored as Python
floats, and every array a value hands out is read-only.  This file also
covers the integer rule on optical geometry and seed keys, JSON number
arrays, and the CLI refusals these bring.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import psitomo
from psitomo import (
    DensityMatrix,
    ExperimentSpec,
    NoiseModel,
    OpticalConfig,
    ProjectorOutcomes,
    PureState,
    StateSource,
    calibrate_noise,
    certify_purity,
    chunk_seed,
    exact_outcomes,
    haar_random,
    reconstruct_from_frames,
    reconstruct_from_outcomes,
    render_frames,
    run_batch,
    sample_counts,
    trial_seed,
    write_summary_json,
)
from psitomo.cli import EXIT_CONFIG, EXIT_OK, main
from psitomo.imaging import _geometry

_CFG3 = OpticalConfig.for_dim(3)
_FRAMES3 = render_frames(haar_random(3, seed=1), _CFG3)
_OUTCOMES4 = exact_outcomes(haar_random(4, seed=1))
_SPEC2 = ExperimentSpec(dim=2, source=StateSource.haar(2), root_seed=0)


def _custom_envelope(v):
    return OpticalConfig(n_slits=3, image_dims=_CFG3.image_dims, roi_layout=_CFG3.roi_layout,
                         ref_envelope=(1.0, v, 0.5), envelope_kind="custom")


# (id, what the message names, build from the value, positive)
_OWNERS = [
    ("NoiseModel.photons_per_frame", "photons_per_frame",
     lambda v: NoiseModel(photons_per_frame=v), False),
    ("NoiseModel.phase_step_jitter_sd", "phase_step_jitter_sd",
     lambda v: NoiseModel(phase_step_jitter_sd=v), False),
    ("NoiseModel.phase_inhomogeneity_sd", "phase_inhomogeneity_sd",
     lambda v: NoiseModel(phase_inhomogeneity_sd=v), False),
    ("NoiseModel.dark_rate", "dark_rate", lambda v: NoiseModel(dark_rate=v), False),
    ("ExperimentSpec.tau_purity", "tau_purity",
     lambda v: ExperimentSpec(dim=2, source=StateSource.haar(1), root_seed=0, tau_purity=v),
     False),
    ("certify_purity.tau", "tau",
     lambda v: certify_purity([0.5, 0.5], [1.0, 1.0], 0.5, ref_index=0, tau=v), False),
    ("reconstruct_from_outcomes.tau", "tau",
     lambda v: reconstruct_from_outcomes(_OUTCOMES4, tau=v), False),
    ("reconstruct_from_frames.tau", "tau", lambda v: reconstruct_from_frames(_FRAMES3, tau=v),
     False),
    ("OpticalConfig.envelope_width", "envelope_width",
     lambda v: OpticalConfig(n_slits=3, image_dims=_CFG3.image_dims,
                             roi_layout=_CFG3.roi_layout, envelope_width=v), True),
    ("OpticalConfig.ref_envelope", "envelope entries", _custom_envelope, False),
    ("calibrate_noise.tol", "tol", lambda v: calibrate_noise(0.99, 2, _SPEC2, trials=2, tol=v),
     True),
    ("sample_counts.photons_per_frame", "photons_per_frame for counts",
     lambda v: sample_counts(_OUTCOMES4, _Noise(v), seed=1), True),
]


class _Noise:
    """A noise stand-in, so sample_counts sees a value NoiseModel would refuse."""

    def __init__(self, photons):
        self.photons_per_frame = photons


_HUGE = 10**400  # an int that float() cannot convert
_SHOWN = {_HUGE: "10**400", -_HUGE: "-10**400"}  # short test ids for the huge ints


@pytest.mark.parametrize(
    "what, build, positive, value",
    [pytest.param(what, build, positive, value, id=f"{name}-{_SHOWN.get(value, repr(value))}")
     for name, what, build, positive in _OWNERS
     for value in ("1e3", True, math.nan, math.inf, -1, _HUGE, -_HUGE)
     + ((0,) if positive else ())],
)
def test_real_rule_refuses_and_names_the_argument_and_value(what, build, positive, value):
    sign = "positive" if positive else "non-negative"
    with pytest.raises(ValueError) as info:
        build(value)
    assert str(info.value) == f"{what} must be finite and {sign}, got {value!r}"


def test_real_rule_refuses_before_any_calibration_probe(monkeypatch):
    probes = []
    monkeypatch.setattr(psitomo.harness, "run_batch", lambda spec, workers=1: probes.append(spec))
    for tol in ("0.01", True):
        with pytest.raises(ValueError, match="tol"):
            calibrate_noise(0.99, 2, _SPEC2, trials=2, tol=tol)
    assert probes == []


@pytest.mark.parametrize("value", [0, 3, np.int64(3), np.float32(0.5), np.float64(0.25)],
                         ids=["int-0", "int-3", "np.int64", "np.float32", "np.float64"])
def test_accepted_reals_are_stored_as_python_floats(value):
    noise = NoiseModel(value, value, value, value)
    spec = ExperimentSpec(dim=2, source=StateSource.haar(1), root_seed=0, tau_purity=value)
    stored = [getattr(noise, f) for f in ("photons_per_frame", "phase_step_jitter_sd",
                                          "phase_inhomogeneity_sd", "dark_rate")]
    stored.append(spec.tau_purity)
    if value > 0:
        stored.append(OpticalConfig(n_slits=3, image_dims=_CFG3.image_dims,
                                    roi_layout=_CFG3.roi_layout,
                                    envelope_width=value).envelope_width)
    assert all(type(x) is float for x in stored), stored
    assert stored == [float(value)] * len(stored)


def test_custom_envelope_entries_are_stored_as_floats():
    custom = _custom_envelope(1)
    assert custom.ref_envelope == (1.0, 1.0, 0.5)
    assert all(type(v) is float for v in custom.ref_envelope)


def test_library_batch_with_integer_noise_writes_floats(tmp_path):
    spec = ExperimentSpec(dim=2, source=StateSource.haar(3), root_seed=1,
                          noise=NoiseModel(photons_per_frame=100))
    write_summary_json(tmp_path / "summary.json", run_batch(spec), spec)
    assert '"photons_per_frame": 100.0' in (tmp_path / "summary.json").read_text()


# ------------------------------------------------------------ read-only arrays


def test_every_handed_out_array_is_read_only():
    psi = haar_random(3, seed=2)
    report = reconstruct_from_outcomes(exact_outcomes(psi))
    frames_report = reconstruct_from_frames(_FRAMES3)
    geo = _geometry(_CFG3)
    pops, tables = np.array([[0.5, 0.5]]), np.array([[[0.5, 0.5, 0.5]]])
    row = ProjectorOutcomes._rows(2, np.array([0]), pops, tables, "probability")[0]
    arrays = [
        psi.amps, DensityMatrix.maximally_mixed(3).matrix,
        exact_outcomes(psi).populations, exact_outcomes(psi).interference,
        row.populations, row.interference, _FRAMES3[0].pixels,
        geo.cols, geo.starts, geo.widths, geo.area, geo.profile,
        report.per_slit_visibility, report.purity_verdict.margins, report.purity_verdict.bound,
        frames_report.per_slit_visibility, frames_report.purity_verdict.bound,
    ]
    assert not any(a.flags.writeable for a in arrays)
    assert pops.flags.writeable and tables.flags.writeable


# ------------------------------------------------------------ JSON number arrays


@pytest.mark.parametrize(
    "build, payload, bad",
    [
        (PureState.from_dict, {"dim": 2, "re": ["1", 0], "im": [0, 0]}, "'1'"),
        (PureState.from_dict, {"dim": 2, "re": [1, 0], "im": [0, True]}, "True"),
        (ProjectorOutcomes.from_dict, {"dim": 2, "ref_index": 0, "populations": ["0.5", 0.5],
                                       "interference": [[0.5, 0.5, 0.25]]}, "'0.5'"),
        (ProjectorOutcomes.from_dict, {"dim": 2, "ref_index": 0, "populations": [0.5, 0.5],
                                       "interference": [[0.5, True, 0.25]]}, "True"),
    ],
    ids=["state-re-str", "state-im-true", "outcomes-populations-str", "outcomes-table-true"],
)
def test_json_number_arrays_refuse_strings_and_bools(build, payload, bad):
    with pytest.raises(TypeError, match=re.escape(f"expected a number, got {bad}")):
        build(payload)


def test_json_number_arrays_take_integers():
    assert PureState.from_dict({"dim": 2, "re": [1, 0], "im": [0, 0]}).amps.tolist() == [1, 0]
    out = ProjectorOutcomes.from_dict({"dim": 2, "ref_index": 0, "populations": [1, 0],
                                       "interference": [[1, 0, 0]]})
    assert out.populations.dtype == float and out.interference.tolist() == [[1.0, 0.0, 0.0]]


# ------------------------------------------------------------ integers in geometry and seeds


_ROIS = ((40, 56, 10, 16), (70, 56, 10, 16))


@pytest.mark.parametrize(
    "image_dims, roi_layout, message",
    [
        ((128.5, 120), _ROIS, "image dimensions must be positive, got 128.5"),
        ((128, True), _ROIS, "image dimensions must be positive, got True"),
        ((128, 0), _ROIS, "image dimensions must be positive, got 0"),
        ((128, 120), ((40.0, 56, 10, 16), _ROIS[1]), "leaves the image: offset 40.0 outside"),
        ((128, 120), ((40, 56, 10, True), (70, 56, 10, True)),
         "ROI width and height must be positive, got True"),
        ((128, 120), ((40, 56, 0, 16), _ROIS[1]), "ROI width and height must be positive, got 0"),
        ((128, 120), ((-1, 56, 10, 16), _ROIS[1]),
         "ROI (-1, 56, 10, 16) leaves the image: offset -1 outside 0..110"),
        ((128, 120), (_ROIS[0], (70, 120, 10, 16)),
         "ROI (70, 120, 10, 16) leaves the image: offset 120 outside 0..112"),
        ((128, 120), (_ROIS[0], (45, 56, 10, 16)), "ROIs must ascend in x and must not overlap"),
    ],
    ids=["height-float", "width-true", "width-0", "x-float", "h-true", "w-0", "x-negative",
         "y-past-the-edge", "overlap"],
)
def test_optical_geometry_passes_the_integer_rule(image_dims, roi_layout, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        OpticalConfig(n_slits=2, image_dims=image_dims, roi_layout=roi_layout)


@pytest.mark.parametrize(
    "mix, key",
    [(trial_seed, (1.5, 0)), (trial_seed, (True, 0)), (trial_seed, (1, -1)),
     (trial_seed, (1, 0.0)), (chunk_seed, (2.9, 0)), (chunk_seed, (2, 0.5)),
     (chunk_seed, (-2, 0))],
    ids=["trial-root-float", "trial-root-true", "trial-index-negative", "trial-index-float",
         "chunk-root-float", "chunk-float", "chunk-root-negative"],
)
def test_seed_keys_pass_the_integer_rule(mix, key):
    bad = next(k for k in key if not (type(k) is int and k >= 0))
    with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
        mix(*key)


def test_seed_keys_mix_as_before():
    # Values of the scheme, recorded from the implementation that truncated through int().
    assert trial_seed(1, 0) == 7434755675892716031
    assert trial_seed(np.int64(1), np.uint64(0)) == trial_seed(1, 0)
    assert chunk_seed(2, 0) == chunk_seed(np.int32(2), 0) != trial_seed(2, 0)


# ------------------------------------------------------------ the CLI


def _optical(**changes):
    block = {"n_slits": 3, "ref_index": 0, "image_dims": list(_CFG3.image_dims),
             "roi_layout": [list(r) for r in _CFG3.roi_layout]}
    return {**block, **changes}


@pytest.mark.parametrize(
    "argv, text, names",
    [
        (["sweep", "--seed", "1", "--config"],
         {"dim": 2, "trials": 4, "noise": {"photons_per_frame": "1e3"}},
         "photons_per_frame must be finite and non-negative, got '1e3'"),
        (["sweep", "--seed", "1", "--config"],
         {"dim": 2, "trials": 4, "noise": {"photons_per_frame": True}},
         "photons_per_frame must be finite and non-negative, got True"),
        (["sweep", "--seed", "1", "--config"],
         {"dim": 3, "trials": 4, "pipeline": "frames", "reference_mode": "fixed",
          "optical": _optical(envelope_kind="sinc", envelope_width="90")},
         "envelope_width must be finite and positive, got '90'"),
        (["sweep", "--seed", "1", "--config"],
         {"dim": 3, "trials": 4, "pipeline": "frames", "reference_mode": "fixed",
          "optical": _optical(envelope_kind="custom", ref_envelope=["1", "0.5", True])},
         "envelope entries must be finite and non-negative, got '1'"),
        (["reconstruct", "--outcomes"],
         {"dim": 2, "ref_index": 0, "populations": ["0.5", 0.5],
          "interference": [[0.5, True, 0.25]]}, "expected a number, got '0.5'"),
    ],
    ids=["photons-str", "photons-true", "envelope-width-str", "envelope-entries", "outcomes"],
)
def test_cli_refuses_strings_and_bools_where_numbers_belong(tmp_path, capsys, argv, text, names):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(text))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(argv + [str(path), "--out-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {names}"), err
    assert not out.exists() or not any(out.iterdir())


def test_cli_module_runs_a_sweep_like_main(tmp_path):
    """``python -m psitomo.cli`` is the console script: same files, byte for byte."""
    args = ["sweep", "--dim", "2", "--source", "bloch", "--trials", "8", "--seed", "1"]
    assert main(args + ["--out-dir", str(tmp_path / "main")]) == EXIT_OK
    src = str(Path(psitomo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "psitomo.cli", *args,
                           "--out-dir", str(tmp_path / "module")], env=env, capture_output=True)
    assert done.returncode == EXIT_OK, done.stderr
    for name in ("trials.csv", "summary.json"):
        assert (tmp_path / "module" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()


def test_state_reprs_name_the_dimension():
    assert repr(PureState([1, 0])) == "PureState(dim=2)"
    assert repr(DensityMatrix.maximally_mixed(3)) == "DensityMatrix(dim=3)"

