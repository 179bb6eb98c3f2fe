"""The one array rule (``states._check_finite``) over every array it owns.

Each array is refused with NaN and with inf, where it counts photons or
weights with -1, and where numpy converts a Python value with an int too
large for a float; the error is a ValueError whose whole message names the
array.  This file also covers the real rule's type test on the fringe
helpers' intensities, on the calibration and mixing arguments and on JSON
number arrays, and optical geometry built from lists.
"""

import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from psitomo import (
    DensityMatrix,
    ExperimentSpec,
    Interferogram,
    NoiseModel,
    OpticalConfig,
    PureState,
    StateSource,
    calibrate_noise,
    certify_purity,
    choose_reference,
    circular_mean,
    depolarized,
    haar_random,
    interference_probs,
    normalize,
    psi_phase,
    psi_visibility,
    render_frames,
)
from psitomo import harness
from psitomo.cli import EXIT_CONFIG, main
from psitomo.projectors import ProjectorOutcomes

_POPULATIONS = np.array([50.0, 30.0, 20.0])  # counts, so no entry has to keep a sum at 1
_TABLE = np.full((2, 3), 10.0)


def _density(bad):
    return DensityMatrix([[0.5, bad], [bad, 0.5]])


def _pixels(bad):
    config = OpticalConfig.for_dim(2)
    pixels = np.ones(config.image_dims)
    pixels[3, 4] = bad
    return Interferogram(1, pixels, config)


def _pixel_rows(bad):
    config = OpticalConfig.for_dim(2)
    rows = np.ones(config.image_dims).tolist()
    rows[3][4] = bad
    return Interferogram(1, rows, config)


def _outcomes(field, bad):
    arrays = {"populations": _POPULATIONS.copy(), "interference": _TABLE.copy()}
    arrays[field].flat[1] = bad
    return ProjectorOutcomes(3, 0, **arrays, kind="count")


def _chunk_rows(field, bad):
    arrays = {"populations": np.tile(_POPULATIONS, (2, 1)),
              "interference": np.tile(_TABLE, (2, 1, 1))}
    arrays[field][1].flat[1] = bad
    return ProjectorOutcomes._rows(3, np.zeros(2, dtype=np.int64), arrays["populations"],
                                   arrays["interference"], "count")


def _purity(position, bad):
    values = [np.array([0.5, 0.3, 0.2]), np.array([1.0, 0.9, 0.9]), 0.5]
    if position < 2:
        values[position][1] = bad
    else:
        values[position] = bad
    return certify_purity(*values, ref_index=0)


_OWNERS = {
    "density-matrix": (_density, "density matrix entries", False),
    "interferogram": (_pixels, "pixel values", False),
    "outcome-populations": (lambda bad: _outcomes("populations", bad), "outcome values", True),
    "outcome-interference": (lambda bad: _outcomes("interference", bad), "outcome values", True),
    "outcome-population-list": (lambda bad: ProjectorOutcomes(3, 0, [50.0, bad, 20.0], _TABLE,
                                                              kind="count"),
                                "outcome values", True),
    "interferogram-rows": (_pixel_rows, "pixel values", False),
    "chunk-populations": (lambda bad: _chunk_rows("populations", bad), "outcome values", True),
    "chunk-interference": (lambda bad: _chunk_rows("interference", bad), "outcome values", True),
    "circular-mean-phases": (lambda bad: circular_mean([0.1, bad]), "phases", False),
    "circular-mean-weights": (lambda bad: circular_mean([0.1, 0.2], [1.0, bad]), "weights",
                              True),
    "choose-reference": (lambda bad: choose_reference([0.5, bad, 0.2]), "populations", True),
    "psi-phase": (lambda bad: psi_phase(1.0, bad, 0.5), "intensities", False),
    "psi-visibility": (lambda bad: psi_visibility(1.0, 0.5, 0.7, bad), "intensities", False),
    "certify-populations": (lambda bad: _purity(0, bad),
                            "populations, visibilities and reference levels", False),
    "certify-visibilities": (lambda bad: _purity(1, bad),
                             "populations, visibilities and reference levels", False),
    "certify-reference": (lambda bad: _purity(2, bad),
                          "populations, visibilities and reference levels", False),
    "interference-phases": (lambda bad: interference_probs(haar_random(3, seed=1), 0,
                                                           [0.1, bad, 2.0]),
                            "step phases", False),
}

# The builders that hand the owner Python values, so that an int too large for a float meets
# the owner's own conversion. An array builder could not store one, and the fringe helpers
# refuse one by the real rule's type test.
_PYTHON_VALUES = {"density-matrix", "outcome-population-list", "interferogram-rows",
                  "circular-mean-phases", "circular-mean-weights", "choose-reference",
                  "certify-reference", "interference-phases"}

_CASES = [
    pytest.param(build, bad, f"{what} {verdict}", id=f"{name}-{label}")
    for name, (build, what, nonneg) in _OWNERS.items()
    for label, bad, verdict in (("nan", math.nan, "must be finite"),
                                ("inf", math.inf, "must be finite"),
                                ("minus-one", -1.0, "cannot be negative"),
                                ("huge-int", 10**400, "must be finite"))
    if (nonneg or label != "minus-one") and (label != "huge-int" or name in _PYTHON_VALUES)
]


@pytest.mark.parametrize("build, bad, message", _CASES)
def test_every_array_check_names_its_array(build, bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        build(bad)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("build", [b for b, _, _ in _OWNERS.values()], ids=list(_OWNERS))
def test_every_array_check_passes_its_finite_input(build):
    build(0.25)


@pytest.mark.parametrize("phases", [[0.1, 2.0], [[0.1, 1.0, 2.0]], 0.5],
                         ids=["two", "one-row", "scalar"])
def test_interference_probs_needs_three_step_phases(phases):
    with pytest.raises(ValueError, match=r"^need three step phases, got shape \("):
        interference_probs(haar_random(3, seed=1), 0, phases)


@pytest.mark.parametrize("build", [PureState, normalize], ids=["pure-state", "normalize"])
@pytest.mark.parametrize("huge", [10**400, -10**400], ids=["huge-int", "minus-huge-int"])
def test_amplitudes_refuse_an_int_too_large_for_a_float(build, huge):
    with pytest.raises(ValueError, match="^amplitudes must be finite$") as info:
        build([huge, 0])
    assert type(info.value) is ValueError


def test_outcome_rows_check_populations_before_the_table():
    table = _TABLE.copy()
    table[0, 0] = math.nan
    with pytest.raises(ValueError, match="^outcome values cannot be negative$"):
        ProjectorOutcomes(3, 0, np.array([50.0, -1.0, 20.0]), table, kind="count")


# The owners that convert Python values to floats; the density matrix converts to complex.
_FLOAT_OWNERS = sorted(_PYTHON_VALUES - {"density-matrix"})


@pytest.mark.parametrize("bad, shown", [(True, "True"), ("1", "'1'"), (1j, "1j"), (None, "None")],
                         ids=["true", "string", "complex", "none"])
@pytest.mark.parametrize("name", _FLOAT_OWNERS)
def test_float_arrays_refuse_an_entry_that_is_not_real(name, bad, shown):
    build, what, _ = _OWNERS[name]
    message = f"{what} must be real numbers, got {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        build(bad)
    assert type(info.value) is ValueError


_NOT_REAL_CALLS = {
    "circular-mean-true": (lambda: circular_mean([True, 0.5]), "phases", "True"),
    "circular-mean-complex": (lambda: circular_mean([1j, 0.5]), "phases", "1j"),
    "choose-reference-true": (lambda: choose_reference([True, 0.2]), "populations", "True"),
    "choose-reference-strings": (lambda: choose_reference(["1", "0.5"]), "populations", "'1'"),
    "interference-phases-true": (lambda: interference_probs(haar_random(2, 1), 0, [True, 0, 1]),
                                 "step phases", "True"),
    "certify-population-true": (lambda: certify_purity([0.5, True], [1.0, 0.9], 0.5,
                                                       ref_index=0),
                                "populations, visibilities and reference levels", "True"),
    "bool-array": (lambda: circular_mean(np.array([True, False])), "phases", "True"),
    "complex-array": (lambda: choose_reference(np.array([0.5j, 0.5])), "populations",
                      "0.5j"),
    "string-array": (lambda: circular_mean(np.array(["0.1", "0.2"])), "phases", "'0.1'"),
    "object-array": (lambda: choose_reference(np.array([0.5, True], dtype=object)),
                     "populations", "True"),
}


@pytest.mark.parametrize("call, what, shown", _NOT_REAL_CALLS.values(), ids=list(_NOT_REAL_CALLS))
def test_float_owners_refuse_bool_string_and_complex_values(call, what, shown):
    message = f"{what} must be real numbers, got {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is ValueError


def test_float_owners_take_ints_numpy_reals_and_integer_arrays():
    assert choose_reference([1, np.int64(3), np.float32(2.0)]) == 1
    assert choose_reference(np.array([1, 3, 2], dtype=np.uint8)) == 1
    assert circular_mean(np.array([0, 0], dtype=np.int32)) == 0.0
    assert circular_mean(np.array([0.25, 0.25], dtype=object)) == 0.25


# ------------------------------------------------------------ the real rule's type test


_PIXEL_ARGS = {psi_phase: (3, 1, 2), psi_visibility: (3, 1, 2, 2)}
_PIXEL_POSITIONS = [pytest.param(helper, k, id=f"{helper.__name__}-{k}")
                    for helper, args in _PIXEL_ARGS.items() for k in range(len(args))]


@pytest.mark.parametrize("bad", [True, "1", None, 1j, 10**400, -10**400],
                         ids=["true", "string", "none", "complex", "huge-int", "minus-huge-int"])
@pytest.mark.parametrize("helper, position", _PIXEL_POSITIONS)
def test_fringe_helpers_refuse_an_intensity_that_is_not_real(helper, position, bad):
    args = list(_PIXEL_ARGS[helper])
    args[position] = bad
    with pytest.raises(ValueError, match=r"^intensities must be real numbers, got \(") as info:
        helper(*args)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("real", [np.float64, np.int64])
@pytest.mark.parametrize("helper, position", _PIXEL_POSITIONS)
def test_fringe_helpers_take_numpy_reals(helper, position, real):
    args = list(_PIXEL_ARGS[helper])
    expected = helper(*args)
    args[position] = real(args[position])
    got = helper(*args)
    assert type(got) is float and got == expected


def _calibration_spec():
    return ExperimentSpec(dim=2, source=StateSource.haar(8), root_seed=7)


@pytest.fixture
def no_probes(monkeypatch):
    """calibrate_noise must refuse before it runs a single batch."""
    def refuse(*args, **kwargs):
        raise AssertionError("calibrate_noise probed a bad argument")

    monkeypatch.setattr(harness, "run_batch", refuse)


@pytest.mark.parametrize(
    "bracket",
    [("1e2", "1e10"), (True, 1e10), (1e2, "1e10"), (1e2, 1j), (None, 1e10), (1, 10**400),
     (-10**400, 1e10), (1e2,), (1e2, 1e4, 1e6)],
    ids=["strings", "true-low", "string-high", "complex-high", "none-low", "huge-int-high",
         "minus-huge-int-low", "one-end", "three-ends"],
)
def test_calibrate_noise_refuses_a_bracket_of_non_reals(no_probes, bracket):
    with pytest.raises(ValueError, match=r"bracket must satisfy 0 < low < high < inf, got \("):
        calibrate_noise(0.95, 2, _calibration_spec(), trials=8, tol=0.01, bracket=bracket)


@pytest.mark.parametrize("bracket", [5, None])
def test_calibrate_noise_refuses_a_bracket_that_is_not_a_sequence(no_probes, bracket):
    message = rf"^bracket must satisfy 0 < low < high < inf, got {bracket}$"
    with pytest.raises(ValueError, match=message):
        calibrate_noise(0.95, 2, _calibration_spec(), trials=8, tol=0.01, bracket=bracket)


@pytest.mark.parametrize("target", ["0.99", np.str_("0.5"), None])
def test_calibrate_noise_refuses_a_target_that_is_not_real(no_probes, target):
    message = r"^target mean fidelity must lie strictly inside \(0, 1\)$"
    with pytest.raises(ValueError, match=message):
        calibrate_noise(target, 2, _calibration_spec(), trials=8, tol=0.01)


def test_calibrate_noise_takes_integer_and_numpy_brackets(monkeypatch):
    monkeypatch.setattr(harness, "run_batch",
                        lambda spec, workers=1: SimpleNamespace(mean_fidelity=0.95))
    for bracket in [(100, 10**10), (np.int64(100), np.float64(1e10))]:
        result = calibrate_noise(np.float64(0.95), 2, _calibration_spec(), trials=8, tol=0.01,
                                 bracket=bracket)
        assert type(result.photons_per_frame) is float and result.photons_per_frame == 100.0
        assert result.noise.photons_per_frame == 100.0 and result.evaluations == 1


@pytest.mark.parametrize("mixing", ["0.5", True, False, None, 0.5j])
def test_depolarized_refuses_a_mixing_parameter_that_is_not_real(mixing):
    with pytest.raises(ValueError, match=r"^mixing parameter must lie in \[0, 1\]$"):
        depolarized(haar_random(2, seed=0), mixing)


@pytest.mark.parametrize("mixing", [0, 1, np.float64(0.5), np.int64(1)])
def test_depolarized_takes_integer_and_numpy_reals(mixing):
    psi = haar_random(2, seed=0)
    expected = DensityMatrix(float(mixing) * np.outer(psi.amps, psi.amps.conj())
                             + (1.0 - float(mixing)) * np.eye(2) / 2)
    np.testing.assert_array_equal(depolarized(psi, mixing).matrix, expected.matrix)


@pytest.mark.parametrize(
    "entry, shown",
    [(None, "None"), ({"re": 1}, "{'re': 1}"), ([0.5], "[0.5]")],
    ids=["null", "object", "ragged-row"],
)
def test_json_number_arrays_refuse_every_non_number(entry, shown):
    with pytest.raises(TypeError, match=f"^{re.escape(f'expected a number, got {shown}')}$"):
        PureState.from_dict({"dim": 2, "re": [entry, 0.5], "im": [0, 0]})


def test_cli_refuses_a_null_outcome(tmp_path, capsys):
    path = tmp_path / "outcomes.json"
    path.write_text(json.dumps({"dim": 2, "ref_index": 0, "populations": [None, 0.5],
                                "interference": [[0.5, 0.5, 0.25]]}))
    capsys.readouterr()
    assert main(["reconstruct", "--outcomes", str(path), "--out-dir", str(tmp_path / "o")]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {path}: expected a number, got None")


# ------------------------------------------------------------ optical geometry from lists


def test_optical_config_built_from_lists_stores_tuples():
    rois = ((40, 56, 10, 16), (70, 56, 10, 16))
    listed = OpticalConfig(n_slits=2, image_dims=[128, 120], roi_layout=[list(r) for r in rois])
    tupled = OpticalConfig(n_slits=2, image_dims=(128, 120), roi_layout=rois)
    assert listed.image_dims == (128, 120) and listed.roi_layout == rois
    assert listed == tupled and hash(listed) == hash(tupled)
    psi = haar_random(2, seed=3)
    noise = NoiseModel(photons_per_frame=1e4)
    for a, b in zip(render_frames(psi, listed, noise, seed=5),
                    render_frames(psi, tupled, noise, seed=5)):
        np.testing.assert_array_equal(a.pixels, b.pixels)
