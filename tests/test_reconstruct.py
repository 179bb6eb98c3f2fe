"""Inversion and purity certification tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from psitomo import (
    ExperimentSpec,
    Interferogram,
    NoiseModel,
    OpticalConfig,
    ProjectorOutcomes,
    ProjectorSpec,
    StateSource,
    certify_purity,
    choose_reference,
    circular_mean,
    exact_outcomes,
    exact_outcomes_mixed,
    fidelity,
    haar_random,
    normalize,
    psi_phase,
    psi_visibility,
    reconstruct_from_frames,
    reconstruct_from_outcomes,
    render_frames,
    run_batch,
    sample_counts,
)
from psitomo.errors import (
    AllZero,
    BadIndex,
    DegenerateFringe,
    NonpositiveReference,
    WeakReference,
    ZeroResultant,
)
from psitomo.states import depolarized


def stepped_triple(phi, gamma, i0):
    """Three-step fringe intensities I_l = I0 (1 + gamma cos(phi - pi/4 + pi l/2))."""
    return tuple(
        i0 * (1.0 + gamma * math.cos(phi - math.pi / 4 + math.pi / 2 * l))
        for l in (1, 2, 3)
    )


# ------------------------------------------------------------ fringe algebra


def test_psi_phase_recovers_parametrized_fringe():
    for phi in (-3.0, -1.2, 0.0, 0.7, 2.9):
        i1, i2, i3 = stepped_triple(phi, 0.8, 2.5)
        assert psi_phase(i1, i2, i3) == pytest.approx(phi, abs=1e-13)


def test_psi_phase_returns_positive_pi_on_the_branch_cut():
    i1, i2, i3 = stepped_triple(math.pi, 1.0, 1.0)
    assert psi_phase(i1, i2, i3) == pytest.approx(math.pi)
    assert psi_phase(i1, i2, i3) > 0


def test_an_angle_of_exactly_minus_pi_folds_to_pi():
    # arctan2 gives -pi for a resultant on the negative real axis with a -0.0 or
    # rounded-away imaginary part; the fold into (-pi, pi] turns it into +pi.
    assert psi_phase(-1.0, 0.0, -0.0) == math.pi
    assert circular_mean([-math.pi]) == math.pi


def test_psi_phase_degenerate_raises():
    with pytest.raises(DegenerateFringe):
        psi_phase(1.0, 1.0, 1.0)


def test_psi_phase_judges_the_modulation_not_the_larger_difference():
    # Each difference is 0.9e-6 of the peak, but their hypot is 1.27e-6 of it:
    # a pixel reconstruct_from_frames keeps, so psi_phase gives its phase.
    assert psi_phase(1 + 0.9e-6, 1.0, 1 + 0.9e-6) == pytest.approx(math.pi / 4, abs=1e-9)
    with pytest.raises(DegenerateFringe):
        psi_phase(1 + 0.7e-6, 1.0, 1 + 0.7e-6)  # hypot 0.99e-6 of the peak


def test_psi_visibility_round_trip():
    for gamma in (0.05, 0.5, 1.0):
        i1, i2, i3 = stepped_triple(1.1, gamma, 3.0)
        assert psi_visibility(i1, i2, i3, 3.0) == pytest.approx(gamma, abs=1e-13)


def test_psi_visibility_rejects_nonpositive_level():
    with pytest.raises(NonpositiveReference):
        psi_visibility(1.0, 0.5, 0.2, 0.0)


def test_antiphase_average_gives_mean_level():
    # I1 and I3 differ by pi in the stepped cosine, so (I1 + I3)/2 = I0
    i1, _, i3 = stepped_triple(0.42, 0.9, 1.7)
    assert 0.5 * (i1 + i3) == pytest.approx(1.7, abs=1e-14)


def test_circular_mean_simple_and_wrapped():
    assert circular_mean([0.1, 0.3]) == pytest.approx(0.2, abs=1e-13)
    # straddling the cut: the mean must come out at pi, not zero
    assert abs(circular_mean([math.pi - 0.01, -math.pi + 0.01])) == pytest.approx(
        math.pi, abs=1e-12
    )


def test_circular_mean_weights():
    got = circular_mean([0.0, 1.0], weights=[3.0, 1.0])
    resultant = 3.0 + np.exp(1j)
    assert got == pytest.approx(math.atan2(resultant.imag, resultant.real), abs=1e-13)


def test_circular_mean_degenerate_resultant():
    with pytest.raises(ZeroResultant):
        circular_mean([0.0, math.pi])


def test_circular_mean_keeps_a_resultant_of_1e_9_of_the_weight():
    # _RESULTANT_TOL is 1e-12: a resultant 2e-9 long over total weight 2 has a direction.
    assert circular_mean([0.0, math.pi], [1.0, 1.0 - 2e-9]) == pytest.approx(0.0, abs=1e-6)


def test_circular_mean_validation():
    with pytest.raises(ValueError):
        circular_mean([])
    with pytest.raises(ValueError):
        circular_mean([0.0, 1.0], weights=[1.0])
    with pytest.raises(ValueError):
        circular_mean([0.0], weights=[-1.0])


def test_choose_reference():
    assert choose_reference([0.1, 0.5, 0.4]) == 1
    assert choose_reference([0.5, 0.5]) == 0  # tie goes to the lowest index
    with pytest.raises(AllZero):
        choose_reference([0.0, 0.0])
    with pytest.raises(ValueError):
        choose_reference([-0.1, 0.2])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: circular_mean([]), "need at least one phase"),
        (lambda: circular_mean([0.0, 1.0], weights=[1.0]), "weights must match phases in length"),
        (lambda: circular_mean([0.1, 0.2], weights=[0.0, 0.0]), "weights must have positive sum"),
        (lambda: choose_reference([]), "need at least one population"),
        (lambda: certify_purity([0.5, 0.5], [1.0], 0.5, ref_index=0),
         "populations and visibilities must have the same length"),
        (lambda: certify_purity(np.ones((2, 2)), np.ones((2, 2)), 0.5, ref_index=0),
         "populations and visibilities must be 1-D"),
        (lambda: choose_reference([[0.1, 0.5], [0.2, 0.3]]), "populations must be 1-D"),
        (lambda: choose_reference(0.5), "populations must be 1-D"),
    ],
    ids=["no-phases", "weights-length", "zero-weights", "no-populations", "length-mismatch", "2-D",
         "reference-2-D",
         "reference-0-D"],
)
def test_reconstruct_validation(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("ref_index", [7, -1, 1.5])
def test_certify_purity_refuses_a_reference_that_is_not_a_slit(ref_index):
    with pytest.raises(BadIndex, match="reference index"):
        certify_purity([0.5, 0.5], [0.2, 1.0], 0.5, ref_index=ref_index)


NAN = float("nan")


@pytest.mark.parametrize(
    "call",
    [
        lambda: psi_phase(1.0, NAN, 0.5),
        lambda: psi_phase(math.inf, 0.5, 0.2),
        lambda: psi_visibility(NAN, 0.5, 0.2, 1.0),
        lambda: psi_visibility(1.0, 0.5, 0.2, math.inf),
        lambda: circular_mean([0.1, NAN]),
        lambda: circular_mean([0.1, 0.2], weights=[1.0, math.inf]),
        lambda: choose_reference([0.2, NAN, 0.9]),
        lambda: choose_reference([0.2, math.inf]),
        lambda: certify_purity([0.5, 0.5], [1.0, NAN], 0.5, ref_index=0),
        lambda: certify_purity([0.5, math.inf], [1.0, 1.0], 0.5, ref_index=0),
        lambda: certify_purity([0.5, 0.5], [1.0, 1.0], [0.5, NAN], ref_index=0),
        lambda: certify_purity([0.5, 0.5], [1.0, 0.0], 0.5, ref_index=0, tau=NAN),
    ],
    ids=[
        "psi_phase-nan", "psi_phase-inf", "psi_visibility-nan", "psi_visibility-inf-level",
        "circular_mean-nan", "circular_mean-inf-weight", "choose_reference-nan",
        "choose_reference-inf", "certify_purity-nan-visibility", "certify_purity-inf-population",
        "certify_purity-nan-reference", "certify_purity-nan-tau",
    ],
)
def test_helpers_reject_non_finite_input(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("tau", [NAN, math.inf, -math.inf, -0.5, -1e-12])
@pytest.mark.parametrize(
    "entry",
    [
        lambda tau: certify_purity([0.5, 0.5], [1.0, 1.0], 0.5, ref_index=0, tau=tau),
        lambda tau: reconstruct_from_outcomes(exact_outcomes(haar_random(4, seed=1)), tau=tau),
        lambda tau: reconstruct_from_frames(
            render_frames(haar_random(3, seed=1), OpticalConfig.for_dim(3)), tau=tau),
        lambda tau: ExperimentSpec(dim=3, source=StateSource.haar(2), root_seed=0, tau_purity=tau),
    ],
    ids=["certify_purity", "reconstruct_from_outcomes", "reconstruct_from_frames", "spec"],
)
def test_every_entry_refuses_the_same_purity_slack(entry, tau):
    """The slack tau is refused unless finite and non-negative, by one rule
    wherever it enters; a negative one would call exact pure data mixed."""
    with pytest.raises(ValueError, match="must be finite and non-negative"):
        entry(tau)


# ------------------------------------------------------------ purity


def test_certify_purity_saturated_visibility_is_pure():
    pops = np.array([0.4, 0.35, 0.25])
    bound = 2 * np.sqrt(pops * pops[0]) / (pops + pops[0])
    check = certify_purity(pops, bound, pops[0], ref_index=0)
    assert check.pure
    assert np.isnan(check.margins[0])
    assert check.margins[1] == pytest.approx(0.0, abs=1e-12)
    assert check.margin == pytest.approx(0.0, abs=1e-12)


def test_certify_purity_flags_damped_visibility():
    pops = np.array([0.5, 0.5])
    check = certify_purity(pops, np.array([1.0, 0.5]), 0.5, ref_index=0, tau=0.02)
    assert not check.pure
    assert check.margins[1] == pytest.approx(-0.5)


def test_certify_purity_tau_sensitivity():
    pops = np.array([0.5, 0.5])
    vis = np.array([1.0, 0.97])  # 0.03 below the saturated bound
    assert not certify_purity(pops, vis, 0.5, ref_index=0, tau=0.02).pure
    assert certify_purity(pops, vis, 0.5, ref_index=0, tau=0.05).pure


def test_certify_purity_skips_weak_slits():
    pops = np.array([1.0, 1e-6, 0.5])
    vis = np.array([1.0, 0.0, 2 * np.sqrt(0.5) / 1.5])
    check = certify_purity(pops, vis, 1.0, ref_index=0, tau=0.02)
    assert check.pure
    assert check.unverifiable == (1,)


@pytest.mark.parametrize("invert", [
    lambda psi: reconstruct_from_outcomes(exact_outcomes(psi)),
    lambda psi: reconstruct_from_frames(render_frames(psi, OpticalConfig.for_dim(3))),
], ids=["outcomes", "frames"])
def test_slits_either_side_of_the_weak_fraction(invert):
    # WEAK_FRACTION is 1e-4: a slit at 2e-4 of the peak population is
    # verified, and one at 5e-5 of it is not.
    psi = normalize(np.sqrt([1.0, 2e-4, 5e-5]) * np.exp(1j * np.array([0.0, 0.7, -1.9])))
    verdict = invert(psi).purity_verdict
    assert verdict.unverifiable == (2,)
    assert np.isfinite(verdict.margins[1])


def test_a_slit_at_exactly_the_weak_fraction_is_unverifiable():
    check = certify_purity([1.0, 1e-4], [1.0, 0.0], 1.0, ref_index=0, tau=0.0)
    assert check.unverifiable == (1,)


def test_certify_purity_vacuous_when_nothing_verifiable():
    pops = np.array([1.0, 1e-9])
    check = certify_purity(pops, np.array([1.0, 0.0]), 1.0, ref_index=0)
    assert check.pure
    assert check.margin == math.inf


def test_certify_purity_forgives_rounding_but_not_admixture_at_zero_tau():
    pops = np.array([0.5, 0.5])
    rounded = certify_purity(pops, np.array([1.0, 1.0 - 2e-15]), 0.5, ref_index=0, tau=0.0)
    assert rounded.pure and rounded.tau == 0.0
    assert not certify_purity(pops, np.array([1.0, 1.0 - 1e-9]), 0.5, ref_index=0, tau=0.0).pure


@pytest.mark.parametrize(
    "pipeline, envelope, n",
    [("outcomes", None, 200), ("frames", "flat", 20), ("frames", "sinc", 20)],
)
@pytest.mark.parametrize("dim", range(2, 15))
def test_noiseless_states_certify_pure_at_zero_tau(pipeline, envelope, n, dim):
    optical = None if envelope is None else OpticalConfig.for_dim(dim, envelope=envelope)
    spec = ExperimentSpec(
        dim=dim, source=StateSource.haar(n), root_seed=0, pipeline=pipeline,
        optical=optical, tau_purity=0.0,
    )
    stats = run_batch(spec)
    assert stats.n_failed == 0
    assert stats.purity_false_negatives == 0


# ------------------------------------------------------------ outcome inversion


@pytest.mark.parametrize("d", [2, 3, 7, 12])
def test_outcome_round_trip_is_exact(d):
    psi = haar_random(d, seed=d * 11 + 1)
    report = reconstruct_from_outcomes(exact_outcomes(psi))
    assert fidelity(psi, report.state) >= 1.0 - 1e-12
    assert report.outcome_budget == 4 * d - 3
    assert report.reference_used == 0
    assert report.purity_verdict.pure


def test_outcome_round_trip_nondefault_reference():
    psi = haar_random(6, seed=5)
    spec = ProjectorSpec(6, ref_index=4)
    report = reconstruct_from_outcomes(exact_outcomes(psi, spec))
    assert fidelity(psi, report.state) >= 1.0 - 1e-12
    assert report.reference_used == 4


def test_outcome_round_trip_from_counts():
    psi = haar_random(4, seed=10)
    counts = sample_counts(
        exact_outcomes(psi), NoiseModel(photons_per_frame=2e6), seed=3
    )
    report = reconstruct_from_outcomes(counts)
    assert fidelity(psi, report.state) > 0.999


def test_reconstruct_rejects_weak_reference():
    psi = normalize(np.array([0.0, 1.0]))
    with pytest.raises(WeakReference):
        reconstruct_from_outcomes(exact_outcomes(psi))


def test_a_reference_at_exactly_the_weak_fraction_anchors():
    # The reference may sit at exactly WEAK_FRACTION * peak (5e-5 against a peak of 0.5).
    pops = np.array([5e-5, 0.5, 0.49995])
    psi = normalize(np.sqrt(pops) * np.exp(1j * np.array([0.0, 0.4, -1.1])))
    table = exact_outcomes(psi).interference
    report = reconstruct_from_outcomes(ProjectorOutcomes(3, 0, pops, table))
    assert report.reference_used == 0
    assert fidelity(psi, report.state) >= 1.0 - 1e-12


def test_mixed_state_fails_purity_but_pure_passes():
    psi = haar_random(5, seed=30)
    pure_report = reconstruct_from_outcomes(exact_outcomes_mixed(depolarized(psi, 1.0)))
    mixed_report = reconstruct_from_outcomes(exact_outcomes_mixed(depolarized(psi, 0.5)))
    assert pure_report.purity_verdict.pure
    assert not mixed_report.purity_verdict.pure


def test_visibility_report_matches_closed_form():
    psi = haar_random(3, seed=44)
    report = reconstruct_from_outcomes(exact_outcomes(psi))
    pops = np.abs(psi.amps) ** 2
    expect = 2 * np.sqrt(pops[0] * pops[1:]) / (pops[0] + pops[1:])
    assert report.per_slit_visibility[1:] == pytest.approx(expect, abs=1e-12)
    assert report.expected_visibility[1:] == pytest.approx(expect, abs=1e-12)


# ------------------------------------------------------------ frame inversion


@pytest.mark.parametrize("envelope", ["flat", "sinc"])
def test_frame_round_trip_noiseless(envelope):
    psi = haar_random(5, seed=50)
    cfg = OpticalConfig.for_dim(5, envelope=envelope)
    report = reconstruct_from_frames(render_frames(psi, cfg))
    assert fidelity(psi, report.state) >= 1.0 - 1e-12
    assert report.outcome_budget == 4 * 5
    assert report.purity_verdict.pure


def test_frame_round_trip_with_calibration_frame():
    psi = haar_random(3, seed=51)
    cfg = OpticalConfig.for_dim(3)
    frames = render_frames(psi, cfg, include_calibration=True)
    report = reconstruct_from_frames(frames)
    assert fidelity(psi, report.state) >= 1.0 - 1e-12
    assert report.purity_verdict.pure


def test_frame_reconstruction_validates_frame_set():
    psi = haar_random(2, seed=52)
    cfg = OpticalConfig.for_dim(2)
    frames = render_frames(psi, cfg, include_calibration=True)
    with pytest.raises(ValueError, match="need the four frames"):
        reconstruct_from_frames(frames[:3])
    with pytest.raises(ValueError, match="duplicate frame for step 1"):
        reconstruct_from_frames(frames + [frames[1]])
    with pytest.raises(ValueError, match="duplicate frame for step 4"):
        reconstruct_from_frames(frames + [frames[4]])
    with pytest.raises(ValueError, match="need the four frames"):
        reconstruct_from_frames(frames[:2] + frames[3:])


def test_frame_reconstruction_refuses_frames_of_two_configurations():
    psi = haar_random(3, seed=52)
    cfg = OpticalConfig.for_dim(3)
    frames = render_frames(psi, cfg, include_calibration=True)
    moved = render_frames(psi, cfg.with_reference(1), include_calibration=True)
    with pytest.raises(ValueError, match="frames disagree on the optical configuration"):
        reconstruct_from_frames(frames[:3] + moved[3:4])
    with pytest.raises(ValueError, match="frames disagree on the optical configuration"):
        reconstruct_from_frames(frames[:4] + moved[4:])


def row_frames(rows, widths):
    """The four frames of a one-row image whose ROIs are ``widths`` pixels wide,
    side by side; ``rows[s]`` is frame s's pixel row."""
    starts = np.cumsum([0, *widths])
    cfg = OpticalConfig(n_slits=len(widths), image_dims=(1, int(starts[-1])),
                        roi_layout=tuple((int(x), 0, w, 1) for x, w in zip(starts, widths)),
                        ref_envelope=(1.0,) * len(widths), envelope_kind="custom")
    return [Interferogram(s, np.array([row], dtype=float), cfg) for s, row in enumerate(rows)]


def test_reference_roi_whose_pixels_cancel_aborts():
    # Both reference pixels are usable, but their fringes point opposite ways
    # (d1 = +0.5 and -0.5, d3 = 0), so the ROI's phase is undefined.
    rows = [[1.0, 1.0, 1.0], [1.5, 0.5, 1.5], [1.0, 1.0, 1.0], [1.0, 1.0, 2.0]]
    with pytest.raises(DegenerateFringe, match="reference ROI 0 phase is undefined"):
        reconstruct_from_frames(row_frames(rows, (2, 1)))


@given(st.floats(1e-3, 1e3), st.floats(-math.pi, math.pi),
       st.one_of(st.floats(0.5, 2.0), st.floats(1.0 - 1e-9, 1.0 + 1e-9)))
@example(1.0, math.pi / 4, 0.9 * math.sqrt(2.0))  # psi_phase(1 + 0.9e-6, 1, 1 + 0.9e-6)
def test_psi_phase_fails_exactly_where_a_one_pixel_reference_roi_is_unusable(i2, phi, ratio):
    """Non-negative triples whose modulation lies near DEGENERATE_FRACTION of
    the level: psi_phase raises exactly when reconstruct_from_frames, given
    the triple as its one-pixel reference ROI, finds no usable pixel there."""
    m = ratio * 1e-6 * i2
    i1, i3 = i2 + m * math.cos(phi), i2 + m * math.sin(phi)
    rows = [[i2, 1.0], [i1, 1.5], [i2, 1.0], [i3, 1.0]]  # slit 1 has a clear fringe
    try:
        reconstruct_from_frames(row_frames(rows, (1, 1)))
        unusable = False
    except DegenerateFringe as exc:
        assert "no usable fringe modulation" in str(exc)
        unusable = True
    try:
        psi_phase(i1, i2, i3)
        raised = False
    except DegenerateFringe:
        raised = True
    assert raised == unusable


def degenerate_in_both(i1, i2, i3):
    """Whether psi_phase raises DegenerateFringe on the triple, and whether
    reconstruct_from_frames finds no usable pixel in it as a one-pixel
    reference ROI; slit 1 has a clear fringe."""
    rows = [[i2, 1.0], [i1, 1.5], [i2, 1.0], [i3, 1.0]]
    verdicts = []
    for invert in (lambda: psi_phase(i1, i2, i3),
                   lambda: reconstruct_from_frames(row_frames(rows, (1, 1)))):
        try:
            invert()
            verdicts.append(False)
        except DegenerateFringe as exc:
            assert "phase is undefined" not in str(exc)
            verdicts.append(True)
    return verdicts


@given(st.floats(-1e3, -1e-3), st.floats(-math.pi, math.pi),
       st.one_of(st.floats(0.5, 2.0), st.floats(1.0 - 1e-9, 1.0 + 1e-9), st.floats(1e-4, 1e-2)))
def test_negative_triples_are_degenerate_alike_in_psi_phase_and_a_reference_roi(i2, phi, ratio):
    """Triples of negative intensities whose modulation lies near
    DEGENERATE_FRACTION of their largest absolute value: both rules take the
    threshold from that value, so they raise on the same triples."""
    m = ratio * 1e-6 * abs(i2)
    psi_raised, roi_unusable = degenerate_in_both(i2 + m * math.cos(phi), i2,
                                                  i2 + m * math.sin(phi))
    assert psi_raised == roi_unusable


@pytest.mark.parametrize("triple", [(-2.0 + 1e-9, -2.0, -2.0), (-2.0, -2.0 + 1e-9, -2.0),
                                    (-1.0, -1.0, -1.0 + 3e-7), (-5.0, -5.0 + 4e-6, -5.0 + 4e-6)])
def test_a_barely_modulated_negative_triple_is_degenerate_in_both(triple):
    assert degenerate_in_both(*triple) == [True, True]


def test_degenerate_reference_roi_aborts():
    # all weight on slit 1, reference fixed at slit 0: its ROI shows no fringe
    psi = normalize(np.array([0.0, 1.0]))
    cfg = OpticalConfig.for_dim(2)
    with pytest.raises(DegenerateFringe):
        reconstruct_from_frames(render_frames(psi, cfg))


@pytest.mark.parametrize("roi_band", [False, True])
def test_empty_non_reference_slit_keeps_phase_zero(roi_band):
    # slit 1 is dark, so its ROI shows the bare reference with no fringe
    psi = normalize(np.array([1.0, 0.0, 1.0j]))
    frames = render_frames(psi, OpticalConfig.for_dim(3), roi_band=roi_band)
    report = reconstruct_from_frames(frames)
    assert report.state.amps[1] == 0.0
    assert fidelity(psi, report.state) >= 1.0 - 1e-12


def test_extra_reference_layout_round_trip():
    # state occupies slits 0..2, appended slit 3 is the phase anchor
    psi = haar_random(3, seed=53)
    cfg = OpticalConfig.for_dim(3, extra_reference=True)
    report = reconstruct_from_frames(render_frames(psi, cfg))
    embedded = report.state.amps
    recovered = normalize(embedded[:3])
    assert fidelity(psi, recovered) >= 1.0 - 1e-12
    assert report.reference_used == 3


@pytest.mark.parametrize("roi_band", [False, True])
@pytest.mark.parametrize("calibration", [False, True])
def test_frame_round_trip_with_unequal_roi_widths(roi_band, calibration):
    # ROIs 4, 11, 7 and 2 pixels wide on one band row, so the per-slit
    # reductions run over column segments of different lengths.
    rois = ((5, 20, 4, 9), (15, 20, 11, 9), (40, 20, 7, 9), (60, 20, 2, 9))
    cfg = OpticalConfig(
        n_slits=4,
        image_dims=(48, 70),
        roi_layout=rois,
        ref_envelope=(1.0, 0.9, 0.7, 0.5),
        envelope_kind="custom",
    )
    psi = haar_random(4, seed=56)
    frames = render_frames(psi, cfg, include_calibration=calibration, roi_band=roi_band)
    report = reconstruct_from_frames(frames)
    assert fidelity(psi, report.state) >= 1.0 - 1e-12
    assert report.purity_verdict.pure
    assert report.per_slit_visibility[1:] == pytest.approx(
        report.expected_visibility[1:], abs=1e-12
    )


def loop_reference(frames, calibration):
    """Per-ROI loop inversion: phases, visibilities and reference levels."""
    by_step = {f.step_index: f for f in frames}
    n = by_step[0].config.n_slits
    phases, gamma, ref_level = np.zeros(n), np.zeros(n), np.zeros(n)
    for k in range(n):
        roi0, roi1, roi2, roi3 = (by_step[s].roi(k) for s in range(4))
        d1, d3 = roi1 - roi2, roi3 - roi2
        modulation = np.hypot(d1, d3)
        usable = modulation > 1e-6 * max(roi1.max(), roi2.max(), roi3.max())
        if calibration is not None:
            level = roi0 + calibration.roi(k)
            ref_level[k] = calibration.roi(k).mean()
        else:
            level = 0.5 * (roi1 + roi3)
            ref_level[k] = max(level.mean() - roi0.mean(), 0.0)
        lit = level > 0.0
        gamma[k] = np.mean(modulation[lit] / (math.sqrt(2.0) * level[lit]))
        phases[k] = circular_mean(np.arctan2(d3, d1)[usable], modulation[usable])
    return phases, gamma, ref_level


@pytest.mark.parametrize("calibration", [False, True])
@pytest.mark.parametrize("roi_band", [False, True])
def test_vectorised_inversion_matches_loop_reference(roi_band, calibration):
    psi = haar_random(7, seed=58)
    cfg = OpticalConfig.for_dim(7).with_reference(3)
    noise = NoiseModel.bench_defaults(photons_per_frame=1e5)
    frames = render_frames(
        psi, cfg, noise, seed=12, include_calibration=calibration, roi_band=roi_band
    )
    report = reconstruct_from_frames(frames)
    phases, gamma, ref_level = loop_reference(frames[:4], frames[4] if calibration else None)
    pops = np.array([frames[0].roi(k).mean() for k in range(7)])
    amps = np.sqrt(pops) * np.exp(1j * (phases - phases[3]))
    expected = normalize(amps).canonical()
    assert np.allclose(report.state.amps, expected.amps, rtol=0, atol=1e-12)
    assert np.allclose(report.per_slit_visibility, gamma, rtol=1e-12, atol=0)
    bound = 2.0 * np.sqrt(pops * ref_level) / (pops + ref_level)
    assert np.allclose(report.expected_visibility, bound, rtol=1e-12, atol=0)


def test_noisy_band_and_full_reconstructions_agree():
    psi = haar_random(6, seed=57)
    cfg = OpticalConfig.for_dim(6)
    noise = NoiseModel.bench_defaults(photons_per_frame=1e7)
    for roi_band in (False, True):
        frames = render_frames(psi, cfg, noise, seed=8, roi_band=roi_band)
        assert fidelity(psi, reconstruct_from_frames(frames).state) > 0.99

