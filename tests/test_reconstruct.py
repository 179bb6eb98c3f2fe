"""Inversion and purity certification tests."""

import math

import numpy as np
import pytest

from psitomo import (
    NoiseModel,
    OpticalConfig,
    ProjectorSpec,
    certify_purity,
    choose_reference,
    circular_mean,
    exact_outcomes,
    exact_outcomes_mixed,
    extract_roi_measurements,
    fidelity,
    haar_random,
    normalize,
    psi_phase,
    psi_visibility,
    reconstruct_from_frames,
    reconstruct_from_outcomes,
    render_frames,
    sample_counts,
)
from psitomo.errors import (
    AllZero,
    DegenerateFringe,
    DimensionMismatch,
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


def test_psi_phase_degenerate_raises():
    with pytest.raises(DegenerateFringe):
        psi_phase(1.0, 1.0, 1.0)
    # custom eps widens the dead zone
    i1, i2, i3 = stepped_triple(0.3, 1e-9, 1.0)
    with pytest.raises(DegenerateFringe):
        psi_phase(i1, i2, i3, eps=1e-6)


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


def test_certify_purity_vacuous_when_nothing_verifiable():
    pops = np.array([1.0, 1e-9])
    check = certify_purity(pops, np.array([1.0, 0.0]), 1.0, ref_index=0)
    assert check.pure
    assert check.margin == math.inf


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
    report = reconstruct_from_outcomes(exact_outcomes(psi, spec), spec)
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


def test_reconstruct_rejects_mismatched_spec():
    out = exact_outcomes(haar_random(3, seed=2))
    with pytest.raises(DimensionMismatch):
        reconstruct_from_outcomes(out, ProjectorSpec(4))
    with pytest.raises(DimensionMismatch):
        reconstruct_from_outcomes(out, ProjectorSpec(3, ref_index=1))


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
    report = reconstruct_from_frames(frames[:4], calibration=frames[4])
    assert fidelity(psi, report.state) >= 1.0 - 1e-12
    assert report.purity_verdict.pure


def test_frame_reconstruction_validates_frame_set():
    psi = haar_random(2, seed=52)
    cfg = OpticalConfig.for_dim(2)
    frames = render_frames(psi, cfg)
    with pytest.raises(ValueError):
        reconstruct_from_frames(frames[:3])
    with pytest.raises(ValueError):
        reconstruct_from_frames(frames + [frames[1]])
    with pytest.raises(ValueError):
        reconstruct_from_frames(frames[:4], calibration=frames[1])


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
    report = reconstruct_from_frames(frames[:4], frames[4] if calibration else None)
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
    cal = frames[4] if calibration else None
    report = reconstruct_from_frames(frames[:4], cal)
    phases, gamma, ref_level = loop_reference(frames[:4], cal)
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


def test_extract_roi_measurements_summaries():
    psi = haar_random(3, seed=54)
    cfg = OpticalConfig.for_dim(3, envelope="flat")
    frames = render_frames(psi, cfg)
    ms = extract_roi_measurements(frames)
    assert [m.slit for m in ms] == [0, 1, 2]
    pops = np.abs(psi.amps) ** 2
    for m in ms:
        assert m.mean_blocked == pytest.approx(pops[m.slit], abs=1e-12)
        assert len(m.step_means) == 3
        assert m.phase_map.shape == frames[0].roi(m.slit).shape
