"""Frames trials in batches: pinned per-trial draws, row independence, and the
one-pass adaptive render.

Frames trial i of a batch renders from its own trial_seed(root_seed, i),
which its row records; only its input state comes from the batch's
chunk-keyed Haar draws (generate_states), so row i depends only on
(root_seed, i).  ``data/frames_trials_pinned.json`` holds, for fourteen small
frames specs, the seed, reference, verdict, error and fidelity of every trial
as the batch runner produced them when the Haar draws became chunk-keyed.
The specs cover the fixed, adaptive and extra_slit modes at d = 2, 5 and 14, a
flat envelope, the calibration frame, a noiseless Bloch lattice, and
low-photon runs whose trials fail with DegenerateFringe, ZeroVector and
AllZero.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psitomo import (
    ExperimentSpec,
    NoiseModel,
    OpticalConfig,
    StateSource,
    choose_reference,
    haar_random,
    reconstruct_from_frames,
    render_blocked_frame,
    render_frames,
    roi_means,
    run_batch,
    run_trial,
    trial_seed,
)
from psitomo.errors import AllZero, TomographyError
from psitomo.harness import OUTCOME_CHUNK, _frames_run, generate_states
from psitomo.imaging import _geometry
from psitomo.imaging import DISPLAY_PHASE_SD, _render, _steps

PINNED = json.loads((Path(__file__).parent / "data" / "frames_trials_pinned.json").read_text())


def verdict_of(t):
    if t.error is not None:
        return "FAILED"
    return "PURE" if t.pure else "NOT_PURE"


def pinned_spec(p):
    noise = NoiseModel.bench_defaults(p["photons"]) if p["bench_noise"] else NoiseModel()
    optical = None
    if p["envelope"] != "sinc":
        optical = OpticalConfig.for_dim(
            p["dim"], extra_reference=p["reference_mode"] == "extra_slit", envelope=p["envelope"]
        )
    kind = "haar" if p["source"] == "haar" else "bloch_grid"
    return ExperimentSpec(
        dim=p["dim"],
        source=StateSource(kind, p["n"]),
        root_seed=p["root_seed"],
        pipeline="frames",
        reference_mode=p["reference_mode"],
        noise=noise,
        optical=optical,
        calibration_frame=p["calibration_frame"],
    )


@pytest.mark.parametrize("pinned", PINNED["specs"], ids=lambda s: s["name"])
def test_batch_reproduces_pinned_frames_trials(pinned):
    trials = run_batch(pinned_spec(pinned)).trials
    assert len(trials) == len(pinned["trials"])
    for t, (seed, ref, verdict, error, fid) in zip(trials, pinned["trials"]):
        assert (t.seed, t.reference_used, verdict_of(t), t.error) == (seed, ref, verdict, error)
        assert abs(t.fidelity - fid) <= 1e-12, t.index


@settings(max_examples=6)
@example(dim=3, mode="adaptive", photons=3.0, n=4, root=5)
@example(dim=4, mode="extra_slit", photons=1e4, n=3, root=7)
@given(
    dim=st.integers(2, 6),
    mode=st.sampled_from(["fixed", "adaptive", "extra_slit"]),
    photons=st.sampled_from([0.0, 3.0, 1e4]),
    n=st.integers(1, 4),
    root=st.integers(0, 2**32 - 1),
)
def test_frames_batch_rows_match_single_trials(dim, mode, photons, n, root):
    spec = ExperimentSpec(
        dim=dim,
        source=StateSource.haar(n),
        root_seed=root,
        pipeline="frames",
        reference_mode=mode,
        noise=NoiseModel.bench_defaults(photons),
    )
    batch = run_batch(spec).trials
    for i, psi in enumerate(generate_states(spec)):
        seed = trial_seed(root, i)
        row = batch[i]
        assert (row.index, row.seed, row.dim) == (i, seed, dim)
        try:
            single = run_trial(psi, spec, seed, i)
        except TomographyError as exc:
            assert row.error == type(exc).__name__
            assert (row.fidelity, row.pure, row.reference_used, row.recon_state) == (
                0.0, False, -1, None
            )
            continue
        assert row.error is None
        assert (row.pure, row.reference_used, row.outcome_budget, row.fidelity) == (
            single.pure, single.reference_used, single.outcome_budget, single.fidelity
        )
        assert np.array_equal(row.recon_state.amps, single.recon_state.amps)


def two_pass_adaptive(psi, config, noise, seed, calibration, roi_band=True):
    """The adaptive acquisition as separate calls: blocked frame, reference
    choice, then every frame rendered with the chosen reference's config."""
    blocked = render_blocked_frame(psi, config, noise, seed, roi_band=roi_band)
    chosen = config.with_reference(choose_reference(roi_means(blocked)))
    return render_frames(psi, chosen, noise, seed, calibration, roi_band=roi_band)


@settings(max_examples=40)
@example(dim=5, envelope="sinc", calibration=False, dark=0.0, photons=30.0, band=True, seed=1)
@example(dim=8, envelope="flat", calibration=True, dark=0.5, photons=1e5, band=False, seed=3)
@given(
    dim=st.integers(2, 8),
    envelope=st.sampled_from(["sinc", "flat"]),
    calibration=st.booleans(),
    dark=st.sampled_from([0.0, 0.5]),
    photons=st.sampled_from([0.0, 30.0, 1e5]),
    band=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_pass_adaptive_render_equals_two_passes(
    dim, envelope, calibration, dark, photons, band, seed
):
    """Choosing the reference inside one render changes no pixel, no config
    and no error, with or without shot noise, dark counts and calibration."""
    psi = haar_random(dim, seed)
    config = OpticalConfig.for_dim(dim, envelope=envelope)
    noise = NoiseModel(photons, 0.1, DISPLAY_PHASE_SD, dark)
    render_seed = np.random.SeedSequence(seed).spawn(1)[0]

    def pick(means):
        return config.with_reference(choose_reference(means))

    try:
        want = two_pass_adaptive(psi, config, noise, render_seed, calibration, band)
    except AllZero:
        with pytest.raises(AllZero):
            _render(psi, config, noise, render_seed, _steps(calibration), band, pick)
        return
    got = _render(psi, config, noise, render_seed, _steps(calibration), band, pick)
    assert [f.step_index for f in got] == [f.step_index for f in want]
    for g, w in zip(got, want):
        assert g.config == w.config
        assert np.array_equal(g.pixels, w.pixels)


def test_one_pass_adaptive_render_reaches_all_zero():
    """The low-photon example above does take the AllZero path."""
    noise = NoiseModel(30.0, 0.1, DISPLAY_PHASE_SD)
    render_seed = np.random.SeedSequence(1).spawn(1)[0]
    with pytest.raises(AllZero):
        two_pass_adaptive(haar_random(5, 1), OpticalConfig.for_dim(5), noise, render_seed, False)


@pytest.mark.parametrize("calibration", [False, True])
def test_adaptive_frames_trial_reconstructs_the_two_pass_frames(calibration):
    """A batch trial's report is the reconstruction of the two-pass frames."""
    spec = ExperimentSpec(
        dim=6, source=StateSource.haar(4), root_seed=21, pipeline="frames",
        noise=NoiseModel.bench_defaults(1e4), calibration_frame=calibration,
    )
    states, seeds = generate_states(spec), [trial_seed(21, i) for i in range(4)]
    trial = _frames_run(states, spec, seeds)
    for j, psi in enumerate(states):
        render_seed = np.random.SeedSequence(seeds[j]).spawn(1)[0]
        config = OpticalConfig.for_dim(6)
        frames = two_pass_adaptive(psi, config, spec.noise, render_seed, calibration)
        want = reconstruct_from_frames(frames)
        got = trial(j)
        assert got.reference_used == want.reference_used
        assert np.array_equal(got.state.amps, want.state.amps)


def test_second_adaptive_frames_batch_at_d64_reuses_every_geometry():
    # Each reference slit the run picks holds two _geometry entries (config and band).
    spec = ExperimentSpec(dim=64, source=StateSource("haar", 80), root_seed=3,
                          pipeline="frames", reference_mode="adaptive",
                          noise=NoiseModel.bench_defaults(1e7))
    run_batch(spec)
    misses = _geometry.cache_info().misses
    run_batch(spec)
    assert _geometry.cache_info().misses == misses


def test_an_adaptive_frames_batch_checks_one_config_per_reference_slit(monkeypatch):
    # with_reference checks the config of each reference slit met; the band configs
    # that _geometry packs from it, and the band's own band, are not checked again.
    # A batch of more than OUTCOME_CHUNK trials is one run too: at d = 8, 600 trials
    # meet every slit, and each slit's config is checked once, not once per chunk.
    specs = [ExperimentSpec(dim=dim, source=StateSource("haar", n), root_seed=3,
                            pipeline="frames", reference_mode="adaptive",
                            noise=NoiseModel.bench_defaults(1e7))
             for dim, n in ((64, 40), (8, 600))]
    assert specs[1].source.n > 2 * OUTCOME_CHUNK
    checked = []
    check = OpticalConfig.__post_init__
    monkeypatch.setattr(OpticalConfig, "__post_init__",
                        lambda self: checked.append(self.ref_index) or check(self))
    for spec, least in zip(specs, (11, 8)):
        checked.clear()
        _geometry.cache_clear()
        stats = run_batch(spec)
        assert stats.n_failed == 0
        met = {t.reference_used for t in stats.trials}
        assert len(met) >= least
        assert sorted(checked) == sorted(met)
