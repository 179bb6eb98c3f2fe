"""Batch runner, seeding, calibration, and report writer tests."""

import json
from dataclasses import fields, replace

import numpy as np
import pytest

from psitomo import (
    ExperimentSpec,
    NoiseModel,
    OpticalConfig,
    StateSource,
    calibrate_noise,
    chunk_seed,
    fidelity,
    generate_states,
    haar_random,
    run_batch,
    run_trial,
    trial_seed,
    write_summary_json,
    write_trials_csv,
)
from psitomo import harness
from psitomo.errors import Unattainable, WeakReference
from psitomo.harness import OUTCOME_CHUNK, _streams


def spec_of(dim=3, n=8, **kw):
    return ExperimentSpec(dim=dim, source=StateSource.haar(n), root_seed=7, **kw)


# ------------------------------------------------------------ seeding


def test_trial_seed_is_stable_and_distinct():
    a = trial_seed(7, 0)
    assert a == trial_seed(7, 0)
    assert a != trial_seed(7, 1)
    assert a != trial_seed(8, 0)
    assert 0 <= a < 2**64


@pytest.mark.parametrize("root", [0, 7, 2**32 + 5, 2**64 - 1])
@pytest.mark.parametrize("index", [0, 3, OUTCOME_CHUNK + 1])
def test_chunk_and_trial_streams_are_distinct(root, index):
    """The four chunk streams of trial ``index`` and its frames render stream
    give pairwise different first draws, and a new root or chunk changes all."""

    def first_draws(root, index):
        chunk = _streams(chunk_seed(root, index // OUTCOME_CHUNK))
        render = np.random.SeedSequence(trial_seed(root, index)).spawn(1)[0]
        return [g.integers(2**63) for g in chunk + [np.random.Generator(np.random.Philox(render))]]

    draws = first_draws(root, index)
    assert len(set(draws)) == 5
    for other in (first_draws(root + 1, index), first_draws(root, index + OUTCOME_CHUNK)):
        assert all(a != b for a, b in zip(draws, other))
    # A zero tag would make the chunk key [root, c, 0] trial_seed's [root, c].
    assert chunk_seed(root, index) != trial_seed(root, index)


def test_generate_states_reproducible():
    spec = spec_of(n=5)
    a = generate_states(spec)
    b = generate_states(spec)
    assert all(fidelity(x, y) == pytest.approx(1.0) for x, y in zip(a, b))
    assert len(a) == 5
    assert all(s.dim == 3 for s in a)


def test_generate_states_bloch_and_explicit():
    bloch = ExperimentSpec(dim=2, source=StateSource.bloch(10), root_seed=0)
    assert len(generate_states(bloch)) == 10
    psi = haar_random(4, seed=1)
    explicit = ExperimentSpec(dim=4, source=StateSource.explicit([psi]), root_seed=0)
    assert generate_states(explicit) == [psi]


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(dim=3, source=StateSource.bloch(4), root_seed=0)
    with pytest.raises(ValueError):
        spec_of(pipeline="nope")
    with pytest.raises(ValueError):
        spec_of(reference_mode="nope")


# ------------------------------------------------------------ single trials


def test_noiseless_trial_reaches_unit_fidelity_all_modes():
    psi = haar_random(4, seed=60)
    for pipeline in ("outcomes", "frames"):
        for mode in ("fixed", "adaptive", "extra_slit"):
            spec = ExperimentSpec(
                dim=4,
                source=StateSource.explicit([psi]),
                root_seed=1,
                pipeline=pipeline,
                reference_mode=mode,
            )
            t = run_trial(psi, spec, seed=123)
            assert t.error is None
            assert t.fidelity == pytest.approx(1.0, abs=1e-12), (pipeline, mode)
            assert t.pure


def test_trial_budgets_by_mode():
    psi = haar_random(4, seed=61)
    budgets = {}
    for pipeline in ("outcomes", "frames"):
        for mode in ("fixed", "adaptive", "extra_slit"):
            spec = ExperimentSpec(
                dim=4,
                source=StateSource.explicit([psi]),
                root_seed=1,
                pipeline=pipeline,
                reference_mode=mode,
            )
            budgets[(pipeline, mode)] = run_trial(psi, spec, seed=5).outcome_budget
    assert budgets[("outcomes", "fixed")] == 13
    assert budgets[("outcomes", "adaptive")] == 13
    assert budgets[("outcomes", "extra_slit")] == 17  # five slits, 4*5 - 3
    assert budgets[("frames", "fixed")] == 16
    assert budgets[("frames", "adaptive")] == 16
    assert budgets[("frames", "extra_slit")] == 20


def test_adaptive_mode_rescues_empty_first_slit():
    psi = np.zeros(3, dtype=complex)
    psi[1] = 1.0
    from psitomo import normalize

    state = normalize(psi)
    fixed = ExperimentSpec(
        dim=3, source=StateSource.explicit([state]), root_seed=0,
        reference_mode="fixed",
    )
    with pytest.raises(WeakReference):
        run_trial(state, fixed, seed=9)
    adaptive = ExperimentSpec(
        dim=3, source=StateSource.explicit([state]), root_seed=0,
        reference_mode="adaptive",
    )
    t = run_trial(state, adaptive, seed=9)
    assert t.fidelity == pytest.approx(1.0, abs=1e-12)
    assert t.reference_used == 1


def test_trial_is_deterministic_under_noise():
    psi = haar_random(3, seed=62)
    spec = ExperimentSpec(
        dim=3,
        source=StateSource.explicit([psi]),
        root_seed=0,
        noise=NoiseModel.bench_defaults(photons_per_frame=5e3),
    )
    a = run_trial(psi, spec, seed=77)
    b = run_trial(psi, spec, seed=77)
    c = run_trial(psi, spec, seed=78)
    assert a.fidelity == b.fidelity
    assert a.fidelity != c.fidelity


# ------------------------------------------------------------ batches


@pytest.mark.parametrize("pipeline", ["outcomes", "frames"])
def test_batch_is_reproducible_and_worker_independent(pipeline):
    spec = spec_of(
        n=12, pipeline=pipeline, noise=NoiseModel.bench_defaults(photons_per_frame=1e4)
    )
    one = run_batch(spec)
    again = run_batch(spec)
    threaded = run_batch(spec, workers=4)
    assert [t.fidelity for t in one.trials] == [t.fidelity for t in again.trials]
    assert [t.fidelity for t in one.trials] == [t.fidelity for t in threaded.trials]
    assert one.mean_fidelity == threaded.mean_fidelity


def test_batch_records_failures_without_raising():
    from psitomo import normalize

    dead = normalize(np.array([0.0, 0.0, 1.0]))
    ok = haar_random(3, seed=63)
    spec = ExperimentSpec(
        dim=3,
        source=StateSource.explicit([ok, dead]),
        root_seed=4,
        reference_mode="fixed",
    )
    stats = run_batch(spec)
    assert stats.n_trials == 2
    assert stats.n_failed == 1
    failed = stats.trials[1]
    assert failed.error == "WeakReference"
    assert failed.fidelity == 0.0
    assert failed.recon_state is None


def test_batch_statistics_noiseless():
    stats = run_batch(spec_of(n=6))
    assert stats.mean_fidelity == pytest.approx(1.0, abs=1e-12)
    assert stats.std_fidelity == pytest.approx(0.0, abs=1e-12)
    assert stats.purity_false_negatives == 0
    assert sum(stats.hist_counts) == 6
    assert len(stats.hist_edges) == len(stats.hist_counts) + 1


def test_noiseless_histogram_is_not_split_by_rounding():
    """Noiseless fidelities land within an ulp or two of 1; they all share
    the top bin of a range at least 1e-9 wide."""
    spec = ExperimentSpec(dim=2, source=StateSource.bloch(32), root_seed=1,
                          reference_mode="fixed")
    stats = run_batch(spec)
    assert min(t.fidelity for t in stats.trials) < 1.0
    assert stats.hist_edges[0] <= 1.0 - 1e-9
    assert stats.hist_counts[-1] == 32


# ------------------------------------------------------------ writers


def test_trials_csv_is_byte_stable(tmp_path):
    spec = spec_of(n=5, noise=NoiseModel(photons_per_frame=2e4))
    stats = run_batch(spec)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trials_csv(p1, stats)
    write_trials_csv(p2, run_batch(spec))
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "index,dim,fidelity,verdict,reference,seed"


def test_summary_json_round_trips(tmp_path):
    spec = spec_of(n=4)
    stats = run_batch(spec)
    path = tmp_path / "summary.json"
    write_summary_json(path, stats, spec)
    payload = json.loads(path.read_text())
    assert payload["n_trials"] == 4
    assert payload["dim"] == 3
    assert payload["pipeline"] == "outcomes"
    assert payload["mean_fidelity"] == stats.mean_fidelity


@pytest.mark.parametrize(
    "spec, kinds",
    [
        # The failing specs of the pinned trial files, with their pinned counts.
        (ExperimentSpec(dim=5, source=StateSource.haar(20), root_seed=11, pipeline="frames",
                        noise=NoiseModel.bench_defaults(10.0)),
         {"AllZero": 13, "DegenerateFringe": 1}),
        # Its failures first appear as DegenerateFringe, AllZero, ZeroVector,
        # so the keys are sorted, not in order of first appearance.
        (ExperimentSpec(dim=5, source=StateSource.haar(20), root_seed=151, pipeline="frames",
                        noise=NoiseModel.bench_defaults(10.0)),
         {"AllZero": 12, "DegenerateFringe": 1, "ZeroVector": 1}),
        (ExperimentSpec(dim=5, source=StateSource.haar(100), root_seed=3, reference_mode="fixed",
                        noise=NoiseModel.bench_defaults(30.0)),
         {"WeakReference": 12}),
        (spec_of(n=4), {}),
    ],
    ids=["frames-low-photons", "frames-zero-vector-first", "outcomes-fixed-reference",
         "no-failures"],
)
def test_summary_counts_failures_by_kind(tmp_path, spec, kinds):
    stats = run_batch(spec)
    assert stats.failures_by_kind == kinds
    assert list(stats.failures_by_kind) == sorted(kinds)
    assert sum(kinds.values()) == stats.n_failed
    for kind, count in kinds.items():
        assert sum(t.error == kind for t in stats.trials) == count
    one, many = tmp_path / "one.json", tmp_path / "many.json"
    write_summary_json(one, stats, spec)
    write_summary_json(many, run_batch(spec, workers=4), spec)
    assert one.read_bytes() == many.read_bytes()
    assert json.loads(one.read_text())["failures_by_kind"] == kinds


# ------------------------------------------------------------ calibration


def test_calibrate_noise_hits_target():
    template = ExperimentSpec(
        dim=2,
        source=StateSource.haar(1),
        root_seed=11,
        noise=NoiseModel(phase_step_jitter_sd=0.05),
    )
    result = calibrate_noise(0.99, 2, template, trials=60, tol=0.005)
    assert abs(result.achieved_mean_fidelity - 0.99) <= 0.005
    assert result.noise.photons_per_frame == result.photons_per_frame
    # jitter is carried over untouched
    assert result.noise.phase_step_jitter_sd == 0.05


@pytest.mark.parametrize(
    "bracket, target, tol, evaluations",
    [((1e2, 1e10), 0.99, 0.005, 1), ((1.0, 1e10), 0.9999, 1e-4, 2)],
    ids=["low-end", "high-end"],
)
def test_calibrate_noise_returns_at_a_bracket_end(bracket, target, tol, evaluations):
    # Noiseless apart from shot noise: about 0.992 at 100 photons, 0.49 at
    # one photon and 1 - 1e-10 at 1e10, so one end already meets the target.
    template = ExperimentSpec(dim=2, source=StateSource.haar(1), root_seed=11)
    result = calibrate_noise(target, 2, template, trials=20, tol=tol, bracket=bracket)
    assert result.evaluations == evaluations
    assert result.photons_per_frame == bracket[evaluations - 1]
    assert result.noise.photons_per_frame == result.photons_per_frame
    assert abs(result.achieved_mean_fidelity - target) <= tol


def test_calibrate_noise_unattainable_target():
    template = ExperimentSpec(
        dim=2,
        source=StateSource.haar(1),
        root_seed=11,
        noise=NoiseModel(phase_step_jitter_sd=0.8),
    )
    # heavy jitter caps fidelity well below 0.9999 at any photon budget
    with pytest.raises(Unattainable):
        calibrate_noise(0.9999, 2, template, trials=40, bracket=(1e2, 1e6))


def test_calibrate_noise_keeps_the_template_optics(monkeypatch):
    flat = OpticalConfig.for_dim(3, envelope="flat")
    template = spec_of(dim=3, n=1, pipeline="frames", optical=flat)
    seen = []

    def spy(spec, workers=1):
        seen.append(spec.optics)
        return run_batch(spec, workers)

    monkeypatch.setattr(harness, "run_batch", spy)
    calibrate_noise(0.99, 3, template, trials=4, tol=0.5)
    assert seen == [flat]
    with pytest.raises(ValueError, match="dim"):
        calibrate_noise(0.99, 2, template, trials=4, tol=0.5)


def test_calibrate_noise_rejects_silly_target(monkeypatch):
    with pytest.raises(ValueError):
        calibrate_noise(1.5, 2, spec_of(dim=2), trials=10)
    # A tolerance no probe can meet is refused before the first probe, on a
    # target the default bracket attains.
    probes = []
    monkeypatch.setattr(harness, "run_batch", lambda spec, workers=1: probes.append(spec))
    for tol in (float("nan"), 0.0, -0.01):
        with pytest.raises(ValueError, match="tol"):
            calibrate_noise(0.99, 2, spec_of(dim=2), trials=10, tol=tol)
    assert probes == []


@pytest.mark.parametrize(
    "mode, config",
    [
        ("fixed", dict(dim=5)),
        ("adaptive", dict(dim=2)),
        ("fixed", dict(dim=3, extra_reference=True)),
        ("extra_slit", dict(dim=3)),
        ("extra_slit", dict(dim=4, extra_reference=True)),
    ],
    ids=["fixed-5-slits", "adaptive-2-slits", "fixed-4-slits", "extra_slit-3-slits",
         "extra_slit-5-slits"],
)
def test_spec_rejects_optical_config_with_wrong_slit_count(mode, config):
    optical = OpticalConfig.for_dim(**config)
    with pytest.raises(ValueError, match="slits"):
        spec_of(dim=3, pipeline="frames", reference_mode=mode, optical=optical)


def test_spec_rejects_adaptive_run_on_custom_envelope_dark_at_a_slit():
    """Slit 2 could become the reference of an adaptive trial, and a custom
    envelope stays dark there, so the spec is refused up front."""
    base = OpticalConfig.for_dim(3)
    optical = OpticalConfig(
        n_slits=3,
        image_dims=base.image_dims,
        roi_layout=base.roi_layout,
        ref_envelope=(1.0, 0.5, 0.0),
        envelope_kind="custom",
    )
    with pytest.raises(ValueError, match="custom envelope"):
        spec_of(dim=3, pipeline="frames", reference_mode="adaptive", optical=optical)
    # A fixed reference at slit 0 never needs slit 2's envelope to be positive.
    spec = spec_of(dim=3, n=4, pipeline="frames", reference_mode="fixed", optical=optical)
    assert run_batch(spec).n_trials == 4


@pytest.mark.parametrize("pipeline", ["outcomes", "frames"])
@pytest.mark.parametrize(
    "mode, optical",
    [
        ("fixed", OpticalConfig.for_dim(3).with_reference(2)),
        ("extra_slit", OpticalConfig.for_dim(3, extra_reference=True).with_reference(0)),
    ],
    ids=["fixed-reference-2", "extra_slit-reference-0"],
)
def test_spec_rejects_optics_whose_reference_slit_contradicts_the_mode(pipeline, mode, optical):
    """Fixed runs anchor on slit 0 and extra_slit runs on the appended slit d,
    in both pipelines, so optics that say otherwise are refused."""
    with pytest.raises(ValueError, match="reference slit"):
        spec_of(dim=3, pipeline=pipeline, reference_mode=mode, optical=optical)


@pytest.mark.parametrize("pipeline", ["outcomes", "frames"])
def test_adaptive_spec_accepts_optics_with_any_reference_slit(pipeline):
    optical = OpticalConfig.for_dim(3).with_reference(2)
    spec = spec_of(dim=3, n=4, pipeline=pipeline, reference_mode="adaptive", optical=optical)
    assert spec.optics is optical
    assert run_batch(spec).n_failed == 0


@pytest.mark.parametrize("mode", ["fixed", "adaptive", "extra_slit"])
def test_spec_optics_default_to_the_layout_of_the_mode(mode):
    """optics is derived, not a field: equality and replace see only fields,
    and replace derives the optics of the new dimension."""
    spec = spec_of(dim=3, reference_mode=mode)
    extra = mode == "extra_slit"
    assert spec.optics == OpticalConfig.for_dim(3, extra_reference=extra)
    assert "optics" not in {f.name for f in fields(ExperimentSpec)}
    assert spec == spec_of(dim=3, reference_mode=mode)
    assert replace(spec, dim=5).optics == OpticalConfig.for_dim(5, extra_reference=extra)
