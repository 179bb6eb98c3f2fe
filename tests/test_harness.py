"""Batch runner, seeding, calibration, and report writer tests."""

import json

import numpy as np
import pytest

from psitomo import (
    ExperimentSpec,
    NoiseModel,
    StateSource,
    calibrate_noise,
    fidelity,
    generate_states,
    haar_random,
    run_batch,
    run_trial,
    trial_seed,
    write_summary_json,
    write_trials_csv,
)
from psitomo.errors import Unattainable, WeakReference


def spec_of(dim=3, n=8, **kw):
    return ExperimentSpec(dim=dim, source=StateSource.haar(n), root_seed=7, **kw)


# ------------------------------------------------------------ seeding


def test_trial_seed_is_stable_and_distinct():
    a = trial_seed(7, 0)
    assert a == trial_seed(7, 0)
    assert a != trial_seed(7, 1)
    assert a != trial_seed(8, 0)
    assert 0 <= a < 2**64


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


def test_calibrate_noise_rejects_silly_target():
    with pytest.raises(ValueError):
        calibrate_noise(1.5, 2, spec_of(dim=2), trials=10)
