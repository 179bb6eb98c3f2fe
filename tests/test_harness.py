"""Batch runner, seeding, calibration, and report writer tests."""

import json
import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from psitomo.errors import AllZero, Unattainable, WeakReference
from psitomo.harness import OUTCOME_CHUNK, CalibrationResult, _histogram_edges, _streams


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


@pytest.mark.parametrize(
    "kind, n, states, names",
    [("mystery", 3, None, "unknown state source kind"), ("haar", 0, None, "at least one state"),
     ("explicit", 1, None, "explicit sources carry states"),
     ("haar", 1, (haar_random(2, seed=1),), "explicit sources carry states"),
     ("explicit", 5, (haar_random(2, seed=1),), "n = 5 but carries 1 states")],
    ids=["unknown-kind", "no-states", "explicit-without-states", "haar-with-states",
         "explicit-n-not-its-states"],
)
def test_state_source_validation(kind, n, states, names):
    with pytest.raises(ValueError, match=names):
        StateSource(kind, n, states)


def test_explicit_source_of_a_generator_keeps_its_states():
    states = [haar_random(2, seed=k) for k in range(3)]
    source = StateSource.explicit(psi for psi in states)
    assert source.n == 3 and source.states == tuple(states)


@pytest.mark.parametrize("bad", [np.array([1, 0]), None, "ab"], ids=["array", "none", "str"])
def test_inputs_that_are_not_states_are_refused(bad):
    """A source refuses them when it is built, and run_trial refuses its psi,
    before any attribute of a state is read."""
    with pytest.raises(ValueError, match="explicit states must be PureState instances"):
        StateSource.explicit([haar_random(2, seed=1), bad])
    with pytest.raises(ValueError, match="psi must be a PureState"):
        run_trial(bad, spec_of(dim=2), seed=1)


def test_states_of_another_dimension_are_refused():
    two = [haar_random(2, seed=1)]
    with pytest.raises(ValueError, match="explicit state dimension differs from spec.dim"):
        generate_states(ExperimentSpec(dim=3, source=StateSource.explicit(two), root_seed=0))
    with pytest.raises(ValueError, match="state dimension differs from spec.dim"):
        run_trial(two[0], spec_of(dim=3), seed=1)


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(dim=3, source=StateSource.bloch(4), root_seed=0)
    with pytest.raises(ValueError):
        spec_of(pipeline="nope")
    with pytest.raises(ValueError):
        spec_of(reference_mode="nope")


@pytest.mark.parametrize("flag", ["no", 1, None])
def test_spec_refuses_a_calibration_frame_flag_that_is_not_a_bool(flag):
    with pytest.raises(ValueError, match=f"calibration_frame must be a bool, got {flag!r}"):
        spec_of(pipeline="frames", calibration_frame=flag)
    assert spec_of(pipeline="frames", calibration_frame=np.bool_(True)).calibration_frame


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


def test_all_zero_adaptive_outcome_draw_fails_where_counts_are_normalized():
    # At 0.1 photons the populations of seed 0's draw are all zero; adaptive
    # mode has no strongest slit, and the outcomes cannot be normalized.
    spec = spec_of(dim=3, n=1, reference_mode="adaptive", noise=NoiseModel(photons_per_frame=0.1))
    with pytest.raises(AllZero, match="cannot normalize outcomes with zero total counts"):
        run_trial(haar_random(3, seed=1), spec, seed=0)


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


def fake_profile(monkeypatch, mean_fidelity):
    """Replace run_batch by a mean fidelity of the photon budget; returns the
    list of probed specs."""
    probes = []

    def fake(spec, workers=1):
        probes.append(spec)
        # Fail a calibration that never stops here, before it fills memory.
        assert len(probes) <= 100, "calibrate_noise is still probing after 100 budgets"
        return SimpleNamespace(mean_fidelity=mean_fidelity(spec.noise.photons_per_frame))

    monkeypatch.setattr(harness, "run_batch", fake)
    return probes


@pytest.mark.parametrize("source", ["haar", "explicit"])
def test_calibrate_noise_bisects_toward_the_target_from_both_sides(monkeypatch, source):
    """F = 1 - 10/N meets 0.995 +/- 1e-4 for N in [1961, 2041]: from the
    bracket ends, bisection in log10 N first moves the upper end down, then
    the lower end up, until a probe lands inside.  Every probe reruns the same
    states: an explicit template's own, or ``trials`` fresh ones of its kind."""
    states = tuple(haar_random(2, seed=s) for s in range(3))
    template = ExperimentSpec(
        dim=2, root_seed=11, noise=NoiseModel(phase_step_jitter_sd=0.05),
        source=StateSource.explicit(states) if source == "explicit" else StateSource.haar(1))
    probes = fake_profile(monkeypatch, lambda n: 1.0 - 10.0 / n)
    result = calibrate_noise(0.995, 2, template, trials=7, tol=1e-4)
    want = [2, 10, 6, 4, 3, 3.5, 3.25, 3.375, 3.3125, 3.28125, 3.296875]
    budgets = [spec.noise.photons_per_frame for spec in probes]
    assert [math.log10(n) for n in budgets] == pytest.approx(want, rel=0, abs=1e-12)
    assert (result.evaluations, result.photons_per_frame) == (len(want), budgets[-1])
    assert result.achieved_mean_fidelity == 1.0 - 10.0 / budgets[-1]
    assert result.noise.phase_step_jitter_sd == 0.05
    expected = template.source if source == "explicit" else StateSource.haar(7)
    assert all(spec.source == expected for spec in probes)
    assert len({spec.root_seed for spec in probes}) == 1


def step_at(threshold):
    """Mean fidelity 0.9 below ``threshold`` photons and 1.0 from it on."""
    return lambda n: 0.9 if n < threshold else 1.0


def test_calibrate_noise_stops_when_its_bracket_collapses(monkeypatch):
    # The bracket attains 0.95, but no probe lands within 0.01 of it, so
    # bisection closes in on 1e3 until the next midpoint gives 1e3 again.
    probes = fake_profile(monkeypatch, step_at(1e3))
    with pytest.raises(Unattainable, match=r"collapsed at 1000\.0 photons"):
        calibrate_noise(0.95, 2, spec_of(dim=2), trials=10, tol=0.01)
    budgets = [spec.noise.photons_per_frame for spec in probes]
    assert len(budgets) == len(set(budgets)) == 56


@pytest.mark.parametrize(
    "bracket, step, evaluations",
    [((5e-324, 1.7e308), 1e3, 62), ((1e-300, 1e300), 1e3, 63), ((0.1, 10.0), 1.0, 57),
     ((1.0, 1.0 + 2**-52), 1.0 + 2**-52, 2),
     ((1.6237395841684439e-100, 1.178127599039542e112), 6.07694340153764, 63)],
    ids=["subnormal-to-max", "1e-300-to-1e300", "around-1", "adjacent-floats", "edge-midpoint"],
)
def test_calibrate_noise_stops_on_extreme_brackets(monkeypatch, bracket, step, evaluations):
    """Subnormal, huge and unit-straddling brackets collapse without repeating
    a budget.  Adjacent floats have no midpoint; the last bracket ends on two
    adjacent log10 values whose midpoint is an end, though its budget, the
    step itself, was never probed."""
    probes = fake_profile(monkeypatch, step_at(step))
    with pytest.raises(Unattainable, match="collapsed"):
        calibrate_noise(0.95, 2, spec_of(dim=2), trials=10, tol=0.01, bracket=bracket)
    budgets = [spec.noise.photons_per_frame for spec in probes]
    assert len(budgets) == len(set(budgets)) == evaluations


def test_calibrate_noise_stops_on_random_brackets(monkeypatch):
    """1000 log-uniform brackets from the smallest subnormal to 1.7e308, each
    with a miss-both-sides step somewhere inside."""
    rng = np.random.default_rng(19)
    template = spec_of(dim=2)
    for _ in range(1000):
        e_lo, e_hi = np.sort(rng.uniform(-323.3, 308.2, size=2))
        lo, hi = 10.0 ** e_lo, 10.0 ** e_hi
        probes = fake_profile(monkeypatch, step_at(10.0 ** rng.uniform(e_lo, e_hi)))
        with pytest.raises(Unattainable, match="collapsed"):
            calibrate_noise(0.95, 2, template, trials=10, tol=0.01, bracket=(lo, hi))
        budgets = [spec.noise.photons_per_frame for spec in probes]
        assert len(budgets) == len(set(budgets)) <= 70


@pytest.mark.parametrize(
    "bracket",
    [(1e2, math.inf), (0.0, 1.0), (1e3, 1e2), (math.nan, 1e3), (1e2, math.nan)],
)
def test_calibrate_noise_refuses_a_bad_bracket_before_probing(monkeypatch, bracket):
    probes = fake_profile(monkeypatch, step_at(1e3))
    with pytest.raises(ValueError, match=r"bracket must satisfy 0 < low < high < inf, got \("):
        calibrate_noise(0.95, 2, spec_of(dim=2), trials=10, tol=0.01, bracket=bracket)
    assert probes == []


def capped_bisection(mean_fidelity, target, tol, lo, hi):
    """calibrate_noise's bisection as it stood with an 80-probe cap and no
    collapse stop.  Returns ((photons, fidelity, evaluations) or None for
    Unattainable, the probed budgets)."""
    budgets = []
    log_lo, log_hi = math.log10(lo), math.log10(hi)
    f_lo = math.nan
    for evals in range(1, 80 + 3):
        photons = (lo, hi)[evals - 1] if evals <= 2 else 10.0 ** (0.5 * (log_lo + log_hi))
        budgets.append(photons)
        fid = mean_fidelity(photons)
        if abs(fid - target) <= tol:
            return (photons, fid, evals), budgets
        if evals == 1:
            f_lo = fid
        elif evals == 2:
            if f_lo > target or fid < target:
                return None, budgets
        elif fid < target:
            log_lo = math.log10(photons)
        else:
            log_hi = math.log10(photons)
    return None, budgets


# Profiles of the photon budget N, drawn as functions of the bracket's log10
# ends (e_lo, e_hi) so that their features fall inside it.
def _smooth(a, v):
    """1 - a - b/N, with b at the fraction v of the bracket in log10."""
    return lambda e_lo, e_hi: lambda n: 1.0 - a - 10.0 ** (e_lo + v * (e_hi - e_lo)) / n


def _steps(edges, levels):
    """Rising steps: the i-th smallest level from the i-th edge on, edges as
    bracket fractions."""
    def profile(e_lo, e_hi):
        cuts = sorted(e_lo + v * (e_hi - e_lo) for v in edges)
        return lambda n: sorted(levels)[sum(math.log10(n) >= c for c in cuts)]
    return profile


def _wavy(low, rise, amp, cycles):
    """Non-monotone: a rise across the bracket plus ``cycles`` sine periods."""
    def profile(e_lo, e_hi):
        def mean_fidelity(n):
            u = (math.log10(n) - e_lo) / (e_hi - e_lo)
            return low + rise * u + amp * math.sin(2 * math.pi * cycles * u)
        return mean_fidelity
    return profile


def _flat(level):
    return lambda e_lo, e_hi: lambda n: level


_fraction = st.floats(0.0, 1.0)
_fidelity_profiles = st.one_of(
    st.builds(_smooth, st.floats(0.0, 0.05), _fraction),
    st.integers(1, 4).flatmap(lambda k: st.builds(
        _steps, st.lists(_fraction, min_size=k, max_size=k),
        st.lists(_fraction, min_size=k + 1, max_size=k + 1))),
    st.builds(_wavy, st.floats(0.5, 0.7), st.floats(0.05, 0.3), st.floats(0.0, 0.05),
              st.floats(0.5, 10.0)),
    st.builds(_flat, _fraction),
)


def _targets(f_lo, f_hi):
    """Any target, or one between the bracket ends' mean fidelities, which
    the bracket attains."""
    low, high = max(min(f_lo, f_hi), 0.01), min(max(f_lo, f_hi), 0.999)
    anywhere = st.floats(0.01, 0.999)
    return st.one_of(anywhere, st.floats(low, high)) if low < high else anywhere


@settings(max_examples=200)
@given(
    profile=_fidelity_profiles,
    exponents=st.lists(st.floats(-323.3, 308.2), min_size=2, max_size=2, unique=True),
    tol=st.floats(-6.0, -1.0).map(lambda e: 10.0 ** e),
    data=st.data(),
)
def test_calibrate_noise_matches_capped_bisection(profile, exponents, tol, data):
    """Where the capped loop returns, the result and probes are identical;
    where it gives up, calibrate_noise gives up too, on a prefix of its
    probes, with no budget probed twice."""
    e_lo, e_hi = sorted(exponents)
    lo, hi = 10.0 ** e_lo, 10.0 ** e_hi
    assume(lo < hi)
    profile = profile(e_lo, e_hi)
    target = data.draw(_targets(profile(lo), profile(hi)), label="target")
    want, want_budgets = capped_bisection(profile, target, tol, lo, hi)
    template = spec_of(dim=2)
    with pytest.MonkeyPatch.context() as mp:
        probes = fake_profile(mp, profile)
        try:
            got = calibrate_noise(target, 2, template, trials=3, tol=tol, bracket=(lo, hi))
        except Unattainable:
            got = None
    budgets = [spec.noise.photons_per_frame for spec in probes]
    if want is None:
        assert got is None
        assert budgets == want_budgets[: len(budgets)]
        assert len(budgets) == len(set(budgets)) <= min(len(want_budgets), 70)
    else:
        assert got == CalibrationResult(template.noise.with_photons(want[0]), *want)
        assert budgets == want_budgets


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


@pytest.mark.parametrize("mode", ["fixed", "adaptive", "extra_slit"])
def test_outcome_runs_build_no_camera_layout(monkeypatch, mode):
    """An outcome spec takes its slits from the mode alone; a frames spec
    builds its layout when it is made."""

    def refuse(*args, **kwargs):
        raise RuntimeError("for_dim called")

    monkeypatch.setattr(OpticalConfig, "for_dim", refuse)
    stats = run_batch(spec_of(dim=3, n=4, reference_mode=mode))
    assert stats.n_trials == 4 and stats.mean_fidelity > 0.999
    with pytest.raises(RuntimeError, match="for_dim called"):
        spec_of(dim=3, pipeline="frames", reference_mode=mode)


def test_histogram_edges_of_perfect_fidelities_start_1e9_below_one():
    edges = _histogram_edges(np.ones(5))
    assert edges[0] == 1.0 - 1e-9 and edges[-1] == 1.0
