"""Projector, outcome-set, and measurement-plan tests.

The frozen probabilities below were derived by hand from
p = |<r|psi> + e^{i theta} <k|psi>|^2 / 2 and cross-checked with a
brute-force inner product before being written down.
"""

import numpy as np
import pytest

from psitomo import (
    NoiseModel,
    ProjectorOutcomes,
    ProjectorSpec,
    STEP_PHASES,
    exact_outcomes,
    exact_outcomes_mixed,
    haar_random,
    interference_probs,
    measurement_plan,
    normalize,
    projector_state,
    sample_counts,
)
from psitomo.errors import AllZero, BadIndex
from psitomo.states import DensityMatrix, depolarized


def test_step_phases_are_odd_quarter_multiples():
    assert STEP_PHASES == (np.pi / 2 * 0.5, np.pi / 2 * 1.5, np.pi / 2 * 2.5)


def test_projector_state_shape_and_norm():
    spec = ProjectorSpec(5)
    for step in (1, 2, 3):
        v = projector_state(spec, slit=3, step=step)
        assert v.dim == 5
        assert np.vdot(v.amps, v.amps).real == pytest.approx(1.0)


def test_projector_state_rejects_bad_indices():
    spec = ProjectorSpec(4)
    with pytest.raises(BadIndex):
        projector_state(spec, slit=0, step=1)  # slit equals reference
    with pytest.raises(BadIndex):
        projector_state(spec, slit=4, step=1)
    with pytest.raises(BadIndex):
        projector_state(spec, slit=1, step=0)


def test_exact_outcomes_frozen_qubit_example():
    # psi = (|0> + e^{i pi/3}|1>)/sqrt(2), slit 1:
    # p_l = 1/2 + 1/2 cos(theta_l - pi/3)
    psi = normalize(np.array([1.0, np.exp(1j * np.pi / 3)]))
    out = exact_outcomes(psi)
    assert out.populations == pytest.approx([0.5, 0.5])
    expect = [0.5 * (1 + np.cos(th - np.pi / 3)) for th in STEP_PHASES]
    assert out.interference[0] == pytest.approx(expect, abs=1e-15)
    # frozen numbers for the same triple
    assert out.interference[0] == pytest.approx(
        [0.982963, 0.629410, 0.017037], abs=5e-7
    )


def test_exact_outcomes_match_brute_force_projectors():
    rng = np.random.SeedSequence(41)
    for seed in rng.spawn(40):
        d = int(np.random.default_rng(seed).integers(2, 11))
        psi = haar_random(d, seed=seed)
        out = exact_outcomes(psi)
        spec = ProjectorSpec(d)
        for row, k in enumerate(range(1, d)):
            for col, step in enumerate((1, 2, 3)):
                proj = projector_state(spec, k, step)
                p = abs(np.vdot(proj.amps, psi.amps)) ** 2
                assert out.interference[row, col] == pytest.approx(p, abs=1e-13)


def test_recovery_identity_from_exact_outcomes():
    # (p1 - p2) + i(p3 - p2) = sqrt(2) * c_r * conj(c_k)
    psi = haar_random(6, seed=99)
    out = exact_outcomes(psi)
    c = psi.amps
    for row, k in enumerate(range(1, 6)):
        p1, p2, p3 = out.interference[row]
        lhs = (p1 - p2) + 1j * (p3 - p2)
        rhs = np.sqrt(2.0) * c[0] * np.conj(c[k])
        assert lhs == pytest.approx(rhs, abs=1e-13)


def test_exact_outcomes_nondefault_reference():
    psi = haar_random(4, seed=13)
    spec = ProjectorSpec(4, ref_index=2)
    out = exact_outcomes(psi, spec)
    assert out.ref_index == 2
    assert list(spec.slit_indices) == [0, 1, 3]
    c = psi.amps
    p1, p2, p3 = out.interference[0]  # slit 0
    assert (p1 - p2) + 1j * (p3 - p2) == pytest.approx(
        np.sqrt(2.0) * c[2] * np.conj(c[0]), abs=1e-13
    )


def test_exact_outcomes_mixed_agrees_on_pure_input():
    psi = haar_random(5, seed=21)
    rho = DensityMatrix.from_pure(psi)
    a = exact_outcomes(psi)
    b = exact_outcomes_mixed(rho)
    assert b.populations == pytest.approx(a.populations, abs=1e-13)
    assert np.allclose(a.interference, b.interference, atol=1e-13)


def test_exact_outcomes_mixed_depolarized_damps_interference():
    # mixing scales the coherence by v but keeps populations' mixture
    psi = normalize(np.array([1.0, 1.0]))
    rho = depolarized(psi, 0.5)
    out = exact_outcomes_mixed(rho)
    # populations: v*0.5 + (1-v)/2 = 0.5 each
    assert out.populations == pytest.approx([0.5, 0.5])
    expect = [0.5 + 0.5 * 0.5 * np.cos(th) for th in STEP_PHASES]
    assert out.interference[0] == pytest.approx(expect, abs=1e-15)


def test_interference_probs_against_outcomes():
    psi = haar_random(7, seed=55)
    out = exact_outcomes(psi)
    probs = interference_probs(psi, 0, STEP_PHASES)
    assert np.allclose(probs, out.interference, atol=1e-14)


def test_outcomes_validation():
    pops = np.full(3, 1 / 3)
    good = np.full((2, 3), 0.1)
    ProjectorOutcomes(3, 0, pops, good, kind="probability")
    with pytest.raises(ValueError):
        ProjectorOutcomes(3, 0, pops, np.full((3, 3), 0.1), kind="probability")
    with pytest.raises(ValueError):
        ProjectorOutcomes(3, 0, pops * 2, good, kind="probability")
    with pytest.raises(ValueError):
        ProjectorOutcomes(3, 0, -pops, good, kind="count")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_outcomes_reject_non_finite_values(bad):
    pops = np.array([0.5, 0.5])
    table = np.full((1, 3), 0.25)
    with pytest.raises(ValueError):
        ProjectorOutcomes(2, 0, np.array([bad, 0.5]), table, kind="count")
    table[0, 1] = bad
    with pytest.raises(ValueError):
        ProjectorOutcomes(2, 0, pops, table, kind="count")


def test_outcomes_normalized_rejects_all_zero():
    z = ProjectorOutcomes(2, 0, np.zeros(2), np.zeros((1, 3)), kind="count")
    with pytest.raises(AllZero):
        z.normalized()


def test_outcomes_dict_round_trip():
    out = exact_outcomes(haar_random(3, seed=8))
    again = ProjectorOutcomes.from_dict(out.to_dict())
    assert np.allclose(again.populations, out.populations)
    assert np.allclose(again.interference, out.interference)
    assert again.kind == out.kind


def test_sample_counts_is_deterministic_and_poisson_scaled():
    out = exact_outcomes(haar_random(4, seed=2))
    noise = NoiseModel(photons_per_frame=50_000.0)
    a = sample_counts(out, noise, seed=7)
    b = sample_counts(out, noise, seed=7)
    assert np.array_equal(a.populations, b.populations)
    assert np.array_equal(a.interference, b.interference)
    assert a.kind == "count"
    # counts should sit near mean p * photons
    assert a.populations.sum() == pytest.approx(50_000, rel=0.05)


def test_sample_counts_rejects_nonpositive_budget():
    out = exact_outcomes(haar_random(2, seed=4))
    with pytest.raises(ValueError):
        sample_counts(out, NoiseModel(photons_per_frame=0.0), seed=1)


@pytest.mark.parametrize("d", [2, 5, 14])
def test_measurement_plan_budgets(d):
    assert measurement_plan(d, "adaptive").n_outcomes == 4 * d - 3
    assert measurement_plan(d, "fixed").n_outcomes == 4 * d
    plan = measurement_plan(d, "image")
    assert plan.n_outcomes == 4 * d
    assert plan.n_frames == 4


def test_measurement_plan_rejects_unknown_mode():
    with pytest.raises(ValueError):
        measurement_plan(3, "bogus")
