"""State container and sampler tests.

Oracle values in this file were computed independently with direct
numpy expressions (inner products, eigendecompositions) and frozen.
"""

import numpy as np
import pytest

from psitomo import (
    DensityMatrix,
    PureState,
    bloch_grid,
    bloch_vector,
    depolarized,
    fidelity,
    fidelity_mixed,
    haar_random,
    normalize,
    purity,
)
from psitomo.errors import ZeroVector


def test_pure_state_requires_unit_norm():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pure_state_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError):
        PureState(np.array([bad, bad]))


def test_pure_state_amplitudes_are_read_only():
    psi = PureState(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        psi.amps[0] = 0.5


def test_normalize_rejects_zero_vector():
    with pytest.raises(ZeroVector):
        normalize(np.zeros(4))


def test_normalize_matches_manual():
    v = np.array([3.0, 4.0j])
    psi = normalize(v)
    assert psi.amps == pytest.approx(np.array([0.6, 0.8j]))


def test_canonical_pins_pivot_phase():
    psi = normalize(np.array([1j, 1.0])).canonical()
    # first nonzero amplitude rotated onto the positive real axis
    assert psi.amps[0].imag == 0.0
    assert psi.amps[0].real > 0.0
    assert psi.amps[0].real == pytest.approx(np.sqrt(0.5))
    assert psi.amps[1] == pytest.approx(-1j * np.sqrt(0.5))


def test_canonical_is_idempotent_object():
    psi = normalize(np.array([0.5, 0.5, np.sqrt(0.5)])).canonical()
    assert psi.canonical() is psi


def test_canonical_skips_tiny_leading_amplitude():
    # leading amplitude below the pivot threshold: phase comes from c1
    amps = np.zeros(3, dtype=complex)
    amps[1] = 1j
    psi = PureState(amps).canonical()
    assert psi.amps[1] == pytest.approx(1.0)


def test_haar_random_is_seed_deterministic():
    a = haar_random(7, seed=123)
    b = haar_random(7, seed=123)
    c = haar_random(7, seed=124)
    assert np.array_equal(a.amps, b.amps)
    assert not np.array_equal(a.amps, c.amps)


def test_haar_random_first_component_moment():
    # E[|c_0|^2] = 1/d for Haar states; check d=2 over a large batch
    rng = np.random.SeedSequence(2024).spawn(10_000)
    vals = [abs(haar_random(2, seed=s).amps[0]) ** 2 for s in rng]
    assert np.mean(vals) == pytest.approx(0.5, abs=0.02)


def test_bloch_grid_covers_poles_to_equator():
    states = bloch_grid(64)
    zs = [bloch_vector(s)[2] for s in states]
    assert max(zs) > 0.95
    assert min(zs) < -0.95
    # z values descend linearly on the lattice
    assert np.allclose(np.diff(zs), zs[1] - zs[0])


def test_bloch_grid_states_are_unit_vectors_on_sphere():
    for s in bloch_grid(31):
        x, y, z = bloch_vector(s)
        assert x * x + y * y + z * z == pytest.approx(1.0, abs=1e-12)


def test_bloch_vector_frozen_example():
    # (|0> + i|1>)/sqrt(2) points along +y
    psi = normalize(np.array([1.0, 1.0j]))
    assert bloch_vector(psi) == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)


def test_fidelity_is_phase_invariant():
    psi = haar_random(5, seed=9)
    rotated = PureState(psi.amps * np.exp(0.7j))
    assert fidelity(psi, rotated) == pytest.approx(1.0, abs=1e-15)


def test_fidelity_orthogonal_states():
    e0 = PureState(np.eye(3, dtype=complex)[0])
    e1 = PureState(np.eye(3, dtype=complex)[1])
    assert fidelity(e0, e1) == 0.0


def test_fidelity_dimension_mismatch():
    with pytest.raises(Exception):
        fidelity(haar_random(2, seed=0), haar_random(3, seed=0))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.4, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2


def test_density_matrix_from_pure_and_purity():
    psi = haar_random(4, seed=77)
    rho = DensityMatrix.from_pure(psi)
    assert purity(rho) == pytest.approx(1.0, abs=1e-12)
    assert purity(DensityMatrix.maximally_mixed(4)) == pytest.approx(0.25)


def test_depolarized_purity_closed_form():
    # Tr[rho^2] = v^2 + (1 - v^2)/d for v*|psi><psi| + (1-v)*I/d
    psi = haar_random(3, seed=5)
    for v in (0.0, 0.3, 0.5, 1.0):
        rho = depolarized(psi, v)
        expect = v * v + (1.0 - v * v) / 3.0
        assert purity(rho) == pytest.approx(expect, abs=1e-12)


def test_fidelity_mixed_against_pure_case():
    psi = haar_random(6, seed=11)
    rho = DensityMatrix.from_pure(psi)
    assert fidelity_mixed(rho, psi) == pytest.approx(1.0, abs=1e-12)
    # half-depolarized: <psi|rho|psi> = v + (1-v)/d
    rho_mix = depolarized(psi, 0.5)
    assert fidelity_mixed(rho_mix, psi) == pytest.approx(
        np.sqrt(0.5 + 0.5 / 6.0), abs=1e-12
    )


def test_state_dict_round_trip():
    psi = haar_random(9, seed=3)
    again = PureState.from_dict(psi.to_dict())
    assert fidelity(psi, again) == pytest.approx(1.0, abs=1e-15)
