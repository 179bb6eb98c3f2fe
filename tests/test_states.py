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
from psitomo.errors import DimensionMismatch, ZeroVector
from psitomo.states import _bloch_lattice


def test_pure_state_requires_unit_norm():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]))


def test_pure_state_refuses_a_norm_off_by_1e_8():
    # NORM_TOL is 1e-12: sum |c_k|^2 = 1 + 1e-8 is not unit norm.
    with pytest.raises(ValueError, match="not unit-norm"):
        PureState([1.0, 1e-4])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pure_state_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError):
        PureState(np.array([bad, bad]))


def test_pure_state_amplitudes_are_read_only():
    psi = PureState(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        psi.amps[0] = 0.5


@pytest.mark.parametrize("make", [lambda: PureState(np.array([1.0, 0.0])),
                                  lambda: DensityMatrix(np.diag([1.0, 0.0]))],
                         ids=["pure", "density"])
def test_states_take_no_new_attributes(make):
    """Both state classes use ``__slots__``: no per-instance dict to grow."""
    with pytest.raises(AttributeError):
        make().note = 1


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


def test_canonical_pivots_on_an_amplitude_just_above_1e_9():
    # PHASE_PIVOT is 1e-9: slit 0 at 1e-7 is the pivot, so it stays real and positive.
    psi = PureState([1e-7, np.sqrt(1.0 - 1e-14) * np.exp(0.7j)]).canonical()
    assert psi.amps[0].imag == 0.0
    assert psi.amps[0].real > 0.0


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


@pytest.mark.parametrize("n", [1, 2, 16, 31, 1024])
def test_bloch_grid_equals_its_per_point_construction_bit_for_bit(n):
    idx = np.arange(n)
    theta = np.arccos(np.clip(1.0 - (2.0 * idx + 1.0) / n, -1.0, 1.0))
    c0 = np.cos(theta / 2.0)
    c1 = np.exp(1j * (np.pi * (3.0 - np.sqrt(5.0)) * idx)) * np.sin(theta / 2.0)
    _bloch_lattice.cache_clear()
    for _ in range(2):  # the first call builds the lattice, the second reads the cache
        states = bloch_grid(n)
        assert len(states) == n
        for i, psi in enumerate(states):
            assert psi.amps.tobytes() == np.array([c0[i], c1[i]]).tobytes()
            assert not psi.amps.flags.writeable


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
    with pytest.raises(DimensionMismatch, match="dims 2 and 3 differ"):
        fidelity(haar_random(2, seed=0), haar_random(3, seed=0))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.4, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2


def test_density_matrix_refuses_an_eigenvalue_of_minus_1e_8():
    # PSD_TOL is 1e-10: rounding may go below zero, a -1e-8 eigenvalue may not.
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(np.diag([1.0 + 1e-8, -1e-8]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_matrix_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError):
        DensityMatrix(np.full((2, 2), bad))
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, bad], [bad, 0.5]]))


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


def test_bloch_grid_returns_a_new_list_each_call():
    first = bloch_grid(16)
    second = bloch_grid(16)
    assert first is not second and first == second  # the same state objects, in new lists
    first.reverse()
    first[0] = normalize(np.array([1.0, 1.0]))
    del first[1:]
    third = bloch_grid(16)
    assert third == second and len(third) == 16
    assert all(not psi.amps.flags.writeable for psi in third)


def test_bloch_grid_sizes_do_not_collide():
    for n in (16, 17, 1, 16, 17, 2, 1):
        states = bloch_grid(n)
        assert len(states) == n
        fresh = _bloch_lattice.__wrapped__(n)  # built again, past the cache
        assert [psi.amps.tobytes() for psi in states] == [psi.amps.tobytes() for psi in fresh]


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: PureState(np.eye(2)), ValueError, "amplitudes must form a 1-D vector"),
        (lambda: PureState([1.0]), ValueError, "qudit dimension must be at least 2"),
        (lambda: PureState.from_dict({"dim": 3, "re": [1.0, 0.0], "im": [0.0, 0.0]}),
         ValueError, "re/im length does not match dim"),
        (lambda: DensityMatrix(np.ones((1, 2))), ValueError, "density matrix must be square"),
        (lambda: DensityMatrix([[1.0]]), ValueError, "qudit dimension must be at least 2"),
        (lambda: DensityMatrix(np.diag([1.5, -0.5])), ValueError,
         r"negative eigenvalue -5\.000e-01"),
        (lambda: DensityMatrix.maximally_mixed(1), ValueError, "qudit dimension must be at least 2"),
        (lambda: normalize(np.ones((2, 2))), ValueError, "1-D amplitude vector of length >= 2"),
        (lambda: haar_random(1, seed=0), ValueError, "qudit dimension must be at least 2"),
        (lambda: bloch_grid(0), ValueError, "need at least one lattice point"),
        (lambda: bloch_vector(haar_random(3, seed=0)), DimensionMismatch, "dim 2 only"),
        (lambda: fidelity_mixed(DensityMatrix.maximally_mixed(2), haar_random(3, seed=0)),
         DimensionMismatch, "dims 2 and 3 differ"),
        (lambda: depolarized(haar_random(2, seed=0), 1.5), ValueError,
         r"mixing parameter must lie in \[0, 1\]"),
    ],
    ids=["pure-2-D", "pure-dim-1", "from-dict-length", "density-not-square", "density-dim-1",
         "density-negative", "maximally-mixed-1", "normalize-2-D", "haar-dim-1", "bloch-grid-0",
         "bloch-vector-dim-3", "fidelity-mixed-dims", "depolarized-1.5"],
)
def test_state_validation(build, error, message):
    with pytest.raises(error, match=message):
        build()
