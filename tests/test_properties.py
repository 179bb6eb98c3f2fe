"""Property tests of the physics invariants, run with hypothesis.

States are Haar draws keyed by an integer seed; the profile in conftest.py
derandomizes the search, so every run checks the same examples.
"""

import math
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from psitomo import (
    DensityMatrix,
    ExperimentSpec,
    NoiseModel,
    OpticalConfig,
    ProjectorOutcomes,
    ProjectorSpec,
    PureState,
    StateSource,
    certify_purity,
    exact_outcomes,
    exact_outcomes_mixed,
    fidelity,
    haar_random,
    reconstruct_from_frames,
    reconstruct_from_outcomes,
    render_frames,
    run_trial,
    sample_counts,
)
from psitomo.errors import AllZero, WeakReference, ZeroVector
from psitomo.pgmio import PGM_MAXVAL, read_pgm, write_pgm
from psitomo.projectors import OUTCOME_KINDS
from psitomo.reconstruct import PURITY_FLOOR, WEAK_FRACTION
from psitomo.states import PHASE_PIVOT, _canonical_phase, _norm, normalize

seeds = st.integers(0, 2**32 - 1)


@st.composite
def states(draw, max_dim=8):
    return haar_random(draw(st.integers(2, max_dim)), draw(seeds))


@st.composite
def states_with_reference(draw, max_dim=8):
    """A state plus a reference slit strong enough to anchor a reconstruction."""
    psi = draw(states(max_dim))
    ref = draw(st.integers(0, psi.dim - 1))
    pops = np.abs(psi.amps) ** 2
    assume(pops[ref] >= 1e-3 * pops.max())
    return psi, ref


def outcome_report(psi, ref):
    return reconstruct_from_outcomes(exact_outcomes(psi, ProjectorSpec(psi.dim, ref)))


def assert_same_report(a, b):
    assert np.allclose(a.state.amps, b.state.amps, rtol=0, atol=1e-12)
    assert np.allclose(a.per_slit_visibility, b.per_slit_visibility, rtol=0, atol=1e-12)
    assert np.allclose(a.expected_visibility, b.expected_visibility, rtol=0, atol=1e-12)
    assert np.allclose(
        a.purity_verdict.margins, b.purity_verdict.margins, rtol=0, atol=1e-12, equal_nan=True
    )
    assert a.purity_verdict.pure == b.purity_verdict.pure
    assert a.reference_used == b.reference_used


@given(states_with_reference(), st.floats(-np.pi, np.pi))
def test_outcome_reconstruction_ignores_a_global_phase(case, phi):
    psi, ref = case
    rotated = PureState(psi.amps * np.exp(1j * phi))
    assert_same_report(outcome_report(psi, ref), outcome_report(rotated, ref))


@given(states())
def test_mixed_outcomes_of_a_pure_state_are_the_pure_outcomes(psi):
    rho = DensityMatrix.from_pure(psi)
    for ref in range(psi.dim):
        spec = ProjectorSpec(psi.dim, ref)
        pure, mixed = exact_outcomes(psi, spec), exact_outcomes_mixed(rho, spec)
        assert np.allclose(mixed.populations, pure.populations, rtol=0, atol=1e-15)
        assert np.allclose(mixed.interference, pure.interference, rtol=0, atol=1e-15)


@given(states(), seeds, st.floats(1e-3, 1e6))
def test_outcome_reconstruction_ignores_the_count_scale(psi, seed, scale):
    ref = int(np.argmax(np.abs(psi.amps)))
    exact = exact_outcomes(psi, ProjectorSpec(psi.dim, ref))
    counts = sample_counts(exact, NoiseModel(photons_per_frame=1e4), seed)
    scaled = ProjectorOutcomes(
        psi.dim, ref, counts.populations * scale, counts.interference * scale, kind="count"
    )
    assert_same_report(reconstruct_from_outcomes(counts), reconstruct_from_outcomes(scaled))


@given(states_with_reference(), st.data())
def test_relabelling_slits_and_reference_permutes_the_result(case, data):
    psi, ref = case
    perm = np.array(data.draw(st.permutations(range(psi.dim))))
    moved = np.empty_like(psi.amps)
    moved[perm] = psi.amps  # slit k becomes slit perm[k]
    a = outcome_report(psi, ref)
    b = outcome_report(PureState(moved), int(perm[ref]))
    assert b.reference_used == perm[ref]
    assert fidelity(a.state, PureState(b.state.amps[perm])) >= 1.0 - 1e-12
    assert np.allclose(b.per_slit_visibility[perm], a.per_slit_visibility, rtol=0, atol=1e-12)
    assert np.allclose(b.expected_visibility[perm], a.expected_visibility, rtol=0, atol=1e-12)
    assert np.allclose(
        b.purity_verdict.margins[perm], a.purity_verdict.margins,
        rtol=0, atol=1e-12, equal_nan=True,
    )
    assert sorted(b.purity_verdict.unverifiable) == sorted(
        int(perm[k]) for k in a.purity_verdict.unverifiable
    )


@given(states_with_reference(max_dim=5))
def test_expected_visibility_is_the_purity_bound(case):
    psi, ref = case
    outcomes = outcome_report(psi, ref)
    config = OpticalConfig.for_dim(psi.dim).with_reference(ref)
    frames = reconstruct_from_frames(render_frames(psi, config, roi_band=True))
    for report in (outcomes, frames):
        assert np.array_equal(report.expected_visibility, report.purity_verdict.bound)
    # A pure state saturates the bound, which is exactly 1 at the reference
    # slit in outcome mode (the reference interferes with itself).
    assert outcomes.expected_visibility[ref] == 1.0


@given(st.integers(2, 8), seeds, st.sampled_from(["fixed", "adaptive", "extra_slit"]))
def test_noiseless_outcome_and_frames_reconstructions_agree(dim, seed, mode):
    psi = haar_random(dim, seed)
    if mode == "fixed":
        pops = np.abs(psi.amps) ** 2
        assume(pops[0] >= 1e-3 * pops.max())
    extra = mode == "extra_slit"
    optical = OpticalConfig.for_dim(dim, extra_reference=extra, envelope="flat")
    reports = [
        run_trial(psi, ExperimentSpec(dim=dim, source=StateSource.explicit([psi]), root_seed=0,
                                      pipeline=pipeline, reference_mode=mode, optical=optical),
                  seed=0)
        for pipeline in ("outcomes", "frames")
    ]
    outcomes, frames = reports
    assert outcomes.reference_used == frames.reference_used
    assert fidelity(outcomes.recon_state, frames.recon_state) >= 1.0 - 1e-9


# ---------------------------------------------------------------- PGM files

pgm_shapes = st.tuples(st.integers(1, 24), st.integers(1, 24))


def read_blob(blob: bytes) -> np.ndarray:
    with TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.pgm"
        path.write_bytes(blob)
        return read_pgm(path)


@given(pgm_shapes, st.data())
def test_pgm_round_trip_keeps_every_16_bit_value(shape, data):
    pixels = data.draw(arrays(np.uint16, shape, elements=st.integers(0, PGM_MAXVAL)))
    pixels.flat[0] = 0
    pixels.flat[-1] = PGM_MAXVAL
    with TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.pgm"
        write_pgm(path, pixels)
        again = read_pgm(path)
    assert again.dtype == float and again.shape == shape
    assert np.array_equal(again, pixels)


@given(pgm_shapes, st.integers(1, 255) | st.integers(256, PGM_MAXVAL), st.data())
def test_pgm_reads_8_and_16_bit_files(shape, maxval, data):
    """Files with maxval up to 255 hold one byte per pixel, others two."""
    dtype = np.uint8 if maxval <= 255 else np.dtype(">u2")
    pixels = data.draw(arrays(dtype, shape, elements=st.integers(0, maxval)))
    header = f"P5\n{shape[1]} {shape[0]}\n{maxval}\n".encode()
    assert np.array_equal(read_blob(header + pixels.tobytes()), pixels)


whitespace = st.sampled_from([b" ", b"\t", b"\n", b"\r\n", b" \n\t"])
comments = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)


@st.composite
def header_separator(draw, commented):
    """Whitespace between two header fields, holding a comment if asked."""
    if not commented:
        return draw(whitespace)
    before = draw(st.sampled_from([b"", b" ", b"\n"]))
    end = draw(st.sampled_from([b"\n", b"\r"]))
    after = draw(st.sampled_from([b"", b" ", b"\t"]))
    return before + b"#" + draw(comments).encode() + end + after


@pytest.mark.parametrize("position", [0, 1, 2], ids=["after-magic", "after-width", "after-height"])
@given(pgm_shapes, st.data())
@example(shape=(2, 3), data=None)
def test_pgm_header_comments_at_every_separator(position, shape, data):
    """A comment may fill any whitespace between P5, width, height and maxval."""
    if data is None:  # the explicit example: comments everywhere, '#' inside one
        seps = [b"\n# one\n", b" #two # 3 4\r", b"\t#\n"]
    else:
        seps = [data.draw(header_separator(k == position or data.draw(st.booleans())))
                for k in range(3)]
    pixels = (np.arange(shape[0] * shape[1]) * 257 % (PGM_MAXVAL + 1)).astype(">u2")
    pixels = pixels.reshape(shape)
    fields = [b"P5", str(shape[1]).encode(), str(shape[0]).encode(), str(PGM_MAXVAL).encode()]
    header = fields[0] + b"".join(sep + f for sep, f in zip(seps, fields[1:])) + b"\n"
    assert np.array_equal(read_blob(header + pixels.tobytes()), pixels)


def purity_rule(p, g, r_k, ref, tau):
    """certify_purity's documented rule as a plain loop: (bound, margins,
    unverifiable, pure)."""
    eps = WEAK_FRACTION * max(p)
    bound, margins, unverifiable = [], [], []
    for k in range(len(p)):
        both = p[k] > 0.0 and r_k[k] > 0.0
        bound.append(2.0 * math.sqrt(p[k] * r_k[k]) / (p[k] + r_k[k]) if both else 0.0)
        verifiable = k != ref and p[k] > eps and r_k[k] > 0.0
        margins.append(g[k] - bound[k] if verifiable else math.nan)
        if k != ref and not verifiable:
            unverifiable.append(k)
    return bound, margins, tuple(unverifiable), not any(m < -tau - PURITY_FLOOR for m in margins)


def assert_follows_purity_rule(check, rule):
    bound, margins, unverifiable, pure = rule
    np.testing.assert_array_equal(check.bound, bound)
    np.testing.assert_array_equal(check.margins, margins)  # NaN only where NaN
    assert check.unverifiable == unverifiable
    assert check.pure == pure


@given(st.integers(1, 9), seeds, st.booleans(), st.floats(0.0, 0.2))
def test_certify_purity_follows_its_rule_slit_by_slit(dim, seed, scalar_ref, tau):
    """certify_purity against a plain loop over its documented rule, exactly:
    zero, weak and strong populations, a scalar reference level or a per-slit
    one that holds zeros."""
    rng = np.random.default_rng(seed)
    p = rng.random(dim) * (rng.random(dim) < 0.8) * np.where(rng.random(dim) < 0.2, 1e-6, 1.0)
    g = 1.2 * rng.random(dim)
    lit = rng.random(1 if scalar_ref else dim) < 0.8
    r = float(rng.random() * lit[0]) if scalar_ref else rng.random(dim) * lit
    ref = int(rng.integers(dim))
    check = certify_purity(p, g, r, ref_index=ref, tau=tau)
    assert_follows_purity_rule(check, purity_rule(p, g, np.broadcast_to(r, (dim,)), ref, tau))


@given(st.integers(2, 9), seeds, st.sampled_from(OUTCOME_KINDS), st.floats(0.0, 0.2))
def test_reconstruct_from_outcomes_follows_its_formula_slit_by_slit(dim, seed, kind, tau):
    """reconstruct_from_outcomes against a plain loop over its documented
    formula, exactly: c_r = sqrt(p_r), c_k = conj[((p_1 - p_2) + i (p_3 - p_2))
    / (sqrt(2) c_r)] and gamma_k = |...| / (sqrt(2) (p_r + p_k) / 2), on counts
    or probabilities with zero slits, slits on both sides of the weak
    threshold, and any reference slit."""
    rng = np.random.default_rng(seed)
    weak = np.where(rng.random(dim) < 0.4, 10.0 ** rng.uniform(-4.5, -3.5, dim), 1.0)
    weights = rng.random(dim) * (rng.random(dim) < 0.8) * weak
    table = rng.random((dim - 1, 3)) * (rng.random((dim - 1, 3)) < 0.9)
    if kind == "count":
        pops, table = rng.poisson(weights * 1e4).astype(float), rng.poisson(table * 1e4).astype(float)
    else:
        assume(weights.sum() > 0.0)
        pops = weights / weights.sum()
    ref = int(rng.integers(dim))
    outcomes = ProjectorOutcomes(dim, ref, pops, table, kind=kind)
    if kind == "count" and not pops.sum() > 0.0:
        with pytest.raises(AllZero):
            reconstruct_from_outcomes(outcomes, tau=tau)
        return

    total = pops.sum() if kind == "count" else 1.0
    p = [x / total for x in pops] if kind == "count" else list(pops)
    if p[ref] <= 0.0 or p[ref] < WEAK_FRACTION * max(p):
        with pytest.raises(WeakReference):
            reconstruct_from_outcomes(outcomes, tau=tau)
        return
    report = reconstruct_from_outcomes(outcomes, tau=tau)

    c_ref = math.sqrt(p[ref])
    amps, gamma = np.full(dim, complex(c_ref)), np.ones(dim)
    rows = iter(table / total if kind == "count" else table)
    for k in range(dim):
        if k != ref:
            i1, i2, i3 = next(rows)
            z = np.array([complex(i1 - i2, i3 - i2)])
            amps[k] = np.conj(z / (math.sqrt(2.0) * c_ref))[0]
            gamma[k] = np.abs(z)[0] / (math.sqrt(2.0) * (0.5 * (p[ref] + p[k])))
    rotated = canonical_reference(amps, PHASE_PIVOT * np.linalg.norm(amps))
    expected = rotated / np.linalg.norm(rotated)
    assert report.state.amps.tobytes() == expected.tobytes()
    np.testing.assert_array_equal(report.per_slit_visibility, gamma)
    assert report.reference_used == ref and report.outcome_budget == 4 * dim - 3
    assert_follows_purity_rule(report.purity_verdict, purity_rule(p, gamma, [p[ref]] * dim, ref, tau))


def normalize_max_modulus_first(amps):
    """normalize with its zero check written the plain way: the max-modulus
    test on every call, then division by _norm."""
    arr = np.asarray(amps, dtype=np.complex128)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need a 1-D amplitude vector of length >= 2")
    if np.maximum.reduce(np.abs(arr)) < 1e-15:
        raise ZeroVector("cannot normalize a zero amplitude vector")
    return PureState(arr / _norm(arr), _owned=True)


def outcome_of(fn, arr):
    """fn(arr)'s amplitude bytes, or the type and message of the ValueError
    or ZeroVector it raised; floating-point warnings are silenced so that
    only results compare."""
    with np.errstate(all="ignore"):
        try:
            return fn(arr).amps.tobytes()
        except (ValueError, ZeroVector) as exc:
            return type(exc), str(exc)


#: Parts of any size, NaN and ±inf, subnormals, and values around the 1e-15
#: zero threshold and the 2 sqrt(d) 1e-15 norm bound.
amplitude_parts = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.floats(-1e-13, 1e-13)
    | st.floats(-1e-300, 1e-300)
    | st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 9e-16, 1e-15, 1.1e-15, 2e-15, 1.0])
)


@given(st.integers(2, 64).flatmap(
    lambda d: st.tuples(arrays(np.float64, d, elements=amplitude_parts),
                        arrays(np.float64, d, elements=amplitude_parts))))
@example((np.full(64, 9e-16), np.zeros(64)))  # norm 7.2e-15, every entry below 1e-15
@example((np.full(2, np.nan), np.zeros(2)))
@example((np.array([np.inf, 1.0]), np.zeros(2)))
@example((np.array([1e-200, 1e-200]), np.zeros(2)))
def test_normalize_matches_its_max_modulus_first_form(parts):
    """Same bytes, or the same exception with the same message."""
    arr = np.empty(parts[0].size, dtype=np.complex128)
    arr.real, arr.imag = parts
    assert outcome_of(normalize, arr) == outcome_of(normalize_max_modulus_first, arr)


def test_normalize_refuses_entries_below_the_floor_whose_norm_is_above_it():
    tiny = np.full(64, 9e-16)
    assert _norm(tiny.astype(complex)) == pytest.approx(7.2e-15)
    with pytest.raises(ZeroVector):
        normalize(tiny)


def canonical_reference(amps, floor):
    """The documented canonical phase: the first amplitude with modulus above
    floor becomes real positive through one global rotation by
    exp(-i angle(pivot)), the pivot set to its modulus; with no such
    amplitude, or a pivot already at angle zero, amps come back unchanged."""
    mags = np.abs(amps)
    above = [k for k in range(amps.size) if mags[k] > floor]
    if not above or np.angle(amps[above[0]]) == 0.0:
        return amps
    rotated = amps * np.exp(-1j * np.angle(amps[above[0]]))
    rotated[above[0]] = mags[above[0]]
    return rotated


@given(st.integers(2, 64), seeds, st.integers(0, 64), st.sampled_from([PHASE_PIVOT, 1e-3, 0.3]),
       st.floats(-np.pi, np.pi))
def test_canonical_phase_matches_its_reference_bit_for_bit(dim, seed, faint, floor, phi):
    """A Haar vector turned by 32 global phases, a leading run of it scaled
    below the floor (or all of it, leaving no pivot), at several floors."""
    base = haar_random(dim, seed).amps
    for turn in phi + np.arange(32) * (2.0 * np.pi / 32):
        amps = base * np.exp(1j * turn)
        amps[: min(faint, dim)] *= floor * 1e-2
        once = _canonical_phase(amps, floor)
        assert once.tobytes() == canonical_reference(amps, floor).tobytes()
        # A second pass meets a pivot at angle zero.
        assert _canonical_phase(once, floor).tobytes() == canonical_reference(once, floor).tobytes()
