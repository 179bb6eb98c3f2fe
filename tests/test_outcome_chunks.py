"""The chunked outcome path: chunk-keyed draws, pinned rows and row independence.

Chunk c of a batch (trials c * OUTCOME_CHUNK onward) draws from the four
Philox streams that are the children of SeedSequence(chunk_seed(root_seed,
c)): Haar normals, populations, step jitter and interference counts, in that
order.  Each kind is one array per chunk with rows in trial order, so row i
depends only on (root_seed, i), and every outcome row records its chunk's
seed.  ``data/outcome_trials_pinned.json`` holds, for six small specs, the
seed, reference, verdict, error and fidelity of every trial as the batch
runner produced them when this scheme was introduced.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psitomo import (
    STEP_PHASES,
    ExperimentSpec,
    NoiseModel,
    ProjectorOutcomes,
    PureState,
    StateSource,
    chunk_seed,
    fidelity,
    interference_probs,
    normalize,
    reconstruct_from_outcomes,
    run_batch,
    run_trial,
)
from psitomo.errors import AllZero, TomographyError
from psitomo.harness import OUTCOME_CHUNK

PINNED = json.loads((Path(__file__).parent / "data" / "outcome_trials_pinned.json").read_text())


def verdict_of(t):
    if t.error is not None:
        return "FAILED"
    return "PURE" if t.pure else "NOT_PURE"


def pinned_spec(p):
    noise = NoiseModel.bench_defaults(p["photons"]) if p["bench_noise"] else NoiseModel()
    kind = "haar" if p["source"] == "haar" else "bloch_grid"
    return ExperimentSpec(
        dim=p["dim"],
        source=StateSource(kind, p["n"]),
        root_seed=p["root_seed"],
        reference_mode=p["reference_mode"],
        noise=noise,
    )


def haar_spec(dim, mode, photons, n, root):
    return ExperimentSpec(dim=dim, source=StateSource.haar(n), root_seed=root,
                          reference_mode=mode, noise=NoiseModel.bench_defaults(photons))


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, -1.0, -1e-12])
def test_spec_rejects_non_physical_tau(tau):
    with pytest.raises(ValueError, match="tau_purity"):
        ExperimentSpec(dim=3, source=StateSource.haar(2), root_seed=0, tau_purity=tau)


def test_spec_accepts_zero_tau():
    spec = ExperimentSpec(dim=3, source=StateSource.haar(4), root_seed=0, tau_purity=0.0)
    assert run_batch(spec).n_failed == 0


@pytest.mark.parametrize("pinned", PINNED["specs"], ids=lambda s: s["name"])
def test_batch_reproduces_pinned_trials(pinned):
    trials = run_batch(pinned_spec(pinned)).trials
    assert len(trials) == len(pinned["trials"])
    for t, (seed, ref, verdict, error, fid) in zip(trials, pinned["trials"]):
        assert (t.seed, t.reference_used, verdict_of(t), t.error) == (seed, ref, verdict, error)
        assert abs(t.fidelity - fid) <= 1e-12, t.index


@settings(max_examples=12)
@example(dim=6, mode="adaptive", photons=3.0, n=OUTCOME_CHUNK - 1, extra=2, root=5)
@example(dim=5, mode="fixed", photons=3.0, n=OUTCOME_CHUNK, extra=OUTCOME_CHUNK + 1, root=3)
@example(dim=3, mode="extra_slit", photons=1e4, n=1, extra=2 * OUTCOME_CHUNK, root=2**40 + 1)
@given(
    dim=st.integers(2, 6),
    mode=st.sampled_from(["fixed", "adaptive", "extra_slit"]),
    photons=st.sampled_from([0.0, 3.0, 1e4]),
    n=st.integers(1, 2 * OUTCOME_CHUNK + 1),
    extra=st.integers(1, OUTCOME_CHUNK + 1),
    root=st.integers(0, 2**64 - 1),
)
def test_batch_is_the_first_rows_of_a_longer_batch(dim, mode, photons, n, extra, root):
    """A batch of n trials is the first n rows of one of n + extra trials."""
    short = run_batch(haar_spec(dim, mode, photons, n, root)).trials
    long = run_batch(haar_spec(dim, mode, photons, n + extra, root)).trials[:n]
    for a, b in zip(short, long):
        assert (a.index, a.seed, a.error, a.pure, a.reference_used, a.outcome_budget) == (
            b.index, b.seed, b.error, b.pure, b.reference_used, b.outcome_budget)
        assert np.array_equal(a.true_state.amps, b.true_state.amps)
        assert a.fidelity == b.fidelity
        if a.error is None:
            assert np.array_equal(a.recon_state.amps, b.recon_state.amps)


def redrawn_rows(spec):
    """(seed, state, reference, error name or report) of every batch row,
    rebuilt one row at a time from the chunk streams drawn here."""
    n_slits = spec.optics.n_slits
    sd = spec.noise.phase_step_jitter_sd
    photons = spec.noise.photons_per_frame
    rows = []
    for c, start in enumerate(range(0, spec.source.n, OUTCOME_CHUNK)):
        seed = chunk_seed(spec.root_seed, c)
        haar, populations, jitter, counts = (
            np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(k,))))
            for k in range(4)
        )
        for _ in range(start, min(start + OUTCOME_CHUNK, spec.source.n)):
            z = haar.standard_normal((2, spec.dim))
            psi = normalize(z[0] + 1j * z[1])
            amps = psi.amps if n_slits == spec.dim else np.append(psi.amps, 1.0) / math.sqrt(2.0)
            pops = np.abs(amps) ** 2
            measured = populations.poisson(pops * photons).astype(float) if photons else pops
            ref = spec.optics.ref_index
            if spec.reference_mode == "adaptive":
                ref = int(np.argmax(measured))
            phases = np.asarray(STEP_PHASES) + jitter.standard_normal(3) * sd
            table = interference_probs(PureState(amps), ref, phases)
            if photons:
                table = counts.poisson(table * photons).astype(float)
            kind = "count" if photons else "probability"
            try:
                if spec.reference_mode == "adaptive" and not measured.max() > 0.0:
                    raise AllZero("all populations are zero")
                outcome = reconstruct_from_outcomes(
                    ProjectorOutcomes(n_slits, ref, measured, table, kind=kind),
                    tau=spec.tau_purity)
            except TomographyError as exc:
                outcome = type(exc).__name__
            rows.append((seed, psi, ref, outcome))
    return rows


@pytest.mark.parametrize(
    "dim, mode, photons, n, root, reached",
    [
        (6, "adaptive", 3.0, 2 * OUTCOME_CHUNK + 3, 5, {"AllZero"}),
        (5, "fixed", 30.0, OUTCOME_CHUNK + 40, 3, {"WeakReference"}),
        (4, "extra_slit", 1e4, OUTCOME_CHUNK + 1, 2**40 + 7, set()),
        (3, "fixed", 0.0, 20, 6, set()),
        (3, "fixed", 0.7, OUTCOME_CHUNK + 30, 23, {"AllZero"}),
    ],
    ids=["adaptive-3", "fixed-30", "extra_slit-1e4", "fixed-noiseless", "fixed-0.7"],
)
def test_rows_match_inversions_of_redrawn_streams(dim, mode, photons, n, root, reached):
    spec = haar_spec(dim, mode, photons, n, root)
    batch = run_batch(spec).trials
    rows = redrawn_rows(spec)
    assert len(rows) == len(batch) == n
    failed = set()
    for row, (seed, psi, ref, outcome) in zip(batch, rows):
        assert row.seed == seed
        assert np.array_equal(row.true_state.amps, psi.amps)
        if isinstance(outcome, str):
            assert (row.error, row.fidelity, row.reference_used) == (outcome, 0.0, -1)
            failed.add(outcome)
            continue
        assert (row.error, row.reference_used) == (None, ref)
        assert row.pure == outcome.purity_verdict.pure
        assert abs(row.fidelity - fidelity(psi, normalize(outcome.state.amps[:dim]))) <= 1e-12
    assert failed >= reached


@pytest.mark.parametrize("mode", ["fixed", "adaptive", "extra_slit"])
@pytest.mark.parametrize("photons", [3.0, 1e4])
def test_first_row_of_each_chunk_is_run_trial_on_its_seed(mode, photons):
    spec = haar_spec(5, mode, photons, 3 * OUTCOME_CHUNK + 2, 17)
    batch = run_batch(spec).trials
    for c in range(4):
        row = batch[c * OUTCOME_CHUNK]
        assert row.seed == chunk_seed(17, c)
        assert all(t.seed == row.seed for t in batch[c * OUTCOME_CHUNK : (c + 1) * OUTCOME_CHUNK])
        try:
            single = run_trial(row.true_state, spec, row.seed, row.index)
        except TomographyError as exc:
            assert row.error == type(exc).__name__
            continue
        assert (single.index, single.seed, single.error, single.pure, single.reference_used) == (
            row.index, row.seed, None, row.pure, row.reference_used)
        assert abs(single.fidelity - row.fidelity) <= 1e-12
        assert np.allclose(single.recon_state.amps, row.recon_state.amps, rtol=0, atol=1e-12)


# ------------------------------------------------- rows checked once per chunk

def chunk_arrays(dim, kind, n=40, seed=0):
    """References, populations and interference tables of n outcome rows: Haar
    states under jittered steps, as probabilities or Poisson counts at 30
    photons, where row 3 is all zero and row 5 has an empty reference."""
    rng = np.random.default_rng(seed)
    refs = rng.integers(0, dim, n)
    states = [normalize(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
              for _ in range(n)]
    pops = np.array([np.abs(psi.amps) ** 2 for psi in states])
    phases = np.add(STEP_PHASES, 0.1 * rng.standard_normal((n, 3)))
    tables = np.array([interference_probs(psi, int(r), theta)
                       for psi, r, theta in zip(states, refs, phases)])
    if kind == "count":
        pops = rng.poisson(30 * pops).astype(float)
        tables = rng.poisson(30 * tables).astype(float)
        pops[3], tables[3] = 0.0, 0.0
        pops[5, refs[5]] = 0.0
    return refs, pops, tables


def report_or_error(outcomes):
    try:
        return reconstruct_from_outcomes(outcomes, tau=0.02)
    except TomographyError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("dim", [2, 5, 14, 64])
@pytest.mark.parametrize("kind", ["count", "probability"])
def test_chunk_rows_report_as_rows_checked_one_at_a_time(dim, kind):
    refs, pops, tables = chunk_arrays(dim, kind, seed=dim)
    rows = ProjectorOutcomes._rows(dim, refs, pops, tables, kind)
    assert len(rows) == len(refs)
    errors = set()
    for j, row in enumerate(rows):
        got = report_or_error(row)
        want = report_or_error(ProjectorOutcomes(dim, int(refs[j]), pops[j], tables[j], kind=kind))
        if isinstance(want, str):
            assert got == want, j
            errors.add(want)
            continue
        assert got.state.amps.tobytes() == want.state.amps.tobytes(), j
        assert got.per_slit_visibility.tobytes() == want.per_slit_visibility.tobytes(), j
        assert got.purity_verdict.margins.tobytes() == want.purity_verdict.margins.tobytes(), j
        assert got.purity_verdict.bound.tobytes() == want.purity_verdict.bound.tobytes(), j
        assert (got.purity_verdict.pure, got.purity_verdict.unverifiable, got.reference_used,
                got.outcome_budget) == (want.purity_verdict.pure, want.purity_verdict.unverifiable,
                                        want.reference_used, want.outcome_budget), j
    assert errors == ({"AllZero", "WeakReference"} if kind == "count" else set())


@pytest.mark.parametrize("kind", ["count", "probability"])
def test_chunk_rows_cannot_be_changed_after_the_check(kind):
    refs, pops, tables = chunk_arrays(3, kind, n=6)
    rows = ProjectorOutcomes._rows(3, refs, pops, tables, kind)
    pops[0, 0], tables[0, 0, 0] = pops[0, 0], tables[0, 0, 0]  # the caller's arrays stay writeable
    for row in rows:
        for held in (row.populations, row.interference):
            with pytest.raises(ValueError, match="read-only"):
                held[0] = math.nan


@pytest.mark.parametrize("kind", ["count", "probability"])
def test_outcome_fields_cannot_be_reassigned(kind):
    """A public instance and every chunk row refuse a field write, so no value
    reaches the inversion without the checks."""
    refs, pops, tables = chunk_arrays(3, kind, n=6)
    public = ProjectorOutcomes(3, int(refs[0]), pops[0], tables[0], kind=kind)
    for outcomes in [public, *ProjectorOutcomes._rows(3, refs, pops, tables, kind)]:
        for field, value in [("populations", np.full(3, math.nan)),
                             ("interference", np.full((2, 3), math.nan)),
                             ("ref_index", 7), ("dim", 4), ("kind", "photons")]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(outcomes, field, value)


def first_error(make):
    with pytest.raises(Exception) as info:
        make()
    return type(info.value), str(info.value)


def spoil(what, refs, pops, tables):
    """The chunk arrays with row 2 (or the whole chunk, for shapes) made invalid."""
    refs, pops, tables = refs.copy(), pops.copy(), tables.copy()
    if what == "nan-population":
        pops[2, 1] = math.nan
    elif what == "inf-interference":
        tables[2, 0, 1] = math.inf
    elif what == "negative-population":
        pops[2, 0] = -1e-300
    elif what == "negative-interference":
        tables[2, -1, 2] = -0.5
    elif what == "reference-too-large":
        refs[2] = pops.shape[1]
    elif what == "reference-negative":
        refs[2] = -1
    elif what == "population-shape":
        pops = np.concatenate([pops, pops[:, :1]], axis=1)
    elif what == "interference-shape":
        tables = tables[:, :, :2]
    elif what == "population-sum":
        pops[2] *= 1.0 + 1e-8
    return refs, pops, tables


@pytest.mark.parametrize("what", [
    "nan-population", "inf-interference", "negative-population", "negative-interference",
    "reference-too-large", "reference-negative", "population-shape", "interference-shape",
    "population-sum", "kind", "dim"])
def test_chunk_check_refuses_what_one_row_refuses_with_its_message(what):
    dim, kind = 4, "probability"
    refs, pops, tables = spoil(what, *chunk_arrays(dim, kind, n=6))
    if what == "kind":
        kind = "photons"
    if what == "dim":
        dim, refs, pops, tables = 1, refs * 0, pops[:, :1], tables[:, :0]
    one = first_error(lambda: ProjectorOutcomes(dim, int(refs[2]), pops[2], tables[2], kind=kind))
    assert one == first_error(lambda: ProjectorOutcomes._rows(dim, refs, pops, tables, kind))

