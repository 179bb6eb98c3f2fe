"""The chunked outcome path: pinned per-trial draws and row independence.

``data/outcome_trials_pinned.json`` holds, for six small specs, the seed,
reference, verdict, error and fidelity of every trial as the one-trial-at-a-
time outcome loop produced them.  Running outcome trials in chunks must not
change a single draw, so the batch runner has to reproduce every row.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psitomo import ExperimentSpec, NoiseModel, StateSource, run_batch, run_trial, trial_seed
from psitomo.errors import TomographyError
from psitomo.harness import OUTCOME_CHUNK, generate_states

PINNED = json.loads((Path(__file__).parent / "data" / "outcome_trials_pinned.json").read_text())


def verdict_of(t):
    if t.error is not None:
        return "FAILED"
    return "PURE" if t.pure else "NOT_PURE"


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, -1.0, -1e-12])
def test_spec_rejects_non_physical_tau(tau):
    with pytest.raises(ValueError, match="tau_purity"):
        ExperimentSpec(dim=3, source=StateSource.haar(2), root_seed=0, tau_purity=tau)


def test_spec_accepts_zero_tau():
    spec = ExperimentSpec(dim=3, source=StateSource.haar(4), root_seed=0, tau_purity=0.0)
    assert run_batch(spec).n_failed == 0


@pytest.mark.parametrize("pinned", PINNED["specs"], ids=lambda s: s["name"])
def test_batch_reproduces_pinned_trials(pinned):
    photons = pinned["photons"]
    noise = NoiseModel.bench_defaults(photons) if pinned["bench_noise"] else NoiseModel()
    kind = "haar" if pinned["source"] == "haar" else "bloch_grid"
    spec = ExperimentSpec(
        dim=pinned["dim"],
        source=StateSource(kind, pinned["n"]),
        root_seed=pinned["root_seed"],
        reference_mode=pinned["reference_mode"],
        noise=noise,
    )
    trials = run_batch(spec).trials
    assert len(trials) == len(pinned["trials"])
    for t, (seed, ref, verdict, error, fid) in zip(trials, pinned["trials"]):
        assert (t.seed, t.reference_used, verdict_of(t), t.error) == (seed, ref, verdict, error)
        assert abs(t.fidelity - fid) <= 1e-12, t.index


@settings(max_examples=12)
@example(dim=6, mode="adaptive", photons=3.0, n=2 * OUTCOME_CHUNK + 1, root=5)
@given(
    dim=st.integers(2, 6),
    mode=st.sampled_from(["fixed", "adaptive", "extra_slit"]),
    photons=st.sampled_from([0.0, 3.0, 1e4]),
    n=st.integers(1, 2 * OUTCOME_CHUNK + 1),
    root=st.integers(0, 2**32 - 1),
)
def test_batch_rows_match_single_trials(dim, mode, photons, n, root):
    spec = ExperimentSpec(
        dim=dim,
        source=StateSource.haar(n),
        root_seed=root,
        reference_mode=mode,
        noise=NoiseModel.bench_defaults(photons),
    )
    batch = run_batch(spec).trials
    for i, psi in enumerate(generate_states(spec)):
        seed = trial_seed(root, i)
        row = batch[i]
        assert (row.index, row.seed, row.dim) == (i, seed, dim)
        assert np.array_equal(row.true_state.amps, psi.amps)
        try:
            single = run_trial(psi, spec, seed, i)
        except TomographyError as exc:
            assert row.error == type(exc).__name__
            assert (row.fidelity, row.pure, row.reference_used, row.recon_state) == (
                0.0, False, -1, None
            )
            continue
        assert row.error is None
        assert (row.pure, row.reference_used, row.outcome_budget) == (
            single.pure, single.reference_used, single.outcome_budget
        )
        assert abs(row.fidelity - single.fidelity) <= 1e-12
        assert np.allclose(row.recon_state.amps, single.recon_state.amps, rtol=0, atol=1e-12)
