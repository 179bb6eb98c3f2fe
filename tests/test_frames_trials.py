"""Frames trials in batches: pinned per-trial draws and row independence.

``data/frames_trials_pinned.json`` holds, for fourteen small frames specs, the
seed, reference, verdict, error and fidelity of every trial as the batch
runner produced them before frames trials shared the outcome trials' chunk
loop.  The specs cover the fixed, adaptive and extra_slit modes at d = 2, 5
and 14, a flat envelope, the calibration frame, a noiseless Bloch lattice,
and low-photon runs whose trials fail with DegenerateFringe, ZeroVector and
AllZero.  The draws did not change, so every row must be reproduced.
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
    run_batch,
    run_trial,
    trial_seed,
)
from psitomo.errors import TomographyError
from psitomo.harness import generate_states

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
