"""Exact data invert exactly at large d, on both pipelines.

The method holds for a qudit of any dimension d; these round trips run well
beyond the d = 2-14 of the other tests, in well under a second each.
"""

import pytest

from psitomo import (
    ExperimentSpec,
    ProjectorSpec,
    StateSource,
    exact_outcomes,
    fidelity,
    haar_random,
    reconstruct_from_outcomes,
    run_batch,
)


def test_exact_outcomes_invert_exactly_at_d1024_from_several_reference_slits():
    psi = haar_random(1024, seed=12)
    for r in (0, 1, 511, 1023):
        report = reconstruct_from_outcomes(exact_outcomes(psi, ProjectorSpec(1024, r)))
        assert report.reference_used == r
        assert fidelity(psi, report.state) >= 1.0 - 1e-12


@pytest.mark.parametrize("mode", ["fixed", "adaptive", "extra_slit"])
def test_noiseless_frames_batch_is_exact_at_d64(mode):
    stats = run_batch(ExperimentSpec(dim=64, source=StateSource("haar", 6), root_seed=5,
                                     pipeline="frames", reference_mode=mode))
    assert stats.n_failed == 0
    assert min(t.fidelity for t in stats.trials) >= 1.0 - 1e-12
