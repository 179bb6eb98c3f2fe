"""The one integer rule (``states._check_int``) over every argument it owns.

Each argument is refused as a non-integer float (2.5), an integral float
(3.0), a bool (True) and an integer outside its range, with its own error
type and a message that names the value.  The seeds of the public samplers
follow the rule too, beside the SeedSequence (and Generator) they take, and
refuse None; a render refuses a Generator.
"""

from dataclasses import replace

import numpy as np
import pytest

from psitomo import (
    STEP_PHASES,
    DensityMatrix,
    ExperimentSpec,
    Interferogram,
    NoiseModel,
    OpticalConfig,
    ProjectorOutcomes,
    ProjectorSpec,
    StateSource,
    bloch_grid,
    certify_purity,
    exact_outcomes,
    haar_random,
    interference_probs,
    measurement_plan,
    projector_state,
    render_blocked_frame,
    render_frames,
    run_batch,
    run_trial,
    sample_counts,
)
from psitomo.errors import BadIndex

_CFG3 = OpticalConfig.for_dim(3)
_PSI2 = haar_random(2, seed=1)
_SPEC2 = ExperimentSpec(dim=2, source=StateSource.haar(1), root_seed=0)
_DIM = "qudit dimension must be at least 2, got {!r}"
_SEED = "seed must be a non-negative integer or a SeedSequence, got {!r}"
_NOISY = NoiseModel(1e4, 0.1, 0.12, 0.5)
_CFG2 = OpticalConfig.for_dim(2)

# (name, draw on a seed, takes a Generator): the public samplers
_SAMPLERS = [
    ("haar_random", lambda seed: haar_random(3, seed).amps, True),
    ("sample_counts",
     lambda seed: sample_counts(exact_outcomes(_PSI2), _NOISY, seed).interference, True),
    ("render_frames", lambda seed: render_frames(_PSI2, _CFG2, _NOISY, seed)[1].pixels, False),
    ("render_blocked_frame",
     lambda seed: render_blocked_frame(_PSI2, _CFG2, _NOISY, seed, roi_band=True).pixels, False),
]

# (id, build from the value, error type, message template, an integer out of range)
_ARGUMENTS = [
    ("ProjectorSpec.dim", lambda v: ProjectorSpec(v), ValueError, _DIM, 1),
    ("ProjectorSpec.ref_index", lambda v: ProjectorSpec(3, v), BadIndex,
     "reference index {} outside 0..2", 3),
    ("ProjectorOutcomes.dim", lambda v: ProjectorOutcomes(v, 0, [0.5, 0.5], [[0.5, 0.5, 0.5]]),
     ValueError, _DIM, 1),
    ("ProjectorOutcomes.ref_index",
     lambda v: ProjectorOutcomes(2, v, [0.5, 0.5], [[0.5, 0.5, 0.5]]), BadIndex,
     "reference index {} outside 0..1", 2),
    ("projector_state.slit", lambda v: projector_state(ProjectorSpec(4), v, 1), BadIndex,
     "slit {} outside 0..3", 4),
    ("projector_state.step", lambda v: projector_state(ProjectorSpec(4), 1, v), BadIndex,
     "step {} outside 1..3", 0),
    ("interference_probs.ref_index",
     lambda v: interference_probs(haar_random(3, 1), v, STEP_PHASES), BadIndex,
     "reference index {} outside 0..2", 3),
    ("certify_purity.ref_index",
     lambda v: certify_purity([0.5, 0.5], [1.0, 1.0], 0.5, ref_index=v), BadIndex,
     "reference index {} outside 0..1", 2),
    ("measurement_plan.dim", lambda v: measurement_plan(v, "adaptive"), ValueError, _DIM, 1),
    ("OpticalConfig.n_slits", lambda v: replace(_CFG3, n_slits=v), ValueError,
     "need at least two slits, got {!r}", 1),
    ("OpticalConfig.ref_index", lambda v: _CFG3.with_reference(v), ValueError,
     "ref_index {} outside 0..2", 3),
    ("OpticalConfig.for_dim", lambda v: OpticalConfig.for_dim(v), ValueError, _DIM, 1),
    ("Interferogram.step_index", lambda v: Interferogram(v, np.zeros(_CFG3.image_dims), _CFG3),
     ValueError, "step index {} outside 0..4", 5),
    ("ExperimentSpec.dim", lambda v: ExperimentSpec(dim=v, source=StateSource.haar(1),
                                                    root_seed=0), ValueError, _DIM, 1),
    ("ExperimentSpec.root_seed", lambda v: replace(_SPEC2, root_seed=v), ValueError,
     "root_seed must be a non-negative integer, got {!r}", -1),
    ("DensityMatrix.maximally_mixed", lambda v: DensityMatrix.maximally_mixed(v), ValueError,
     _DIM, 1),
    ("haar_random.dim", lambda v: haar_random(v, seed=0), ValueError, _DIM, 1),
    ("StateSource.n", lambda v: StateSource("haar", v), ValueError,
     "state source must produce at least one state, got {!r}", 0),
    ("bloch_grid.n", lambda v: bloch_grid(v), ValueError,
     "need at least one lattice point, got {!r}", 0),
    ("run_trial.seed", lambda v: run_trial(_PSI2, _SPEC2, v), ValueError,
     "seed must be a non-negative integer, got {!r}", -1),
    ("run_trial.index", lambda v: run_trial(_PSI2, _SPEC2, 1, v), ValueError,
     "index must be a non-negative integer, got {!r}", -1),
    ("run_batch.workers", lambda v: run_batch(_SPEC2, v), ValueError,
     "workers must be a positive integer, got {!r}", 0),
] + [(f"{name}.seed", draw, ValueError, _SEED, -1) for name, draw, _ in _SAMPLERS]


@pytest.mark.parametrize(
    "build, error, template, value",
    [pytest.param(build, error, template, value, id=f"{name}-{value!r}")
     for name, build, error, template, outside in _ARGUMENTS
     for value in (2.5, 3.0, True, outside)],
)
def test_integer_rule_refuses_and_names_the_value(build, error, template, value):
    # Cached Bloch lattices of size 1 and 3 must not let True or 3.0 through.
    bloch_grid(1)
    bloch_grid(3)
    with pytest.raises(error) as info:
        build(value)
    assert str(info.value) == template.format(value)


def test_integer_rule_reads_a_zero_d_integer_array_as_its_value():
    assert ProjectorSpec(np.array(3)).dim == 3
    with pytest.raises(ValueError, match=r"^qudit dimension must be at least 2, got .*1\)?$"):
        ProjectorSpec(np.array(1))
    with pytest.raises(BadIndex, match=r"^reference index 3 outside 0\.\.2$"):
        ProjectorSpec(3, np.array(3))



@pytest.mark.parametrize("seed", [False, np.True_, None], ids=["false", "numpy-true", "none"])
@pytest.mark.parametrize("draw", [d for _, d, _ in _SAMPLERS], ids=[n for n, _, _ in _SAMPLERS])
def test_sampler_seeds_refuse_a_bool_or_none(draw, seed):
    with pytest.raises(ValueError) as info:
        draw(seed)
    assert str(info.value) == _SEED.format(seed)


@pytest.mark.parametrize("draw", [d for _, d, g in _SAMPLERS if not g],
                         ids=[n for n, _, g in _SAMPLERS if not g])
def test_render_seeds_refuse_a_generator(draw):
    seed = np.random.default_rng(5)
    with pytest.raises(ValueError) as info:
        draw(seed)
    assert str(info.value) == _SEED.format(seed)


@pytest.mark.parametrize("draw, generator", [(d, g) for _, d, g in _SAMPLERS],
                         ids=[n for n, _, _ in _SAMPLERS])
def test_sampler_seeds_keep_their_draws(draw, generator):
    seeds = [np.int64(5), np.uint32(5), np.random.SeedSequence(5)]
    if generator:
        seeds.append(np.random.default_rng(5))
    for seed in seeds:
        np.testing.assert_array_equal(draw(seed), draw(5))
