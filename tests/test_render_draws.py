"""How a render draws its random numbers.

A render's band steps take one shot-noise call on the shot stream, an
adaptive pick's frame 0 one more, and a full render one background call per
frame; a noiseless render starts no shot generator.  The digests pin the
pixel bytes of noisy renders, whose pixels are integer counts, so any change
to the draw order shows.
"""

import hashlib

import numpy as np
import pytest

from psitomo import NoiseModel, OpticalConfig, choose_reference, haar_random, imaging
from psitomo.imaging import DISPLAY_PHASE_SD, _render, _steps


def _pick(config):
    return lambda means: config.with_reference(choose_reference(means))


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper that records the arguments of each call."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("calibration", [False, True], ids=["four", "calibration"])
@pytest.mark.parametrize("roi_band", [True, False], ids=["band", "full"])
@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
@pytest.mark.parametrize("photons", [0.0, 1e4], ids=["noiseless", "noisy"])
def test_band_steps_take_one_shot_noise_call(monkeypatch, photons, adaptive, roi_band,
                                             calibration):
    config = OpticalConfig.for_dim(5)
    calls = _counting(monkeypatch, imaging, "_counts")
    steps = _steps(calibration)
    frames = _render(haar_random(5, seed=1), config, NoiseModel.bench_defaults(photons), 3,
                     steps, roi_band, _pick(config) if adaptive else None)
    band = 2 if adaptive else 1
    assert len(calls) == band + (0 if roi_band else len(steps))
    assert calls[band - 1][1].shape[0] == len(frames) == len(steps)


def test_band_steps_are_drawn_in_step_order(monkeypatch):
    config = OpticalConfig.for_dim(3)
    psi, steps = haar_random(3, seed=2), _steps(True)
    noiseless = _render(psi, config, NoiseModel.bench_defaults(), 5, steps, True)
    calls = _counting(monkeypatch, imaging, "_counts")
    _render(psi, config, NoiseModel.bench_defaults(1e4), 5, steps, True)
    (stream, expected, _, _), = calls
    assert isinstance(stream, np.random.SeedSequence)
    np.testing.assert_array_equal(expected, [frame.pixels for frame in noiseless])


@pytest.mark.parametrize("roi_band", [True, False], ids=["band", "full"])
def test_noiseless_render_starts_only_the_jitter_generator(monkeypatch, roi_band):
    psi = haar_random(4, seed=1)
    calls = _counting(monkeypatch, np.random, "default_rng")
    _render(psi, OpticalConfig.for_dim(4), NoiseModel(), 0, _steps(False), roi_band)
    assert len(calls) == 1


# Pixel bytes (little-endian float64, frames in step order) of noisy renders of
# haar_random(dim, seed=dim) with seed 2017, step jitter 0.1 and the display's phase field.
_DIGESTS = [  # dim, extra slit, adaptive, calibration, photons, dark, band, sha256
    (5, False, False, True, 300.0, 0.5, True,
     "1b7aeff272cb19a9be7febe4d492463323a14617e0d69afedeef27461fd6699b"),
    (5, True, False, True, 1e4, 0.0, False,
     "853eb03f00d46797069fb1555b5f07b418ed42fbe17b9d60725d79d6b2f010dc"),
    (5, False, True, False, 300.0, 0.5, False,
     "1af49c3d3e0518c85dfa5ffce1c12152f62122cf91f0410f6dc91dbc64e94c4c"),
    (14, False, False, True, 1e5, 0.5, True,
     "d6e0e6ced5981f6211fdfd521e06e8bc07639dc193b8d912b82498a699547927"),
    (14, False, True, True, 1e5, 0.0, True,
     "49983bfb1a3e4bcd5509c2904ec1b625fc33822bb0a0d19a05eb7a74842bcb2c"),
    (14, True, True, False, 1e4, 0.5, False,
     "7e42c683aaeba640bdbd56e7b2e977a1219735e020b4e290e9ed9462609dbc9d"),
]


@pytest.mark.parametrize("dim, extra, adaptive, calibration, photons, dark, band, digest",
                         _DIGESTS)
def test_noisy_render_pixels_match_their_digest(dim, extra, adaptive, calibration, photons,
                                                dark, band, digest):
    config = OpticalConfig.for_dim(dim, extra_reference=extra)
    noise = NoiseModel(photons, 0.1, DISPLAY_PHASE_SD, dark)
    frames = _render(haar_random(dim, seed=dim), config, noise, 2017, _steps(calibration), band,
                     _pick(config) if adaptive else None)
    h = hashlib.sha256()
    for frame in frames:
        h.update(frame.pixels.astype("<f8").tobytes())
    assert h.hexdigest() == digest
