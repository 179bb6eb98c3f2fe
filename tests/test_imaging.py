"""Frame rendering and camera geometry tests.

The flat-envelope oracles use the closed form |c_k + e^{-i delta}|^2
with delta = pi/2 (step - 1/2), evaluated by hand.
"""

import numpy as np
import pytest

from psitomo import (
    Interferogram,
    NoiseModel,
    OpticalConfig,
    haar_random,
    normalize,
    read_pgm,
    render_blocked_frame,
    render_frames,
    roi_means,
    save_frames,
    load_frames,
    write_pgm,
)
from psitomo.errors import ConfigMismatch
from psitomo.imaging import (
    CALIBRATION_STEP,
    DISPLAY_PHASE_SD,
    _dc_total,
    annotate_rois,
)


def flat_config(dim, **kw):
    return OpticalConfig.for_dim(dim, envelope="flat", **kw)


# ---------------------------------------------------------------- geometry


def test_for_dim_geometry():
    cfg = OpticalConfig.for_dim(4)
    assert cfg.n_slits == 4
    h, w = cfg.image_dims
    assert w == 2 * cfg.slit_pitch_px + 4 * cfg.slit_pitch_px
    assert len(cfg.roi_layout) == 4
    xs = [x for x, _, _, _ in cfg.roi_layout]
    assert xs == sorted(xs)
    # ROIs sit on the pitch
    assert np.all(np.diff(xs) == cfg.slit_pitch_px)


def test_for_dim_extra_reference():
    cfg = OpticalConfig.for_dim(3, extra_reference=True)
    assert cfg.n_slits == 4
    assert cfg.ref_index == 3
    assert cfg.ref_envelope[3] == pytest.approx(1.0)


def test_config_rejects_overlapping_rois():
    cfg = OpticalConfig.for_dim(2)
    rois = list(cfg.roi_layout)
    x, y, w, h = rois[1]
    rois[1] = (rois[0][0] + 1, y, w, h)
    with pytest.raises(ValueError):
        OpticalConfig(
            n_slits=2,
            image_dims=cfg.image_dims,
            roi_layout=tuple(rois),
            ref_envelope=cfg.ref_envelope,
        )


def test_config_rejects_envelope_outside_unit_interval():
    cfg = OpticalConfig.for_dim(2)
    with pytest.raises(ValueError):
        OpticalConfig(
            n_slits=2,
            image_dims=cfg.image_dims,
            roi_layout=cfg.roi_layout,
            ref_envelope=(1.0, 1.5),
        )


def test_with_reference_recenters_envelope():
    cfg = OpticalConfig.for_dim(5)
    moved = cfg.with_reference(3)
    assert moved.ref_index == 3
    assert moved.ref_envelope[3] == pytest.approx(1.0)
    assert moved.ref_envelope[0] < 1.0


def test_sinc_envelope_peaks_at_reference_and_decays():
    env = np.asarray(OpticalConfig.for_dim(7).ref_envelope)
    assert env[0] == pytest.approx(1.0)
    assert np.all(np.diff(env) < 0)
    assert np.all(env > 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_interferogram_rejects_non_finite_pixels(bad):
    cfg = flat_config(2)
    pixels = np.zeros(cfg.image_dims)
    pixels[0, 0] = bad
    with pytest.raises(ValueError):
        Interferogram(1, pixels, cfg)


def test_interferogram_validates_shape_and_freezes_pixels():
    cfg = flat_config(2)
    with pytest.raises(ValueError):
        Interferogram(1, np.zeros((3, 3)), cfg)
    frame = render_frames(haar_random(2, seed=0), cfg)[0]
    with pytest.raises(ValueError):
        frame.pixels[0, 0] = 1.0


# ---------------------------------------------------------------- rendering


def test_flat_envelope_fringe_oracle():
    # psi = |0> on two slits, flat reference of unit amplitude:
    # ROI 0 sees |1 + e^{-i delta}|^2 = 2 + 2 cos(delta), ROI 1 sees 1.
    psi = normalize(np.array([1.0, 0.0]))
    cfg = flat_config(2)
    f0, f1, f2, f3 = render_frames(psi, cfg)
    m1, m2, m3 = roi_means(f1), roi_means(f2), roi_means(f3)
    assert m1[0] == pytest.approx(2 + np.sqrt(2.0), abs=1e-12)
    assert m2[0] == pytest.approx(2 - np.sqrt(2.0), abs=1e-12)
    assert m3[0] == pytest.approx(2 - np.sqrt(2.0), abs=1e-12)
    for m in (m1, m2, m3):
        assert m[1] == pytest.approx(1.0, abs=1e-12)
    # blocked frame: populations only
    assert roi_means(f0) == pytest.approx([1.0, 0.0], abs=1e-15)


def test_blocked_frame_means_are_populations():
    psi = haar_random(5, seed=31)
    cfg = flat_config(5)
    f0 = render_frames(psi, cfg)[0]
    pops = np.abs(psi.amps) ** 2
    assert roi_means(f0) == pytest.approx(pops, abs=1e-12)


def test_antiphase_steps_reconstruct_dc_level():
    # steps 1 and 3 are pi apart, so I1 + I3 = 2(|A|^2 + R^2) pixel by pixel
    psi = haar_random(4, seed=8)
    cfg = OpticalConfig.for_dim(4)
    f0, f1, f2, f3, cal = render_frames(psi, cfg, include_calibration=True)
    assert cal.step_index == CALIBRATION_STEP
    lhs = f1.pixels + f3.pixels
    rhs = 2.0 * (f0.pixels + cal.pixels)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_phase_inhomogeneity_leaves_populations_untouched():
    psi = haar_random(3, seed=12)
    cfg = flat_config(3)
    clean = render_frames(psi, cfg)[0]
    noisy = render_frames(
        psi, cfg, NoiseModel(phase_inhomogeneity_sd=DISPLAY_PHASE_SD), seed=5
    )[0]
    assert np.allclose(clean.pixels, noisy.pixels, atol=1e-12)


def test_render_is_seed_deterministic_with_photon_noise():
    psi = haar_random(3, seed=1)
    cfg = OpticalConfig.for_dim(3)
    noise = NoiseModel.bench_defaults(photons_per_frame=5e4)
    a = render_frames(psi, cfg, noise, seed=42)
    b = render_frames(psi, cfg, noise, seed=42)
    c = render_frames(psi, cfg, noise, seed=43)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.pixels, fb.pixels)
    assert not np.array_equal(a[1].pixels, c[1].pixels)


def test_render_accepts_seedsequence_without_consuming_it():
    psi = haar_random(2, seed=3)
    cfg = OpticalConfig.for_dim(2)
    noise = NoiseModel(photons_per_frame=1e4)
    seq = np.random.SeedSequence(99)
    a = render_frames(psi, cfg, noise, seed=seq)
    b = render_frames(psi, cfg, noise, seed=seq)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.pixels, fb.pixels)


def test_blocked_frame_matches_full_render_frame_zero():
    psi = haar_random(4, seed=17)
    cfg = OpticalConfig.for_dim(4)
    noise = NoiseModel.bench_defaults(photons_per_frame=2e4)
    blocked = render_blocked_frame(psi, cfg, noise, seed=7)
    full = render_frames(psi, cfg, noise, seed=7)[0]
    assert np.array_equal(blocked.pixels, full.pixels)


def test_render_rejects_wrong_slit_count():
    with pytest.raises(ConfigMismatch):
        render_frames(haar_random(3, seed=0), OpticalConfig.for_dim(5))


def test_poisson_counts_scale_with_budget():
    psi = haar_random(2, seed=21)
    cfg = OpticalConfig.for_dim(2)
    frames = render_frames(psi, cfg, NoiseModel(photons_per_frame=1e5), seed=6)
    # single fringe frames keep their interference cross terms, but the
    # antiphase pair 1 + 3 sums to exactly twice the budget in expectation
    total = frames[1].pixels.sum() + frames[3].pixels.sum()
    assert total == pytest.approx(2e5, rel=0.02)


def test_annotate_rois_burns_outline():
    frame = render_frames(haar_random(2, seed=2), flat_config(2))[1]
    marked = annotate_rois(frame)
    peak = marked.max()
    x, y, w, h = frame.config.roi_layout[0]
    assert marked[y, x] == peak
    assert marked[y + h - 1, x + w - 1] == peak


# ---------------------------------------------------------------- ROI band


def band_pixels(frame):
    """ROI columns of the reference-band row of a full frame, packed side by side."""
    return np.hstack([frame.roi(k) for k in range(frame.config.n_slits)])


@pytest.mark.parametrize("calibration", [False, True])
@pytest.mark.parametrize("envelope", ["sinc", "flat"])
@pytest.mark.parametrize(
    "dim, extra", [(2, False), (5, False), (14, False), (4, True)]
)
def test_noiseless_band_frames_equal_full_frame_rois(dim, extra, envelope, calibration):
    psi = haar_random(dim, seed=70 + dim)
    cfg = OpticalConfig.for_dim(dim, extra_reference=extra, envelope=envelope)
    full = render_frames(psi, cfg, include_calibration=calibration)
    band = render_frames(psi, cfg, include_calibration=calibration, roi_band=True)
    assert [f.step_index for f in band] == [f.step_index for f in full]
    for f, b in zip(full, band):
        assert np.array_equal(band_pixels(f), b.pixels)
        for k in range(cfg.n_slits):
            assert np.array_equal(f.roi(k), b.roi(k))
    blocked = render_blocked_frame(psi, cfg, roi_band=True)
    assert np.array_equal(blocked.pixels, band[0].pixels)


def test_band_config_is_the_packed_geometry():
    cfg = OpticalConfig.for_dim(5, extra_reference=True).with_reference(2)
    band = render_frames(haar_random(5, seed=4), cfg, roi_band=True)[0].config
    _, _, w, h = cfg.roi_layout[0]
    assert band.image_dims == (h, 6 * w)
    assert band.roi_layout == tuple((k * w, 0, w, h) for k in range(6))
    assert band.ref_index == cfg.ref_index == 2
    assert band.ref_envelope == cfg.ref_envelope
    assert band.envelope_kind == "custom"


def test_band_render_is_seed_deterministic_and_shares_photon_scale():
    psi = haar_random(6, seed=9)
    cfg = OpticalConfig.for_dim(6)
    noise = NoiseModel.bench_defaults(photons_per_frame=1e5)
    a = render_frames(psi, cfg, noise, seed=3, roi_band=True)
    b = render_frames(psi, cfg, noise, seed=3, roi_band=True)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.pixels, fb.pixels)
    blocked = render_blocked_frame(psi, cfg, noise, seed=3, roi_band=True)
    assert np.array_equal(blocked.pixels, a[0].pixels)
    # Expected counts per pixel follow the full image's photon scale.
    scale = 1e5 / _dc_total(psi.amps, cfg)
    clean = render_frames(psi, cfg, roi_band=True)[0].pixels
    assert a[0].pixels.sum() == pytest.approx(scale * clean.sum(), rel=0.05)


@pytest.mark.parametrize("extra", [False, True])
@pytest.mark.parametrize("envelope", ["sinc", "flat"])
@pytest.mark.parametrize("dim", [2, 5, 14])
def test_closed_form_dc_total_matches_full_image_sum(dim, envelope, extra):
    psi = haar_random(dim, seed=dim)
    cfg = OpticalConfig.for_dim(dim, extra_reference=extra, envelope=envelope)
    f0, _, _, _, cal = render_frames(psi, cfg, include_calibration=True)
    explicit = float(np.sum(f0.pixels) + np.sum(cal.pixels))
    amps = np.append(psi.amps, 1.0) if extra else psi.amps
    assert _dc_total(amps, cfg) == pytest.approx(explicit, rel=1e-12)


# ---------------------------------------------------------------- file io


def test_pgm_round_trip(tmp_path):
    pixels = np.arange(12, dtype=float).reshape(3, 4) * 5000
    path = tmp_path / "x.pgm"
    write_pgm(path, pixels)
    again = read_pgm(path)
    assert np.array_equal(again, pixels)


def test_pgm_header_may_carry_comments(tmp_path):
    pixels = np.array([[0, 1, 2], [300, 400, 500]], dtype=">u2")
    path = tmp_path / "c.pgm"
    header = b"P5\n# written by hand\n3 # width\n2\n# maxval next\n65535\n"
    path.write_bytes(header + pixels.tobytes())
    assert np.array_equal(read_pgm(path), pixels.astype(float))


@pytest.mark.parametrize("maxval", [0, 65536])
def test_pgm_rejects_maxval_outside_range(tmp_path, maxval):
    path = tmp_path / "m.pgm"
    path.write_bytes(f"P5\n2 1\n{maxval}\n".encode() + bytes(4))
    with pytest.raises(ValueError, match="maxval"):
        read_pgm(path)


def test_pgm_rejects_out_of_range(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "bad.pgm", np.array([[70000.0]]))
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "bad.pgm", np.array([[-1.0]]))


def test_save_and_load_frames_round_trip(tmp_path):
    psi = haar_random(3, seed=14)
    cfg = OpticalConfig.for_dim(3)
    frames = render_frames(
        psi, cfg, NoiseModel(photons_per_frame=5e4), seed=11, include_calibration=True
    )
    save_frames(tmp_path, frames, seed=11)
    loaded = load_frames(tmp_path)
    assert [f.step_index for f in loaded] == [0, 1, 2, 3, CALIBRATION_STEP]
    assert loaded[0].config.n_slits == 3
    assert loaded[0].config.roi_layout == cfg.roi_layout
    # quantization to 16 bits keeps the fringes: correlation stays ~1
    a = frames[1].pixels.ravel()
    b = loaded[1].pixels.ravel()
    assert np.corrcoef(a, b)[0, 1] > 0.9999
