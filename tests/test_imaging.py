"""Frame rendering and camera geometry tests.

The flat-envelope oracles use the closed form |c_k + e^{-i delta}|^2
with delta = pi/2 (step - 1/2), evaluated by hand.
"""

from dataclasses import replace

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
    _geometry,
    _object_amplitudes,
    _render,
    _steps,
    annotate_rois,
)
from psitomo.reconstruct import choose_reference


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
    for kind in ("sinc", "custom"):
        with pytest.raises(ValueError, match=r"envelope entries must lie in \[0, 1\]"):
            OpticalConfig(
                n_slits=2,
                image_dims=cfg.image_dims,
                roi_layout=cfg.roi_layout,
                ref_envelope=(1.0, 1.5),
                envelope_kind=kind,
            )


@pytest.mark.parametrize("bad", [np.nan, -0.5])
def test_config_rejects_nan_or_negative_envelope_entry(bad):
    cfg = OpticalConfig.for_dim(3)
    with pytest.raises(ValueError, match="envelope entries"):
        OpticalConfig(
            n_slits=3,
            image_dims=cfg.image_dims,
            roi_layout=cfg.roi_layout,
            ref_envelope=(1.0, bad, 0.5),
        )


@pytest.mark.parametrize("width", [0.0, -3.0, np.nan, np.inf])
def test_from_dict_rejects_envelope_width_that_is_not_finite_and_positive(width):
    cfg = OpticalConfig.for_dim(3)
    payload = {
        "n_slits": 3,
        "ref_index": 0,
        "image_dims": list(cfg.image_dims),
        "roi_layout": [list(r) for r in cfg.roi_layout],
        "ref_envelope": list(cfg.ref_envelope),
        "envelope_kind": "sinc",
        "envelope_width": width,
    }
    with pytest.raises(ValueError, match="envelope_width"):
        OpticalConfig.from_dict(payload)
    # A slit_width_px key, like any key from_dict does not read, is ignored.
    del payload["envelope_width"]
    payload["slit_width_px"] = 10
    assert OpticalConfig.from_dict(payload).with_reference(2).ref_envelope[2] == 1.0


#: Three slits whose ROI centres lie 200 px apart, as a sweep --config gives them.
WIDE_SLITS = {
    "n_slits": 3,
    "ref_index": 0,
    "image_dims": [128, 700],
    "roi_layout": [[100, 56, 10, 16], [300, 56, 10, 16], [500, 56, 10, 16]],
    "envelope_kind": "sinc",
}


def test_sinc_envelope_follows_the_roi_spacing():
    cfg = OpticalConfig.from_dict(WIDE_SLITS)
    assert cfg.slit_pitch_px == 200.0
    for r in range(3):
        env = cfg.with_reference(r).ref_envelope
        assert env[r] == 1.0
        assert min(env) > 0.8  # sinc(400 / 1200) at the far slit
    with pytest.raises(TypeError):
        OpticalConfig(n_slits=2, image_dims=(8, 8), roi_layout=(), slit_pitch_px=30)


@pytest.mark.parametrize(
    "payload",
    [
        {**WIDE_SLITS, "ref_envelope": [1.0, 1.0, 1.0]},
        {**WIDE_SLITS, "envelope_kind": "flat", "ref_envelope": [1.0, 0.5, 1.0]},
    ],
    ids=["sinc", "flat"],
)
def test_config_refuses_envelope_its_layout_does_not_give(payload):
    with pytest.raises(ValueError, match="envelope .* of this ROI layout"):
        OpticalConfig.from_dict(payload)
    # The envelope the layout gives is accepted as declared.
    derived = OpticalConfig.from_dict({k: v for k, v in payload.items() if k != "ref_envelope"})
    assert OpticalConfig.from_dict({**payload, "ref_envelope": list(derived.ref_envelope)}) == derived


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


@pytest.mark.parametrize(
    "field",
    ["photons_per_frame", "phase_step_jitter_sd", "phase_inhomogeneity_sd", "dark_rate"],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_noise_model_rejects_non_finite_and_negative_fields(field, bad):
    with pytest.raises(ValueError):
        NoiseModel(**{field: bad})


def test_interferogram_validates_shape_and_freezes_pixels():
    cfg = flat_config(2)
    with pytest.raises(ValueError):
        Interferogram(1, np.zeros((3, 3)), cfg)
    frame = render_frames(haar_random(2, seed=0), cfg)[0]
    with pytest.raises(ValueError):
        frame.pixels[0, 0] = 1.0


def test_interferogram_leaves_the_callers_pixels_writeable():
    cfg = flat_config(2)
    buffer = np.zeros(cfg.image_dims)
    frame = Interferogram(1, buffer, cfg)
    assert np.shares_memory(buffer, frame.pixels)
    buffer[0, 0] = 1.0  # a reused buffer stays writeable
    with pytest.raises(ValueError, match="read-only"):
        frame.pixels[0, 0] = 1.0


_CFG3 = OpticalConfig.for_dim(3)  # ROIs (40|70|100, 56, 10, 16) in a 128x150 image


def _with_roi(k, roi):
    layout = list(_CFG3.roi_layout)
    layout[k] = roi
    return replace(_CFG3, roi_layout=tuple(layout))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: replace(_CFG3, n_slits=1), "need at least two slits"),
        (lambda: replace(_CFG3, ref_index=3), r"ref_index 3 outside 0\.\.2"),
        (lambda: _CFG3.with_reference(1.5), r"ref_index 1\.5 outside 0\.\.2"),
        (lambda: replace(_CFG3, envelope_kind="gauss"), "envelope_kind must be one of"),
        (lambda: replace(_CFG3, image_dims=(0, 150)), "image dimensions must be positive"),
        (lambda: replace(_CFG3, roi_layout=_CFG3.roi_layout[:2]), "one ROI per slit"),
        (lambda: _with_roi(0, (40, 56, 0, 16)), "ROI width and height must be positive"),
        (lambda: _with_roi(0, (-1, 56, 10, 16)), r"ROI \(-1, 56, 10, 16\) leaves the image"),
        (lambda: _with_roi(1, (70, 57, 10, 16)), "share the single reference band row"),
        (lambda: replace(_CFG3, envelope_kind="custom", ref_envelope=(1.0, 0.5)),
         "one envelope value per slit"),
        (lambda: replace(_CFG3, envelope_kind="custom", ref_envelope=(0.0, 1.0, 1.0)),
         "envelope must be positive at the reference slit"),
        (lambda: OpticalConfig.for_dim(1), "qudit dimension must be at least 2"),
    ],
    ids=["one-slit", "ref-index", "fractional-ref-index", "envelope-kind", "image-dims",
         "roi-count", "roi-width", "roi-outside", "roi-row", "envelope-count", "dark-reference",
         "for-dim-1"],
)
def test_optical_config_validation(build, message):
    with pytest.raises(ValueError, match=message):
        build()


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


@pytest.mark.parametrize("calibration", [False, True])
@pytest.mark.parametrize("envelope", ["sinc", "flat"])
@pytest.mark.parametrize(
    "dim, extra, adaptive", [(2, False, False), (5, True, False), (14, False, False), (6, False, True)]
)
def test_band_frames_are_full_frame_roi_crops(dim, extra, adaptive, envelope, calibration):
    """Under bench noise with dark counts a band frame is the ROI crop of the
    full frame with the same seed, also when the reference is picked inside
    the render."""
    psi = haar_random(dim, seed=90 + dim)
    cfg = OpticalConfig.for_dim(dim, extra_reference=extra, envelope=envelope)
    noise = NoiseModel(1e5, 0.1, DISPLAY_PHASE_SD, dark_rate=0.5)
    seed = np.random.SeedSequence(dim).spawn(1)[0]
    pick = (lambda means: cfg.with_reference(choose_reference(means))) if adaptive else None
    full = _render(psi, cfg, noise, seed, _steps(calibration), False, pick)
    band = _render(psi, cfg, noise, seed, _steps(calibration), True, pick)
    assert [f.step_index for f in band] == [f.step_index for f in full]
    for f, b in zip(full, band):
        assert f.config.ref_index == b.config.ref_index
        assert np.array_equal(band_pixels(f), b.pixels)
    if adaptive:
        assert full[0].config.ref_index != cfg.ref_index


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


def dense_full_frames(psi, config, noise, seed):
    """The five full frames with each background drawn over every pixel: one
    Poisson draw per frame over the whole image, from the fourth child of the
    seed, with the band frame written into the ROIs afterwards."""
    geo = _geometry(config)
    band = render_frames(psi, config, noise, seed, include_calibration=True, roi_band=True)
    amps = _object_amplitudes(psi, config.n_slits)
    obj_power = np.zeros(config.image_dims[1])
    obj_power[geo.cols] = np.abs(np.repeat(amps, geo.widths)) ** 2
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[3])
    scale = noise.photons_per_frame / _dc_total(amps, config)
    frames = []
    for frame in band:
        image = np.zeros(config.image_dims)
        if frame.step_index != CALIBRATION_STEP:
            image += obj_power
        if frame.step_index != 0:
            image[geo.rows] += geo.profile**2
        if noise.photons_per_frame > 0:
            image = rng.poisson(scale * image + noise.dark_rate).astype(float)
        image[geo.rows, geo.cols] = frame.pixels
        frames.append(image)
    return frames


@pytest.mark.parametrize("extra", [False, True])
@pytest.mark.parametrize(
    "noise",
    [NoiseModel.bench_defaults(1e5), NoiseModel(1e4, 0.1, dark_rate=0.5),
     NoiseModel(dark_rate=0.5), NoiseModel()],
    ids=["dark-0", "dark-0.5", "photons-0-dark", "noiseless"],
)
@pytest.mark.parametrize("amps", [[1.0, 0.0, 1.0j], [0.6, 0.0, 0.0, 0.8j, 0.0]],
                         ids=["dim-3", "dim-5"])
def test_lit_pixel_background_equals_a_dense_draw_bit_for_bit(amps, noise, extra):
    # Empty slits leave whole columns dark at dark rate 0.
    psi = normalize(np.array(amps))
    config = OpticalConfig.for_dim(psi.dim, extra_reference=extra)
    frames = render_frames(psi, config, noise, seed=31, include_calibration=True)
    dense = dense_full_frames(psi, config, noise, 31)
    assert [f.step_index for f in frames] == [0, 1, 2, 3, CALIBRATION_STEP]
    for frame, image in zip(frames, dense):
        assert frame.pixels.tobytes() == image.tobytes(), frame.step_index


def _band_at(row, envelope=None):
    """Three slits whose shared band starts at ``row``; a custom ``envelope`` if given."""
    base = OpticalConfig.for_dim(3)
    layout = tuple((x, row, w, h) for x, _, w, h in base.roi_layout)
    if envelope is None:
        return replace(base, roi_layout=layout, ref_envelope=())
    return replace(base, roi_layout=layout, ref_envelope=envelope, envelope_kind="custom")


_EMPTY_D14 = np.where(np.arange(14) % 3 == 1, 0.0, 1.0) * np.exp(0.4j * np.arange(14))


@pytest.mark.parametrize(
    "amps, config",
    [(haar_random(14, seed=14).amps, OpticalConfig.for_dim(14)),
     (_EMPTY_D14, OpticalConfig.for_dim(14)),
     (_EMPTY_D14, OpticalConfig.for_dim(14, extra_reference=True)),
     ([0.6, 0.0, 0.8j], _band_at(56, (1.0, 0.0, 0.5))),
     ([0.6, 0.0, 0.8j], _band_at(0, (1.0, 0.0, 0.0))),
     ([0.6, 0.5, 0.0], _band_at(112)),
     ([0.0, 1.0, 0.0], _band_at(0))],
    ids=["d14", "d14-empty-slits", "d14-empty-slits-extra", "custom-zero-envelope",
         "custom-zero-envelope-band-on-top", "band-at-bottom", "one-slit-band-on-top"],
)
@pytest.mark.parametrize(
    "noise", [NoiseModel.bench_defaults(1e5), NoiseModel(1e4, 0.1, dark_rate=0.5)],
    ids=["dark-0", "dark-0.5"],
)
def test_row_pattern_background_equals_a_dense_draw_bit_for_bit(amps, config, noise):
    # Unlit columns of the band rows, and row blocks of no rows above or below the band.
    psi = normalize(np.asarray(amps))
    frames = render_frames(psi, config, noise, seed=43, include_calibration=True)
    dense = dense_full_frames(psi, config, noise, 43)
    for frame, image in zip(frames, dense):
        assert frame.pixels.tobytes() == image.tobytes(), frame.step_index


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
    path = tmp_path / "bad.pgm"
    write_pgm(path, np.ones((2, 3)))
    before = path.read_bytes()
    for bad in (70000.0, -1.0):
        with pytest.raises(ValueError):
            write_pgm(path, np.array([[bad]]))
        assert path.read_bytes() == before  # refused before the file is opened


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pgm_refuses_non_finite_pixels(tmp_path, bad):
    # NaN compares False both ways, so a range test alone would pass it on.
    path = tmp_path / "bad.pgm"
    with pytest.raises(ValueError, match="pixel values"):
        write_pgm(path, np.array([[bad, 3.0]]))
    assert not path.exists()
    write_pgm(path, np.full((2, 3), 7.0))
    before = path.read_bytes()
    with pytest.raises(ValueError, match="pixel values"):
        write_pgm(path, np.array([[bad, 3.0]]))
    assert path.read_bytes() == before


@pytest.mark.parametrize("pixels", [np.zeros(3), np.zeros((1, 2, 2))], ids=["1-D", "3-D"])
def test_write_pgm_refuses_an_image_that_is_not_2d(tmp_path, pixels):
    path = tmp_path / "bad.pgm"
    with pytest.raises(ValueError, match="PGM image must be 2-D"):
        write_pgm(path, pixels)
    assert not path.exists()


def test_save_frames_refuses_a_negative_pixel_before_writing_any_file(tmp_path):
    cfg = OpticalConfig.for_dim(2)
    frames = render_frames(haar_random(2, seed=1), cfg)
    save_frames(tmp_path, frames, seed=1)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    pixels = frames[3].pixels.copy()
    pixels[0, 0] = -50.0
    frames[3] = Interferogram(3, pixels, cfg)
    with pytest.raises(ValueError, match=r"pixel values must lie in 0\.\.65535"):
        save_frames(tmp_path, frames, seed=2)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_save_frames_writes_a_set_of_two_frame_shapes(tmp_path):
    # Shapes alternate, so the scale buffer of one size is left and made again.
    small, large = OpticalConfig.for_dim(2), OpticalConfig.for_dim(5)
    noise = NoiseModel(photons_per_frame=1e4)
    a = render_frames(haar_random(2, seed=1), small, noise, seed=2)
    b = render_frames(haar_random(5, seed=3), large, noise, seed=4)
    frames = [a[0], b[1], a[2], b[3]]
    save_frames(tmp_path, frames, seed=5)
    scale = 65535 / max(float(f.pixels.max()) for f in frames)
    for f in frames:
        written = read_pgm(tmp_path / f"frame_{f.step_index}.pgm")
        np.testing.assert_array_equal(written, np.rint(f.pixels * scale))
    assert [f.config.image_dims for f in load_frames(tmp_path)] == [
        small.image_dims, large.image_dims, small.image_dims, large.image_dims]


def test_save_and_load_frames_round_trip(tmp_path):
    psi = haar_random(3, seed=14)
    cfg = OpticalConfig.for_dim(3)
    frames = render_frames(
        psi, cfg, NoiseModel(photons_per_frame=5e4), seed=11, include_calibration=True
    )
    where = tmp_path / "missing" / "nested"  # made by save_frames, given as a str
    paths = save_frames(str(where), frames, seed=11)
    assert paths == [where / f"frame_{step}.pgm" for step in (0, 1, 2, 3, CALIBRATION_STEP)]
    loaded = load_frames(where)
    assert [f.step_index for f in loaded] == [0, 1, 2, 3, CALIBRATION_STEP]
    assert loaded[0].config.n_slits == 3
    assert loaded[0].config.roi_layout == cfg.roi_layout
    # quantization to 16 bits keeps the fringes: correlation stays ~1
    a = frames[1].pixels.ravel()
    b = loaded[1].pixels.ravel()
    assert np.corrcoef(a, b)[0, 1] > 0.9999


@pytest.mark.parametrize("extra", [False, True])
@pytest.mark.parametrize("envelope", ["sinc", "flat", "custom"])
@pytest.mark.parametrize("dim", [2, 5, 14, 64])
def test_derived_band_is_the_checked_config_of_its_fields(dim, envelope, extra):
    # The band config is packed from a checked config without a check of its own,
    # so it must equal, field for field and type for type, what the check builds.
    base = OpticalConfig.for_dim(dim, extra_reference=extra,
                                 envelope="sinc" if envelope == "custom" else envelope)
    if envelope == "custom":
        base = replace(base, envelope_kind="custom",
                       ref_envelope=tuple(np.linspace(1.0, 0.25, base.n_slits).tolist()))
    for r in sorted({0, 1, base.n_slits // 2, base.n_slits - 1}):
        band = _geometry(base.with_reference(r)).band
        checked = OpticalConfig(**{name: getattr(band, name) for name in vars(band)})
        assert band == checked
        assert repr(band) == repr(checked) and hash(band) == hash(checked)
        assert band.ref_index == r
        assert band.image_dims[1] == sum(w for _, _, w, _ in band.roi_layout)
        assert _geometry(band).band == band
        if envelope == "flat":
            assert band.ref_envelope == (1.0,) * band.n_slits
