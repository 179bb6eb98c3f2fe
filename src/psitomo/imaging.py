"""Camera-plane rendering of the two-arm slit interferometer.

The object arm images the slit aperture as vertical bands, one per slit,
whose complex amplitude is the slit coefficient.  The reference arm is the
spatially filtered light of one chosen slit, spread into a horizontal band
across the image; interference happens where the bands cross, and those
crossings are the measurement regions of interest (ROIs).

Frame ``step`` = 1, 2, 3 applies a reference delay delta_step =
pi/2 * (step - 1/2), so inside ROI k the intensity follows

    I_step(x, y) = I0 (1 + gamma cos[phi_k - pi/4 + pi/2 * step]),

the three-step interferogram that the reconstruction inverts.  Frame 0 blocks
the reference and records the bare slit populations.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigMismatch
from .projectors import _counts, _step_phases
from .states import (_SEED, PureState, _as_array, _check_finite, _check_int, _check_real,
                     _frozen, _json_int)

DISPLAY_SLIT_WIDTH = 10  # display pixels, imaged 1:1 onto the camera
DISPLAY_SLIT_PITCH = 30
DEFAULT_IMAGE_HEIGHT = 128
DEFAULT_BAND_HEIGHT = 16

#: Phase flatness error of the slit display, about 2% of a wavelength rms.
DISPLAY_PHASE_SD = 0.02 * 2.0 * np.pi

#: Step index of the optional reference-only calibration frame.
CALIBRATION_STEP = 4

ENVELOPE_KINDS = ("sinc", "flat", "custom")


@dataclass(frozen=True)
class NoiseModel:
    """Stochastic imperfections of one acquisition.

    photons_per_frame       expected photon total in one frame (0 = noiseless)
    phase_step_jitter_sd    rms error of each applied reference step, radians
    phase_inhomogeneity_sd  rms of the static per-pixel display phase, radians
    dark_rate               expected dark counts per pixel per frame
    """

    photons_per_frame: float = 0.0
    phase_step_jitter_sd: float = 0.0
    phase_inhomogeneity_sd: float = 0.0
    dark_rate: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _check_real(getattr(self, f.name), f.name))

    def with_photons(self, photons_per_frame: float) -> "NoiseModel":
        return replace(self, photons_per_frame=photons_per_frame)

    @classmethod
    def bench_defaults(cls, photons_per_frame: float = 0.0) -> "NoiseModel":
        """Typical bench imperfections; the photon budget is left to calibration.

        Step jitter models piezo repeatability and dominates at high photon
        counts; the static phase field reproduces display flatness error and
        only affects the imaging pipeline.
        """
        return cls(
            photons_per_frame=photons_per_frame,
            phase_step_jitter_sd=0.10,
            phase_inhomogeneity_sd=DISPLAY_PHASE_SD,
            dark_rate=0.0,
        )


@dataclass(frozen=True)
class OpticalConfig:
    """Geometry of the rendered image and of its measurement ROIs.

    ``ref_envelope`` holds the real amplitude of the reference band at each
    slit position, normalized to 1 at its peak.  A ``sinc`` or ``flat``
    envelope follows from the ROI layout, ``ref_index`` and
    ``envelope_width``: it is filled in when omitted and refused when it
    differs; a ``custom`` one is taken as given.
    """

    n_slits: int
    ref_index: int = 0
    image_dims: tuple[int, int] = (0, 0)  # (height, width); filled by for_dim
    roi_layout: tuple[tuple[int, int, int, int], ...] = ()
    ref_envelope: tuple[float, ...] = ()
    envelope_kind: str = "sinc"
    envelope_width: float | None = None

    def __post_init__(self) -> None:
        _check_int(self.n_slits, "need at least two slits", 2)
        _check_int(self.ref_index, "ref_index", 0, self.n_slits)
        if self.envelope_kind not in ENVELOPE_KINDS:
            raise ValueError(f"envelope_kind must be one of {ENVELOPE_KINDS}")
        height, width = self.image_dims
        for size in self.image_dims:
            _check_int(size, "image dimensions must be positive", 1)
        if len(self.roi_layout) != self.n_slits:
            raise ValueError("need exactly one ROI per slit")
        if self.envelope_width is not None:
            object.__setattr__(self, "envelope_width", _check_real(
                self.envelope_width, "envelope_width", positive=True))
        end = 0  # where the previous ROI ends
        for x, y, w, h in self.roi_layout:
            for offset, size, extent in ((x, w, width), (y, h, height)):
                _check_int(size, "ROI width and height must be positive", 1)
                _check_int(offset, f"ROI ({x}, {y}, {w}, {h}) leaves the image: offset", 0,
                           extent - size + 1)
            if (y, h) != (self.roi_layout[0][1], self.roi_layout[0][3]):
                raise ValueError("all ROIs must share the single reference band row")
            if x < end:
                raise ValueError("ROIs must ascend in x and must not overlap")
            end = x + w
        object.__setattr__(self, "image_dims", tuple(self.image_dims))  # a cache key must hash
        object.__setattr__(self, "roi_layout", tuple(map(tuple, self.roi_layout)))
        declared = tuple(_check_real(v, "envelope entries") for v in self.ref_envelope)
        derived = declared if self.envelope_kind == "custom" else _envelope_values(self)
        object.__setattr__(self, "ref_envelope", declared or derived)
        if len(self.ref_envelope) != self.n_slits:
            raise ValueError("need exactly one envelope value per slit")
        if max(self.ref_envelope) > 1.0:
            raise ValueError("envelope entries must lie in [0, 1]")
        if self.ref_envelope != derived:
            raise ValueError(
                f"ref_envelope {declared} is not the {self.envelope_kind} envelope {derived} "
                "of this ROI layout; omit it, or declare envelope_kind custom"
            )
        if self.ref_envelope[self.ref_index] <= 0.0:
            raise ValueError("envelope must be positive at the reference slit")

    @property
    def slit_pitch_px(self) -> float:
        """Mean spacing of the ROI centres, in pixels: the end ROIs' distance over the gaps."""
        (first, _, w_first, _), (last, _, w_last, _) = self.roi_layout[0], self.roi_layout[-1]
        return ((last + w_last / 2.0) - (first + w_first / 2.0)) / (self.n_slits - 1)

    @classmethod
    def for_dim(
        cls,
        dim: int,
        *,
        extra_reference: bool = False,
        envelope: str = "sinc",
    ) -> "OpticalConfig":
        """Standard layout: slits on a fixed pitch, one centered ROI row.

        ``extra_reference`` appends slit index ``dim`` (rendered at maximum
        transmission) and anchors the reference there, so no amplitude of the
        state under test has to serve as phase anchor.
        """
        _check_int(dim, "qudit dimension must be at least 2", 2)
        n_slits, ref_index = _slits(dim, extra_reference)
        width = (n_slits + 2) * DISPLAY_SLIT_PITCH  # one pitch of margin on each side
        _allocatable((DEFAULT_IMAGE_HEIGHT, width), f"qudit dimension {dim} is too large")
        band_y = (DEFAULT_IMAGE_HEIGHT - DEFAULT_BAND_HEIGHT) // 2
        inset = (DISPLAY_SLIT_PITCH - DISPLAY_SLIT_WIDTH) // 2  # each ROI centred in its pitch
        xs = np.arange(DISPLAY_SLIT_PITCH + inset, width - DISPLAY_SLIT_PITCH, DISPLAY_SLIT_PITCH)
        rois = [(x, band_y, DISPLAY_SLIT_WIDTH, DEFAULT_BAND_HEIGHT) for x in xs.tolist()]
        return cls(
            n_slits=n_slits,
            ref_index=ref_index,
            image_dims=(DEFAULT_IMAGE_HEIGHT, width),
            roi_layout=rois,
            envelope_kind=envelope,
        )

    def with_reference(self, ref_index: int) -> "OpticalConfig":
        """Move the reference pick-off to another slit, recentering the envelope."""
        env = self.ref_envelope if self.envelope_kind == "custom" else ()
        return replace(self, ref_index=ref_index, ref_envelope=env)

    @classmethod
    def from_dict(cls, payload: dict) -> "OpticalConfig":
        """Config from a JSON object; keys the config does not read are ignored."""
        return cls(
            n_slits=_json_int(payload["n_slits"]),
            ref_index=_json_int(payload["ref_index"]),
            image_dims=tuple(map(_json_int, payload["image_dims"])),
            roi_layout=tuple(tuple(map(_json_int, r)) for r in payload["roi_layout"]),
            ref_envelope=tuple(payload.get("ref_envelope", ())),
            envelope_kind=str(payload.get("envelope_kind", "custom")),
            envelope_width=payload.get("envelope_width"),
        )


def _slits(dim: int, extra_reference: bool) -> tuple[int, int]:
    """A reference mode's slit count and fixed reference slit (the appended one or slit 0)."""
    return (dim + 1, dim) if extra_reference else (dim, 0)


def _allocatable(dims, what: str, array: str = "image") -> None:
    """Refuse, as a configuration error naming ``what``, a float64 ``array`` that cannot be
    allocated."""
    try:
        np.empty(dims)
    except (MemoryError, ValueError):
        shape = "x".join(map(str, dims))
        raise ValueError(f"{what}: its {shape} {array} cannot be allocated") from None


def _envelope_values(config: OpticalConfig) -> tuple[float, ...]:
    """The sinc or flat reference envelope that ``config``'s ROI layout implies."""
    x, _, widths, _ = np.array(config.roi_layout).T  # one (n, 4) ROI array
    centers = x + widths / 2.0
    # Default width keeps every slit inside the central diffraction lobe; flat is infinitely wide.
    width = np.inf if config.envelope_kind == "flat" else (
        config.envelope_width or 2.0 * config.n_slits * config.slit_pitch_px)
    vals = np.sinc((centers - centers[config.ref_index]) / width)
    # A slit beyond the first zero would see a sign flip; clamp it dark
    # instead of rendering an unphysical negative amplitude.
    return tuple(vals.clip(0.0, 1.0).tolist())


@dataclass(frozen=True)
class Interferogram:
    """One rendered frame: pixel intensities plus the geometry that made them."""

    step_index: int
    pixels: np.ndarray
    config: OpticalConfig

    def __post_init__(self) -> None:
        _check_int(self.step_index, "step index", 0, CALIBRATION_STEP + 1)
        arr = _frozen(_as_array(self.pixels, "pixel values").view())  # the caller's stays writeable
        if arr.shape != self.config.image_dims:
            raise ValueError("pixel array does not match the configured image size")
        _check_finite(arr, "pixel values")
        object.__setattr__(self, "pixels", arr)

    def roi(self, k: int) -> np.ndarray:
        x, y, w, h = self.config.roi_layout[k]
        return self.pixels[y : y + h, x : x + w]


def roi_means(frame: Interferogram) -> np.ndarray:
    """Mean intensity of every ROI of one frame."""
    geo = _geometry(frame.config)
    return geo.per_slit_mean(geo.gather(frame))


def _object_amplitudes(psi: PureState, n_slits: int) -> np.ndarray:
    """Slit amplitudes of ``psi`` on ``n_slits`` slits, unnormalised.

    With one slit more than the state has, the appended slit is the extra
    reference at maximum transmission: (c_0 .. c_{d-1}, 1).
    """
    if n_slits == psi.dim:
        return psi.amps
    if n_slits == psi.dim + 1:
        return np.concatenate([psi.amps, [1.0 + 0.0j]])
    raise ConfigMismatch(
        f"config has {n_slits} slits but the state needs {psi.dim} or {psi.dim} + 1"
    )


class _Geometry(NamedTuple):
    """Arrays derived from one OpticalConfig, shared by renders and inversions.

    The ROI band packs the ROI columns of the reference-band row side by
    side: band column j is image column ``cols[j]``, and slit k owns band
    columns ``starts[k]`` to ``starts[k] + widths[k]``.
    """

    cols: np.ndarray
    rows: slice  # the reference-band rows that every ROI shares
    starts: np.ndarray
    widths: np.ndarray
    area: np.ndarray  # pixels per ROI
    profile: np.ndarray  # reference amplitude at every image column
    ref_power: float  # sum of ref**2 over the full image
    band: OpticalConfig  # the packed ROI-band geometry

    def gather(self, frame: Interferogram) -> np.ndarray:
        """The ROI pixels of ``frame``, packed side by side."""
        return frame.pixels[self.rows, self.cols]

    def per_slit(self, values: np.ndarray, op=np.add) -> np.ndarray:
        """Reduce packed band values over rows, then over each slit's columns."""
        return op.reduceat(op.reduce(values, axis=0), self.starts)

    def per_slit_mean(self, values: np.ndarray) -> np.ndarray:
        """Per-slit mean of packed band values."""
        return self.per_slit(values) / self.area


# Adaptive runs take two entries per reference slit (config + band config), so from
# d=128 one run evicts: 800 trials at d=300 miss 948 times at this bound, 550 unbounded.
@lru_cache(maxsize=256)
def _geometry(config: OpticalConfig) -> _Geometry:
    x, _, widths, heights = np.array(config.roi_layout, order="F").T  # each field contiguous
    starts = np.cumsum(widths) - widths
    cols = np.arange(widths.sum()) + np.repeat(x - starts, widths)

    profile = np.interp(np.arange(config.image_dims[1]), x + widths / 2.0, config.ref_envelope)
    # Inside each ROI the reference amplitude is exactly the per-slit value;
    # the interpolated profile between slits is cosmetic only.
    profile[cols] = np.repeat(config.ref_envelope, widths)
    _, band_y, _, band_height = config.roi_layout[0]
    ref_power = band_height * float(np.sum(profile**2))

    packed = np.column_stack([starts, 0 * starts, widths, heights])  # side by side on row 0
    band = object.__new__(OpticalConfig)  # no __post_init__: packed from a checked config
    vars(band).update(vars(config), image_dims=(band_height, int(widths.sum())),
                      roi_layout=tuple(map(tuple, packed.tolist())), envelope_kind="custom")
    rows = slice(band_y, band_y + band_height)
    return _Geometry(_frozen(cols), rows, _frozen(starts), _frozen(widths),
                     _frozen(widths * band_height), _frozen(profile), ref_power, band)


def _dc_total(amps: np.ndarray, config: OpticalConfig) -> float:
    """Sum of |obj|^2 + ref^2 over the full image, in closed form.

    The object band of slit k fills w_k columns over the full height, and the
    reference fills the band rows over the full width; the phase field leaves
    |obj| unchanged.
    """
    geo = _geometry(config)
    return config.image_dims[0] * float(np.dot(geo.widths, np.abs(amps) ** 2)) + geo.ref_power


def _render(psi, config, noise, seed, steps, roi_band, pick=None):
    """Render the frames of ``steps`` over the ROI band, and embed them unless ``roi_band``.

    The beams overlap only inside the ROIs, so a full frame is its band frame
    over a closed-form background: |obj|^2 down the slit columns unless the
    object is blocked, plus ref^2 across the band rows unless the reference
    is.  The band draws from the first three children of ``seed``, its steps'
    shot noise in one draw, and the background's from the fourth, one frame
    at a time, at the full image's photon scale.

    ``pick`` renders an adaptive acquisition in one pass: it maps the per-slit
    means of a frame 0 drawn at ``config``'s photon scale to the config that
    renders the frames, on the same phase field and jitter.  Frame 0 is drawn
    again at the picked photon scale, so the frames equal render_frames there.
    """
    amps = _object_amplitudes(psi, config.n_slits)
    geo = _geometry(config)
    if not isinstance(seed, np.random.SeedSequence):
        _check_int(seed, _SEED)
        seed = np.random.SeedSequence(seed)
    # spawn(4)'s children, built without advancing the caller's sequence.
    field_seq, jitter_seq, shot_seq, background_seq = (
        np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + (i,)) for i in range(4))

    # The object fills every band row; neither it nor the band geometry
    # depends on the reference slit.
    band_obj = np.repeat(amps, geo.widths)
    shape = geo.band.image_dims
    obj = np.broadcast_to(band_obj, shape)
    if noise.phase_inhomogeneity_sd > 0.0:
        field = np.random.default_rng(field_seq).normal(0.0, noise.phase_inhomogeneity_sd, shape)
        obj = obj * np.exp(1j * field)
    level = np.abs(obj) ** 2  # frame 0: the reference is blocked
    phases = _step_phases(np.random.default_rng(jitter_seq), noise.phase_step_jitter_sd)

    scale = noise.photons_per_frame / _dc_total(amps, config)
    if pick is not None:
        config = pick(geo.per_slit_mean(_counts(shot_seq, level, scale, noise.dark_rate)))
        geo, scale = _geometry(config), noise.photons_per_frame / _dc_total(amps, config)
    ref = np.broadcast_to(geo.profile[geo.cols], shape)

    # The stepped reference is delayed: a positive piezo step multiplies its
    # field by e^{-i theta} at step phase theta, which makes the recovered
    # fringe phase equal arg(c_k) rather than its negative.
    expected = np.stack([level if step == 0 else ref**2 if step == CALIBRATION_STEP
                         else np.abs(obj + ref * np.exp(-1j * phases[step - 1])) ** 2
                         for step in steps])
    counts = _counts(shot_seq, expected, scale, noise.dark_rate)
    frames = [Interferogram(step, pixels, geo.band) for step, pixels in zip(steps, counts)]
    if roi_band:
        return frames

    obj_power = np.zeros(config.image_dims[1])
    obj_power[geo.cols] = np.abs(band_obj) ** 2
    rng = np.random.default_rng(background_seq) if scale > 0.0 else None  # noiseless: no draws
    full = []
    for frame in frames:
        # Two row patterns make the background: one outside the band rows, one across them.
        outside = obj_power if frame.step_index != CALIBRATION_STEP else np.zeros_like(obj_power)
        across = outside if frame.step_index == 0 else outside + geo.profile**2
        image, start = np.zeros(config.image_dims), 0
        blocks = np.split(image, [geo.rows.start, geo.rows.stop])  # rows above, across, below
        patterns = (outside, across, outside)
        # A zero expectation draws no random number: draw the lit pixels only, in the
        # row-major order of one draw over the whole image.
        lit = [np.flatnonzero(pattern + noise.dark_rate) for pattern in patterns]
        expected = [np.broadcast_to(pattern[cols], (block.shape[0], cols.size))
                    for block, pattern, cols in zip(blocks, patterns, lit)]
        counts = _counts(rng, np.concatenate(expected, axis=None), scale, noise.dark_rate)
        for block, cols, mean in zip(blocks, lit, expected):
            block[:, cols] = counts[start:start + mean.size].reshape(mean.shape)
            start += mean.size
        image[geo.rows, geo.cols] = frame.pixels
        full.append(Interferogram(frame.step_index, image, config))
    return full


def _steps(include_calibration) -> tuple[int, ...]:
    """An acquisition's steps: 0..3, then the calibration step when it is included."""
    return (0, 1, 2, 3, CALIBRATION_STEP) if include_calibration else (0, 1, 2, 3)


def render_frames(
    psi: PureState,
    config: OpticalConfig,
    noise: NoiseModel = NoiseModel(),
    seed=0,
    include_calibration: bool = False,
    *,
    roi_band: bool = False,
) -> list[Interferogram]:
    """Render the four acquisition frames (plus an optional calibration frame).

    Frame 0 blocks the reference arm, frames 1..3 step its phase, and the
    calibration frame (step index 4) blocks the object arm instead.  All
    frames share one photon scale fixed by the unblocked intensity of the
    full image, and the same static phase field; rendering is reproducible
    per (config, seed).

    With ``roi_band`` only the ROI pixels are returned, packed side by side
    into an (ROI height, total ROI width) image whose config places ROI k at
    its packed column offset: the ROI pixels of the full render with the same
    seed, bit for bit, with or without noise.
    """
    return _render(psi, config, noise, seed, _steps(include_calibration), roi_band)


def render_blocked_frame(
    psi: PureState,
    config: OpticalConfig,
    noise: NoiseModel = NoiseModel(),
    seed=0,
    *,
    roi_band: bool = False,
) -> Interferogram:
    """Only frame 0, bit-identical to the one render_frames would produce.

    Shows the populations before a reference slit is chosen.  Batch trials do
    not call it: an adaptive frames trial draws frame 0 inside its one render
    and picks the reference there (``_render``'s ``pick``).
    """
    return _render(psi, config, noise, seed, (0,), roi_band)[0]


def annotate_rois(frame: Interferogram) -> np.ndarray:
    """Copy of the pixel array with one-pixel ROI outlines burned in."""
    out = frame.pixels.copy()
    peak = float(out.max()) if out.size else 1.0
    mark = peak if peak > 0 else 1.0
    for x, y, w, h in frame.config.roi_layout:
        out[y, x : x + w] = mark
        out[y + h - 1, x : x + w] = mark
        out[y : y + h, x] = mark
        out[y : y + h, x + w - 1] = mark
    return out
