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
from .projectors import STEP_PHASES
from .states import PureState

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
            # Written so that NaN fails the test too.
            if not 0.0 <= float(getattr(self, f.name)) < np.inf:
                raise ValueError(f"{f.name} must be finite and non-negative")

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
        if self.n_slits < 2:
            raise ValueError("need at least two slits")
        if not 0 <= self.ref_index < self.n_slits:
            raise ValueError(f"ref_index {self.ref_index} outside 0..{self.n_slits - 1}")
        if self.envelope_kind not in ENVELOPE_KINDS:
            raise ValueError(f"envelope_kind must be one of {ENVELOPE_KINDS}")
        height, width = self.image_dims
        if height <= 0 or width <= 0:
            raise ValueError("image dimensions must be positive")
        if len(self.roi_layout) != self.n_slits:
            raise ValueError("need exactly one ROI per slit")
        if self.envelope_width is not None and not 0.0 < float(self.envelope_width) < np.inf:
            raise ValueError("envelope_width must be None or finite and positive")
        spans = []
        for x, y, w, h in self.roi_layout:
            if w <= 0 or h <= 0:
                raise ValueError("ROI width and height must be positive")
            if x < 0 or y < 0 or x + w > width or y + h > height:
                raise ValueError(f"ROI ({x}, {y}, {w}, {h}) leaves the image")
            if (y, h) != (self.roi_layout[0][1], self.roi_layout[0][3]):
                raise ValueError("all ROIs must share the single reference band row")
            spans.append((x, x + w))
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            if b0 < a1:
                raise ValueError("ROIs must ascend in x and must not overlap")
        declared = tuple(self.ref_envelope)
        derived = declared if self.envelope_kind == "custom" else _envelope_values(self)
        object.__setattr__(self, "ref_envelope", declared or derived)
        if len(self.ref_envelope) != self.n_slits:
            raise ValueError("need exactly one envelope value per slit")
        env = np.asarray(self.ref_envelope, dtype=float)
        # Written so that NaN fails the tests too.
        if not np.all((env >= 0.0) & (env <= 1.0)):
            raise ValueError("envelope entries must lie in [0, 1]")
        if self.ref_envelope != derived:
            raise ValueError(
                f"ref_envelope {declared} is not the {self.envelope_kind} envelope {derived} "
                "of this ROI layout; omit it, or declare envelope_kind custom"
            )
        if env[self.ref_index] <= 0.0:
            raise ValueError("envelope must be positive at the reference slit")

    @property
    def slit_pitch_px(self) -> float:
        """Mean spacing of the ROI centres, in pixels."""
        centers = [x + w / 2.0 for x, _, w, _ in self.roi_layout]
        return (centers[-1] - centers[0]) / (self.n_slits - 1)

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
        if dim < 2:
            raise ValueError("qudit dimension must be at least 2")
        n_slits = dim + 1 if extra_reference else dim
        width = (n_slits + 2) * DISPLAY_SLIT_PITCH  # one pitch of margin on each side
        band_y = (DEFAULT_IMAGE_HEIGHT - DEFAULT_BAND_HEIGHT) // 2
        rois = []
        for k in range(n_slits):
            x = (k + 1) * DISPLAY_SLIT_PITCH + (DISPLAY_SLIT_PITCH - DISPLAY_SLIT_WIDTH) // 2
            rois.append((x, band_y, DISPLAY_SLIT_WIDTH, DEFAULT_BAND_HEIGHT))
        return cls(
            n_slits=n_slits,
            ref_index=dim if extra_reference else 0,
            image_dims=(DEFAULT_IMAGE_HEIGHT, width),
            roi_layout=tuple(rois),
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
            n_slits=int(payload["n_slits"]),
            ref_index=int(payload["ref_index"]),
            image_dims=tuple(int(v) for v in payload["image_dims"]),
            roi_layout=tuple(tuple(int(v) for v in r) for r in payload["roi_layout"]),
            ref_envelope=tuple(float(v) for v in payload.get("ref_envelope", ())),
            envelope_kind=str(payload.get("envelope_kind", "custom")),
            envelope_width=payload.get("envelope_width"),
        )


def _envelope_values(config: OpticalConfig) -> tuple[float, ...]:
    """The sinc or flat reference envelope that ``config``'s ROI layout implies."""
    if config.envelope_kind == "flat":
        return tuple(1.0 for _ in range(config.n_slits))
    centers = np.array([x + w / 2.0 for x, _, w, _ in config.roi_layout])
    # Default width keeps every slit inside the central diffraction lobe.
    width = config.envelope_width or 2.0 * config.n_slits * config.slit_pitch_px
    vals = np.sinc((centers - centers[config.ref_index]) / float(width))
    # A slit beyond the first zero would see a sign flip; clamp it dark
    # instead of rendering an unphysical negative amplitude.
    return tuple(float(v) for v in np.clip(vals, 0.0, 1.0))


@dataclass(frozen=True)
class Interferogram:
    """One rendered frame: pixel intensities plus the geometry that made them."""

    step_index: int
    pixels: np.ndarray
    config: OpticalConfig

    def __post_init__(self) -> None:
        if not 0 <= self.step_index <= CALIBRATION_STEP:
            raise ValueError(f"step index {self.step_index} outside 0..4")
        arr = np.asarray(self.pixels, dtype=float)
        if arr.shape != tuple(self.config.image_dims):
            raise ValueError("pixel array does not match the configured image size")
        if not np.isfinite(arr).all():
            raise ValueError("pixel values must be finite")
        arr.setflags(write=False)
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


@lru_cache(maxsize=64)
def _geometry(config: OpticalConfig) -> _Geometry:
    layout = config.roi_layout
    widths = np.array([w for _, _, w, _ in layout])
    starts = np.concatenate([[0], np.cumsum(widths)[:-1]])
    cols = np.concatenate([np.arange(x, x + w) for x, _, w, _ in layout])

    centers = np.array([x + w / 2.0 for x, _, w, _ in layout])
    env = np.asarray(config.ref_envelope, dtype=float)
    profile = np.interp(np.arange(config.image_dims[1], dtype=float), centers, env)
    # Inside each ROI the reference amplitude is exactly the per-slit value;
    # the interpolated profile between slits is cosmetic only.
    profile[cols] = np.repeat(env, widths)
    _, band_y, _, band_height = layout[0]
    ref_power = band_height * float(np.sum(profile**2))

    band = replace(
        config,
        image_dims=(band_height, int(widths.sum())),
        roi_layout=tuple((int(s), 0, int(w), band_height) for s, w in zip(starts, widths)),
        envelope_kind="custom",
    )
    area = widths * band_height
    for arr in (cols, starts, widths, area, profile):
        arr.setflags(write=False)
    rows = slice(band_y, band_y + band_height)
    return _Geometry(cols, rows, starts, widths, area, profile, ref_power, band)


def _dc_total(amps: np.ndarray, config: OpticalConfig) -> float:
    """Sum of |obj|^2 + ref^2 over the full image, in closed form.

    The object band of slit k fills w_k columns over the full height, and the
    reference fills the band rows over the full width; the phase field leaves
    |obj| unchanged.
    """
    geo = _geometry(config)
    height = config.image_dims[0]
    return height * float(np.dot(geo.widths, np.abs(amps) ** 2)) + geo.ref_power


def _render(psi, config, noise, seed, steps, include_calibration, roi_band, pick=None):
    """Render the wanted frames over the ROI band, and embed them unless ``roi_band``.

    The beams overlap only inside the ROIs, so a full frame is its band frame
    over a closed-form background: |obj|^2 down the slit columns unless the
    object is blocked, plus ref^2 across the band rows unless the reference
    is.  The band draws from the first three children of ``seed`` and the
    background's shot noise from the fourth, at the full image's photon scale.

    ``pick`` renders an adaptive acquisition in one pass: it maps the per-slit
    means of a frame 0 drawn at ``config``'s photon scale to the config that
    renders the frames, on the same phase field and jitter.  Frame 0 is drawn
    again at the picked photon scale, so the frames equal render_frames there.
    """
    amps = _object_amplitudes(psi, config.n_slits)
    geo = _geometry(config)
    if isinstance(seed, np.random.SeedSequence):
        # Re-root so repeated renders with the same sequence draw the same
        # children (spawn() would otherwise advance the parent's state).
        seed = np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key)
    else:
        seed = np.random.SeedSequence(seed)
    field_seq, jitter_seq, shot_seq, background_seq = seed.spawn(4)

    # The object fills every band row; neither it nor the band geometry
    # depends on the reference slit.
    band_obj = np.repeat(amps, geo.widths)
    shape = geo.band.image_dims
    obj = np.broadcast_to(band_obj, shape)
    sd = float(noise.phase_inhomogeneity_sd)
    if sd > 0.0:
        phase_field = np.random.default_rng(field_seq).normal(0.0, sd, shape)
        obj = obj * np.exp(1j * phase_field)
    level = np.abs(obj) ** 2  # frame 0: the reference is blocked

    # The piezo moves once per frame, so each step gets a single phase error.
    jitter = np.random.default_rng(jitter_seq).standard_normal(3) * float(
        noise.phase_step_jitter_sd
    )

    photons = float(noise.photons_per_frame)

    def shots(cfg, seq):
        """Shot-noise draws on a fresh stream of ``seq`` at ``cfg``'s photon scale."""
        if photons <= 0.0:
            return lambda intensity: intensity
        scale, rng = photons / _dc_total(amps, cfg), np.random.default_rng(seq)
        return lambda intensity: rng.poisson(scale * intensity + noise.dark_rate).astype(float)

    if pick is not None:
        config = pick(geo.per_slit_mean(shots(config, shot_seq)(level)))
        geo = _geometry(config)
    draw = shots(config, shot_seq)
    ref = np.broadcast_to(geo.profile[geo.cols], shape)

    frames = []
    for step in (*steps, CALIBRATION_STEP) if include_calibration else steps:
        if step == 0:
            intensity = level
        elif step == CALIBRATION_STEP:
            intensity = ref**2
        else:
            # The stepped reference is delayed, not advanced: a positive
            # piezo step lengthens its path, multiplying the reference field
            # by e^{-i delta}.  This sign makes the recovered fringe phase
            # equal arg(c_k) rather than its negative.
            delta = STEP_PHASES[step - 1] + jitter[step - 1]
            intensity = np.abs(obj + ref * np.exp(-1j * delta)) ** 2
        frames.append(Interferogram(step, draw(intensity), geo.band))
    if roi_band:
        return frames

    obj_power = np.zeros(config.image_dims[1])
    obj_power[geo.cols] = np.abs(band_obj) ** 2
    background = shots(config, background_seq)
    full = []
    for frame in frames:
        image = np.zeros(config.image_dims)
        if frame.step_index != CALIBRATION_STEP:
            image += obj_power
        if frame.step_index != 0:
            image[geo.rows] += geo.profile**2
        image = background(image)
        image[geo.rows, geo.cols] = frame.pixels
        full.append(Interferogram(frame.step_index, image, config))
    return full


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
    return _render(psi, config, noise, seed, (0, 1, 2, 3), include_calibration, roi_band)


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
    return _render(psi, config, noise, seed, (0,), False, roi_band)[0]


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
