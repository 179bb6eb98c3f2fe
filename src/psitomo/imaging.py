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

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigMismatch
from .states import PureState

DISPLAY_SLIT_WIDTH = 10  # display pixels, imaged 1:1 onto the camera
DISPLAY_SLIT_PITCH = 30
DISPLAY_PIXEL_UM = 8.0
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
        for name in (
            "photons_per_frame",
            "phase_step_jitter_sd",
            "phase_inhomogeneity_sd",
            "dark_rate",
        ):
            if float(getattr(self, name)) < 0.0:
                raise ValueError(f"{name} cannot be negative")

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
    slit position, normalized to 1 at its peak; a sinc profile models the
    finite diffraction envelope of the filtered reference slit.
    """

    n_slits: int
    ref_index: int = 0
    slit_width_px: int = DISPLAY_SLIT_WIDTH
    slit_pitch_px: int = DISPLAY_SLIT_PITCH
    pixel_size_um: float = DISPLAY_PIXEL_UM
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
        if not 0 < self.slit_width_px < self.slit_pitch_px:
            raise ValueError("slit width must be positive and below the pitch")
        if self.envelope_kind not in ENVELOPE_KINDS:
            raise ValueError(f"envelope_kind must be one of {ENVELOPE_KINDS}")
        height, width = self.image_dims
        if height <= 0 or width <= 0:
            raise ValueError("image dimensions must be positive")
        if len(self.roi_layout) != self.n_slits:
            raise ValueError("need exactly one ROI per slit")
        if len(self.ref_envelope) != self.n_slits:
            raise ValueError("need exactly one envelope value per slit")
        env = np.asarray(self.ref_envelope, dtype=float)
        if np.min(env) < 0.0 or np.max(env) > 1.0:
            raise ValueError("envelope entries must lie in [0, 1]")
        if env[self.ref_index] <= 0.0:
            raise ValueError("envelope must be positive at the reference slit")
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

    @classmethod
    def for_dim(
        cls,
        dim: int,
        *,
        extra_reference: bool = False,
        ref_index: int | None = None,
        envelope: str = "sinc",
        envelope_width: float | None = None,
        image_height: int = DEFAULT_IMAGE_HEIGHT,
        band_height: int = DEFAULT_BAND_HEIGHT,
        slit_width_px: int = DISPLAY_SLIT_WIDTH,
        slit_pitch_px: int = DISPLAY_SLIT_PITCH,
    ) -> "OpticalConfig":
        """Standard layout: slits on a fixed pitch, one centered ROI row.

        ``extra_reference`` appends slit index ``dim`` (rendered at maximum
        transmission) and anchors the reference there, so no amplitude of the
        state under test has to serve as phase anchor.
        """
        if dim < 2:
            raise ValueError("qudit dimension must be at least 2")
        n_slits = dim + 1 if extra_reference else dim
        if ref_index is None:
            ref_index = dim if extra_reference else 0
        margin = slit_pitch_px
        width = 2 * margin + n_slits * slit_pitch_px
        band_y = (image_height - band_height) // 2
        rois = []
        for k in range(n_slits):
            x = margin + k * slit_pitch_px + (slit_pitch_px - slit_width_px) // 2
            rois.append((x, band_y, slit_width_px, band_height))
        env = _envelope_values(
            rois, ref_index, envelope, envelope_width, n_slits, slit_pitch_px
        )
        return cls(
            n_slits=n_slits,
            ref_index=ref_index,
            slit_width_px=slit_width_px,
            slit_pitch_px=slit_pitch_px,
            image_dims=(image_height, width),
            roi_layout=tuple(rois),
            ref_envelope=env,
            envelope_kind=envelope,
            envelope_width=envelope_width,
        )

    def with_reference(self, ref_index: int) -> "OpticalConfig":
        """Move the reference pick-off to another slit, recentering the envelope."""
        if not 0 <= ref_index < self.n_slits:
            raise ValueError(f"ref_index {ref_index} outside 0..{self.n_slits - 1}")
        if self.envelope_kind == "custom":
            return replace(self, ref_index=ref_index)
        env = _envelope_values(
            self.roi_layout,
            ref_index,
            self.envelope_kind,
            self.envelope_width,
            self.n_slits,
            self.slit_pitch_px,
        )
        return replace(self, ref_index=ref_index, ref_envelope=env)

    def to_dict(self) -> dict:
        return {
            "n_slits": self.n_slits,
            "ref_index": self.ref_index,
            "slit_width_px": self.slit_width_px,
            "slit_pitch_px": self.slit_pitch_px,
            "pixel_size_um": self.pixel_size_um,
            "image_dims": list(self.image_dims),
            "roi_layout": [list(r) for r in self.roi_layout],
            "ref_envelope": [float(x) for x in self.ref_envelope],
            "envelope_kind": self.envelope_kind,
            "envelope_width": self.envelope_width,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "OpticalConfig":
        return cls(
            n_slits=int(payload["n_slits"]),
            ref_index=int(payload["ref_index"]),
            slit_width_px=int(payload.get("slit_width_px", DISPLAY_SLIT_WIDTH)),
            slit_pitch_px=int(payload.get("slit_pitch_px", DISPLAY_SLIT_PITCH)),
            pixel_size_um=float(payload.get("pixel_size_um", DISPLAY_PIXEL_UM)),
            image_dims=tuple(int(v) for v in payload["image_dims"]),
            roi_layout=tuple(tuple(int(v) for v in r) for r in payload["roi_layout"]),
            ref_envelope=tuple(float(v) for v in payload["ref_envelope"]),
            envelope_kind=str(payload.get("envelope_kind", "custom")),
            envelope_width=payload.get("envelope_width"),
        )


def _envelope_values(rois, ref_index, kind, width, n_slits, pitch):
    if kind == "flat":
        return tuple(1.0 for _ in range(n_slits))
    if kind != "sinc":
        raise ValueError("custom envelopes must be passed explicitly")
    centers = np.array([x + w / 2.0 for x, _, w, _ in rois])
    # Default width keeps every slit inside the central diffraction lobe.
    if width is None:
        width = 2.0 * n_slits * pitch
    vals = np.sinc((centers - centers[ref_index]) / float(width))
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
    return np.array([float(frame.roi(k).mean()) for k in range(frame.config.n_slits)])


def _object_amplitudes(psi: PureState, config: OpticalConfig) -> np.ndarray:
    if config.n_slits == psi.dim:
        return psi.amps
    if config.n_slits == psi.dim + 1:
        # Extra-reference layout: appended slit at maximum transmission.
        return np.concatenate([psi.amps, [1.0 + 0.0j]])
    raise ConfigMismatch(
        f"config has {config.n_slits} slits but the state needs "
        f"{psi.dim} or {psi.dim} + 1"
    )


class _Geometry(NamedTuple):
    """Arrays derived from one OpticalConfig, shared by renders and inversions.

    The ROI band packs the ROI columns of the reference-band row side by
    side: band column j is image column ``cols[j]``, and slit k owns band
    columns ``starts[k]`` to ``starts[k] + widths[k]``.
    """

    cols: np.ndarray
    starts: np.ndarray
    widths: np.ndarray
    profile: np.ndarray  # reference amplitude at every image column
    ref_power: float  # sum of ref**2 over the full image
    band: OpticalConfig  # the packed ROI-band geometry


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
    band_height = layout[0][3]
    ref_power = band_height * float(np.sum(profile**2))

    band = replace(
        config,
        image_dims=(band_height, int(widths.sum())),
        roi_layout=tuple((int(s), 0, int(w), band_height) for s, w in zip(starts, widths)),
        envelope_kind="custom",
    )
    for arr in (cols, starts, widths, profile):
        arr.setflags(write=False)
    return _Geometry(cols, starts, widths, profile, ref_power, band)


def _dc_total(amps: np.ndarray, config: OpticalConfig) -> float:
    """Sum of |obj|^2 + ref^2 over the full image, in closed form.

    The object band of slit k fills w_k columns over the full height, and the
    reference fills the band rows over the full width; the phase field leaves
    |obj| unchanged.
    """
    geo = _geometry(config)
    height = config.image_dims[0]
    return height * float(np.dot(geo.widths, np.abs(amps) ** 2)) + geo.ref_power


def _render(psi, config, noise, seed, steps, include_calibration, roi_band):
    """Render the wanted frames over the full image or over the ROI band only.

    Both pixel sets share the photon scale, which is fixed by the full image,
    so a band pixel has the same expected count as the image pixel it packs.
    """
    amps = _object_amplitudes(psi, config)
    geo = _geometry(config)
    if isinstance(seed, np.random.SeedSequence):
        # Re-root so repeated renders with the same sequence draw the same
        # children (spawn() would otherwise advance the parent's state).
        seed = np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key)
    else:
        seed = np.random.SeedSequence(seed)
    field_seq, jitter_seq, shot_seq = seed.spawn(3)

    # One row of each beam; the object fills every row, the reference only
    # the rows of its band.
    band_obj = np.repeat(amps, geo.widths)
    if roi_band:
        out_config = geo.band
        obj_row, ref_row, ref_rows = band_obj, geo.profile[geo.cols], slice(None)
    else:
        out_config = config
        obj_row = np.zeros(config.image_dims[1], dtype=np.complex128)
        obj_row[geo.cols] = band_obj
        _, y0, _, h0 = config.roi_layout[0]
        ref_row, ref_rows = geo.profile, slice(y0, y0 + h0)
    shape = out_config.image_dims

    obj = np.broadcast_to(obj_row, shape)
    sd = float(noise.phase_inhomogeneity_sd)
    if sd > 0.0:
        phase_field = np.random.default_rng(field_seq).normal(0.0, sd, shape)
        obj = obj * np.exp(1j * phase_field)
    ref = np.zeros(shape)
    ref[ref_rows] = ref_row

    # The piezo moves once per frame, so each step gets a single phase error.
    jitter = np.random.default_rng(jitter_seq).standard_normal(3) * float(
        noise.phase_step_jitter_sd
    )

    photons = float(noise.photons_per_frame)
    scale = photons / _dc_total(amps, config) if photons > 0.0 else 1.0
    shot_rng = np.random.default_rng(shot_seq) if photons > 0.0 else None

    wanted = list(steps) + ([CALIBRATION_STEP] if include_calibration else [])
    frames = []
    for step in (0, 1, 2, 3, CALIBRATION_STEP):
        if step not in wanted:
            continue
        if step == 0:
            intensity = np.abs(obj) ** 2
        elif step == CALIBRATION_STEP:
            intensity = ref**2
        else:
            # The stepped reference is delayed, not advanced: a positive
            # piezo step lengthens its path, multiplying the reference field
            # by e^{-i delta}.  This sign makes the recovered fringe phase
            # equal arg(c_k) rather than its negative.
            delta = np.pi / 2.0 * (step - 0.5) + jitter[step - 1]
            intensity = np.abs(obj + ref * np.exp(-1j * delta)) ** 2
        if shot_rng is not None:
            pixels = shot_rng.poisson(scale * intensity + noise.dark_rate).astype(float)
        else:
            pixels = intensity
        frames.append(Interferogram(step, pixels, out_config))
    return frames


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

    With ``roi_band`` only the ROI pixels are rendered, packed side by side
    into an (ROI height, total ROI width) image whose config places ROI k at
    its packed column offset.  Noiseless band pixels equal the ROI pixels of
    the full render; noisy ones draw the phase field and shot noise over the
    band alone, so they differ from the full render's ROI pixels.
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

    Lets an adaptive run look at the populations before committing to a
    reference slit, without paying for the interference frames.
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
