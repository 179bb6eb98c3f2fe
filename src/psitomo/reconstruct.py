"""Three-step phase recovery, state assembly, and purity certification.

Given the three stepped intensities

    I_step = I0 (1 + gamma cos[phi - pi/4 + pi/2 * step]),   step = 1, 2, 3,

the differences isolate the fringe term:

    I_1 - I_2 = sqrt(2) I0 gamma cos(phi),
    I_3 - I_2 = sqrt(2) I0 gamma sin(phi),

so ``phi = atan2(I_3 - I_2, I_1 - I_2)`` and
``gamma = hypot(I_1 - I_2, I_3 - I_2) / (sqrt(2) I0)``.  The same algebra at
the outcome level turns three projector probabilities per slit into the
complex coefficient c_k, and comparing the measured visibility against the
two-beam bound 2 sqrt(I_obj I_ref) / (I_obj + I_ref) certifies that the
measured state was pure to begin with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZero,
    DegenerateFringe,
    DimensionMismatch,
    NonpositiveReference,
    WeakReference,
    ZeroResultant,
)
from .imaging import CALIBRATION_STEP, Interferogram, _geometry
from .projectors import ProjectorOutcomes, ProjectorSpec
from .states import PureState, normalize

#: A slit is too weak to verify (or to anchor) below this fraction of the
#: strongest population.
WEAK_FRACTION = 1e-4

#: Fringe differences below this fraction of the peak ROI intensity carry no
#: recoverable phase.
DEGENERATE_FRACTION = 1e-6

#: Default slack on the visibility-vs-population purity test.
TAU_PURITY = 0.02

_RESULTANT_TOL = 1e-12


def psi_phase(i1: float, i2: float, i3: float, *, eps: float | None = None) -> float:
    """Fringe phase in (-pi, pi] from the three stepped intensities.

    ``eps`` is the degeneracy threshold on the intensity differences; when
    omitted it defaults to 1e-6 times the largest of the three intensities.
    """
    d1 = float(i1) - float(i2)
    d3 = float(i3) - float(i2)
    if eps is None:
        eps = DEGENERATE_FRACTION * max(abs(float(i1)), abs(float(i2)), abs(float(i3)))
    if max(abs(d1), abs(d3)) <= eps:
        raise DegenerateFringe(
            f"intensity differences {d1:.3e}, {d3:.3e} below threshold {eps:.3e}"
        )
    phase = math.atan2(d3, d1)
    return math.pi if phase == -math.pi else phase


def psi_visibility(i1: float, i2: float, i3: float, i0: float) -> float:
    """Fringe visibility gamma from the stepped intensities and the mean level."""
    if not i0 > 0.0:
        raise NonpositiveReference(f"mean intensity must be positive, got {i0!r}")
    return math.hypot(float(i1) - float(i2), float(i3) - float(i2)) / (
        math.sqrt(2.0) * float(i0)
    )


def circular_mean(phases, weights=None) -> float:
    """Weighted mean direction, arg(sum w e^{i phi}), in (-pi, pi].

    Raises ZeroResultant when the normalized resultant is shorter than 1e-12,
    e.g. for two opposite unit directions.
    """
    ph = np.asarray(phases, dtype=float).ravel()
    if ph.size == 0:
        raise ValueError("need at least one phase")
    if weights is None:
        w = np.ones_like(ph)
    else:
        w = np.asarray(weights, dtype=float).ravel()
        if w.shape != ph.shape:
            raise ValueError("weights must match phases in length")
        if np.min(w) < 0.0:
            raise ValueError("weights cannot be negative")
    wsum = float(w.sum())
    if wsum <= 0.0:
        raise ValueError("weights must have positive sum")
    resultant = complex(np.sum(w * np.exp(1j * ph)) / wsum)
    if abs(resultant) < _RESULTANT_TOL:
        raise ZeroResultant(f"resultant length {abs(resultant):.3e} is below 1e-12")
    angle = math.atan2(resultant.imag, resultant.real)
    return math.pi if angle == -math.pi else angle


def choose_reference(populations) -> int:
    """Index of the strongest population; ties go to the lowest index."""
    pops = np.asarray(populations, dtype=float)
    if pops.size == 0:
        raise ValueError("need at least one population")
    if np.min(pops) < 0.0:
        raise ValueError("populations cannot be negative")
    if float(pops.max()) <= 0.0:
        raise AllZero("all populations are zero")
    return int(np.argmax(pops))


@dataclass(frozen=True)
class PurityCheck:
    """Outcome of the visibility-saturation test.

    ``margins[k]`` is gamma_k minus the pure-state bound (NaN at the
    reference slit and at unverifiable ones); the verdict is pure when no
    verifiable margin drops below -tau.
    """

    pure: bool
    margins: np.ndarray
    unverifiable: tuple[int, ...]
    tau: float

    @property
    def margin(self) -> float:
        """Worst verifiable margin; +inf when nothing was verifiable."""
        finite = self.margins[np.isfinite(self.margins)]
        return float(finite.min()) if finite.size else math.inf


def certify_purity(
    populations,
    visibilities,
    ref_population,
    *,
    ref_index: int,
    tau: float = TAU_PURITY,
) -> PurityCheck:
    """Compare measured visibilities against the pure-state bound.

    For slit k interfering with a reference of intensity r_k, a pure state
    saturates gamma_k = 2 sqrt(p_k r_k) / (p_k + r_k); any admixture lowers
    the coherence and with it the measured visibility.  Slits with
    populations below 1e-4 of the strongest are skipped as unverifiable.
    ``ref_population`` may be a scalar (outcome mode: the reference slit
    population) or a per-slit array (imaging mode: the local reference-band
    intensity).
    """
    p = np.asarray(populations, dtype=float)
    g = np.asarray(visibilities, dtype=float)
    if p.shape != g.shape:
        raise ValueError("populations and visibilities must have the same length")
    r = np.broadcast_to(np.asarray(ref_population, dtype=float), p.shape)
    eps = WEAK_FRACTION * float(p.max()) if p.size else 0.0

    margins = np.full(p.shape, np.nan)
    unverifiable = []
    pure = True
    for k in range(p.size):
        if k == ref_index:
            continue
        if p[k] <= eps or r[k] <= 0.0:
            unverifiable.append(k)
            continue
        bound = 2.0 * math.sqrt(p[k] * r[k]) / (p[k] + r[k])
        margins[k] = g[k] - bound
        if margins[k] < -tau:
            pure = False
    margins.setflags(write=False)
    return PurityCheck(pure, margins, tuple(unverifiable), float(tau))


@dataclass(frozen=True)
class ReconstructionReport:
    """Reconstructed state plus the evidence behind it."""

    state: PureState
    per_slit_visibility: np.ndarray
    expected_visibility: np.ndarray
    purity_verdict: PurityCheck
    reference_used: int
    outcome_budget: int

    def to_dict(self) -> dict:
        slits = []
        for k in range(self.state.dim):
            gamma = float(self.per_slit_visibility[k])
            bound = float(self.expected_visibility[k])
            margin = float(self.purity_verdict.margins[k])
            slits.append(
                {
                    "slit": k,
                    "gamma": gamma,
                    "gamma_pure": bound,
                    "margin": None if math.isnan(margin) else margin,
                }
            )
        return {
            "state": self.state.to_dict(),
            "slits": slits,
            "verdict": "PURE" if self.purity_verdict.pure else "NOT_PURE",
            "reference": self.reference_used,
            "outcome_budget": self.outcome_budget,
        }


def reconstruct_from_outcomes(
    outcomes: ProjectorOutcomes,
    spec: ProjectorSpec | None = None,
    *,
    tau: float = TAU_PURITY,
) -> ReconstructionReport:
    """Invert 4d - 3 outcomes into a pure state.

    The reference coefficient is sqrt(p_r); every other coefficient follows
    from c_k = conj[((p_1 - p_2) + i (p_3 - p_2)) / (sqrt(2) c_r)].  Counts
    are normalized by the total population first, probabilities are used as
    is.  Raises WeakReference when the reference population falls below
    1e-4 of the strongest one.
    """
    if spec is not None:
        if spec.dim != outcomes.dim:
            raise DimensionMismatch(
                f"outcomes dim {outcomes.dim} != spec dim {spec.dim}"
            )
        if spec.ref_index != outcomes.ref_index:
            raise DimensionMismatch(
                f"outcomes reference {outcomes.ref_index} != spec reference "
                f"{spec.ref_index}"
            )
    probs = outcomes.normalized()
    pops = probs.populations
    r = probs.ref_index
    p_ref = float(pops[r])
    peak = float(pops.max())
    if p_ref <= 0.0 or p_ref < WEAK_FRACTION * peak:
        raise WeakReference(
            f"reference population {p_ref:.3e} is below {WEAK_FRACTION:g} of the "
            f"strongest population {peak:.3e}"
        )

    others = probs.slit_indices
    table = probs.interference
    z = (table[:, 0] - table[:, 1]) + 1j * (table[:, 2] - table[:, 1])
    c_ref = math.sqrt(p_ref)
    amps = np.zeros(probs.dim, dtype=np.complex128)
    amps[r] = c_ref
    amps[others] = np.conj(z / (math.sqrt(2.0) * c_ref))
    state = normalize(amps).canonical()

    mean_level = 0.5 * (p_ref + pops[others])
    gamma = np.ones(probs.dim)
    gamma[others] = np.abs(z) / (math.sqrt(2.0) * mean_level)
    gamma_pure = np.ones(probs.dim)
    gamma_pure[others] = 2.0 * np.sqrt(p_ref * pops[others]) / (p_ref + pops[others])
    verdict = certify_purity(pops, gamma, p_ref, ref_index=r, tau=tau)

    gamma.setflags(write=False)
    gamma_pure.setflags(write=False)
    return ReconstructionReport(
        state=state,
        per_slit_visibility=gamma,
        expected_visibility=gamma_pure,
        purity_verdict=verdict,
        reference_used=r,
        outcome_budget=4 * probs.dim - 3,
    )


@dataclass(frozen=True)
class RoiMeasurement:
    """Everything one ROI contributes: populations, step means, phase map."""

    slit: int
    mean_blocked: float
    step_means: tuple[float, float, float]
    phase_map: np.ndarray | None = None


def extract_roi_measurements(frames: list[Interferogram]) -> list[RoiMeasurement]:
    """Per-ROI summaries of an ordered frame set (step indices 0..3)."""
    by_step = _frames_by_step(frames)
    cfg = by_step[0].config
    out = []
    for k in range(cfg.n_slits):
        rois = [by_step[s].roi(k) for s in range(4)]
        d1 = rois[1] - rois[2]
        d3 = rois[3] - rois[2]
        phase_map = np.arctan2(d3, d1)
        out.append(
            RoiMeasurement(
                slit=k,
                mean_blocked=float(rois[0].mean()),
                step_means=tuple(float(rois[s].mean()) for s in (1, 2, 3)),
                phase_map=phase_map,
            )
        )
    return out


def _frames_by_step(frames):
    by_step = {}
    for f in frames:
        if f.step_index in by_step:
            raise ValueError(f"duplicate frame for step {f.step_index}")
        by_step[f.step_index] = f
    if sorted(by_step) != [0, 1, 2, 3]:
        raise ValueError("need exactly the four frames with step indices 0..3")
    cfg = frames[0].config
    if any(f.config != cfg for f in frames):
        raise ValueError("frames disagree on the optical configuration")
    return by_step


def reconstruct_from_frames(
    frames: list[Interferogram],
    calibration: Interferogram | None = None,
    *,
    tau: float = TAU_PURITY,
) -> ReconstructionReport:
    """Invert four camera frames into a pure state.

    Moduli come from the blocked-reference frame; each slit phase is the
    modulation-weighted circular mean of the per-pixel three-step phase over
    its ROI, taken relative to the reference ROI.  The per-pixel mean level
    I0 is (I_1 + I_3)/2 (those steps sit in antiphase), or the blocked frame
    plus the calibration frame when one is supplied.  A slit whose fringe is
    entirely degenerate keeps phase zero; a degenerate reference ROI aborts
    the reconstruction.

    All ROIs are read in one pass: the ROI columns of the shared band row are
    gathered side by side, and per-slit sums and maxima reduce over each
    slit's column segment, whatever the ROI widths.
    """
    by_step = _frames_by_step(frames)
    cfg = by_step[0].config
    r = cfg.ref_index
    if calibration is not None:
        if calibration.step_index != CALIBRATION_STEP:
            raise ValueError("calibration frame must carry step index 4")
        if calibration.config != cfg:
            raise ValueError("calibration frame disagrees on the configuration")

    n = cfg.n_slits
    geo = _geometry(cfg)
    _, y, _, h = cfg.roi_layout[0]

    def band(frame):
        return frame.pixels[y : y + h, geo.cols]

    def per_slit(values, op=np.add):
        return op.reduceat(op.reduce(values, axis=0), geo.starts)

    roi0, roi1, roi2, roi3 = (band(by_step[s]) for s in range(4))
    area = geo.widths * h
    pops = per_slit(roi0) / area
    d1 = roi1 - roi2
    d3 = roi3 - roi2
    modulation = np.hypot(d1, d3)
    peak = per_slit(np.maximum(np.maximum(roi1, roi2), roi3), np.maximum)
    usable = modulation > np.repeat(DEGENERATE_FRACTION * peak, geo.widths)

    if calibration is not None:
        cal = band(calibration)
        level = roi0 + cal
        ref_level = per_slit(cal) / area
    else:
        level = 0.5 * (roi1 + roi3)
        ref_level = np.maximum(per_slit(level) / area - pops, 0.0)
    lit = level > 0.0
    ratio = np.divide(
        modulation, math.sqrt(2.0) * level, out=np.zeros_like(level), where=lit
    )
    n_lit = per_slit(lit)
    gamma = np.divide(per_slit(ratio), n_lit, out=np.zeros(n), where=n_lit > 0)

    # sum w e^{i phi} with w = hypot(d1, d3) is sum (d1 + i d3).
    weight = per_slit(np.where(usable, modulation, 0.0))
    re = per_slit(np.where(usable, d1, 0.0))
    im = per_slit(np.where(usable, d3, 0.0))
    if not weight[r] > 0.0:
        raise DegenerateFringe(f"reference ROI {r} shows no usable fringe modulation")
    resultant = np.divide(np.hypot(re, im), weight, out=np.zeros_like(weight), where=weight > 0)
    defined = resultant >= _RESULTANT_TOL
    if not defined[r]:
        raise DegenerateFringe(f"reference ROI {r} phase is undefined")
    # No recoverable phase keeps phase 0; the modulus (typically ~0) still counts.
    phases = np.where(defined, np.arctan2(im, re), 0.0)
    phases[phases == -math.pi] = math.pi

    amps = np.sqrt(np.clip(pops, 0.0, None)) * np.exp(1j * (phases - phases[r]))
    state = normalize(amps).canonical()

    gamma_pure = np.zeros(n)
    both = (pops > 0.0) & (ref_level > 0.0)
    p, q = pops[both], ref_level[both]
    gamma_pure[both] = 2.0 * np.sqrt(p * q) / (p + q)
    verdict = certify_purity(pops, gamma, ref_level, ref_index=r, tau=tau)

    gamma.setflags(write=False)
    gamma_pure.setflags(write=False)
    return ReconstructionReport(
        state=state,
        per_slit_visibility=gamma,
        expected_visibility=gamma_pure,
        purity_verdict=verdict,
        reference_used=r,
        outcome_budget=4 * n,
    )
