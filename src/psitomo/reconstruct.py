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
from functools import lru_cache

import numpy as np

from .errors import (AllZero, BadIndex, DegenerateFringe, NonpositiveReference, WeakReference,
                     ZeroResultant)
from .imaging import CALIBRATION_STEP, Interferogram, _geometry, _steps
from .projectors import ProjectorOutcomes, measurement_plan
from .states import (PHASE_PIVOT, PureState, _as_array, _canonical_phase, _check_finite,
                     _check_int, _check_real, _frozen, _is_real, _norm, normalize)

#: A slit is too weak to verify (or to anchor) below this fraction of the
#: strongest population.
WEAK_FRACTION = 1e-4

#: Fringe differences below this fraction of the peak absolute ROI intensity
#: carry no recoverable phase.
DEGENERATE_FRACTION = 1e-6

#: Default slack on the visibility-vs-population purity test.
TAU_PURITY = 0.02

#: Rounding slack added to tau: exact pure-state data land up to about 1e-15
#: below the bound, while any admixture worth detecting costs far more.
PURITY_FLOOR = 1e-12

_RESULTANT_TOL = 1e-12
_SQRT2 = math.sqrt(2.0)


def _fringe(i1, i2, i3, peak):
    """The three-step fringe (arrays, or floats for one pixel): d1, d3, the modulation
    hypot(d1, d3), and whether it exceeds DEGENERATE_FRACTION * ``peak`` (max |I|)."""
    d1, d3 = i1 - i2, i3 - i2
    modulation = np.hypot(d1, d3)
    return d1, d3, modulation, modulation > DEGENERATE_FRACTION * peak


def _direction(re, im, weight):
    """The angle of resultants re + i im in (-pi, pi] (arrays or floats), and whether their
    length reaches _RESULTANT_TOL of ``weight``, their total weight; never where it is 0."""
    length = np.divide(np.hypot(re, im), weight, out=np.zeros_like(weight), where=weight > 0)
    angle = np.arctan2(im, re)
    return np.where(angle == -math.pi, math.pi, angle), length >= _RESULTANT_TOL


def _pixel(intensities: tuple):
    """_fringe on one pixel: the stepped triple, and any level, checked as real scalars."""
    if not all(map(_is_real, intensities)):
        raise ValueError(f"intensities must be real numbers, got {intensities!r}")
    _check_finite(intensities, "intensities")
    i1, i2, i3 = (float(v) for v in intensities[:3])
    return _fringe(i1, i2, i3, max(abs(i1), abs(i2), abs(i3)))


def psi_phase(i1: float, i2: float, i3: float) -> float:
    """Fringe phase in (-pi, pi] from the three stepped intensities.

    Raises DegenerateFringe unless the modulation hypot(I_1 - I_2, I_3 - I_2)
    exceeds DEGENERATE_FRACTION times the largest absolute intensity: the rule
    by which reconstruct_from_frames keeps a pixel.
    """
    d1, d3, modulation, usable = _pixel((i1, i2, i3))
    if not usable:
        raise DegenerateFringe(f"fringe modulation {modulation:.3e} is degenerate")
    return float(_direction(d1, d3, modulation)[0])


def psi_visibility(i1: float, i2: float, i3: float, i0: float) -> float:
    """Fringe visibility gamma from the stepped intensities and the mean level."""
    modulation = _pixel((i1, i2, i3, i0))[2]
    if not i0 > 0.0:
        raise NonpositiveReference(f"mean intensity must be positive, got {i0!r}")
    return float(modulation / (_SQRT2 * float(i0)))


def circular_mean(phases, weights=None) -> float:
    """Weighted mean direction, arg(sum w e^{i phi}), in (-pi, pi].

    Raises ZeroResultant when the normalized resultant is shorter than 1e-12,
    e.g. for two opposite unit directions.
    """
    ph = _as_array(phases, "phases").ravel()
    if ph.size == 0:
        raise ValueError("need at least one phase")
    _check_finite(ph, "phases")
    if weights is None:
        w = np.ones_like(ph)
    else:
        w = _as_array(weights, "weights").ravel()
        if w.shape != ph.shape:
            raise ValueError("weights must match phases in length")
        _check_finite(w, "weights", nonneg=True)
    wsum = float(w.sum())
    if wsum <= 0.0:
        raise ValueError("weights must have positive sum")
    angle, defined = _direction(w @ np.cos(ph), w @ np.sin(ph), wsum)
    if not defined:
        raise ZeroResultant("the weighted directions cancel: their resultant has no direction")
    return float(angle)


def _strongest(populations):
    """The reference rule: the index of the first strongest population, along the last axis."""
    return np.argmax(populations, axis=-1)


def choose_reference(populations) -> int:
    """Index of the strongest population; ties go to the lowest index."""
    pops = _as_array(populations, "populations")
    if pops.ndim != 1:
        raise ValueError("populations must be 1-D")
    if pops.size == 0:
        raise ValueError("need at least one population")
    _check_finite(pops, "populations", nonneg=True)
    if float(pops.max()) <= 0.0:
        raise AllZero("all populations are zero")
    return int(_strongest(pops))


@dataclass(frozen=True)
class PurityCheck:
    """Outcome of the visibility-saturation test.

    ``bound[k]`` is the pure-state visibility 2 sqrt(p_k r_k) / (p_k + r_k)
    (0 where p_k or r_k is not positive).  ``margins[k]`` is gamma_k minus
    that bound (NaN at the reference slit and at unverifiable ones); the
    verdict is pure when no verifiable margin drops below -tau - PURITY_FLOOR.
    """

    pure: bool
    margins: np.ndarray
    unverifiable: tuple[int, ...]
    tau: float
    bound: np.ndarray

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
    what = "populations, visibilities and reference levels"
    p, g = _as_array(populations, what), _as_array(visibilities, what)
    if p.shape != g.shape:
        raise ValueError("populations and visibilities must have the same length")
    if p.ndim != 1:
        raise ValueError("populations and visibilities must be 1-D")
    _check_int(ref_index, "reference index", 0, p.size, BadIndex)
    r = np.broadcast_to(_as_array(ref_population, what), p.shape)
    _check_finite((p, g, r), what)
    return _purity_check(p, g, r, ref_index, tau)


def _purity_check(p, g, r, ref_index: int, tau) -> PurityCheck:
    """certify_purity on finite float arrays; ``r`` may be a float.  One pass in
    Python floats: at d = 2..14 cheaper than numpy calls, and rounded alike."""
    tau = _check_real(tau, "tau")
    p, g = p.tolist(), g.tolist()
    r = [r] * len(p) if isinstance(r, float) else r.tolist()
    eps = WEAK_FRACTION * max(p, default=0.0)
    floor = -tau - PURITY_FLOOR
    bound, margins, unverifiable, pure = [], [], [], True
    for k, (pk, gk, rk) in enumerate(zip(p, g, r)):
        bound.append(2.0 * math.sqrt(pk * rk) / (pk + rk) if pk > 0.0 and rk > 0.0 else 0.0)
        if k != ref_index and pk > eps and rk > 0.0:
            margins.append(gk - bound[k])
            pure = pure and not margins[k] < floor
        else:
            margins.append(math.nan)
            if k != ref_index:
                unverifiable.append(k)
    return PurityCheck(pure, _frozen(np.array(margins)), tuple(unverifiable), tau,
                       _frozen(np.array(bound)))


@dataclass(frozen=True)
class ReconstructionReport:
    """Reconstructed state plus the evidence behind it."""

    state: PureState
    per_slit_visibility: np.ndarray
    purity_verdict: PurityCheck
    reference_used: int
    outcome_budget: int

    @property
    def expected_visibility(self) -> np.ndarray:
        """Pure-state visibility bound per slit, as computed by certify_purity."""
        return self.purity_verdict.bound

    def to_dict(self) -> dict:
        per_slit = zip(self.per_slit_visibility, self.expected_visibility,
                       self.purity_verdict.margins)
        slits = [{"slit": k, "gamma": float(g), "gamma_pure": float(b),
                  "margin": None if math.isnan(m) else float(m)}
                 for k, (g, b, m) in enumerate(per_slit)]
        return {
            "state": self.state.to_dict(),
            "slits": slits,
            "verdict": "PURE" if self.purity_verdict.pure else "NOT_PURE",
            "reference": self.reference_used,
            "outcome_budget": self.outcome_budget,
        }


def reconstruct_from_outcomes(
    outcomes: ProjectorOutcomes,
    *,
    tau: float = TAU_PURITY,
) -> ReconstructionReport:
    """Invert 4d - 3 outcomes into a pure state.

    The outcomes name their own dimension and reference slit.  The reference
    coefficient is sqrt(p_r); every other coefficient follows from
    c_k = conj[((p_1 - p_2) + i (p_3 - p_2)) / (sqrt(2) c_r)].  Counts are
    normalized by the total population first, probabilities are used as
    is.  Raises WeakReference when the reference population falls below
    1e-4 of the strongest one.
    """
    probs = outcomes.normalized()
    pops, table, r = probs.populations, probs.interference, probs.ref_index
    p = pops.tolist()
    p_ref, peak = p[r], max(p)
    if p_ref <= 0.0 or p_ref < WEAK_FRACTION * peak:
        raise WeakReference(
            f"reference population {p_ref:.3e} is below {WEAK_FRACTION:g} of the "
            f"strongest population {peak:.3e}"
        )

    # Python floats, rounded as numpy rounds conj(z / (sqrt(2) c_r)): it divides
    # by a real through the reciprocal, and the + 0.0 terms give its signed
    # zeros.  |z| stays numpy's, whose last bit math.hypot does not match.
    c_ref = math.sqrt(p_ref)
    scale = 1.0 / (_SQRT2 * c_ref)
    amps, z = [], []
    for i1, i2, i3 in table.tolist():  # the slits other than r, ascending
        d1, d3 = i1 - i2, 0.0 + (i3 - i2)
        amps.append(complex((d1 + 0.0 * d3) * scale, -(d3 * scale)))
        z.append(complex(d1, d3))
    del p[r]
    gamma = [modulus / (_SQRT2 * (0.5 * (p_ref + pk)))
             for modulus, pk in zip(np.abs(np.array(z)).tolist(), p)]
    amps.insert(r, complex(c_ref))
    gamma.insert(r, 1.0)
    return _report(np.array(amps), pops, np.array(gamma), p_ref, r, tau, "adaptive")


@lru_cache(maxsize=256)
def _budget(dim: int, plan: str) -> int:
    """measurement_plan's outcome count, built once per (dim, plan) as plans are frozen."""
    return measurement_plan(dim, plan).n_outcomes


def _report(amps, pops, gamma, ref_level, r: int, tau, plan: str) -> ReconstructionReport:
    """The report both reconstructors end in, from finite float arrays.

    The canonical phase (pivot floor scaled to the norm) comes before the one
    normalize, so the state is built once.
    """
    state = normalize(_canonical_phase(amps, PHASE_PIVOT * _norm(amps)))
    verdict = _purity_check(pops, gamma, ref_level, r, tau)
    return ReconstructionReport(
        state=state,
        per_slit_visibility=_frozen(gamma),
        purity_verdict=verdict,
        reference_used=r,
        outcome_budget=_budget(amps.size, plan),
    )


def _frames_by_step(frames):
    """One acquisition's frames by step: the one frame-set rule.  Steps 0..3 once
    each, at most one calibration frame (step 4), all of one configuration."""
    by_step = {}
    for f in frames:
        if f.step_index in by_step:
            raise ValueError(f"duplicate frame for step {f.step_index}")
        by_step[f.step_index] = f
    if tuple(sorted(by_step)) not in (_steps(False), _steps(True)):
        raise ValueError("need the four frames with step indices 0..3, "
                         "and at most a calibration frame with step index 4")
    cfg = frames[0].config
    if any(f.config != cfg for f in frames):
        raise ValueError("frames disagree on the optical configuration")
    return by_step


def reconstruct_from_frames(
    frames: list[Interferogram],
    *,
    tau: float = TAU_PURITY,
) -> ReconstructionReport:
    """Invert one acquisition's frame set, steps 0..3 plus an optional step-4
    calibration frame, into a pure state.

    Moduli come from the blocked-reference frame; each slit phase is the
    modulation-weighted circular mean of the per-pixel three-step phase over
    its ROI, taken relative to the reference ROI.  The per-pixel mean level
    I0 is (I_1 + I_3)/2 (those steps sit in antiphase), or the blocked frame
    plus the calibration frame when the set holds one.  A slit whose fringe is
    entirely degenerate keeps phase zero; a degenerate reference ROI aborts
    the reconstruction.

    All ROIs are read in one pass: the ROI columns of the shared band row are
    gathered side by side, and per-slit sums and maxima reduce over each
    slit's column segment, whatever the ROI widths.
    """
    by_step = _frames_by_step(frames)
    cfg = by_step[0].config
    r = cfg.ref_index
    calibration = by_step.get(CALIBRATION_STEP)
    n = cfg.n_slits
    geo = _geometry(cfg)
    per_slit = geo.per_slit
    roi0, roi1, roi2, roi3 = (geo.gather(by_step[s]) for s in range(4))
    pops = geo.per_slit_mean(roi0)
    peak = per_slit(np.maximum(np.maximum(abs(roi1), abs(roi2)), abs(roi3)), np.maximum)
    d1, d3, modulation, usable = _fringe(roi1, roi2, roi3, np.repeat(peak, geo.widths))

    if calibration is not None:
        cal = geo.gather(calibration)
        level = roi0 + cal
        ref_level = geo.per_slit_mean(cal)
    else:
        level = 0.5 * (roi1 + roi3)
        ref_level = geo.per_slit_mean(level) - pops
    lit = level > 0.0
    ratio = np.divide(modulation, _SQRT2 * level, out=np.zeros_like(level), where=lit)
    n_lit = per_slit(lit)
    gamma = np.divide(per_slit(ratio), n_lit, out=np.zeros(n), where=n_lit > 0)

    # sum w e^{i phi} with w = hypot(d1, d3) is sum (d1 + i d3).
    weight, re, im = (per_slit(np.where(usable, x, 0.0)) for x in (modulation, d1, d3))
    if not weight[r] > 0.0:
        raise DegenerateFringe(f"reference ROI {r} shows no usable fringe modulation")
    angle, defined = _direction(re, im, weight)
    if not defined[r]:
        raise DegenerateFringe(f"reference ROI {r} phase is undefined")
    # No recoverable phase keeps phase 0; the modulus (typically ~0) still counts.
    phases = np.where(defined, angle, 0.0)

    amps = np.sqrt(np.clip(pops, 0.0, None)) * np.exp(1j * (phases - phases[r]))
    return _report(amps, pops, gamma, ref_level, r, tau, "image")
