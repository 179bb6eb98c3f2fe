"""Two-slit interference projectors and their outcome statistics.

Pairing a reference slit r with a target slit k and shifting the reference
phase through theta_step = pi/2 * (step - 1/2), step = 1, 2, 3, realizes the
analysis states

    |psi_step^(k)> = (|r> + e^{i theta_step} |k>) / sqrt(2).

The three projection probabilities on a state with amplitudes c are

    p_step^(k) = (|c_r|^2 + |c_k|^2) / 2 + Re{ c_r conj(c_k) e^{i theta_step} },

which is a sampled two-beam interferogram: the step phases are chosen so that

    (p_1 - p_2) + i (p_3 - p_2) = sqrt(2) c_r conj(c_k),

giving modulus and phase of every coefficient relative to the reference in
exactly three shots per slit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllZero, BadIndex, DimensionMismatch
from .states import (DensityMatrix, PureState, _as_array, _check_finite, _check_int,
                     _check_real, _check_seed, _frozen, _json_floats, _json_int)

#: Reference phase offsets pi/4, 3pi/4, 5pi/4 of the three interference steps.
STEP_PHASES: tuple[float, float, float] = tuple(
    np.pi / 2.0 * (step - 0.5) for step in (1, 2, 3)
)

OUTCOME_KINDS = ("probability", "count")


@dataclass(frozen=True)
class ProjectorSpec:
    """Which slit anchors the interference; the step phases are always STEP_PHASES."""

    dim: int
    ref_index: int = 0

    def __post_init__(self) -> None:
        _check_int(self.dim, "qudit dimension must be at least 2", 2)
        _check_int(self.ref_index, "reference index", 0, self.dim, BadIndex)


@dataclass(frozen=True)
class ProjectorOutcomes:
    """Populations plus three interference values per non-reference slit.

    ``interference[j, s]`` belongs to the j-th entry of the ascending slit
    order that skips ``ref_index`` and to phase step s+1.  ``kind`` is
    "probability" for exact Born-rule values and "count" for sampled photon
    numbers.
    """

    dim: int
    ref_index: int
    populations: np.ndarray
    interference: np.ndarray
    kind: str = "probability"

    def __post_init__(self) -> None:
        # Read-only views of the caller's arrays, not copies: theirs stay writeable.
        vars(self).update({name: _frozen(_as_array(getattr(self, name), "outcome values").view())
                           for name in ("populations", "interference")})
        _check_rows(self.dim, self.ref_index, self.populations, self.interference, self.kind)

    @classmethod
    def _rows(cls, dim, refs, populations, interference, kind) -> list["ProjectorOutcomes"]:
        """An instance per row of n refs, (n, dim) populations and (n, dim - 1, 3) tables,
        checked once; count rows of positive total come as probabilities."""
        _check_rows(dim, refs, populations, interference, kind)
        lit = np.zeros(len(refs), dtype=bool)
        if kind == "count":
            populations, interference, lit = _per_total(populations, interference)
        # Views, so the caller's arrays stay writeable and every row's slices are read-only.
        populations, interference = _frozen(populations.view()), _frozen(interference.view())
        rows = [cls.__new__(cls) for _ in range(len(refs))]  # no __post_init__: checked above
        for row, r, p, t, scaled in zip(rows, refs.tolist(), populations, interference, lit):
            vars(row).update(dim=dim, ref_index=r, populations=p, interference=t,
                             kind="probability" if scaled else kind)
        return rows

    def normalized(self) -> "ProjectorOutcomes":
        """Counts rescaled so populations sum to one; probabilities pass through."""
        if self.kind == "probability":
            return self
        pops, table, lit = _per_total(self.populations, self.interference)
        if not lit:
            raise AllZero("cannot normalize outcomes with zero total counts")
        return ProjectorOutcomes(self.dim, self.ref_index, pops, table)

    def to_dict(self) -> dict:
        return {
            "dim": int(self.dim),
            "ref_index": int(self.ref_index),
            "populations": [float(x) for x in self.populations],
            "interference": [[float(x) for x in row] for row in self.interference],
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ProjectorOutcomes":
        return cls(
            dim=_json_int(payload["dim"]),
            ref_index=_json_int(payload["ref_index"]),
            populations=_json_floats(payload["populations"]),
            interference=_json_floats(payload["interference"]),
            kind=str(payload.get("kind", "probability")),
        )


def _check_rows(dim, refs, populations, interference, kind) -> None:
    """ProjectorOutcomes' checks on float arrays with the leading batch axes of ``refs``."""
    _check_int(dim, "qudit dimension must be at least 2", 2)
    if kind not in OUTCOME_KINDS:
        raise ValueError(f"kind must be one of {OUTCOME_KINDS}")
    _check_int(refs, "reference index", 0, dim, BadIndex)
    if populations.shape != np.shape(refs) + (dim,):
        raise ValueError("populations must have shape (dim,)")
    if interference.shape != np.shape(refs) + (dim - 1, 3):
        raise ValueError("interference must have shape (dim - 1, 3)")
    _check_finite(populations, "outcome values", nonneg=True)
    _check_finite(interference, "outcome values", nonneg=True)
    total = np.add.reduce(populations, axis=-1) if kind == "probability" else 1.0
    off = np.extract(abs(total - 1.0) > 1e-9, total)
    if off.size:
        raise ValueError(f"populations sum to {off[0]:.17g}, expected 1")


def _per_total(populations, interference):
    """Populations and interference over their row's population total (the last axis of
    populations) where that total is positive, and the mask of those rows."""
    total = np.add.reduce(populations, axis=-1)
    lit = total > 0.0
    scale = np.where(lit, total, 1.0)[..., None]
    return populations / scale, interference / scale[..., None], lit


def projector_state(spec: ProjectorSpec, slit: int, step: int) -> PureState:
    """Analysis state (|r> + e^{i theta_step} |slit>)/sqrt(2) for one outcome."""
    _check_int(slit, "slit", 0, spec.dim, BadIndex)
    if slit == spec.ref_index:
        raise BadIndex("target slit must differ from the reference slit")
    _check_int(step, "step", 1, 4, BadIndex)
    amps = np.zeros(spec.dim, dtype=np.complex128)
    amps[spec.ref_index] = 1.0 / np.sqrt(2.0)
    amps[slit] = np.exp(1j * STEP_PHASES[step - 1]) / np.sqrt(2.0)
    return PureState(amps)


def _two_beam_table(populations, coherence, ref_index, phases) -> np.ndarray:
    """(p_r + p_k)/2 + Re{coh_k e^{i theta}} for every slit k != r and phase theta.

    ``coherence`` is the reference row of the state (rho_rk, or c_r conj(c_k)
    for a pure state).  Rows follow ascending slit order skipping
    ``ref_index``.  Born probabilities live in [0, 1], so the ~1e-17
    negatives that rounding makes are clipped.  Batched: (n, d) populations
    and coherences, n references, (n, 3) or (3,) phases give (n, d - 1, 3).
    """
    pops = np.atleast_2d(populations)
    n, d = pops.shape
    ref = np.broadcast_to(ref_index, (n,))
    others = np.arange(d) != ref[:, None]
    base = 0.5 * (pops[np.arange(n), ref][:, None] + pops[others].reshape(n, d - 1))
    coh = np.atleast_2d(coherence)[others].reshape(n, d - 1, 1)
    rot = np.exp(1j * np.asarray(phases, dtype=float)).reshape(-1, 1, 3)
    table = np.clip(base[:, :, None] + np.real(coh * rot), 0.0, None)
    return table[0] if np.ndim(populations) == 1 else table


def interference_probs(psi: PureState, ref_index: int, phases) -> np.ndarray:
    """Interference table for arbitrary step phases (e.g. jittered ones).

    Returns shape (dim - 1, 3); rows follow ascending slit order skipping
    ``ref_index``.
    """
    _check_int(ref_index, "reference index", 0, psi.dim, BadIndex)
    phases = _as_array(phases, "step phases")
    _check_finite(phases, "step phases")
    if phases.shape != (3,):
        raise ValueError(f"need three step phases, got shape {phases.shape}")
    amps = psi.amps
    return _two_beam_table(np.abs(amps) ** 2, amps[ref_index] * np.conj(amps), ref_index, phases)


def _exact(spec, pops, coherence) -> ProjectorOutcomes:
    """Exact outcomes from the populations and the reference row ``coherence(r)``
    of a state, for ``spec`` or, by default, slit 0 as reference."""
    if spec is None:
        spec = ProjectorSpec(pops.size)
    if pops.size != spec.dim:
        raise DimensionMismatch(f"state dim {pops.size} != spec dim {spec.dim}")
    r = spec.ref_index
    table = _two_beam_table(pops, coherence(r), r, STEP_PHASES)
    return ProjectorOutcomes(spec.dim, r, np.clip(pops, 0.0, None), table)


def exact_outcomes(psi: PureState, spec: ProjectorSpec | None = None) -> ProjectorOutcomes:
    """Exact Born-rule populations and interference table for a pure state.

    ``spec`` defaults to slit 0 as reference.
    """
    return _exact(spec, np.abs(psi.amps) ** 2, lambda r: psi.amps[r] * np.conj(psi.amps))


def exact_outcomes_mixed(
    rho: DensityMatrix, spec: ProjectorSpec | None = None
) -> ProjectorOutcomes:
    """Exact outcomes for a density matrix.

    Populations are diag(rho); the interference entries generalize to
    (rho_rr + rho_kk)/2 + Re{rho_rk e^{i theta_step}}, so reduced coherences
    show up directly as reduced fringe modulation.
    """
    return _exact(spec, np.real(np.diag(rho.matrix)), lambda r: rho.matrix[r])


def sample_counts(outcomes: ProjectorOutcomes, noise, seed) -> ProjectorOutcomes:
    """Poisson photon counts with mean probability * photons_per_frame.

    Every outcome is an independent Poisson draw; a zero-probability outcome
    therefore always yields zero counts.  Identical (outcomes, noise, seed)
    reproduce identical counts.
    """
    photons = _check_real(noise.photons_per_frame, "photons_per_frame for counts", positive=True)
    _check_seed(seed)
    probs = outcomes.normalized()
    rng = np.random.default_rng(seed)
    pops = _counts(rng, probs.populations, photons)
    table = _counts(rng, probs.interference, photons)
    return ProjectorOutcomes(outcomes.dim, outcomes.ref_index, pops, table, kind="count")


def _counts(stream, expected, scale, dark=0.0):
    """The one shot-noise draw: Poisson counts of mean ``scale * expected + dark``, as
    floats, from ``stream``, a Generator or a SeedSequence to start a fresh one from; with
    no photons (``scale <= 0``) ``expected`` itself, and nothing is drawn or started."""
    if scale <= 0.0:
        return expected
    return np.random.default_rng(stream).poisson(scale * expected + dark).astype(float)


def _step_phases(rng, sd, rows=()):
    """The one step-jitter draw: STEP_PHASES plus one N(0, sd) error per step, in shape
    ``rows + (3,)``.  The stepping element moves once per setting, so every slit pairing
    of a setting inherits the same error."""
    return np.asarray(STEP_PHASES) + rng.standard_normal(rows + (3,)) * sd


@dataclass(frozen=True)
class MeasurementPlan:
    """Outcome budget of one tomography run."""

    dim: int
    mode: str
    n_outcomes: int
    n_frames: int | None = None


def measurement_plan(dim: int, mode: str) -> MeasurementPlan:
    """Measurement budget per mode.

    adaptive: d populations + 3 (d - 1) interference outcomes = 4 d - 3; the
              reference slit is exempt from interfering with itself.
    fixed:    settings frozen up front, so every slit gets its three steps
              whether useful or not: d + 3 d = 4 d outcomes.
    image:    four camera frames regardless of d; each frame carries all d
              regions of interest at once, so 4 d intensity readouts.
    """
    _check_int(dim, "qudit dimension must be at least 2", 2)
    if mode == "adaptive":
        return MeasurementPlan(dim, mode, 4 * dim - 3)
    if mode == "fixed":
        return MeasurementPlan(dim, mode, 4 * dim)
    if mode == "image":
        return MeasurementPlan(dim, mode, 4 * dim, n_frames=4)
    raise ValueError(f"unknown measurement mode: {mode!r}")
