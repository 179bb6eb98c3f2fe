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

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllZero, BadIndex, DimensionMismatch
from .states import DensityMatrix, PureState, _json_int

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
        if self.dim < 2:
            raise ValueError("qudit dimension must be at least 2")
        if not 0 <= self.ref_index < self.dim:
            raise BadIndex(f"reference index {self.ref_index} outside 0..{self.dim - 1}")


@dataclass
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
        self.populations = np.asarray(self.populations, dtype=float)
        self.interference = np.asarray(self.interference, dtype=float)
        if self.kind not in OUTCOME_KINDS:
            raise ValueError(f"kind must be one of {OUTCOME_KINDS}")
        if not 0 <= self.ref_index < self.dim:
            raise BadIndex(f"reference index {self.ref_index} outside 0..{self.dim - 1}")
        if self.populations.shape != (self.dim,):
            raise ValueError("populations must have shape (dim,)")
        if self.interference.shape != (self.dim - 1, 3):
            raise ValueError("interference must have shape (dim - 1, 3)")
        if self.dim < 2:
            raise ValueError("qudit dimension must be at least 2")
        # In Python floats: at d = 2..14 cheaper than numpy's per-call overhead.
        values = self.populations.tolist() + self.interference.ravel().tolist()
        if not all(map(math.isfinite, values)):
            raise ValueError("outcome values must be finite")
        if min(values) < 0:
            raise ValueError("outcome values cannot be negative")
        if self.kind == "probability":
            total = float(np.add.reduce(self.populations))
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"populations sum to {total:.17g}, expected 1")

    def normalized(self) -> "ProjectorOutcomes":
        """Counts rescaled so populations sum to one; probabilities pass through."""
        if self.kind == "probability":
            return self
        return ProjectorOutcomes(self.dim, self.ref_index, *self._probabilities())

    def _probabilities(self) -> tuple[np.ndarray, np.ndarray]:
        """(populations, interference) rescaled so populations sum to one."""
        if self.kind == "probability":
            return self.populations, self.interference
        total = float(np.add.reduce(self.populations))
        if total <= 0.0:
            raise AllZero("cannot normalize outcomes with zero total counts")
        return self.populations / total, self.interference / total

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "ref_index": self.ref_index,
            "populations": [float(x) for x in self.populations],
            "interference": [[float(x) for x in row] for row in self.interference],
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ProjectorOutcomes":
        return cls(
            dim=_json_int(payload["dim"]),
            ref_index=_json_int(payload["ref_index"]),
            populations=np.asarray(payload["populations"], dtype=float),
            interference=np.asarray(payload["interference"], dtype=float),
            kind=str(payload.get("kind", "probability")),
        )


def projector_state(spec: ProjectorSpec, slit: int, step: int) -> PureState:
    """Analysis state (|r> + e^{i theta_step} |slit>)/sqrt(2) for one outcome."""
    if not 0 <= slit < spec.dim:
        raise BadIndex(f"slit {slit} outside 0..{spec.dim - 1}")
    if slit == spec.ref_index:
        raise BadIndex("target slit must differ from the reference slit")
    if step not in (1, 2, 3):
        raise BadIndex(f"step must be 1, 2, or 3, got {step}")
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
    if not 0 <= ref_index < psi.dim:
        raise BadIndex(f"reference index {ref_index} outside 0..{psi.dim - 1}")
    amps = psi.amps
    return _two_beam_table(np.abs(amps) ** 2, amps[ref_index] * np.conj(amps), ref_index, phases)


def exact_outcomes(psi: PureState, spec: ProjectorSpec | None = None) -> ProjectorOutcomes:
    """Exact Born-rule populations and interference table for a pure state.

    ``spec`` defaults to slit 0 as reference.
    """
    if spec is None:
        spec = ProjectorSpec(psi.dim)
    if psi.dim != spec.dim:
        raise DimensionMismatch(f"state dim {psi.dim} != spec dim {spec.dim}")
    pops = np.abs(psi.amps) ** 2
    table = interference_probs(psi, spec.ref_index, STEP_PHASES)
    return ProjectorOutcomes(spec.dim, spec.ref_index, pops, table)


def exact_outcomes_mixed(
    rho: DensityMatrix, spec: ProjectorSpec | None = None
) -> ProjectorOutcomes:
    """Exact outcomes for a density matrix.

    Populations are diag(rho); the interference entries generalize to
    (rho_rr + rho_kk)/2 + Re{rho_rk e^{i theta_step}}, so reduced coherences
    show up directly as reduced fringe modulation.
    """
    if spec is None:
        spec = ProjectorSpec(rho.dim)
    if rho.dim != spec.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != spec dim {spec.dim}")
    r = spec.ref_index
    pops = np.real(np.diag(rho.matrix))
    table = _two_beam_table(pops, rho.matrix[r], r, STEP_PHASES)
    return ProjectorOutcomes(spec.dim, r, np.clip(pops, 0.0, None), table)


def sample_counts(outcomes: ProjectorOutcomes, noise, seed) -> ProjectorOutcomes:
    """Poisson photon counts with mean probability * photons_per_frame.

    Every outcome is an independent Poisson draw; a zero-probability outcome
    therefore always yields zero counts.  Identical (outcomes, noise, seed)
    reproduce identical counts.
    """
    photons = float(noise.photons_per_frame)
    if photons <= 0.0:
        raise ValueError("sampling counts requires photons_per_frame > 0")
    probs = outcomes.normalized()
    rng = np.random.default_rng(seed)
    pops = rng.poisson(probs.populations * photons).astype(float)
    table = rng.poisson(probs.interference * photons).astype(float)
    return ProjectorOutcomes(outcomes.dim, outcomes.ref_index, pops, table, kind="count")


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
    if dim < 2:
        raise ValueError("qudit dimension must be at least 2")
    if mode == "adaptive":
        return MeasurementPlan(dim, mode, 4 * dim - 3)
    if mode == "fixed":
        return MeasurementPlan(dim, mode, 4 * dim)
    if mode == "image":
        return MeasurementPlan(dim, mode, 4 * dim, n_frames=4)
    raise ValueError(f"unknown measurement mode: {mode!r}")
