"""Monte Carlo driver: batches of simulated tomography runs plus calibration.

Every batch runs in one thread, OUTCOME_CHUNK trials at a time, through one
loop for both pipelines; ``workers`` is accepted for compatibility only.
Chunk c draws its Haar states and outcome draws as arrays, rows in trial
order, one stream per kind keyed on chunk_seed(root_seed, c); so row i depends
only on (root_seed, i), and an outcome row's seed is its chunk's.  Frames
trial i renders once on trial_seed(root_seed, i), picking an adaptive
reference inside that render.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache

import numpy as np

from .errors import AllZero, TomographyError, Unattainable
from .imaging import NoiseModel, OpticalConfig, _object_amplitudes, _render
from .projectors import STEP_PHASES, ProjectorOutcomes, _two_beam_table
from .reconstruct import (
    TAU_PURITY,
    choose_reference,
    reconstruct_from_frames,
    reconstruct_from_outcomes,
)
from .states import PureState, bloch_grid, fidelity, normalize

PIPELINES = ("outcomes", "frames")
REFERENCE_MODES = ("fixed", "adaptive", "extra_slit")

HISTOGRAM_BINS = 20

#: Trials that run_batch prepares together: per chunk, one reference choice
#: and one two-beam table computation for outcomes, one optical config for frames.
OUTCOME_CHUNK = 256

_CALIBRATION_TAG = 0x43414C
# Nonzero: SeedSequence zero-pads keys to four words, so [root, c, 0] would
# be trial_seed's key [root, c].
_CHUNK_TAG = 0x43484B

#: Bisection probes calibrate_noise makes after probing both bracket ends.
CALIBRATION_MAX_PROBES = 80


@dataclass(frozen=True)
class StateSource:
    """Where the batch input states come from."""

    kind: str
    n: int
    states: tuple[PureState, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("haar", "bloch_grid", "explicit"):
            raise ValueError(f"unknown state source kind: {self.kind!r}")
        if self.n < 1:
            raise ValueError("state source must produce at least one state")
        if (self.kind == "explicit") != (self.states is not None):
            raise ValueError("explicit sources carry states; generated ones do not")

    @classmethod
    def haar(cls, n: int) -> "StateSource":
        return cls("haar", n)

    @classmethod
    def bloch(cls, n: int) -> "StateSource":
        return cls("bloch_grid", n)

    @classmethod
    def explicit(cls, states) -> "StateSource":
        states = tuple(states)
        return cls("explicit", len(states), states)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that defines one batch.  ``optics``, derived and not a field,
    is the run's optical config: ``optical``, or else for_dim's for the mode."""

    dim: int
    source: StateSource
    root_seed: int
    pipeline: str = "outcomes"
    reference_mode: str = "adaptive"
    noise: NoiseModel = field(default_factory=NoiseModel)
    optical: OpticalConfig | None = None
    calibration_frame: bool = False
    tau_purity: float = TAU_PURITY

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError("qudit dimension must be at least 2")
        if self.pipeline not in PIPELINES:
            raise ValueError(f"pipeline must be one of {PIPELINES}")
        if self.reference_mode not in REFERENCE_MODES:
            raise ValueError(f"reference mode must be one of {REFERENCE_MODES}")
        if self.source.kind == "bloch_grid" and self.dim != 2:
            raise ValueError("the Bloch lattice source is defined for dim 2 only")
        # Written so that NaN fails the test too.
        if not 0.0 <= float(self.tau_purity) < math.inf:
            raise ValueError("tau_purity must be finite and non-negative")
        # for_dim alone sets each mode's slit count and fixed reference slit.
        adaptive = self.reference_mode == "adaptive"
        layout = OpticalConfig.for_dim(
            self.dim, extra_reference=self.reference_mode == "extra_slit")
        object.__setattr__(self, "optics", self.optical or layout)
        have, need = [(c.n_slits, "any" if adaptive else c.ref_index)
                      for c in (self.optics, layout)]
        if have != need:
            raise ValueError(f"optical config has (slits, reference slit) {have}; a "
                             f"{self.reference_mode} run at dim {self.dim} needs {need}")
        # Any slit may become an adaptive run's reference, and only a custom
        # envelope is not recentered on it.
        custom = self.optics.envelope_kind == "custom"
        if adaptive and custom and min(self.optics.ref_envelope) <= 0:
            raise ValueError("an adaptive run needs a custom envelope positive at every slit")


@dataclass(frozen=True)
class TrialResult:
    index: int
    dim: int
    seed: int
    fidelity: float
    pure: bool
    reference_used: int
    outcome_budget: int
    error: str | None
    true_state: PureState
    recon_state: PureState | None


@dataclass(frozen=True)
class SummaryStats:
    """Batch aggregates; failed trials enter the statistics with fidelity 0.

    ``failures_by_kind`` counts the failed trials per TomographyError class
    name, in sorted name order.
    """

    n_trials: int
    n_failed: int
    mean_fidelity: float
    std_fidelity: float
    hist_edges: tuple[float, ...]
    hist_counts: tuple[int, ...]
    purity_false_negatives: int
    failures_by_kind: dict[str, int]
    trials: tuple[TrialResult, ...]

    def to_dict(self) -> dict:
        """Every field but ``trials``."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "trials"}


def trial_seed(root_seed: int, index: int) -> int:
    """Stable 64-bit seed for one trial, mixed from the root seed and index."""
    seq = np.random.SeedSequence([int(root_seed), int(index)])
    return int(seq.generate_state(2, np.uint64)[0])


def chunk_seed(root_seed: int, chunk: int) -> int:
    """Stable 64-bit seed of one OUTCOME_CHUNK-trial chunk of a batch."""
    seq = np.random.SeedSequence([int(root_seed), int(chunk), _CHUNK_TAG])
    return int(seq.generate_state(2, np.uint64)[0])


def _streams(seed: int) -> list[np.random.Generator]:
    """The Philox streams of the run on ``seed``, one per kind of draw: Haar
    normals, populations, step jitter and interference counts."""
    return [np.random.Generator(np.random.Philox(s))
            for s in np.random.SeedSequence(int(seed)).spawn(4)]


def generate_states(spec: ExperimentSpec) -> list[PureState]:
    """The batch input states, in trial order.

    Haar chunk c is one (rows, 2, dim) array of normals, real then imaginary
    parts, from the Haar stream of chunk_seed(root_seed, c); each row is
    normalized, so state i depends only on (root_seed, i)."""
    src = spec.source
    if src.kind == "explicit":
        if any(s.dim != spec.dim for s in src.states):
            raise ValueError("explicit state dimension differs from spec.dim")
        return list(src.states)
    if src.kind == "bloch_grid":
        return bloch_grid(src.n)
    states = []
    for c, start in enumerate(range(0, src.n, OUTCOME_CHUNK)):
        rows = min(OUTCOME_CHUNK, src.n - start)
        z = _streams(chunk_seed(spec.root_seed, c))[0].standard_normal((rows, 2, spec.dim))
        states += [normalize(v) for v in z[:, 0] + 1j * z[:, 1]]
    return states


def _outcome_run(states, spec: ExperimentSpec, seeds):
    """Outcome trials of a run of states, as one report-returning call per trial.

    Every row records the run's one seed.  Populations, step jitter and
    interference counts are each one array from the seed's stream for the
    kind, rows in order, so row j depends only on (seed, j) and its state.
    """
    _, population_rng, jitter_rng, count_rng = _streams(seeds[0])
    photons = float(spec.noise.photons_per_frame)
    amps = np.array([_object_amplitudes(psi, spec.optics.n_slits) for psi in states])
    if spec.optics.n_slits > spec.dim:
        amps = amps / math.sqrt(2.0)
    pops = np.abs(amps) ** 2
    measured = pops
    if photons > 0.0:
        measured = population_rng.poisson(pops * photons).astype(float)
    ref = np.full(len(states), spec.optics.ref_index)
    lit = measured.max(axis=1) > 0.0
    if spec.reference_mode == "adaptive":
        # choose_reference row by row: the first strongest population.
        ref = np.argmax(measured, axis=1)

    # One phase error per step: the stepping element moves once per setting
    # and every slit pairing inherits that same error.
    jitter = jitter_rng.standard_normal((len(states), 3)) * float(spec.noise.phase_step_jitter_sd)
    coherence = amps[np.arange(len(states)), ref][:, None] * np.conj(amps)
    tables = _two_beam_table(pops, coherence, ref, np.asarray(STEP_PHASES) + jitter)
    kind = "count" if photons > 0.0 else "probability"
    if photons > 0.0:
        tables = count_rng.poisson(tables * photons).astype(float)

    def trial(j):
        if spec.reference_mode == "adaptive" and not lit[j]:
            raise AllZero("all populations are zero")
        outcomes = ProjectorOutcomes(amps.shape[1], int(ref[j]), measured[j], tables[j], kind=kind)
        return reconstruct_from_outcomes(outcomes, tau=spec.tau_purity)

    return trial


def _frames_run(states, spec: ExperimentSpec, seeds):
    """Frames trials of a run of states, as one report-returning call per trial.

    Every trial renders through ``spec.optics``.  Reconstruction reads only
    ROI pixels, so each trial renders the ROI band once, from the first child
    of SeedSequence(seed).  An adaptive trial chooses its reference inside
    that render from frame 0's per-slit means and takes the reference's
    config from a per-run table, so the phase field, the step jitter and the
    config are not built twice.
    """
    table = lru_cache(maxsize=None)(spec.optics.with_reference)  # built as references occur
    adaptive = spec.reference_mode == "adaptive"
    pick = (lambda means: table(choose_reference(means))) if adaptive else None

    def trial(j):
        render_seed = np.random.SeedSequence(int(seeds[j])).spawn(1)[0]
        frames = _render(states[j], spec.optics, spec.noise, render_seed, (0, 1, 2, 3),
                         spec.calibration_frame, True, pick)
        calibration = frames[4] if spec.calibration_frame else None
        return reconstruct_from_frames(frames[:4], calibration, tau=spec.tau_purity)

    return trial


def _trials(states, spec: ExperimentSpec, seeds, indices, strict=False):
    """Run and record trials of a run of states; a TomographyError becomes a
    failed-trial record, or propagates when ``strict``."""
    trial = (_frames_run if spec.pipeline == "frames" else _outcome_run)(states, spec, seeds)
    results = []
    for j, psi in enumerate(states):
        try:
            results.append(_record(psi, spec, seeds[j], indices[j], trial(j)))
        except TomographyError as exc:
            if strict:
                raise
            results.append(_record(psi, spec, seeds[j], indices[j], exc))
    return results


def run_trial(psi: PureState, spec: ExperimentSpec, seed: int, index: int = 0) -> TrialResult:
    """Simulate and reconstruct one state; pure function of its arguments.

    An outcome trial is the one-row run on ``seed``: the first row of the
    batch chunk with that seed.  Errors propagate to the caller; in
    particular a fixed-reference run on a state with an empty slit 0 raises
    WeakReference.  run_batch converts them into failed-trial records.
    """
    if psi.dim != spec.dim:
        raise ValueError("state dimension differs from spec.dim")
    return _trials([psi], spec, [seed], [index], strict=True)[0]


def _record(psi: PureState, spec: ExperimentSpec, seed, index, outcome) -> TrialResult:
    """The result of a trial from its ReconstructionReport, or the failed-trial
    record of the TomographyError it raised."""
    known = dict(index=index, dim=spec.dim, seed=int(seed), true_state=psi)
    if isinstance(outcome, TomographyError):
        return TrialResult(**known, fidelity=0.0, pure=False, reference_used=-1,
                           outcome_budget=0, error=type(outcome).__name__, recon_state=None)
    recon = outcome.state
    if recon.dim > psi.dim:  # drop the appended reference slit
        recon = normalize(recon.amps[: psi.dim])
    return TrialResult(**known, fidelity=fidelity(psi, recon), pure=outcome.purity_verdict.pure,
                       reference_used=outcome.reference_used,
                       outcome_budget=outcome.outcome_budget, error=None, recon_state=recon)


def run_batch(spec: ExperimentSpec, workers: int = 1) -> SummaryStats:
    """Run every state of the source through the pipeline and aggregate.

    Trials run in one thread, OUTCOME_CHUNK at a time, ordered by trial
    index.  ``workers`` is accepted for compatibility and changes nothing.
    """
    states = generate_states(spec)
    trials = []
    for c, start in enumerate(range(0, len(states), OUTCOME_CHUNK)):
        indices = range(start, min(start + OUTCOME_CHUNK, len(states)))
        seeds = ([trial_seed(spec.root_seed, i) for i in indices] if spec.pipeline == "frames"
                 else [chunk_seed(spec.root_seed, c)] * len(indices))
        trials += _trials(states[start : indices.stop], spec, seeds, indices)

    fids = np.array([t.fidelity for t in trials])
    edges = _histogram_edges(fids)
    counts, _ = np.histogram(fids, bins=np.asarray(edges))
    return SummaryStats(
        n_trials=len(trials),
        n_failed=sum(1 for t in trials if t.error is not None),
        mean_fidelity=float(fids.mean()),
        std_fidelity=float(fids.std()),
        hist_edges=edges,
        hist_counts=tuple(int(c) for c in counts),
        purity_false_negatives=sum(
            1 for t in trials if t.error is None and not t.pure
        ),
        failures_by_kind=dict(sorted(Counter(t.error for t in trials if t.error).items())),
        trials=tuple(trials),
    )


def _histogram_edges(fids: np.ndarray) -> tuple[float, ...]:
    """Equal bins over [min F, 1], spanning at least 1e-9 so rounding cannot split them."""
    lo = min(float(fids.min()), 1.0 - 1e-9)
    return tuple(float(x) for x in np.linspace(lo, 1.0, HISTOGRAM_BINS + 1))


def write_trials_csv(path, stats: SummaryStats) -> None:
    """One row per trial; float fields keep full round-trip precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "dim", "fidelity", "verdict", "reference", "seed"])
        for t in stats.trials:
            verdict = "FAILED" if t.error is not None else "PURE" if t.pure else "NOT_PURE"
            writer.writerow(
                [t.index, t.dim, repr(t.fidelity), verdict, t.reference_used, t.seed]
            )


def write_summary_json(path, stats: SummaryStats, spec: ExperimentSpec) -> None:
    payload = stats.to_dict()
    payload.update(dim=spec.dim, pipeline=spec.pipeline, reference_mode=spec.reference_mode,
                   source=spec.source.kind, root_seed=spec.root_seed,
                   photons_per_frame=spec.noise.photons_per_frame)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class CalibrationResult:
    noise: NoiseModel
    photons_per_frame: float
    achieved_mean_fidelity: float
    evaluations: int


def calibrate_noise(
    target_mean_fidelity: float,
    dim: int,
    template: ExperimentSpec,
    *,
    trials: int = 200,
    tol: float = 0.002,
    bracket: tuple[float, float] = (1e2, 1e10),
) -> CalibrationResult:
    """Find the photon budget whose batch mean fidelity hits the target.

    Bisects log10(photons_per_frame) inside ``bracket`` while every other
    noise field and the optics keep their template values; each probe reruns
    the same ``trials`` states (drawn from the template's source kind) with
    the same derived seed so the profile is smooth.  ``dim`` must be the
    template's.  Raises Unattainable when the bracket cannot reach the
    target, e.g. when step jitter alone already costs more fidelity than the
    target allows.
    """
    if dim != template.dim:
        raise ValueError(f"dim {dim} differs from the template's dim {template.dim}")
    if not 0.0 < target_mean_fidelity < 1.0:
        raise ValueError("target mean fidelity must lie strictly inside (0, 1)")
    if not 0.0 < tol < math.inf:  # NaN fails too
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    lo, hi = (float(bracket[0]), float(bracket[1]))
    if not 0.0 < lo < hi:
        raise ValueError("bracket must satisfy 0 < low < high")

    probe_root = trial_seed(template.root_seed, _CALIBRATION_TAG)
    if template.source.kind == "explicit":
        probe_source = template.source
    else:
        probe_source = StateSource(template.source.kind, trials)
    base = replace(template, source=probe_source, root_seed=probe_root)
    target = target_mean_fidelity
    log_lo, log_hi = math.log10(lo), math.log10(hi)
    f_lo = math.nan
    # Probe both ends of the bracket first, then bisect in log10(photons).
    for evals in range(1, CALIBRATION_MAX_PROBES + 3):
        photons = (lo, hi)[evals - 1] if evals <= 2 else 10.0 ** (0.5 * (log_lo + log_hi))
        noise = template.noise.with_photons(photons)
        fid = run_batch(replace(base, noise=noise)).mean_fidelity
        if abs(fid - target) <= tol:
            return CalibrationResult(noise, photons, fid, evals)
        if evals == 1:
            f_lo = fid
        elif evals == 2:
            if f_lo > target or fid < target:
                raise Unattainable(
                    f"target {target} outside achievable range "
                    f"[{f_lo:.6f}, {fid:.6f}] for photons in [{lo:g}, {hi:g}]"
                )
        elif fid < target:
            log_lo = math.log10(photons)
        else:
            log_hi = math.log10(photons)
    raise Unattainable(
        f"bisection did not reach {target} +/- {tol} within {CALIBRATION_MAX_PROBES} probes"
    )
