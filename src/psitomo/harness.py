"""Monte Carlo driver: batches of simulated tomography runs plus calibration.

Every batch runs in one thread, through one loop for both pipelines;
``workers`` is accepted for compatibility only.  OUTCOME_CHUNK-trial chunks
serve draws only: chunk c draws its Haar states, and in an outcome batch its
outcome draws, as arrays in trial order, one stream per kind keyed on
chunk_seed(root_seed, c); so row i depends only on (root_seed, i), and an
outcome row's seed is its chunk's.  A frames batch is one run, which builds each
reference slit's config once; trial i renders once, on trial_seed(root_seed, i).
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import TomographyError, Unattainable
from .imaging import (NoiseModel, OpticalConfig, _allocatable, _object_amplitudes, _render,
                      _slits, _steps)
from .pgmio import _rewrite, write_json
from .projectors import ProjectorOutcomes, _counts, _step_phases, _two_beam_table
from .reconstruct import (
    TAU_PURITY,
    _strongest,
    choose_reference,
    reconstruct_from_frames,
    reconstruct_from_outcomes,
)
from .states import (PureState, _check_int, _check_real, _haar, _is_real, bloch_grid, fidelity,
                     normalize)

PIPELINES = ("outcomes", "frames")
REFERENCE_MODES = ("fixed", "adaptive", "extra_slit")

HISTOGRAM_BINS = 20

#: Trials whose draws share one chunk_seed stream per kind: Haar states, and an
#: outcome batch's draws, prepared together.  A frames batch is not cut into chunks.
OUTCOME_CHUNK = 256

_CALIBRATION_TAG = 0x43414C
# Nonzero: SeedSequence zero-pads keys to four words, so [root, c, 0] would
# be trial_seed's key [root, c].
_CHUNK_TAG = 0x43484B


@dataclass(frozen=True)
class StateSource:
    """Where the batch input states come from."""

    kind: str
    n: int
    states: tuple[PureState, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("haar", "bloch_grid", "explicit"):
            raise ValueError(f"unknown state source kind: {self.kind!r}")
        _check_int(self.n, "state source must produce at least one state", 1)
        if (self.kind == "explicit") != (self.states is not None):
            raise ValueError("explicit sources carry states; generated ones do not")
        if self.states is not None and self.n != len(self.states):
            raise ValueError(f"state source has n = {self.n} but carries {len(self.states)} states")
        if self.states is not None and not all(isinstance(s, PureState) for s in self.states):
            raise ValueError("explicit states must be PureState instances")

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
    """Everything that defines one batch.  ``optics``, derived, not a field and built when
    first read, is the run's optical config: ``optical``, or else for_dim's for the mode."""

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
        _check_int(self.dim, "qudit dimension must be at least 2", 2)
        _check_int(self.root_seed, "root_seed must be a non-negative integer")
        if not isinstance(self.calibration_frame, (bool, np.bool_)):
            raise ValueError(f"calibration_frame must be a bool, got {self.calibration_frame!r}")
        if self.pipeline not in PIPELINES:
            raise ValueError(f"pipeline must be one of {PIPELINES}")
        if self.reference_mode not in REFERENCE_MODES:
            raise ValueError(f"reference mode must be one of {REFERENCE_MODES}")
        if self.source.kind == "bloch_grid" and self.dim != 2:
            raise ValueError("the Bloch lattice source is defined for dim 2 only")
        object.__setattr__(self, "tau_purity", _check_real(self.tau_purity, "tau_purity"))
        adaptive = self.reference_mode == "adaptive"
        if (c := self.optical) is not None:  # _slits alone sets what a mode needs
            have, need = [(n, "any" if adaptive else ref) for n, ref in (
                (c.n_slits, c.ref_index), _slits(self.dim, self.reference_mode == "extra_slit"))]
            if have != need:
                raise ValueError(f"optical config has (slits, reference slit) {have}; a "
                                 f"{self.reference_mode} run at dim {self.dim} needs {need}")
            # Any slit may become an adaptive run's reference, and only a custom
            # envelope is not recentered on it.
            custom = c.envelope_kind == "custom"
            if adaptive and custom and min(c.ref_envelope) <= 0:
                raise ValueError("an adaptive run needs a custom envelope positive at every slit")
        if self.pipeline == "frames":  # built now, so a layout too large to render fails here
            _allocatable(self.optics.image_dims, "the optical config is too large")

    @cached_property
    def optics(self) -> OpticalConfig:
        return self.optical or OpticalConfig.for_dim(
            self.dim, extra_reference=self.reference_mode == "extra_slit")


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
    return _mixed_seed(root_seed, index)


def chunk_seed(root_seed: int, chunk: int) -> int:
    """Stable 64-bit seed of one OUTCOME_CHUNK-trial chunk of a batch."""
    return _mixed_seed(root_seed, chunk, _CHUNK_TAG)


def _mixed_seed(*key) -> int:
    """Stable 64-bit seed mixed from a key of non-negative integers."""
    for k in key:
        _check_int(k, "seed keys must be non-negative integers")
    return int(np.random.SeedSequence(key).generate_state(2, np.uint64)[0])


def _streams(seed: int) -> list[np.random.Generator]:
    """The Philox streams of the run on ``seed``, one per kind of draw: Haar
    normals, populations, step jitter and interference counts."""
    return [np.random.Generator(np.random.Philox(s))
            for s in np.random.SeedSequence(int(seed)).spawn(4)]


def generate_states(spec: ExperimentSpec) -> list[PureState]:
    """The batch input states, in trial order.

    Haar chunk c is one (rows, 2, dim) array of normals, real then imaginary
    parts, from the Haar stream of chunk_seed(root_seed, c); each row is
    normalized, so state i depends only on (root_seed, i).  A count whose fidelities
    run_batch could not hold is refused before any state is drawn."""
    src = spec.source
    _allocatable((src.n,), "the trial count is too large", "fidelities")
    if src.kind == "explicit":
        if any(s.dim != spec.dim for s in src.states):
            raise ValueError("explicit state dimension differs from spec.dim")
        return list(src.states)
    if src.kind == "bloch_grid":
        return bloch_grid(src.n)
    states = []
    for c, start in enumerate(range(0, src.n, OUTCOME_CHUNK)):
        rows = min(OUTCOME_CHUNK, src.n - start)
        states += _haar(_streams(chunk_seed(spec.root_seed, c))[0], rows, spec.dim)
    return states


def _outcome_run(states, spec: ExperimentSpec, seeds):
    """Outcome trials of a run of states, as one report-returning call per trial.

    Every row records the run's one seed.  Populations, step jitter and
    interference counts are each one array from the seed's stream for the
    kind, rows in order, so row j depends only on (seed, j) and its state.
    """
    _, population_rng, jitter_rng, count_rng = _streams(seeds[0])
    photons = spec.noise.photons_per_frame
    n_slits, fixed_ref = _slits(spec.dim, spec.reference_mode == "extra_slit")
    amps = np.array([_object_amplitudes(psi, n_slits) for psi in states])
    if n_slits > spec.dim:
        amps = amps / math.sqrt(2.0)
    pops = np.abs(amps) ** 2
    measured = _counts(population_rng, pops, photons)
    ref = np.full(len(states), fixed_ref)
    if spec.reference_mode == "adaptive":
        ref = _strongest(measured)
    phases = _step_phases(jitter_rng, spec.noise.phase_step_jitter_sd, (len(states),))
    coherence = amps[np.arange(len(states)), ref][:, None] * np.conj(amps)
    tables = _counts(count_rng, _two_beam_table(pops, coherence, ref, phases), photons)
    kind = "count" if photons > 0.0 else "probability"

    rows = ProjectorOutcomes._rows(amps.shape[1], ref, measured, tables, kind)
    return lambda j: reconstruct_from_outcomes(rows[j], tau=spec.tau_purity)


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
    steps = _steps(spec.calibration_frame)

    def trial(j):
        render_seed = np.random.SeedSequence(int(seeds[j])).spawn(1)[0]
        frames = _render(states[j], spec.optics, spec.noise, render_seed, steps, True, pick)
        return reconstruct_from_frames(frames, tau=spec.tau_purity)

    return trial


def _trials(states, spec: ExperimentSpec, seeds, indices, strict=False):
    """Run and record trials of a run of states; a TomographyError becomes a
    failed-trial record, or propagates when ``strict``."""
    trial = (_frames_run if spec.pipeline == "frames" else _outcome_run)(states, spec, seeds)
    results = []
    # Fields in TrialResult's order, passed by position.
    for j, psi in enumerate(states):
        try:
            report = trial(j)
            recon = report.state
            if recon.dim > psi.dim:  # drop the appended reference slit
                recon = normalize(recon.amps[: psi.dim])
            results.append(TrialResult(indices[j], spec.dim, int(seeds[j]), fidelity(psi, recon),
                                       report.purity_verdict.pure, report.reference_used,
                                       report.outcome_budget, None, psi, recon))
        except TomographyError as exc:
            if strict:
                raise
            results.append(TrialResult(indices[j], spec.dim, int(seeds[j]), 0.0, False, -1, 0,
                                       type(exc).__name__, psi, None))
    return results


def run_trial(psi: PureState, spec: ExperimentSpec, seed: int, index: int = 0) -> TrialResult:
    """Simulate and reconstruct one state; pure function of its arguments.

    An outcome trial is the one-row run on ``seed``: the first row of the
    batch chunk with that seed.  Errors propagate to the caller; in
    particular a fixed-reference run on a state with an empty slit 0 raises
    WeakReference.  run_batch converts them into failed-trial records.
    """
    if not isinstance(psi, PureState):
        raise ValueError(f"psi must be a PureState, got {type(psi).__name__}")
    if psi.dim != spec.dim:
        raise ValueError("state dimension differs from spec.dim")
    _check_int(seed, "seed must be a non-negative integer")
    _check_int(index, "index must be a non-negative integer")
    return _trials([psi], spec, [seed], [index], strict=True)[0]


def run_batch(spec: ExperimentSpec, workers: int = 1) -> SummaryStats:
    """Run every state of the source through the pipeline and aggregate.

    Trials run in one thread, ordered by trial index: an outcome batch
    OUTCOME_CHUNK at a time, for its chunk draws, and a frames batch as one run.
    ``workers`` (at least 1) is accepted for compatibility and changes nothing.
    """
    _check_int(workers, "workers must be a positive integer", 1)
    states = generate_states(spec)
    trials = []
    size = OUTCOME_CHUNK if spec.pipeline == "outcomes" else len(states)
    for c, start in enumerate(range(0, len(states), size)):
        indices = range(start, min(start + size, len(states)))
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
        purity_false_negatives=sum(1 for t in trials if t.error is None and not t.pure),
        failures_by_kind=dict(sorted(Counter(t.error for t in trials if t.error).items())),
        trials=tuple(trials),
    )


def _histogram_edges(fids: np.ndarray) -> tuple[float, ...]:
    """Equal bins over [min F, 1], spanning at least 1e-9 so rounding cannot split them."""
    lo = min(float(fids.min()), 1.0 - 1e-9)
    return tuple(float(x) for x in np.linspace(lo, 1.0, HISTOGRAM_BINS + 1))


def write_trials_csv(path, stats: SummaryStats) -> None:
    """One row per trial; float fields keep full round-trip precision."""
    with _rewrite(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "dim", "fidelity", "verdict", "reference", "seed"])
        for t in stats.trials:
            verdict = "FAILED" if t.error is not None else "PURE" if t.pure else "NOT_PURE"
            writer.writerow(
                [t.index, t.dim, repr(t.fidelity), verdict, t.reference_used, t.seed]
            )


def write_summary_json(path, stats: SummaryStats, spec: ExperimentSpec) -> None:
    write_json(path, dict(stats.to_dict(), dim=spec.dim, pipeline=spec.pipeline,
                          reference_mode=spec.reference_mode, source=spec.source.kind,
                          root_seed=spec.root_seed, photons_per_frame=spec.noise.photons_per_frame))


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
    target allows, or when the next log10 midpoint is not strictly inside the
    bracket or gives a budget already probed (which could only repeat its miss).
    """
    if dim != template.dim:
        raise ValueError(f"dim {dim} differs from the template's dim {template.dim}")
    if not (_is_real(target_mean_fidelity) and 0.0 < target_mean_fidelity < 1.0):
        raise ValueError("target mean fidelity must lie strictly inside (0, 1)")
    tol = _check_real(tol, "tol", positive=True)
    lo, hi = bracket if np.asarray(bracket, dtype=object).shape == (2,) else (math.nan,) * 2
    if not (_is_real(lo) and _is_real(hi) and 0.0 < lo < hi < math.inf):  # NaN fails too
        raise ValueError(f"bracket must satisfy 0 < low < high < inf, got {bracket!r}")

    probe_root = trial_seed(template.root_seed, _CALIBRATION_TAG)
    if template.source.kind == "explicit":
        probe_source = template.source
    else:
        probe_source = StateSource(template.source.kind, trials)
    base = replace(template, source=probe_source, root_seed=probe_root)
    target = target_mean_fidelity
    fids = {}  # mean fidelity by probed budget, in probe order

    def probe(photons):
        """Run the batch at ``photons``; its result if the mean fidelity lies within tol."""
        noise = template.noise.with_photons(photons)
        fid = fids[photons] = run_batch(replace(base, noise=noise)).mean_fidelity
        if abs(fid - target) <= tol:
            return CalibrationResult(noise, noise.photons_per_frame, fid, len(fids))

    if found := probe(lo) or probe(hi):
        return found
    if fids[lo] > target or fids[hi] < target:
        raise Unattainable(f"target {target} outside achievable range "
                           f"[{fids[lo]:.6f}, {fids[hi]:.6f}] for photons in [{lo:g}, {hi:g}]")
    log_lo, log_hi = math.log10(lo), math.log10(hi)
    while True:
        photons = 10.0 ** (mid := 0.5 * (log_lo + log_hi))
        if not log_lo < mid < log_hi or photons in fids:
            raise Unattainable(f"bracket log10(photons) in [{log_lo!r}, {log_hi!r}] collapsed at "
                               f"{photons!r} photons without reaching {target} +/- {tol}")
        if found := probe(photons):
            return found
        log_lo, log_hi = ((math.log10(photons), log_hi) if fids[photons] < target
                          else (log_lo, math.log10(photons)))
