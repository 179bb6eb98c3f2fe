"""Monte Carlo driver: batches of simulated tomography runs plus calibration.

Every trial is a pure function of (state, experiment spec, trial seed), and
trial seeds derive from the batch root seed and the trial index alone, so a
batch gives bit-identical results no matter how many workers execute it.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import TomographyError, Unattainable
from .imaging import NoiseModel, OpticalConfig, render_blocked_frame, render_frames, roi_means
from .projectors import (
    STEP_PHASES,
    ProjectorOutcomes,
    interference_probs,
)
from .reconstruct import (
    TAU_PURITY,
    choose_reference,
    reconstruct_from_frames,
    reconstruct_from_outcomes,
)
from .states import PureState, bloch_grid, fidelity, haar_random, normalize

PIPELINES = ("outcomes", "frames")
REFERENCE_MODES = ("fixed", "adaptive", "extra_slit")

HISTOGRAM_BINS = 20

_CALIBRATION_TAG = 0x43414C


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
    """Everything that defines one batch except the worker count."""

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
    """Batch aggregates; failed trials enter the statistics with fidelity 0."""

    n_trials: int
    n_failed: int
    mean_fidelity: float
    std_fidelity: float
    hist_edges: tuple[float, ...]
    hist_counts: tuple[int, ...]
    purity_false_negatives: int
    trials: tuple[TrialResult, ...]

    def to_dict(self) -> dict:
        return {
            "n_trials": self.n_trials,
            "n_failed": self.n_failed,
            "mean_fidelity": self.mean_fidelity,
            "std_fidelity": self.std_fidelity,
            "hist_edges": list(self.hist_edges),
            "hist_counts": list(self.hist_counts),
            "purity_false_negatives": self.purity_false_negatives,
        }


def trial_seed(root_seed: int, index: int) -> int:
    """Stable 64-bit seed for one trial, mixed from the root seed and index."""
    seq = np.random.SeedSequence([int(root_seed), int(index)])
    return int(seq.generate_state(2, np.uint64)[0])


def generate_states(spec: ExperimentSpec) -> list[PureState]:
    """The batch input states, in trial order."""
    src = spec.source
    if src.kind == "explicit":
        for s in src.states:
            if s.dim != spec.dim:
                raise ValueError("explicit state dimension differs from spec.dim")
        return list(src.states)
    if src.kind == "bloch_grid":
        return bloch_grid(src.n)
    seeds = [np.random.SeedSequence([spec.root_seed, i, 0]) for i in range(src.n)]
    return [haar_random(spec.dim, s) for s in seeds]


def _embed_with_reference(psi: PureState) -> PureState:
    """Append a max-transmission slit: (c_0 .. c_{d-1}, 1) / sqrt(2)."""
    amps = np.concatenate([psi.amps, [1.0 + 0.0j]]) / math.sqrt(2.0)
    return PureState(amps)


def _project_out_reference(state: PureState, dim: int) -> PureState:
    return normalize(state.amps[:dim])


def _outcomes_trial(psi: PureState, spec: ExperimentSpec, seq) -> tuple:
    pop_seq, jitter_seq, intf_seq = seq.spawn(3)
    noise = spec.noise
    photons = float(noise.photons_per_frame)

    if spec.reference_mode == "extra_slit":
        work = _embed_with_reference(psi)
        ref = psi.dim
    else:
        work = psi
        ref = 0

    pops = np.abs(work.amps) ** 2
    if photons > 0.0:
        pops = np.random.default_rng(pop_seq).poisson(pops * photons).astype(float)
    if spec.reference_mode == "adaptive":
        ref = choose_reference(pops)

    # One phase error per step: the stepping element moves once per setting
    # and every slit pairing inherits that same error.
    jitter = np.random.default_rng(jitter_seq).standard_normal(3) * float(
        noise.phase_step_jitter_sd
    )
    table = interference_probs(work, ref, np.asarray(STEP_PHASES) + jitter)
    if photons > 0.0:
        table = np.random.default_rng(intf_seq).poisson(table * photons).astype(float)

    kind = "count" if photons > 0.0 else "probability"
    outcomes = ProjectorOutcomes(work.dim, ref, pops, table, kind=kind)
    report = reconstruct_from_outcomes(outcomes, tau=spec.tau_purity)
    return report, work.dim


def _frames_trial(psi: PureState, spec: ExperimentSpec, seq) -> tuple:
    render_seed = seq.spawn(1)[0]
    extra = spec.reference_mode == "extra_slit"
    config = spec.optical
    if config is None:
        config = OpticalConfig.for_dim(psi.dim, extra_reference=extra)
    elif extra and config.n_slits != psi.dim + 1:
        raise ValueError("extra_slit mode needs a config with dim + 1 slits")

    # Reconstruction reads only ROI pixels, so batch trials render the ROI band.
    if spec.reference_mode == "adaptive":
        blocked = render_blocked_frame(psi, config, spec.noise, render_seed, roi_band=True)
        config = config.with_reference(choose_reference(roi_means(blocked)))

    frames = render_frames(
        psi,
        config,
        spec.noise,
        render_seed,
        include_calibration=spec.calibration_frame,
        roi_band=True,
    )
    calibration = frames[4] if spec.calibration_frame else None
    report = reconstruct_from_frames(frames[:4], calibration, tau=spec.tau_purity)
    return report, config.n_slits


def run_trial(psi: PureState, spec: ExperimentSpec, seed: int, index: int = 0) -> TrialResult:
    """Simulate and reconstruct one state; pure function of its arguments.

    Errors propagate to the caller; in particular a fixed-reference run on a
    state with an empty slit 0 raises WeakReference.  run_batch converts
    propagated errors into failed-trial records instead.
    """
    if psi.dim != spec.dim:
        raise ValueError("state dimension differs from spec.dim")
    seq = np.random.SeedSequence(int(seed))
    if spec.pipeline == "outcomes":
        report, _ = _outcomes_trial(psi, spec, seq)
    else:
        report, _ = _frames_trial(psi, spec, seq)

    recon = report.state
    if spec.reference_mode == "extra_slit":
        recon = _project_out_reference(recon, psi.dim)
    return TrialResult(
        index=index,
        dim=spec.dim,
        seed=int(seed),
        fidelity=fidelity(psi, recon),
        pure=report.purity_verdict.pure,
        reference_used=report.reference_used,
        outcome_budget=report.outcome_budget,
        error=None,
        true_state=psi,
        recon_state=recon,
    )


def _run_indexed(args) -> TrialResult:
    psi, spec, index = args
    seed = trial_seed(spec.root_seed, index)
    try:
        return run_trial(psi, spec, seed, index)
    except TomographyError as exc:
        return TrialResult(
            index=index,
            dim=spec.dim,
            seed=seed,
            fidelity=0.0,
            pure=False,
            reference_used=-1,
            outcome_budget=0,
            error=type(exc).__name__,
            true_state=psi,
            recon_state=None,
        )


def run_batch(spec: ExperimentSpec, workers: int = 1) -> SummaryStats:
    """Run every state of the source through the pipeline and aggregate.

    Results are ordered by trial index and are independent of ``workers``.
    """
    states = generate_states(spec)
    jobs = [(psi, spec, i) for i, psi in enumerate(states)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            trials = list(pool.map(_run_indexed, jobs))
    else:
        trials = [_run_indexed(j) for j in jobs]

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
        trials=tuple(trials),
    )


def _histogram_edges(fids: np.ndarray) -> tuple[float, ...]:
    lo = float(fids.min()) if fids.size else 0.0
    if lo >= 1.0:
        lo = 1.0 - 1e-9
    return tuple(float(x) for x in np.linspace(lo, 1.0, HISTOGRAM_BINS + 1))


def write_trials_csv(path, stats: SummaryStats) -> None:
    """One row per trial; float fields keep full round-trip precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "dim", "fidelity", "verdict", "reference", "seed"])
        for t in stats.trials:
            if t.error is not None:
                verdict = "FAILED"
            elif t.pure:
                verdict = "PURE"
            else:
                verdict = "NOT_PURE"
            writer.writerow(
                [t.index, t.dim, repr(t.fidelity), verdict, t.reference_used, t.seed]
            )


def write_summary_json(path, stats: SummaryStats, spec: ExperimentSpec) -> None:
    payload = stats.to_dict()
    payload.update(
        {
            "dim": spec.dim,
            "pipeline": spec.pipeline,
            "reference_mode": spec.reference_mode,
            "source": spec.source.kind,
            "root_seed": spec.root_seed,
            "photons_per_frame": spec.noise.photons_per_frame,
        }
    )
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
    max_iter: int = 80,
) -> CalibrationResult:
    """Find the photon budget whose batch mean fidelity hits the target.

    Bisects log10(photons_per_frame) inside ``bracket`` while every other
    noise field keeps its template value; each probe reruns the same
    ``trials`` states (drawn from the template's source kind) with the same
    derived seed so the profile is smooth.  Raises Unattainable when the
    bracket cannot reach the target, e.g. when step jitter alone already
    costs more fidelity than the target allows.
    """
    if not 0.0 < target_mean_fidelity < 1.0:
        raise ValueError("target mean fidelity must lie strictly inside (0, 1)")
    lo, hi = (float(bracket[0]), float(bracket[1]))
    if not 0.0 < lo < hi:
        raise ValueError("bracket must satisfy 0 < low < high")

    probe_root = trial_seed(template.root_seed, _CALIBRATION_TAG)
    if template.source.kind == "explicit":
        probe_source = template.source
    else:
        probe_source = StateSource(template.source.kind, trials)
    base = replace(
        template,
        dim=dim,
        source=probe_source,
        root_seed=probe_root,
        optical=None,
    )
    evals = 0

    def mean_fid(photons: float) -> float:
        nonlocal evals
        evals += 1
        probe = replace(base, noise=template.noise.with_photons(photons))
        return run_batch(probe).mean_fidelity

    f_lo = mean_fid(lo)
    if abs(f_lo - target_mean_fidelity) <= tol:
        return CalibrationResult(
            template.noise.with_photons(lo), lo, f_lo, evals
        )
    f_hi = mean_fid(hi)
    if abs(f_hi - target_mean_fidelity) <= tol:
        return CalibrationResult(
            template.noise.with_photons(hi), hi, f_hi, evals
        )
    if f_lo > target_mean_fidelity or f_hi < target_mean_fidelity:
        raise Unattainable(
            f"target {target_mean_fidelity} outside achievable range "
            f"[{f_lo:.6f}, {f_hi:.6f}] for photons in [{lo:g}, {hi:g}]"
        )

    log_lo, log_hi = math.log10(lo), math.log10(hi)
    for _ in range(max_iter):
        mid = 10.0 ** (0.5 * (log_lo + log_hi))
        f_mid = mean_fid(mid)
        if abs(f_mid - target_mean_fidelity) <= tol:
            return CalibrationResult(
                template.noise.with_photons(mid), mid, f_mid, evals
            )
        if f_mid < target_mean_fidelity:
            log_lo = math.log10(mid)
        else:
            log_hi = math.log10(mid)
    raise Unattainable(
        f"bisection did not reach {target_mean_fidelity} +/- {tol} "
        f"within {max_iter} probes"
    )
