"""The benchmark's four workloads and their correctness checks.

Every workload is a closed loop with one caller: a pass starts only after
the previous one returned.  All inputs derive from the workload seed and the
pass index; psitomo receives only specs (with derived root seeds), CLI argv
and acquisition seeds.  ``prepare`` builds a pass's inputs, ``run`` is the
timed call, and ``check``/``finish`` verify outputs outside the timed calls.
Checks read psitomo's outputs but compute fidelities with plain numpy, so a
wrong reconstructor cannot also vouch for itself.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from pathlib import Path

import numpy as np

from psitomo import cli, harness, imaging
from psitomo.errors import TomographyError

#: Pass index whose inputs the warm-up call uses; measured passes count up from 0.
WARMUP_PASS = 1_000_000

#: Per-trial fidelity at this commit (mean, standard deviation, trial count),
#: measured by ``python3 benchmarks/bands.py`` on seeds the benchmark never
#: uses.  A run passes when its mean fidelity lies within BAND_Z standard
#: errors of the reference mean, counting the error of both means.
FIDELITY_REFERENCE = {
    "outcomes-d14": (0.9977236558765633, 0.0022045034445840003, 20000),
    "frames-d14": (0.997145547785513, 0.0015543124450123438, 2000),
    "acquire-d14": (0.9972790952505458, 0.0014192028436348732, 1000),
}
BAND_Z = 5.0

#: Failed items over attempted items at this commit, on every workload.
FAIL_FRAC_REFERENCE = 0.0

CAL_TARGET = 0.997
CAL_TOL = 0.002


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed that depends only on the workload seed and the keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b)))


def _state_amps(payload: dict) -> np.ndarray:
    return np.asarray(payload["re"], dtype=float) + 1j * np.asarray(payload["im"], dtype=float)


class Workload:
    """Common bookkeeping; subclasses define prepare/run/check."""

    name = ""
    #: What one item is, for throughput and latency.
    item = "trial"
    min_passes = 5
    #: Passes in a traced run, about 6 s on the 2-core host.
    traced_passes = 10

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.workers = 1
        self.failures: list[str] = []
        self.fidelities: list[float] = []

    def warmup(self) -> None:
        """One untimed pass on inputs no measured pass uses."""
        small = type(self)(self.seed, self.workdir / "warmup", tiny=True)
        small.run(small.prepare(WARMUP_PASS))

    def fail(self, message: str) -> None:
        if message not in self.failures:
            self.failures.append(message)

    def check_fidelity_band(self) -> None:
        mean_ref, sd_ref, n_ref = FIDELITY_REFERENCE[self.name]
        m = len(self.fidelities)
        mean = float(np.mean(self.fidelities))
        half = BAND_Z * sd_ref * math.sqrt(1.0 / m + 1.0 / n_ref)
        if abs(mean - mean_ref) > half:
            self.fail(
                f"mean fidelity {mean:.6f} over {m} {self.item}s is outside "
                f"{mean_ref:.6f} +/- {half:.6f}"
            )

    def finish(self, attempted: int, failed: int) -> None:
        """Checks over the whole run."""
        if attempted and failed / attempted != FAIL_FRAC_REFERENCE:
            self.fail(f"fail_frac {failed}/{attempted} differs from {FAIL_FRAC_REFERENCE}")


class BatchWorkload(Workload):
    """``run_batch`` over Haar states at d=14, bench noise at 1e5 photons."""

    dim = 14
    pipeline = "outcomes"
    trials = 1000

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        if tiny:
            self.trials = 4

    def prepare(self, k: int):
        return harness.ExperimentSpec(
            dim=self.dim,
            source=harness.StateSource.haar(self.trials),
            root_seed=derive_seed(self.seed, k),
            pipeline=self.pipeline,
            reference_mode="adaptive",
            noise=imaging.NoiseModel.bench_defaults(1e5),
        )

    def run(self, spec):
        stats = harness.run_batch(spec, workers=self.workers)
        return stats.n_trials, stats.n_trials, stats.n_failed, stats

    def check(self, stats) -> None:
        for t in stats.trials:
            if t.error is not None:
                self.fidelities.append(0.0)
                continue
            f = _fidelity(t.true_state.amps, t.recon_state.amps)
            if abs(f - t.fidelity) > 1e-9:
                self.fail(f"trial {t.index}: reported fidelity {t.fidelity} != {f}")
            self.fidelities.append(f)

    def finish(self, attempted, failed):
        super().finish(attempted, failed)
        self.check_fidelity_band()


class OutcomesD14(BatchWorkload):
    name = "outcomes-d14"


class FramesD14(BatchWorkload):
    name = "frames-d14"
    pipeline = "frames"
    trials = 40
    traced_passes = 8

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        self.workers = nproc()
        if tiny:
            self.trials = 2


class _Captured:
    """Runs CLI commands with stdout/stderr captured; keeps the last stderr."""

    def __init__(self) -> None:
        self.stderr = ""

    def main(self, argv: list[str]) -> int:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code:
            self.stderr = err.getvalue().strip()
        return code


def _noise_argv(noise) -> list[str]:
    return [
        "--photons", repr(float(noise.photons_per_frame)),
        "--jitter", repr(float(noise.phase_step_jitter_sd)),
        "--inhom", repr(float(noise.phase_inhomogeneity_sd)),
    ]


class CalibrateD2(Workload):
    """Gate 5's first half, then a sweep at the found budget and both figures."""

    name = "calibrate-d2"
    item = "calibrated sweep"
    min_passes = 3
    traced_passes = 3
    points = 1024

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        if tiny:
            self.points = 16
        self.cli = _Captured()
        self.checked_determinism = False

    def prepare(self, k: int):
        template = harness.ExperimentSpec(
            dim=2,
            source=harness.StateSource.bloch(self.points),
            root_seed=derive_seed(self.seed, k),
            noise=imaging.NoiseModel.bench_defaults(),
        )
        return template, str(self.workdir / "sweep")

    def sweep_argv(self, template, photons: float, out: str, workers: int) -> list[str]:
        noise = template.noise.with_photons(photons)
        return [
            "sweep", "--dim", "2", "--source", "bloch", "--trials", str(self.points),
            "--seed", str(template.root_seed), "--workers", str(workers),
            "--out-dir", out, *_noise_argv(noise),
        ]

    def run(self, inputs):
        template, out = inputs
        try:
            cal = harness.calibrate_noise(CAL_TARGET, 2, template, trials=self.points, tol=CAL_TOL)
        except TomographyError as exc:
            return 1, 0, 1, (template, None, [], f"calibration failed: {exc}")
        trials = (cal.evaluations + 1) * self.points
        codes = [self.cli.main(self.sweep_argv(template, cal.photons_per_frame, out, 1))]
        for mode in ("bloch", "hist"):
            codes.append(
                self.cli.main(
                    ["figure", "--mode", mode, "--csv", f"{out}/trials.csv",
                     "--out", f"{mode}.svg", "--out-dir", out]
                )
            )
        failed = int(any(codes))
        return 1, trials, failed, (template, cal, codes, self.cli.stderr if failed else "")

    def check(self, result) -> None:
        template, cal, codes, error = result
        if cal is None or any(codes):
            self.fail(f"calibrate-d2 pass failed: codes {codes} {error}")
            return
        if abs(cal.achieved_mean_fidelity - CAL_TARGET) > CAL_TOL:
            self.fail(f"calibration reached {cal.achieved_mean_fidelity}, not {CAL_TARGET} +/- {CAL_TOL}")
        out = self.workdir / "sweep"
        with open(out / "trials.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.points:
            self.fail(f"trials.csv holds {len(rows)} rows, expected {self.points}")
        for svg in ("bloch.svg", "hist.svg"):
            if not (out / svg).read_text().startswith("<svg"):
                self.fail(f"{svg} is not an SVG document")
        if not self.checked_determinism:
            self.checked_determinism = True
            self.check_determinism(template, cal.photons_per_frame, out)

    def check_determinism(self, template, photons: float, serial: Path) -> None:
        """A --workers nproc sweep must write the same bytes as the --workers 1 one."""
        parallel = self.workdir / "sweep-parallel"
        code = self.cli.main(self.sweep_argv(template, photons, str(parallel), max(nproc(), 2)))
        if code:
            self.fail(f"parallel sweep exited {code}: {self.cli.stderr}")
            return
        for name in ("trials.csv", "summary.json"):
            if (serial / name).read_bytes() != (parallel / name).read_bytes():
                self.fail(f"{name} differs between --workers 1 and --workers {max(nproc(), 2)}")


class AcquireD14(Workload):
    """One ``psitomo simulate`` then ``psitomo reconstruct --frames-dir`` per item."""

    name = "acquire-d14"
    item = "acquisition"
    min_passes = 100
    traced_passes = 150

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        self.cli = _Captured()
        self.out = str(self.workdir / "acq")
        self.noise = _noise_argv(imaging.NoiseModel.bench_defaults(1e5))

    def prepare(self, k: int):
        simulate = ["simulate", "--dim", "14", "--seed", str(derive_seed(self.seed, k)),
                    "--calibration", "--out-dir", self.out, *self.noise]
        reconstruct = ["reconstruct", "--frames-dir", self.out, "--out-dir", self.out]
        return simulate, reconstruct

    def run(self, argvs):
        codes = [self.cli.main(argv) for argv in argvs]
        failed = int(any(codes))
        return 1, 1, failed, (codes, self.cli.stderr if failed else "")

    def check(self, result) -> None:
        codes, error = result
        if any(codes):
            self.fidelities.append(0.0)
            self.fail(f"acquisition exited {codes}: {error}")
            return
        out = Path(self.out)
        truth = _state_amps(json.loads((out / "true_state.json").read_text()))
        recon = _state_amps(json.loads((out / "report.json").read_text())["state"])
        self.fidelities.append(_fidelity(truth, recon))

    def finish(self, attempted, failed):
        super().finish(attempted, failed)
        self.check_fidelity_band()


WORKLOADS = {w.name: w for w in (OutcomesD14, FramesD14, CalibrateD2, AcquireD14)}


def make(name: str, seed: int, workdir, tiny: bool = False) -> Workload:
    return WORKLOADS[name](seed, workdir, tiny)
