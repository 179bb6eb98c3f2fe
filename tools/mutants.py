"""Mutation check: every listed edit of ``src/psitomo`` must make tier-1 fail.

A mutant is one (file, old text, new text) edit.  Each is applied alone to a
fresh copy of the repository's working tree, and tier-1 runs in that copy
with ``-x``, the tests most likely to kill the mutant first: the test files
that FIRST names for the mutated module (by default ``test_<module>.py``),
then tier-1's other files in their usual order.  The mutant is
killed when tier-1 fails and survives when it passes.  Tier-1 also runs in an
unmutated copy; if it fails there, no kill means anything and the script exits 2.

    python tools/mutants.py

Runs as many copies at a time as the host has cores.  Edits in EQUIVALENT
change no result that a test can see (most change only speed); they are
listed with their reason and not run.  The script exits 1 if a mutant of
MUTANTS survives, or if the old text of any edit, EQUIVALENT included, no
longer occurs exactly once in its file (the list has fallen behind the
source).  It lives outside tier-1's collection.
"""

from __future__ import annotations

import concurrent.futures
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".bench_out", ".bench_build")
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
TEST_DIRS = ("tests", "benchmarks/tests")  # tier-1's testpaths, in collection order

# The test files run first for a mutant of a module, where test_<module>.py alone
# does not hold the tests that kill its listed mutants soonest.
FIRST = {
    "__init__.py": ["test_cli.py"],
    "harness.py": ["test_harness.py", "test_cli.py", "test_figures.py", "test_outcome_chunks.py",
                   "test_frames_trials.py", "test_huge_dimension.py"],
    "imaging.py": ["test_imaging.py", "test_reconstruct.py", "test_huge_dimension.py"],
    "pgmio.py": ["test_imaging.py", "test_cli.py", "test_acquisition_files.py"],
    "reconstruct.py": ["test_reconstruct.py", "test_properties.py", "test_acquisition_files.py"],
    "states.py": ["test_states.py", "test_huge_dimension.py"],
}

# Statement deletions that tier-1 once let through, each now covered by a test.
MUTANTS = [
    ("cli.py",
     '        if args.dim is None:\n'
     '            raise ValueError("need --dim when no --state-file is given")\n', ""),
    ("cli.py", '    print(f"wrote {len(frames)} frames to {out}")\n', ""),
    ("cli.py",
     "    if bool(args.frames_dir) == bool(args.outcomes):\n"
     '        raise ValueError("pass exactly one of --frames-dir or --outcomes")\n', ""),
    ("cli.py",
     '    print(\n        f"dim {report.state.dim}, reference {report.reference_used}, "\n'
     "        f\"budget {report.outcome_budget}, verdict {payload['verdict']}; report: "
     '{report_path}"\n    )\n', ""),
    ("cli.py",
     '    print(\n        f"{stats.n_trials} trials, mean F = {stats.mean_fidelity:.5f}, "\n'
     '        f"sd = {stats.std_fidelity:.5f}, {stats.n_failed} failed; wrote {out}"\n'
     "    )\n", ""),
    ("cli.py", '    print(f"wrote {fig_path}")\n', ""),
    ("cli.py",
     '    swp.add_argument("--pipeline", choices=("outcomes", "frames"), default=None)\n', ""),
    ("cli.py",
     '    swp.add_argument("--ref-mode", dest="reference_mode", '
     'choices=("fixed", "adaptive", "extra_slit"))\n', ""),
    ("imaging.py",
     "        if max(self.ref_envelope) > 1.0:\n"
     '            raise ValueError("envelope entries must lie in [0, 1]")\n', ""),
    ("pgmio.py",
     "    directory = Path(directory)\n    directory.mkdir(parents=True, exist_ok=True)\n",
     "    directory.mkdir(parents=True, exist_ok=True)\n"),
    ("pgmio.py", "    directory.mkdir(parents=True, exist_ok=True)\n", ""),
    ("pgmio.py", "        paths.append(pgm_path)\n", ""),
    ("reconstruct.py",
     '    if ph.size == 0:\n        raise ValueError("need at least one phase")\n', ""),
    ("reconstruct.py",
     "        if w.shape != ph.shape:\n"
     '            raise ValueError("weights must match phases in length")\n', ""),
    ("states.py",
     "    if a.dim != b.dim:\n"
     '        raise DimensionMismatch(f"dims {a.dim} and {b.dim} differ")\n', ""),
    ("harness.py", "        states = tuple(states)\n", ""),
    # ExperimentSpec's own dimension check: outcome specs build no layout to check it.
    ("harness.py",
     '        _check_int(self.dim, "qudit dimension must be at least 2", 2)\n', ""),
    # More found by a sweep over every statement: figure labels, the two
    # allocation probes (killed by test_huge_dimension), slots, the version.
    ("figures.py",
     '    body.append(_text(16, size - 14, 13, f"color: F in [{lo:.4f}, {hi:.4f}]"))\n', ""),
    ("figures.py", "        x = left + frac * plot_w\n", ""),
    ("figures.py",
     '        body.append(_text(f"{x:.2f}", top + plot_h + 18, 11, f"{value:.4f}", "middle"))\n',
     ""),
    ("figures.py",
     '    body += [_text(left - 8, top + 4, 11, peak, "end"),\n'
     '             _text(left - 8, top + plot_h + 4, 11, 0, "end")]\n', ""),
    ("imaging.py", "        np.empty(dims)\n", "        pass\n"),
    ("states.py",
     '        raise ValueError(f"qudit dimension {dim} is too large: {rows}x2x{dim} Haar "\n'
     '                         "normals cannot be allocated") from None\n', "        pass\n"),
    ("states.py", '    __slots__ = ("_amps",)\n', ""),
    ("states.py", '    __slots__ = ("_matrix",)\n', ""),
    ("__init__.py", '__version__ = "0.1.0"\n', ""),
    # A set that mixes two acquisitions, and inputs that are not states.
    ("pgmio.py",
     "    if any(a != acquisitions[0] for a in acquisitions):\n",
     "    if False:\n"),
    ("harness.py",
     "        if self.states is not None and not all(isinstance(s, PureState) "
     "for s in self.states):\n",
     "        if False:\n"),
    ("harness.py", "    if not isinstance(psi, PureState):\n", "    if False:\n"),
    # A frames spec builds its layout when it is made.
    ("harness.py", '        if self.pipeline == "frames":', "        if False:"),
    # A file rewritten in place is cut to its new length, unless it is no regular file.
    ("pgmio.py", "            fh.truncate()\n", "            pass\n"),
    ("pgmio.py", "        if stat.S_ISREG(os.fstat(fd).st_mode):", "        if True:"),
    # Constants and boundaries that tier-1 once let through, each now covered by a test.
    ("states.py", "NORM_TOL = 1e-12\n", "NORM_TOL = 1e-6\n"),
    ("states.py", "PSD_TOL = 1e-10\n", "PSD_TOL = 1e-6\n"),
    ("states.py", "PHASE_PIVOT = 1e-9\n", "PHASE_PIVOT = 1e-6\n"),
    ("reconstruct.py", "_RESULTANT_TOL = 1e-12\n", "_RESULTANT_TOL = 1e-6\n"),
    ("reconstruct.py", "and pk > eps and", "and pk >= eps and"),
    ("reconstruct.py", "p_ref < WEAK_FRACTION * peak", "p_ref <= WEAK_FRACTION * peak"),
    ("reconstruct.py", "WEAK_FRACTION = 1e-4\n", "WEAK_FRACTION = 1e-3\n"),
    # What tier-1 already guarded when listed: the other constants,
    ("reconstruct.py", "DEGENERATE_FRACTION = 1e-6\n", "DEGENERATE_FRACTION = 1e-3\n"),
    ("reconstruct.py", "PURITY_FLOOR = 1e-12\n", "PURITY_FLOOR = 0.0\n"),
    ("reconstruct.py", "TAU_PURITY = 0.02\n", "TAU_PURITY = 0.03\n"),
    ("harness.py", "HISTOGRAM_BINS = 20\n", "HISTOGRAM_BINS = 10\n"),
    ("harness.py", "min(float(fids.min()), 1.0 - 1e-9)", "min(float(fids.min()), 1.0 - 1e-6)"),
    # the signs of the two-beam law, of its frames cross term and of both inversions,
    ("projectors.py", "    np.pi / 2.0 * (step - 0.5)", "    -np.pi / 2.0 * (step - 0.5)"),
    ("reconstruct.py", "scale, -(d3 * scale)))", "scale, d3 * scale))"),
    ("reconstruct.py", "np.exp(1j * (phases - phases[r]))", "np.exp(1j * (phases[r] - phases))"),
    ("projectors.py", "[base + np.real(coherence * r)", "[base - np.real(coherence * r)"),
    ("imaging.py", "_two_beam(level + ref**2, 2.0 * obj * ref, phases)",
     "_two_beam(level + ref**2, obj * ref, phases)"),
    ("reconstruct.py", "    return np.where(angle == -math.pi, math.pi, angle), length",
     "    return angle, length"),
    # the reference modes and the reference rule,
    ("harness.py", "ref = _strongest(measured)", "ref = _strongest(pops)"),
    ("reconstruct.py", "    return np.argmax(populations, axis=-1)\n",
     "    return populations.shape[-1] - 1 - np.argmax(np.flip(populations, -1), axis=-1)\n"),
    ("harness.py", "        amps = amps / math.sqrt(2.0)\n", "        pass\n"),
    ("imaging.py", "    return (dim + 1, dim) if extra_reference",
     "    return (dim + 1, 0) if extra_reference"),
    # and the trial loop's records and levels.
    ("harness.py", "0.0, False, -1, 0,", "0.0, False, 0, 0,"),
    ("harness.py", "            if recon.dim > psi.dim:", "            if False:"),
    ("harness.py", "            if strict:\n", "            if False:\n"),
    ("reconstruct.py", "    gamma.insert(r, 1.0)\n", "    gamma.insert(r, 0.0)\n"),
    ("imaging.py", "    return config.image_dims[0] * float(", "    return float("),
    ("reconstruct.py", "level = 0.5 * (roi1 + roi3)", "level = 0.5 * (roi1 + roi2)"),
    # The layout arrays: the packed band's offsets, the slit offsets within it, the
    # pitch's end ROIs, for_dim's ROI positions and the flat envelope's width,
    ("imaging.py", "np.column_stack([starts, 0 * starts,", "np.column_stack([x, 0 * starts,"),
    ("imaging.py", "np.column_stack([starts, 0 * starts,", "np.column_stack([starts, starts,"),
    ("imaging.py", "    starts = np.cumsum(widths) - widths\n",
     "    starts = np.arange(len(widths)) * widths\n"),
    ("imaging.py", "self.roi_layout[0], self.roi_layout[-1]",
     "self.roi_layout[0], self.roi_layout[1]"),
    ("imaging.py", "np.arange(DISPLAY_SLIT_PITCH + inset,", "np.arange(inset,"),
    ("imaging.py", "    width = np.inf if", "    width = 1e9 if"),
    # and the probe of a frames spec's image.
    ("harness.py", "            _allocatable(self.optics.image_dims,",
     "            (lambda *_: None)(self.optics.image_dims,"),
    # A frames batch is one run, and a trial count is probed before any state is drawn.
    ("harness.py", '    size = OUTCOME_CHUNK if spec.pipeline == "outcomes" else len(states)\n',
     "    size = OUTCOME_CHUNK\n"),
    ("harness.py", '    _allocatable((src.n,), "the trial count is too large", "fidelities")\n', ""),
    # The two-beam law's clip, which a dark fringe's rounded sum of -1e-16 needs.
    ("projectors.py", "for r in rot], axis=-1), 0.0, None)", "for r in rot], axis=-1), -1.0, None)"),
]

# (file, old text, new text, why no test can kill it).  Deleting a module's
# `from __future__ import annotations`, or `from . import errors` in `__init__`
# (the submodules import it anyway), changes no behaviour either; not listed.
EQUIVALENT = [
    ("projectors.py",
     '        if kind == "count":\n'
     "            populations, interference, lit = _per_total(populations, interference)\n",
     "", "normalized() rescales the raw count rows to the same bits later"),
    ("projectors.py",
     "            populations, interference, lit = _per_total(populations, interference)\n",
     "            pass\n", "normalized() rescales the raw count rows to the same bits later"),
    ("reconstruct.py", "    p, g = p.tolist(), g.tolist()\n", "",
     "numpy float64 scalars round like Python floats, so only the speed changes"),
    ("pgmio.py", "os.O_WRONLY | os.O_CREAT |", "os.O_WRONLY | os.O_CREAT | os.O_TRUNC |",
     "same bytes; only storage traffic differs, and tier-1 cannot see that"),
    ("harness.py", "if fids[photons] < target", "if fids[photons] <= target",
     "a probe at exactly the target lies within tol, so probe() returns it first"),
]


def _edited(file: str, old: str, new: str) -> tuple[str, int]:
    """The text of ``src/psitomo/<file>`` with the edit applied, and its line number."""
    text = (ROOT / "src" / "psitomo" / file).read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{file}: the text of a mutant occurs {text.count(old)} times, "
                         f"not once:\n{old}")
    return text.replace(old, new), text[: text.index(old)].count("\n") + 1


def _test_files(module: str | None) -> list[str]:
    """Tier-1's test files, those FIRST names for ``module`` (a file of src/psitomo) ahead
    of the rest.  Files given by name run in the order given; pytest would merge a file
    given ahead of its own directory into that directory's order."""
    files = [str(path.relative_to(ROOT)) for where in TEST_DIRS
             for path in sorted((ROOT / where).glob("test_*.py"))]
    first = [f"tests/{name}" for name in FIRST.get(module, [f"test_{module}"])]
    return [f for f in first if f in files] + [f for f in files if f not in first]


def _tier1(mutant) -> tuple[bool, float]:
    """Whether tier-1 passes in a copy with ``mutant`` (None: no edit) applied, and
    the seconds it took."""
    with tempfile.TemporaryDirectory(prefix="psitomo-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIPPED)
        if mutant is not None:
            file, old, new = mutant
            (copy / "src" / "psitomo" / file).write_text(_edited(file, old, new)[0])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(copy / "src"), os.environ.get("PYTHONPATH")) if p)}
        start = time.perf_counter()
        done = subprocess.run(TIER1 + _test_files(mutant[0] if mutant else None), cwd=copy,
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return done.returncode == 0, time.perf_counter() - start


def main() -> int:
    for file, old, new, _ in EQUIVALENT:
        _edited(file, old, new)  # the old text still occurs once
    labels = [f"{m[0]}:{_edited(*m)[1]}" for m in MUTANTS]
    start = time.perf_counter()
    with concurrent.futures.ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        base = pool.submit(_tier1, None)
        runs = [pool.submit(_tier1, m) for m in MUTANTS]
        if not base.result()[0]:
            for run in runs:
                run.cancel()
            print("tier-1 fails without a mutant; no kill can be trusted")
            return 2
        survivors = []
        for label, run in zip(labels, runs):
            survived, seconds = run.result()
            print(f"{'survived' if survived else 'killed':8} {label:18} {seconds:6.1f} s",
                  flush=True)
            if survived:
                survivors.append(label)
    print(f"{len(MUTANTS)} mutants, {len(EQUIVALENT)} marked equivalent and not run, "
          f"{len(survivors)} unmarked survivors, {time.perf_counter() - start:.0f} s")
    if survivors:
        print("unmarked survivors: " + ", ".join(survivors))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
