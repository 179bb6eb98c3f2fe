"""Mutation check: every listed edit of ``src/psitomo`` must make tier-1 fail.

A mutant is one (file, old text, new text) edit.  Each is applied alone to a
fresh copy of the repository's working tree, and tier-1 runs in that copy
with ``-x``.  The mutant is
killed when tier-1 fails and survives when it passes.  Tier-1 also runs in an
unmutated copy; if it fails there, no kill means anything and the script exits 2.

    python tools/mutants.py

Runs as many copies at a time as the host has cores.  Edits in EQUIVALENT
change only speed, so no test can kill them; they are listed with their reason
and not run.  The script exits 1 if a mutant of MUTANTS survives, or if the old
text of any edit, EQUIVALENT included, no longer occurs exactly once in its
file (the list has fallen behind the source).  It lives outside tier-1's
collection.
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
    ("imaging.py", "            np.empty((DEFAULT_IMAGE_HEIGHT, width))\n", "            pass\n"),
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
]


def _edited(file: str, old: str, new: str) -> tuple[str, int]:
    """The text of ``src/psitomo/<file>`` with the edit applied, and its line number."""
    text = (ROOT / "src" / "psitomo" / file).read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{file}: the text of a mutant occurs {text.count(old)} times, "
                         f"not once:\n{old}")
    return text.replace(old, new), text[: text.index(old)].count("\n") + 1


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
        done = subprocess.run(TIER1, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
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
