"""Measure the per-trial fidelity references that workloads.py records.

    python3 benchmarks/bands.py

Runs each banded workload on seeds 100001-100005, which no benchmark run
uses, and prints (mean, standard deviation, count) of the per-trial
fidelity for FIDELITY_REFERENCE.  Run it only when a change is meant to move
fidelity, and say so where the change is described.
"""

import shutil
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402

PASSES = {"outcomes-d14": 4, "frames-d14": 10, "acquire-d14": 200}


def main() -> None:
    workdir = BENCH_DIR.parent / ".bench_out" / "bands"
    for name, passes in PASSES.items():
        fids = []
        for seed in range(100001, 100006):
            w = workloads.make(name, seed, workdir)
            for k in range(passes):
                w.check(w.run(w.prepare(k))[3])
            fids += w.fidelities
        print(f'"{name}": ({statistics.fmean(fids)!r}, {statistics.stdev(fids)!r}, {len(fids)}),')
    shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
