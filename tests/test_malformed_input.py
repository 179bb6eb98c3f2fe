"""Malformed input is refused with an exit code, never a traceback.

One table of junk values serves every input.  The property: ``cli.main``
returns 0, 2, 3 or 4, nothing escapes it, and a report written with exit 0
holds only finite numbers.  Three inputs are fuzzed:

* an acquisition directory: a d = 3 set with its calibration frame in which
  one sidecar field (or one entry of its ROI or image size) is set to junk or
  deleted, one PGM byte of a header, of an ROI or of anywhere is changed, or
  one PGM is cut short;
* the outcome JSON of ``reconstruct --outcomes``, counts or probabilities, with
  one field, row or entry (or the whole object) set to junk or deleted;
* a ``sweep --config`` file, likewise, down to the entries of its optical
  layout; ``run_batch`` is stubbed, so the sweep stops once its spec is made.
"""

import copy
import json
import math
import shutil
import tempfile
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psitomo import (ExperimentSpec, NoiseModel, OpticalConfig, StateSource, exact_outcomes,
                     haar_random, run_batch, sample_counts)
from psitomo import cli
from psitomo.cli import EXIT_CONFIG, EXIT_DEGENERATE, EXIT_OK, EXIT_WEAK_REFERENCE, main

JUNK = [None, True, False, 0, -1, -(10**30), 1.5, -1e308, math.nan, math.inf, -math.inf,
        1e308, 10**400, "", "3", "junk", [], [1, 2], {}, {"a": 1}]
DELETED = object()
EXIT_CODES = {EXIT_OK, EXIT_CONFIG, EXIT_WEAK_REFERENCE, EXIT_DEGENERATE}

STEPS = range(5)
SIDECAR_FIELDS = ["step", "roi", "seed", "ref_index", "n_slits", "image_dims", "scale"]


@pytest.fixture(scope="module")
def acquisition(tmp_path_factory):
    """A noiseless d = 3 acquisition with its calibration frame, and the byte
    offsets of the ROI pixels in each of its PGMs."""
    where = tmp_path_factory.mktemp("acquisition")
    assert main(["simulate", "--dim", "3", "--seed", "1", "--calibration",
                 "--out-dir", str(where)]) == EXIT_OK
    meta = json.loads((where / "frame_1.json").read_text())
    header = (where / "frame_1.pgm").read_bytes().index(b"65535\n") + len(b"65535\n")
    width = meta["image_dims"][1]
    offsets = [header + 2 * (y * width + x) + b for x0, y0, w, h in meta["roi"]
               for y in range(y0, y0 + h) for x in range(x0, x0 + w) for b in (0, 1)]
    return where, offsets


def _junked(payload, path: tuple, value):
    """A copy of ``payload`` whose entry at ``path`` (a field, then fields or list indices;
    empty for the whole payload) is ``value``, or is deleted."""
    if not path:
        return None if value is DELETED else value
    payload = copy.deepcopy(payload)
    *parents, last = path
    holder = payload
    for key in parents:
        holder = holder[key]
    if value is DELETED:
        del holder[last]
    else:
        holder[last] = value
    return payload


def _sidecar_junk(where: Path, step: int, path: tuple, value) -> None:
    """Set the sidecar entry at ``path`` (a field, then list indices) to ``value``,
    or delete it."""
    sidecar = where / f"frame_{step}.json"
    sidecar.write_text(json.dumps(_junked(json.loads(sidecar.read_text()), path, value)))


_SIDECAR_PATHS = st.one_of(
    st.tuples(st.sampled_from(SIDECAR_FIELDS)),
    st.tuples(st.just("image_dims"), st.integers(0, 1)),
    st.tuples(st.just("roi"), st.integers(0, 2), st.integers(0, 3)),
)

# A changed byte sits in the header, at one of the ROI pixels, or anywhere.
CHANGES = st.one_of(
    st.tuples(st.just("sidecar"), st.sampled_from(STEPS), _SIDECAR_PATHS,
              st.sampled_from(JUNK + [DELETED])),
    st.tuples(st.just("byte"), st.sampled_from(STEPS),
              st.one_of(st.integers(0, 24), st.sampled_from(["roi", "any"])),
              st.integers(0, 255)),
    st.tuples(st.just("truncate"), st.sampled_from(STEPS)),
)


def _finite(value) -> bool:
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


@settings(max_examples=150)
@given(change=CHANGES, pick=st.integers(0, 10**6))
def test_a_malformed_acquisition_directory_exits_with_a_code(acquisition, change, pick):
    base, roi_offsets = acquisition
    with tempfile.TemporaryDirectory(prefix="psitomo-fuzz-") as tmp:
        where = Path(tmp) / "frames"
        shutil.copytree(base, where)
        kind, step, *rest = change
        pgm = where / f"frame_{step}.pgm"
        blob = bytearray(pgm.read_bytes())
        if kind == "sidecar":
            _sidecar_junk(where, step, *rest)
        elif kind == "byte":
            offset, value = rest
            if offset == "roi":
                offset = roi_offsets[pick % len(roi_offsets)]
            blob[pick % len(blob) if offset == "any" else offset] = value
            pgm.write_bytes(bytes(blob))
        else:
            pgm.write_bytes(blob[: pick % len(blob)])
        out = Path(tmp) / "out"
        code = main(["reconstruct", "--frames-dir", str(where), "--out-dir", str(out)])
        assert code in EXIT_CODES
        if code == EXIT_OK:
            report = json.loads((out / "report.json").read_text(),
                                parse_constant=lambda name: math.nan)
            assert _finite(report), report


def _exit_code_and_finite_report(argv, report):
    """Run ``argv`` in process; on exit 0, check that the JSON ``report`` it wrote holds
    only finite numbers."""
    code = main(argv)
    assert code in EXIT_CODES
    if code == EXIT_OK:
        payload = json.loads(report.read_text(), parse_constant=lambda name: math.nan)
        assert _finite(payload), payload


_COUNTS = sample_counts(exact_outcomes(haar_random(3, 1)), NoiseModel(1e4), 2).to_dict()
OUTCOME_PAYLOADS = [_COUNTS, exact_outcomes(haar_random(3, 1)).to_dict()]
_OUTCOME_PATHS = st.one_of(
    st.just(()),
    st.tuples(st.sampled_from(sorted(_COUNTS))),
    st.tuples(st.just("populations"), st.integers(0, 2)),
    st.tuples(st.just("interference"), st.integers(0, 1)),
    st.tuples(st.just("interference"), st.integers(0, 1), st.integers(0, 2)),
)


@settings(max_examples=150)
@given(payload=st.sampled_from(OUTCOME_PAYLOADS), path=_OUTCOME_PATHS,
       value=st.sampled_from(JUNK + [DELETED]))
def test_a_malformed_outcome_file_exits_with_a_code(payload, path, value):
    with tempfile.TemporaryDirectory(prefix="psitomo-fuzz-") as tmp:
        outcomes = Path(tmp) / "outcomes.json"
        outcomes.write_text(json.dumps(_junked(payload, path, value)))
        out = Path(tmp) / "out"
        _exit_code_and_finite_report(
            ["reconstruct", "--outcomes", str(outcomes), "--out-dir", str(out)],
            out / "report.json")


SWEEP_CONFIG = json.loads(json.dumps({
    "dim": 3, "trials": 4, "source": "haar", "pipeline": "frames", "reference_mode": "fixed",
    "noise": asdict(NoiseModel.bench_defaults(1e3)), "optical": asdict(OpticalConfig.for_dim(3)),
}))
_SWEEP_PATHS = st.one_of(
    st.just(()),
    st.tuples(st.sampled_from(sorted(SWEEP_CONFIG) + ["unknown"])),
    st.tuples(st.just("noise"), st.sampled_from(sorted(SWEEP_CONFIG["noise"]) + ["unknown"])),
    st.tuples(st.just("optical"), st.sampled_from(sorted(SWEEP_CONFIG["optical"]))),
    st.tuples(st.just("optical"), st.just("image_dims"), st.integers(0, 1)),
    st.tuples(st.just("optical"), st.just("roi_layout"), st.integers(0, 2), st.integers(0, 3)),
    st.tuples(st.just("optical"), st.just("ref_envelope"), st.integers(0, 2)),
)


@pytest.fixture(scope="module")
def canned_stats():
    """A real batch's statistics, which the stubbed run_batch returns for any valid spec."""
    return run_batch(ExperimentSpec(2, StateSource.haar(2), 0))


@settings(max_examples=150)
@given(path=_SWEEP_PATHS, value=st.sampled_from(JUNK + [DELETED]))
def test_a_malformed_sweep_config_exits_with_a_code(canned_stats, path, value):
    def validated(spec, workers=1):
        assert isinstance(spec, ExperimentSpec)
        return canned_stats

    with tempfile.TemporaryDirectory(prefix="psitomo-fuzz-") as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(_junked(SWEEP_CONFIG, path, value)))
        out = Path(tmp) / "out"
        with mock.patch.object(cli, "run_batch", validated):
            _exit_code_and_finite_report(
                ["sweep", "--config", str(config), "--seed", "1", "--out-dir", str(out)],
                out / "summary.json")
