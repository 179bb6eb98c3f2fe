"""The files of a CLI acquisition, byte for byte, and the parser that main reuses.

``simulate`` followed by ``reconstruct --frames-dir`` writes the PGM frames,
their sidecars, the true state and the report; the digests below pin every
byte of three such directories.  main parses every call with one parser per
process, so one call must leave nothing behind for the next.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import psitomo
from psitomo import cli, read_pgm
from psitomo.cli import EXIT_OK, build_parser, main
from psitomo.imaging import DISPLAY_PHASE_SD

_BENCH_NOISE = ["--photons", "1e5", "--jitter", "0.1", "--inhom", repr(DISPLAY_PHASE_SD)]

# SHA-256 over the sorted (file name, bytes) pairs of each acquisition directory.
_ACQUISITIONS = [
    ("d3-calibration-dark",
     ["--dim", "3", "--seed", "11", "--calibration", "--dark", "0.5", "--photons", "1e4"],
     "e6435d2e7b6370c5524f21b443d998ad55e3937e232bfe2927954ac7913bcc7a"),
    ("d5-extra-slit-preview",
     ["--dim", "5", "--seed", "12", "--extra-slit", "--preview", "--photons", "1e4"],
     "6d80432bb50208527b9eed87bdf5dc1e856dd26ae04477ac41f770f8d06b93a6"),
    ("d14-calibration-bench",
     ["--dim", "14", "--seed", "13", "--calibration", *_BENCH_NOISE],
     "f72cef2fe40ed48ea5f505742f1156f29a193146015b60d6f9ef30eb16c5b6d1"),
]


def directory_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        blob = path.read_bytes()
        h.update(f"{path.name}\0{len(blob)}\0".encode())
        h.update(blob)
    return h.hexdigest()


def acquire(directory: Path, flags) -> None:
    assert main(["simulate", *flags, "--out-dir", str(directory)]) == EXIT_OK
    assert main(["reconstruct", "--frames-dir", str(directory), "--out-dir", str(directory)]) \
        == EXIT_OK


@pytest.mark.parametrize("flags, digest", [a[1:] for a in _ACQUISITIONS],
                         ids=[a[0] for a in _ACQUISITIONS])
def test_acquisition_files_match_their_digest(tmp_path, flags, digest):
    acquire(tmp_path, flags)
    assert directory_digest(tmp_path) == digest


def test_a_dark_run_leaves_no_dark_counts_in_the_next_run(tmp_path):
    plain = ["simulate", "--dim", "4", "--seed", "9", "--photons", "1e4"]
    assert main(["simulate", "--dim", "4", "--seed", "9", "--photons", "1e4", "--calibration",
                 "--dark", "0.5", "--out-dir", str(tmp_path / "dark")]) == EXIT_OK
    assert main([*plain, "--out-dir", str(tmp_path / "after")]) == EXIT_OK
    env = {**os.environ, "PYTHONPATH": str(Path(psitomo.__file__).parents[1])}
    subprocess.run([sys.executable, "-m", "psitomo.cli", *plain, "--out-dir",
                    str(tmp_path / "fresh")], check=True, env=env, capture_output=True)
    after = sorted(p.name for p in (tmp_path / "after").iterdir())
    assert after == sorted(p.name for p in (tmp_path / "fresh").iterdir())
    assert [name for name in after if name.endswith(".pgm")] == [
        f"frame_{k}.pgm" for k in range(4)]
    for name in after:
        assert (tmp_path / "after" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
        if name.endswith(".pgm"):
            # Above the band, the margin left of the first slit has no light, so no counts.
            assert not read_pgm(tmp_path / "after" / name)[:56, :30].any(), name
    # The dark run did put counts there.
    assert read_pgm(tmp_path / "dark" / "frame_0.pgm")[:56, :30].any()


@pytest.mark.parametrize("argv", [["simulate", "--dim", "2"], ["no-such-command"], ["--help"]],
                         ids=["missing-seed", "unknown-command", "help"])
def test_main_parses_again_after_argparse_exits(tmp_path, capsys, argv):
    with pytest.raises(SystemExit):
        main(argv)
    acquire(tmp_path, ["--dim", "2", "--seed", "3"])
    assert len(list(tmp_path.glob("frame_*.pgm"))) == 4


def test_build_parser_returns_a_fresh_parser_and_main_reuses_one():
    assert build_parser() is not build_parser()
    assert cli._parser() is cli._parser()
    argv = ["simulate", "--dim", "3", "--seed", "1", "--dark", "0.5"]
    assert vars(build_parser().parse_args(argv)) == vars(cli._parser().parse_args(argv))
    # Flags given once are not defaults the next time.
    again = cli._parser().parse_args(["simulate", "--dim", "3", "--seed", "1"])
    assert again.dark_rate is None and again.func is cli.cmd_simulate
