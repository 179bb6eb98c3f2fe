"""16-bit binary PGM frames with JSON sidecars.

Each frame ``frame_<step>.pgm`` stores intensities scaled to the joint
16-bit range of the whole frame set (one common factor, so ratios between
frames survive); the sidecar ``frame_<step>.json`` records the step index,
the ROI layout, the seed, and that scale factor.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .imaging import Interferogram, OpticalConfig

PGM_MAXVAL = 65535

# Magic number, then width, height and maxval, each after whitespace that may
# hold "#" comments running to the end of their line; one whitespace byte
# ends the header.
_HEADER_RE = re.compile(rb"P5" + rb"(?:\s|#[^\r\n]*[\r\n])+(\d+)" * 3 + rb"\s")


def write_pgm(path, pixels: np.ndarray) -> None:
    """Write one grayscale image; values must already fit 0..65535."""
    arr = np.asarray(pixels)
    if arr.ndim != 2:
        raise ValueError("PGM image must be 2-D")
    if arr.min() < 0 or arr.max() > PGM_MAXVAL:
        raise ValueError(f"pixel values must lie in 0..{PGM_MAXVAL}")
    height, width = arr.shape
    header = f"P5\n{width} {height}\n{PGM_MAXVAL}\n".encode("ascii")
    body = arr.astype(">u2").tobytes()
    Path(path).write_bytes(header + body)


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (8- or 16-bit) into a float array."""
    blob = Path(path).read_bytes()
    match = _HEADER_RE.match(blob)
    if match is None:
        raise ValueError(f"{path} is not a binary (P5) PGM file")
    width, height, maxval = (int(g) for g in match.groups())
    if not 1 <= maxval <= PGM_MAXVAL:
        raise ValueError(f"{path} declares maxval {maxval}, outside 1..{PGM_MAXVAL}")
    dtype = ">u2" if maxval > 255 else "u1"
    data = np.frombuffer(blob[match.end() :], dtype=dtype, count=width * height)
    if data.size != width * height:
        raise ValueError(f"{path} is truncated")
    return data.reshape(height, width).astype(float)


def save_frames(directory, frames: list[Interferogram], seed: int) -> list[Path]:
    """Write a frame set plus sidecars; returns the PGM paths written.

    All frames share one scale factor chosen so the brightest pixel of the
    set maps to 65535; reconstruction only uses intensity ratios, so the
    factor is recorded for reference rather than needed.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    peak = max(float(f.pixels.max()) for f in frames)
    scale = PGM_MAXVAL / peak if peak > 0 else 1.0
    paths = []
    for f in frames:
        quantized = np.rint(f.pixels * scale).astype(np.uint16)
        pgm_path = directory / f"frame_{f.step_index}.pgm"
        write_pgm(pgm_path, quantized)
        sidecar = {
            "step": f.step_index,
            "roi": [list(r) for r in f.config.roi_layout],
            "seed": int(seed),
            "ref_index": f.config.ref_index,
            "n_slits": f.config.n_slits,
            "image_dims": list(f.config.image_dims),
            "scale": scale,
        }
        with open(directory / f"frame_{f.step_index}.json", "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(pgm_path)
    return paths


def load_frames(directory) -> list[Interferogram]:
    """Read every frame_<step>.pgm/.json pair found in a directory."""
    directory = Path(directory)
    pgms = sorted(directory.glob("frame_*.pgm"))
    if not pgms:
        raise FileNotFoundError(f"no frame_*.pgm files in {directory}")
    frames = []
    for pgm_path in pgms:
        sidecar_path = pgm_path.with_suffix(".json")
        if not sidecar_path.exists():
            raise FileNotFoundError(f"missing sidecar {sidecar_path}")
        with open(sidecar_path) as fh:
            meta = json.load(fh)
        config = _config_from_sidecar(meta)
        pixels = read_pgm(pgm_path)
        frames.append(Interferogram(int(meta["step"]), pixels, config))
    return frames


def _config_from_sidecar(meta: dict) -> OpticalConfig:
    n_slits = int(meta["n_slits"])
    return OpticalConfig(
        n_slits=n_slits,
        ref_index=int(meta["ref_index"]),
        image_dims=tuple(int(v) for v in meta["image_dims"]),
        roi_layout=tuple(tuple(int(v) for v in r) for r in meta["roi"]),
        ref_envelope=tuple(1.0 for _ in range(n_slits)),
        envelope_kind="flat",
    )
