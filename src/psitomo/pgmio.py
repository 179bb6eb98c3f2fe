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

from .errors import TomographyError
from .imaging import Interferogram, OpticalConfig
from .states import _json_int

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
    if not (arr.min() >= 0 and arr.max() <= PGM_MAXVAL):  # NaN fails too
        raise ValueError(f"pixel values must lie in 0..{PGM_MAXVAL}")
    height, width = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n{PGM_MAXVAL}\n".encode("ascii"))
        fh.write(arr.astype(">u2"))


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (8- or 16-bit) into a float array."""
    blob = Path(path).read_bytes()
    match = _HEADER_RE.match(blob)
    if match is None:
        raise ValueError(f"{path} is not a binary (P5) PGM file")
    width, height, maxval = (int(g) for g in match.groups())
    if not 1 <= maxval <= PGM_MAXVAL:
        raise ValueError(f"{path} declares maxval {maxval}, outside 1..{PGM_MAXVAL}")
    dtype = np.dtype(">u2" if maxval > 255 else "u1")
    if len(blob) - match.end() < width * height * dtype.itemsize:
        raise ValueError(f"{path} is truncated")
    data = np.frombuffer(blob[match.end() :], dtype=dtype, count=width * height)
    return data.reshape(height, width).astype(float)


def read_json(path, build=dict):
    """``build`` applied to the JSON object in ``path``.

    A file that holds no JSON object, or whose object lacks a key ``build``
    reads or holds a value ``build`` refuses, raises a ValueError naming it.
    """
    with open(path) as fh:
        try:
            payload = json.load(fh)
            if not isinstance(payload, dict):
                raise TypeError(f"holds a JSON {type(payload).__name__}, not an object")
            return build(payload)
        except KeyError as exc:
            raise ValueError(f"{path}: missing key {exc}") from None
        except (TypeError, ValueError, TomographyError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def write_json(path, payload) -> None:
    """Write ``payload`` as JSON with a two-space indent, sorted keys and a final newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def save_frames(directory, frames: list[Interferogram], seed: int) -> list[Path]:
    """Write a frame set plus sidecars; returns the PGM paths written.

    All frames share one scale factor chosen so the brightest pixel of the
    set maps to 65535; reconstruction only uses intensity ratios, so the
    factor is recorded for reference rather than needed.  A set with a
    pixel that scales outside 0..65535 (a negative one) raises ValueError
    before any file is written.
    """
    peak = max(float(f.pixels.max()) for f in frames)
    scale = PGM_MAXVAL / peak if peak > 0 else 1.0
    # Rounding and a positive scale keep order, so the set's least pixel decides.
    if not np.rint(min(float(f.pixels.min()) for f in frames) * scale) >= 0:  # NaN fails too
        raise ValueError(f"pixel values must lie in 0..{PGM_MAXVAL}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths, scaled = [], np.empty(0)
    for f in frames:
        if scaled.shape != f.pixels.shape:  # one buffer for every frame of a size
            scaled = np.empty(f.pixels.shape)
        pgm_path = directory / f"frame_{f.step_index}.pgm"
        write_pgm(pgm_path, np.rint(np.multiply(f.pixels, scale, out=scaled), out=scaled))
        write_json(directory / f"frame_{f.step_index}.json", {
            "step": f.step_index,
            "roi": [list(r) for r in f.config.roi_layout],
            "seed": int(seed),
            "ref_index": f.config.ref_index,
            "n_slits": f.config.n_slits,
            "image_dims": list(f.config.image_dims),
            "scale": scale,
        })
        paths.append(pgm_path)
    return paths


def load_frames(directory) -> list[Interferogram]:
    """Read every frame_<step>.pgm/.json pair found in a directory; a set whose
    sidecars disagree on seed or scale mixes two acquisitions and raises ValueError."""
    directory = Path(directory)
    pgms = sorted(directory.glob("frame_*.pgm"))
    if not pgms:
        raise FileNotFoundError(f"no frame_*.pgm files in {directory}")
    frames, acquisitions = [], []
    for pgm_path in pgms:
        sidecar_path = pgm_path.with_suffix(".json")
        if not sidecar_path.exists():
            raise FileNotFoundError(f"missing sidecar {sidecar_path}")
        pixels = read_pgm(pgm_path)
        # A sidecar records no envelope, and reconstruction reads none.  Its
        # path prefixes any step or image size the frame refuses.
        frame, acquisition = read_json(sidecar_path, lambda meta: (Interferogram(
            _json_int(meta["step"]), pixels, OpticalConfig.from_dict(
                {**meta, "roi_layout": meta["roi"], "envelope_kind": "flat"})),
            (meta.get("seed"), meta.get("scale"))))
        frames.append(frame)
        acquisitions.append(acquisition)
    if any(a != acquisitions[0] for a in acquisitions):
        raise ValueError(f"{directory} mixes frames of different acquisitions: their "
                         f"sidecars' (seed, scale) read {acquisitions}")
    return frames
