"""Span tracing of psitomo's layers from outside the package.

A layer is one module of ``src/psitomo``.  ``Tracer.install`` wraps every
public function of each layer module, plus ``__init__``, public methods and
classmethods of each public class defined there, and
``numpy.random.default_rng``.  Modules import names directly
(``from .imaging import render_frames``), so each wrapper also replaces every
``psitomo.*`` module attribute that refers to the original object: a wrapper
must sit where the caller looks the name up.  ``numpy.random.SeedSequence`` is
never patched, because ``imaging._render`` uses it in an ``isinstance`` check.

Spans (id, parent, name, start, end, pass, trial id, extras) stay in memory
until the benchmark writes them out.  A span opened on a worker thread with
an empty stack takes the main thread's innermost open span as its parent, so
``run_batch`` owns the trials its thread pool runs.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
from pathlib import Path
from time import perf_counter_ns

import numpy as np

RNG_SPAN = "rng.default_rng"


def _frames_extras(args, kwargs, result):
    frames = result if isinstance(result, list) else [result]
    pixels = sum(int(np.asarray(f.pixels).size) for f in frames)
    roi = sum(w * h for f in frames for _, _, w, h in f.config.roi_layout)
    return {"pixels": pixels, "roi_pixels": roi}


def _saved_bytes(args, kwargs, result):
    size = sum(p.stat().st_size + p.with_suffix(".json").stat().st_size for p in result)
    return {"bytes": size}


def _loaded_bytes(args, kwargs, result):
    directory = Path(args[0] if args else kwargs["directory"])
    size = sum(p.stat().st_size for p in directory.glob("frame_*.*"))
    return {"bytes": size}


def _written_file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _svg_bytes(args, kwargs, result):
    return {"bytes": len(result.encode())}


def _calibration_evals(args, kwargs, result):
    return {"evals": int(result.evaluations)}


#: Per-call numbers read from a wrapped call's arguments and result, after
#: its span has closed.
EXTRAS = {
    "imaging.render_frames": _frames_extras,
    "imaging.render_blocked_frame": _frames_extras,
    "pgmio.save_frames": _saved_bytes,
    "pgmio.load_frames": _loaded_bytes,
    "harness.write_trials_csv": _written_file_bytes,
    "harness.write_summary_json": _written_file_bytes,
    "figures.bloch_figure": _svg_bytes,
    "figures.histogram_figure": _svg_bytes,
    "harness.calibrate_noise": _calibration_evals,
}


class Tracer:
    """Installs span-recording wrappers and computes per-layer figures."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.pass_index = -1
        self.wrapped: set[str] = set()

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        extras = EXTRAS.get(name)
        trial_arg = None
        if name == "harness.run_trial":
            trial_arg = list(inspect.signature(fn).parameters).index("index")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._main_stack:
                return fn(*args, **kwargs)  # only passes are traced
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else 0
            sid = next(tracer._ids)
            saved_trial = getattr(tracer._local, "trial", None)
            if trial_arg is not None:
                tracer._local.trial = (
                    args[trial_arg] if len(args) > trial_arg else kwargs.get("index", 0)
                )
            stack.append(sid)
            result = failed = object()
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                trial = getattr(tracer._local, "trial", None)
                tracer._local.trial = saved_trial
                extra = None
                if extras is not None and result is not failed:
                    extra = extras(args, kwargs, result)
                tracer.spans.append(
                    (sid, parent, name_id, t0, t1, tracer.pass_index, trial, extra)
                )

        return wrapper

    def open_pass(self, index: int) -> tuple[int, int]:
        """Start the root span of one benchmark pass (main thread only)."""
        self.pass_index = index
        sid = next(self._ids)
        self._main_stack.append(sid)
        return sid, perf_counter_ns()

    def close_pass(self, token: tuple[int, int]) -> None:
        sid, t0 = token
        t1 = perf_counter_ns()
        self._main_stack.pop()
        self.spans.append((sid, 0, self._name_id("bench.pass"), t0, t1, self.pass_index, None, None))

    # -- installing ------------------------------------------------------

    def _targets(self, modules: dict[str, object]):
        """(qualified name, owner, attribute, original) for everything to wrap."""
        for layer, mod in modules.items():
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{layer}.{attr}", mod, attr, obj
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for member, val in sorted(vars(obj).items()):
                        if member == "__init__" or not member.startswith("_"):
                            if inspect.isfunction(val) or isinstance(val, classmethod):
                                yield f"{layer}.{attr}.{member}", obj, member, val

    def install(self, modules: dict[str, object]) -> None:
        """Wrap the layers given as {layer name: module}."""
        replaced = {}
        for name, owner, attr, original in self._targets(modules):
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            replaced[id(original)] = wrapped
            self.wrapped.add(name)
        package = [m for n, m in sys.modules.items() if n == "psitomo" or n.startswith("psitomo.")]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and obj is not replaced[id(obj)]:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, replaced[id(obj)])
        rng = np.random.default_rng
        self._patches.append((np.random, "default_rng", rng))
        np.random.default_rng = self._wrap(RNG_SPAN, rng)
        self.wrapped.add(RNG_SPAN)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, self time in ns, and summed extras.

        Self time is a span's duration minus the union of its children's
        intervals, so children running in parallel are not subtracted twice.
        """
        children: dict[int, list[tuple[int, int]]] = {}
        for sid, parent, _, t0, t1, *_ in self.spans:
            children.setdefault(parent, []).append((t0, t1))
        out: dict[str, dict] = {}
        for sid, parent, name_id, t0, t1, _, _, extra in self.spans:
            covered = 0
            end = t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            row = out.setdefault(self.names[name_id], {"calls": 0, "self_ns": 0})
            row["calls"] += 1
            row["self_ns"] += (t1 - t0) - covered
            for key, val in (extra or {}).items():
                row[key] = row.get(key, 0) + val
        return out

    def dump(self, path: Path, header: dict) -> None:
        """Write the header, then one span per line as a JSON array."""
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, names=self.names)) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
