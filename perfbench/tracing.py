"""Spans around calls into nvmag's public functions, for the traced run.

:meth:`Tracer.install` replaces each public name in :data:`TARGETS` with a
wrapper that records a span (name, start, end, parent span, thread id, op
id) and hands back the wrapped function's own result, untouched.  Spans
stay in memory until the run ends.  A worker thread's spans take the
innermost open span of the installing thread as parent, so the calls that
``nvmag sweep`` hands to its thread pool nest under ``cli.main``.

Span names are ``<module>.<qualified name>`` of the function that runs, so
a module's own name and the copy ``nvmag.cli`` bound at import share one.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict

from nvmag import bath, cli, decoherence, magnetometry, sensitivity, timescales

# (owner, attribute): every public name the benchmark or ``nvmag sweep``
# calls into.  The last six are the copies ``nvmag.cli`` binds at import.
TARGETS = (
    (bath, "generate_lattice_sites"),
    (bath, "sample_bath"),
    (decoherence, "echo_coherence_trace"),
    (decoherence, "ensemble_average"),
    (decoherence.CoherenceTrace, "load_csv"),
    (decoherence.CoherenceTrace, "save_csv"),
    (timescales, "extract_timescales"),
    (timescales, "fit_power_law"),
    (magnetometry, "measurements_to_components"),
    (magnetometry, "reconstruct_field"),
    (magnetometry, "resolve_alignment"),
    (sensitivity, "build_report"),
    (cli, "main"),
    (cli, "generate_lattice_sites"),
    (cli, "sample_bath"),
    (cli, "echo_coherence_trace"),
    (cli, "ensemble_average"),
    (cli, "extract_timescales"),
    (cli, "fit_power_law"),
)


class TracingError(RuntimeError):
    """A wrapped public name no longer exists."""


def _count_bath(args, kwargs, result) -> dict:
    return {"spins": len(result), "pairs": len(result.pair_couplings)}


def _count_trace(args, kwargs, result) -> dict:
    spins, _, schedule = args[:3]
    # CoherenceTrace warns "coherence magnitudes exceed 1" on this condition.
    over = bool(result.values.size and abs(result.values).max() > 1.0 + 1e-9)
    return {
        "pairs": len(spins.pair_couplings), "points": len(schedule.t_grid),
        "over_unity": over, "call": (args, kwargs),
    }


def _count_extract(args, kwargs, result) -> dict:
    return {"flagged": bool(result.flags)}


def _count_resolve(args, kwargs, result) -> dict:
    return {"resolved": bool(result.resolved)}


NOTES = {
    "bath.sample_bath": _count_bath,
    "decoherence.echo_coherence_trace": _count_trace,
    "timescales.extract_timescales": _count_extract,
    "magnetometry.resolve_alignment": _count_resolve,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op = None  # id of the op under way, stamped on every span
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: list[tuple] = []
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, fn, name: str):
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None
            )
            with self._lock:
                span_id = next(self._ids)
            record = {
                "id": span_id, "name": name, "parent": parent,
                "thread": threading.get_ident(), "op": self.op,
            }
            stack.append(span_id)
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                stack.pop()
            if note is not None:
                record.update(note(args, kwargs, result))
            with self._lock:
                self.spans.append(record)
            return result

        return traced

    def install(self) -> None:
        self._main_stack = self._stack()
        for owner, attr in TARGETS:
            raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if raw is None:
                raise TracingError(
                    f"{owner.__name__}.{attr} no longer exists; update perfbench/tracing.py"
                )
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            name = f"{fn.__module__.removeprefix('nvmag.')}.{fn.__qualname__}"
            traced = self._wrap(fn, name)
            setattr(owner, attr, classmethod(traced) if isinstance(raw, classmethod) else traced)
            self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    out = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for child in sorted(children[span["id"]], key=lambda c: c["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span["id"]] = span["end"] - span["start"] - covered
    return out
