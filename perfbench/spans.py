"""Span recording around linresp's public functions, from outside the package.

``install`` rebinds each traced function in every linresp module that holds
it (``forward_response`` lives in ``response``, ``control``, ``cli`` and the
package) and replaces the traced ``CircleMap`` methods on the class;
``uninstall`` puts the originals back, so traced and untraced calls can
alternate in one process.  Spans stay in memory until the caller writes them.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

import numpy as np

TRACED = (
    "fourier.horner_values", "fourier.dft", "fourier.idft",
    "maps.CircleMap.invert_lift", "maps.CircleMap.preimages",
    "transfer.galerkin_matrix", "transfer.invariant_density",
    "transfer.solve_zero_mean", "transfer.apply_transfer",
    "transfer.apply_transfer_pointwise", "transfer.fixed_point_residual",
    "response.derivative_operator", "response.forward_response",
    "control.step1_g", "control.step2_epsilon", "control.constraint_matrix",
    "control.minimal_norm_control", "control.solve_control",
    "control.minimal_norm_truncation_report",
    "verify.ulam_build", "verify.fd_response",
    "cli.main",
)
# Dense quadrature assembly: counted (rows * cols * Q) into every open span,
# without a span of its own.
ASSEMBLY = "transfer._galerkin_entries"
SIGNIFICANT = 1e-16


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory; ``run`` tags the workload operation in progress."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._open: list[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.run)
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def count_open(self, key: str, amount: float) -> None:
        for span in self._open:
            span.counts[key] = span.counts.get(key, 0) + amount


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _horner_counts(args, kwargs) -> dict:
    coeffs = np.asarray(_arg(args, kwargs, 0, "coeffs"))
    x = np.asarray(_arg(args, kwargs, 1, "x"))
    mags = np.abs(coeffs)
    significant = int(np.count_nonzero(mags > SIGNIFICANT * mags.max())) if mags.size else 0
    return {"point_modes": x.size * coeffs.size, "significant_point_modes": x.size * significant}


def _invert_counts(args, kwargs) -> dict:
    return {"points": int(np.size(_arg(args, kwargs, 1, "targets")))}


COUNTERS = {"fourier.horner_values": _horner_counts,
            "maps.CircleMap.invert_lift": _invert_counts}


def _span_wrapper(recorder: Recorder, name: str, fn):
    counter = COUNTERS.get(name)

    def traced(*args, **kwargs):
        span = recorder.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(span)
            if counter is not None:
                span.counts.update(counter(args, kwargs))

    return traced


def _assembly_wrapper(recorder: Recorder, fn):
    def counted(*args, **kwargs):
        rows = 2 * _arg(args, kwargs, 1, "row_order") + 1
        cols = 2 * _arg(args, kwargs, 2, "col_order") + 1
        recorder.count_open("ops", rows * cols * _arg(args, kwargs, 3, "quad_size"))
        return fn(*args, **kwargs)

    return counted


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "linresp" or n.startswith("linresp."))]


def install(recorder: Recorder) -> list:
    """Wrap every traced function; returns the undo list for ``uninstall``.

    A name the package no longer has is skipped and reports zero calls.
    """
    modules = _package_modules()
    undo = []
    for name in TRACED + (ASSEMBLY,):
        module_name, *attrs = name.split(".")
        owner = sys.modules.get(f"linresp.{module_name}")
        if len(attrs) == 2:  # a CircleMap method
            cls = getattr(owner, attrs[0], None)
            original = vars(cls).get(attrs[1]) if cls is not None else None
            if original is not None:
                setattr(cls, attrs[1], _span_wrapper(recorder, name, original))
                undo.append((cls, attrs[1], original))
            continue
        original = getattr(owner, attrs[0], None)
        if original is None:
            continue
        if name == ASSEMBLY:
            wrapper = _assembly_wrapper(recorder, original)
        else:
            wrapper = _span_wrapper(recorder, name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))
    return undo


def uninstall(undo: list) -> None:
    for target, attr, original in reversed(undo):
        setattr(target, attr, original)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {s.id: s.duration - _covered(children.get(s.id, []), s.start, s.end)
            for s in spans}


def untraced_remainder(spans: list[Span], start: float, end: float) -> float:
    """Time in [start, end] that no root span covers."""
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    return (end - start) - _covered(roots, start, end)


def aggregate(spans: list[Span]) -> dict[str, dict]:
    """Per traced name: calls, inclusive seconds, self seconds and summed counts.

    Inclusive time counts only the outermost span of a name, so a function
    that reaches itself through other traced calls is not counted twice.
    """
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    out: dict[str, dict] = {}
    for span in spans:
        entry = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}})
        entry["calls"] += 1
        entry["self_s"] += selfs[span.id]
        parent = span.parent
        while parent is not None and by_id[parent].name != span.name:
            parent = by_id[parent].parent
        if parent is None:
            entry["s"] += span.duration
        for key, value in span.counts.items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return out


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds from ``python -X importtime -c "import linresp"`` stderr.

    total: cumulative time of ``linresp``; numpy and scipy: cumulative time of
    their outermost entries; linresp_self: self time of linresp's own modules.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(fields[0]), int(fields[1])
        except ValueError:  # the header line
            continue
        raw = fields[2]
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        entries.append((depth, raw.strip(), self_us, cumulative_us))
    result = {"total_s": 0.0, "numpy_s": 0.0, "scipy_s": 0.0, "linresp_self_s": 0.0}
    # Children precede their parent and sit one level deeper.  Walking from
    # the end, a numpy or scipy entry counts when no ancestor is numpy or
    # scipy, so numpy modules that scipy pulls in count once, as scipy's.
    ancestors: list[tuple[int, str]] = []
    for depth, name, self_us, cumulative_us in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        top = name.split(".")[0]
        if top in ("numpy", "scipy") and all(
                a.split(".")[0] not in ("numpy", "scipy") for _, a in ancestors):
            result[f"{top}_s"] += cumulative_us * 1e-6
        if top == "linresp":
            result["linresp_self_s"] += self_us * 1e-6
            if name == "linresp":
                result["total_s"] = cumulative_us * 1e-6
        ancestors.append((depth, name))
    return result
