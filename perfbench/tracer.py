"""In-memory span tracer that wraps the module attributes a program calls through.

Two kinds of wrapper are installed:

* a *span* wrapper records one span per call: name, layer, start, end, the
  span that caused it, its self time, and whatever ``on_exit`` adds;
* an *aggregate* wrapper records nothing per call.  It adds its call count,
  total time, self time and an optional weight to the nearest enclosing span,
  so that calls made ~10^5 times per span (sweeps, cost evaluations, Grover
  iterates) keep the trace small.

Self time is a call's duration minus the time of the wrapped calls it made.
Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class _Frame:
    __slots__ = ("child_s",)

    def __init__(self):
        self.child_s = 0.0


class Span:
    __slots__ = ("id", "name", "kind", "layer", "parent", "start", "end", "self_s",
                 "agg", "extra")

    def __init__(self, span_id, name, kind, layer, parent, start):
        self.id = span_id
        self.name = name
        self.kind = kind
        self.layer = layer
        self.parent = parent
        self.start = start
        self.end = start
        self.self_s = 0.0
        self.agg = {}
        self.extra = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        out = {"id": self.id, "name": self.name, "kind": self.kind, "layer": self.layer,
               "parent": self.parent, "start": self.start, "end": self.end,
               "self_s": self.self_s}
        if self.agg:
            out["agg"] = {k: dict(zip(("layer", "count", "total_s", "self_s", "weight"), v))
                          for k, v in self.agg.items()}
        if self.extra:
            out["extra"] = self.extra
        return out


class Tracer:
    """Collects spans from wrappers installed on module attributes."""

    def __init__(self, own_layer: str):
        self.own_layer = own_layer  # layer of the caller's own code
        self.spans: list[Span] = []
        self._frames: list[_Frame] = []
        self._open: list[Span] = []
        self._plan: list[tuple] = []

    # -- what to wrap -------------------------------------------------------

    def span(self, owner, attr: str, kind: str, layer: str, on_exit=None):
        """Record one span per call of ``owner.attr`` (module or dict)."""
        self._plan.append((owner, attr, kind, layer, on_exit, None))

    def aggregate(self, owner, attr: str, kind: str, layer: str, weigh=None):
        """Fold calls of ``owner.attr`` into the enclosing span's totals."""
        self._plan.append((owner, attr, kind, layer, None, weigh or (lambda args: 0)))

    # -- installing ---------------------------------------------------------

    @contextmanager
    def installed(self):
        """Swap every planned attribute for its wrapper; restore on exit."""
        saved = []
        try:
            for owner, attr, kind, layer, on_exit, weigh in self._plan:
                original = _get(owner, attr)
                if weigh is None:
                    name = f"{_owner_name(owner, layer)}.{attr}"
                    wrapper = self._span_wrapper(original, name, kind, layer, on_exit)
                else:
                    wrapper = self._agg_wrapper(original, kind, layer, weigh)
                saved.append((owner, attr, original))
                _set(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                _set(owner, attr, original)

    @contextmanager
    def region(self, name: str, kind: str):
        """Open a span around a block of the caller's own code."""
        span, frame = self._enter(name, kind, self.own_layer)
        ok = False
        try:
            yield span
            ok = True
        finally:
            self._exit(span, frame, ok)

    def _enter(self, name, kind, layer):
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, kind, layer, parent, perf_counter())
        self.spans.append(span)
        frame = _Frame()
        self._frames.append(frame)
        self._open.append(span)
        return span, frame

    def _exit(self, span, frame, ok):
        span.end = perf_counter()
        self._open.pop()
        self._frames.pop()
        span.self_s = span.duration - frame.child_s
        if self._frames:
            self._frames[-1].child_s += span.duration
        if not ok:
            span.extra["error"] = True

    def _span_wrapper(self, fn, name, kind, layer, on_exit):
        tracer = self

        def wrapper(*args, **kwargs):
            span, frame = tracer._enter(name, kind, layer)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                tracer._exit(span, frame, ok)
            if on_exit is not None:
                on_exit(span, args, result)
            return result

        return wrapper

    def _agg_wrapper(self, fn, kind, layer, weigh):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = _Frame()
            tracer._frames.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._frames.pop()
                if tracer._frames:
                    tracer._frames[-1].child_s += dt
                owner = tracer._open[-1] if tracer._open else tracer._orphan()
                entry = owner.agg.get(kind)
                if entry is None:
                    entry = owner.agg[kind] = [layer, 0, 0.0, 0.0, 0]
                entry[1] += 1
                entry[2] += dt
                entry[3] += dt - frame.child_s
                entry[4] += weigh(args)

        return wrapper

    def _orphan(self) -> Span:
        """Span that collects aggregated calls made outside every span."""
        for span in self.spans:
            if span.kind == "orphan":
                return span
        span = Span(len(self.spans), "orphan", "orphan", self.own_layer, None, perf_counter())
        self.spans.append(span)
        return span

    # -- output -------------------------------------------------------------

    def dump(self, path: Path, meta: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"meta": meta, "spans": [s.as_dict() for s in self.spans]}
        path.write_text(json.dumps(payload, separators=(",", ":")))


def _owner_name(owner, layer: str) -> str:
    """Short module name of a wrapped binding; a dict's entries take the layer's."""
    return layer if isinstance(owner, dict) else owner.__name__.rsplit(".", 1)[-1]


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)
