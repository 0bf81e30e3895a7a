"""Span and counter recorder for the traced benchmark run.

The recorder wraps public functions of the package from outside: for each
layer ``<module>.<function>`` it replaces every module attribute of the
loaded package that is bound to that function, so the pipeline's own
lookups (``oracles.decompose`` inside ``census``, ``arrangements.strict_feasible``
inside ``enumerate_topes``, ``io.load_doc`` inside the CLI, ...) go through
the wrapper.  A layer whose function no longer exists is simply not
wrapped, and its metrics read zero.

Spans are held in memory and written once, at exit.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from dataclasses import dataclass

# Kinds whose value comes from the wrapped call's arguments or result.
_COUNT_FROM_RESULT = {
    "faces_out": lambda args, res: len(res),
    "topes_out": lambda args, res: len(res),
    "bytes": lambda args, res: os.path.getsize(args[0]),
    "nonzero_exits": lambda args, res: int(res != 0),
}
_HIT_FROM_RESULT = {
    "pass_ratio": lambda res: bool(res.passes),
    "feasible_ratio": lambda res: bool(res),
    "found_ratio": lambda res: res is not None,
}
# Position of the cycle argument for layers that report a cold first call per distinct cycle.
_CYCLE_ARG = {"decomposition.decompose": 1}

# Spans beyond this many are counted but not stored, to bound memory.
MAX_SPANS = 200_000

# The package whose functions are traced.
PACKAGE = "topecycles"


@dataclass
class LayerStat:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    out: int = 0
    hits: int = 0
    first_calls: int = 0
    first_busy: float = 0.0


class Tracer:
    def __init__(self, layer_kinds: dict[str, set[str]]):
        """layer_kinds maps each layer name to the metric kinds reported for it."""
        self.layer_kinds = layer_kinds
        self.stats = {layer: LayerStat() for layer in layer_kinds}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.item = 0
        self._stack: list[list] = []  # [child_time, span_id] per open span
        self._next_id = 0
        self._patched: list[tuple] = []
        self._seen_cycles: dict[str, dict[int, object]] = {}
        self._t_origin = time.perf_counter()

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer in self.layer_kinds:
            mod_name, _, fn_name = layer.rpartition(".")
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            fn = getattr(home, fn_name, None) if home is not None else None
            if not callable(fn):
                continue
            wrapper = self._wrap(layer, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._patched.append((m, attr, fn))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        self._patched.clear()

    def _wrap(self, layer: str, fn):
        stat = self.stats[layer]
        kinds = self.layer_kinds[layer]
        counts = [_COUNT_FROM_RESULT[k] for k in kinds if k in _COUNT_FROM_RESULT]
        hits = [_HIT_FROM_RESULT[k] for k in kinds if k in _HIT_FROM_RESULT]
        cycle_arg = _CYCLE_ARG.get(layer) if "first_call_s" in kinds else None
        seen = self._seen_cycles.setdefault(layer, {})
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            first = False
            if cycle_arg is not None:
                cycle = args[cycle_arg] if len(args) > cycle_arg else kwargs.get("cycle")
                # Identity first (cheap), then value: equal cycles share the program's caches.
                if id(cycle) not in seen:
                    first = not any(c == cycle for c in seen.values())
                    seen[id(cycle)] = cycle
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                if stack:
                    stack[-1][0] += d
                stat.calls += 1
                stat.busy += d
                stat.self_time += d - frame[0]
                if first:
                    stat.first_calls += 1
                    stat.first_busy += d
                if len(spans) < MAX_SPANS:
                    spans.append((span_id, parent, layer, t0 - self._t_origin, t1 - self._t_origin, self.item))
                else:
                    self.spans_dropped += 1
            # A result shape a later version changes must not crash the run.
            try:
                for count in counts:
                    stat.out += count(args, result)
                for hit in hits:
                    stat.hits += hit(result)
            except (AttributeError, TypeError, OSError, IndexError):
                pass
            return result

        return traced

    def metric(self, layer: str, kind: str, passes: int) -> float:
        """Per-pass value of one layer metric; ratios and first-call times are per call."""
        s = self.stats[layer]
        n = max(passes, 1)
        if kind == "calls":
            return s.calls / n
        if kind == "busy_s":
            return s.busy / n
        if kind == "self_s":
            return s.self_time / n
        if kind == "first_call_s":
            return s.first_busy / s.first_calls if s.first_calls else 0.0
        if kind in _COUNT_FROM_RESULT:
            return s.out / n
        if kind in _HIT_FROM_RESULT:
            return s.hits / s.calls if s.calls else 0.0
        raise ValueError(f"unknown layer metric kind {kind!r}")

    def write(self, path: str, meta: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {
            **meta,
            "span_fields": ["id", "parent", "layer", "start_s", "end_s", "item"],
            "spans_dropped": self.spans_dropped,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
