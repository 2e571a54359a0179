"""Per-layer tracing from outside the program.

A layer is a birat2 module.  ``Tracer.install`` wraps every public function
of each module (and ``UnitGroupMod.dlog``) and rebinds the name in every
birat2 module that imported it.  Each call records a span (item, name,
start, end, parent span) and counts in memory; self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

from birat2 import EffortBoundExceeded, TheoremViolation

MODULES = ("arith", "towerdec", "fields", "classify", "quadforms", "rayclass", "tower")

SPAN_CAP = 100_000  # spans kept for the side file; counts and times cover all


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # span name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()  # named event counts
        self.spans: list = []
        self.dropped = 0
        self.item = -1  # request id shared by the spans of one item
        self._stack: list[list] = []  # open spans: [child time, span index]
        self._ray_keys: set = set()

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording a span named ``name``; ``observe(args, kwargs,
        result)`` runs after each successful call."""
        module = name.split(".", 1)[0]
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, -1]
            if len(spans) < SPAN_CAP:
                frame[1] = len(spans)
                spans.append(None)
            else:
                self.dropped += 1
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except (EffortBoundExceeded, TheoremViolation) as exc:
                # count once, in the innermost traced module it left
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    kind = "effort_errors" if isinstance(exc, EffortBoundExceeded) else "theorem_violations"
                    self.counts[f"{module}.{kind}"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if frame[1] >= 0:
                    spans[frame[1]] = (self.item, name, start, end, parent)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _wrap_class_group(self, fn):
        real = self.wrap("quadforms.narrow_class_group.real", fn)
        imag = self.wrap("quadforms.narrow_class_group.imag", fn)

        @functools.wraps(fn)
        def narrow_class_group(D):
            sign = "real" if D > 0 else "imag"
            before = fn.cache_info().misses
            try:
                return (real if D > 0 else imag)(D)
            finally:
                self.counts[f"quadforms.narrow_class_group.{sign}.misses"] += (
                    fn.cache_info().misses - before
                )

        return narrow_class_group

    def _positive(self, name):
        def observe(args, kwargs, verdict):
            self.counts[f"{name}.positive"] += bool(verdict.positive)

        return observe

    def _ray_key(self, signature):
        def observe(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self._ray_keys.add(tuple(bound.arguments.values()))

        return observe

    def _wrapper_for(self, module: str, name: str, fn):
        full = f"{module}.{name}"
        if full == "quadforms.narrow_class_group":
            return self._wrap_class_group(fn)
        if module == "classify" and name.startswith("is_2"):
            return self.wrap(full, fn, self._positive(full))
        if full == "rayclass.ray_quotient_report":
            return self.wrap(full, fn, self._ray_key(inspect.signature(fn)))
        return self.wrap(full, fn)

    def install(self) -> None:
        """Wrap the public functions of every traced module, everywhere."""
        targets = [m for n, m in sys.modules.items() if n == "birat2" or n.startswith("birat2.")]
        for short in MODULES:
            mod = importlib.import_module(f"birat2.{short}")
            for name, obj in list(vars(mod).items()):
                if (
                    name.startswith("_")
                    or inspect.isclass(obj)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                traced = self._wrapper_for(short, name, obj)
                for target in targets:
                    for tname, tobj in list(vars(target).items()):
                        if tobj is obj:
                            setattr(target, tname, traced)
        units = importlib.import_module("birat2.rayclass").UnitGroupMod
        units.dlog = self.wrap("rayclass.UnitGroupMod.dlog", units.dlog)

    def module_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(MODULES, 0.0)
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer figure, by metric name."""
        m: dict[str, float] = {}
        for name, (calls, _, self_s) in self.stats.items():
            m[f"{name}.calls"] = calls
            m[f"{name}.self_s"] = self_s
        for module, self_s in self.module_self_s().items():
            m[f"{module}.self_s"] = self_s
            m[f"{module}.calls"] = sum(
                s[0] for n, s in self.stats.items() if n.split(".", 1)[0] == module
            )
            for kind in ("effort_errors", "theorem_violations"):
                m[f"{module}.{kind}"] = self.counts[f"{module}.{kind}"]
        for sign in ("real", "imag"):
            name = f"quadforms.narrow_class_group.{sign}"
            calls = m[f"{name}.calls"]
            misses = self.counts[f"{name}.misses"]
            m[f"{name}.misses"] = misses
            m[f"{name}.hit_ratio"] = 1 - misses / calls if calls else 0.0
        compose = m["quadforms.compose.calls"]
        m["quadforms.cycle_walks_per_compose"] = (
            m["quadforms.reduction_cycle.calls"] / compose if compose else 0.0
        )
        for name in [n for n in self.stats if n.startswith("classify.is_2")]:
            calls = m[f"{name}.calls"]
            m[f"{name}.positive_ratio"] = self.counts[f"{name}.positive"] / calls if calls else 0.0
        reports = m["rayclass.ray_quotient_report.calls"]
        m["rayclass.ray_quotient_report.distinct_ratio"] = (
            len(self._ray_keys) / reports if reports else 0.0
        )
        return m

    def write_spans(self, path) -> None:
        """Spans as JSON lines: [item, name, start_s, end_s, parent index]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
