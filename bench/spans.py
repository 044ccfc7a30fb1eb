"""Spans around calls into arboreal's public functions, taken from outside.

`Tracer.install` replaces every public function of the traced modules, in
every module namespace of the package that binds it, with a wrapper that
records a span (name, start, end, parent, operation id).  The CLI's
`json.dumps` calls are recorded as `cli.emit`.  Spans are kept in memory up
to a cap and written out when the run ends; per-name counters are kept for
every call, so the per-layer metrics do not depend on the cap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import types
from typing import Dict, List

LAYERS = ("cli", "galois", "dynamics", "squares", "primes", "f2", "polys", "treegroup", "indexsets", "curves")

# Set on every enclosing frame when a call inside it ran out of factoring
# budget, or when coprime_base ran inside it.
_EXHAUSTED = 1
_COPRIME = 2

# (metric, unit, better); `calls`, `s`, `self_s` and the extra counters are
# per operation, so runs of different lengths compare.
PER_LAYER = [
    ("cli.rationals_of_height.calls", "count/op", "lower"),
    ("cli.rationals_of_height.s", "s/op", "lower"),
    ("cli.emit.s", "s/op", "lower"),
    ("cli.run_survey.self_s", "s/op", "lower"),
    ("cli.classify_pair.self_s", "s/op", "lower"),
    ("galois.classify_abelian.calls", "count/op", "lower"),
    ("galois.classify_abelian.self_s", "s/op", "lower"),
    ("galois.nonabelian_prime_search.s", "s/op", "lower"),
    ("galois.level2_data.s", "s/op", "lower"),
    ("galois.ab_dimension.s", "s/op", "lower"),
    ("galois.good_primes.s", "s/op", "lower"),
    ("galois.frobenius_sample.s", "s/op", "lower"),
    ("dynamics.adjusted_orbit.s", "s/op", "lower"),
    ("dynamics.in_post_critical_orbit.calls", "count/op", "lower"),
    ("dynamics.in_post_critical_orbit.s", "s/op", "lower"),
    ("dynamics.is_pcf.s", "s/op", "lower"),
    ("squares.sqrt_exact.calls", "count/op", "lower"),
    ("squares.coprime_base.calls", "count/op", "lower"),
    ("squares.coprime_base.s", "s/op", "lower"),
    ("squares.coprime_base.basis_size", "count/op", "lower"),
    ("squares.span_dimension.calls", "count/op", "lower"),
    ("squares.span_dimension.fallbacks", "count/op", "lower"),
    ("squares.square_class.calls", "count/op", "lower"),
    ("squares.square_class.s", "s/op", "lower"),
    ("squares.squarefree_part.s", "s/op", "lower"),
    ("primes.factorize.calls", "count/op", "lower"),
    ("primes.factorize.s", "s/op", "lower"),
    ("primes.factorize.exhausted", "count/op", "lower"),
    ("primes.factorize.wasted_s", "s/op", "lower"),
    ("primes.factorize.useful_ratio", "ratio", "higher"),
    ("f2.rank.calls", "count/op", "lower"),
    ("f2.rank.s", "s/op", "lower"),
    ("polys.quad_iterate.s", "s/op", "lower"),
    ("polys.mod_reduce.s", "s/op", "lower"),
    ("polys.factor_degrees.calls", "count/op", "lower"),
    ("polys.factor_degrees.s", "s/op", "lower"),
    ("treegroup.compose.calls", "count/op", "lower"),
    ("treegroup.compose.s", "s/op", "lower"),
    ("treegroup.verify_noncommutation.self_s", "s/op", "lower"),
    ("indexsets.bertrand_family.s", "s/op", "lower"),
    ("indexsets.m_coprime_witness.s", "s/op", "lower"),
    ("curves.rhs_eval.calls", "count/op", "lower"),
    ("curves.naive_point_search.self_s", "s/op", "lower"),
]


class _Stat:
    __slots__ = ("calls", "s", "self_s", "active", "exhausted", "wasted_s", "fallbacks", "basis_size")

    def __init__(self) -> None:
        self.calls = 0
        self.s = 0.0  # inclusive, counted once for recursive calls
        self.self_s = 0.0
        self.active = 0
        self.exhausted = 0
        self.wasted_s = 0.0
        self.fallbacks = 0
        self.basis_size = 0


class Tracer:
    def __init__(self, max_spans: int = 100_000) -> None:
        self.max_spans = max_spans
        self.spans: List[tuple] = []  # (id, name, start, end, parent, op, error)
        self.dropped = 0
        self.next_id = 0
        self.stats: Dict[str, _Stat] = {}
        # open frames: [span id, start, child seconds, flags, parent id]
        self.stack: List[list] = []
        self.op = 0

    # -- recording ---------------------------------------------------------

    def _open(self) -> list:
        parent = self.stack[-1][0] if self.stack else -1
        frame = [self.next_id, time.perf_counter(), 0.0, 0, parent]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, error: str) -> float:
        end = time.perf_counter()
        self.stack.pop()
        span_id, start, child, flags, parent = frame
        duration = end - start
        if self.stack:
            outer = self.stack[-1]
            outer[2] += duration
            outer[3] |= flags
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, name, start, end, parent, self.op, error))
        else:
            self.dropped += 1
        return duration

    def span(self, name: str, fn):
        """Wrap fn so that each call records a span named `name`."""
        stat = self.stats.setdefault(name, _Stat())
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open()
            stat.active += 1
            error = ""
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                stat.active -= 1
                duration = tracer._close(name, frame, error)
                stat.calls += 1
                stat.self_s += duration - frame[2]
                if not stat.active:
                    stat.s += duration
                tracer._observe(name, stat, frame, error, result, duration)

        return functools.wraps(fn)(traced)

    def _observe(self, name, stat, frame, error, result, duration) -> None:
        outer = self.stack[-1] if self.stack else None
        if name == "primes.factorize" and error == "BudgetExceeded":
            stat.exhausted += 1
            stat.wasted_s += duration
            if outer is not None:
                outer[3] |= _EXHAUSTED
        elif name == "squares.coprime_base":
            if result is not None:
                stat.basis_size += len(result[0])
            if outer is not None:
                outer[3] |= _COPRIME
        elif name == "squares.span_dimension":
            if frame[3] & _EXHAUSTED and frame[3] & _COPRIME:
                stat.fallbacks += 1

    @contextlib.contextmanager
    def operation(self, op_id: int, kind: str):
        """Root span of one benchmark operation; spans inside carry its id."""
        self.op = op_id
        frame = self._open()
        error = ""
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self._close("op." + kind, frame, error)

    # -- installation --------------------------------------------------------

    def install(self, package: types.ModuleType) -> None:
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for attr, value in vars(mod).items():
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ == mod.__name__
                ):
                    wrappers[id(value)] = self.span(f"{layer}.{attr}", value)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        cli = sys.modules[f"{package.__name__}.cli"]
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(json))
        proxy.dumps = self.span("cli.emit", json.dumps)
        cli.json = proxy

    # -- results -----------------------------------------------------------

    def metrics(self, ops: int) -> Dict[str, dict]:
        out = {}
        for metric, unit, _ in PER_LAYER:
            layer, func, field = metric.split(".")
            stat = self.stats.get(f"{layer}.{func}") or _Stat()
            if field == "useful_ratio":
                value = 1.0 if not stat.calls else (stat.calls - stat.exhausted) / stat.calls
            else:
                value = getattr(stat, field) / ops
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(meta, spans_kept=len(self.spans), spans_dropped=self.dropped)) + "\n")
            for span_id, name, start, end, parent, op, error in self.spans:
                record = {"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                if error:
                    record["error"] = error
                fh.write(json.dumps(record) + "\n")
