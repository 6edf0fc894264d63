"""Span tracer for the traced benchmark run, installed from outside the package.

The tracer wraps public functions and methods of ``birwalk`` where the
calling modules look them up: a module-level function is replaced in
every ``birwalk`` module that holds it under some name, a method is
replaced on its class.  Nothing under ``src/`` is edited; ``uninstall``
puts every original back.

Spans are kept in memory as four parallel arrays (name id, parent index,
start, end).  Self time is derived only at the end: a span's duration
minus the summed durations of its direct children.  A few counters and
gauges ride along on the same wrappers (words certified, exact
adjudications, registry size, coordinate bits, dump bytes, strip
division hits).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "birwalk"


class Tracer:
    """In-memory span store with derived self times; single-threaded."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: List[int] = []
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self._ids[name] = nid
        return nid

    @property
    def current(self) -> Optional[str]:
        """Name of the innermost open span, if any."""
        if not self._open:
            return None
        return self.names[self.span_name[self._open[-1]]]

    def open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_end.append(0.0)
        self._open.append(idx)
        self.span_start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = self.clock()
        top = self._open.pop()
        if top != idx:
            raise RuntimeError("spans closed out of order")

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def gauge_max(self, key: str, value: float) -> None:
        if value > self.gauges.get(key, 0):
            self.gauges[key] = value

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds, self seconds."""
        if self._open:
            raise RuntimeError("summary taken with spans still open")
        n = len(self.span_name)
        child = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out


def span_wrapper(tracer: Tracer, fn, name: str,
                 before: Optional[Callable] = None,
                 after: Optional[Callable] = None):
    """Wrap fn in a span; before(args) runs first, after(result, args) on success."""
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = before(args) if before is not None else None
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(result, args, token)
        return result

    return wrapper


# -- what the traced run instruments ------------------------------------
# (module, attribute or Class.method, span name, home only).  "home only"
# patches the name in its own module and nowhere else, for a private
# helper whose other importers must not be counted.

SPANS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("poly", "HomPoly.__mul__", "poly.mul", False),
    ("poly", "poly_gcd", "poly.gcd", False),
    ("poly", "triple_gcd", "poly.triple_gcd", False),
    ("poly", "multiplicity_at", "poly.multiplicity", False),
    ("poly", "jacobian_det", "poly.jacobian", False),
    ("poly", "div_exact", "poly.div_exact", False),
    ("projective", "normalize_exact", "projective.normalize", False),
    ("maps", "compose_letter", "maps.compose_letter", False),
    ("maps", "substitute_map", "maps.substitute", False),
    ("picard", "LetterOperator.transport", "picard.transport", False),
    ("picard", "LetterOperator.pullback", "picard.pullback", False),
    ("picard", "PointRegistry.register", "picard.register", False),
    ("walk", "WalkState.step", "walk.step", False),
    ("walk", "run_walk", "walk.run", False),
    ("genericity", "check_genericity", "genericity", False),
    ("genericity", "_exact_word_components", "genericity.exact_word", True),
    ("curves", "StageStricts.strip", "curves.strip", False),
    ("curves", "pullback_curve", "curves.pullback", False),
    ("curves", "equidist_diagnostic", "curves.equidist", False),
    ("config", "generators_from_jsonable", "config.load", False),
    ("config", "dump_json", "config.dump", False),
    ("cli", "main", "cli.main", False),
)


def _hooks(tracer: Tracer, span: str):
    """(before, after) callbacks that feed the counters and gauges."""
    if span == "genericity":
        return None, lambda res, args, tok: tracer.count(
            "genericity.words", res.words_checked)
    if span == "picard.register":
        return None, lambda res, args, tok: tracer.gauge_max(
            "picard.registry_points", len(args[0]))
    if span == "projective.normalize":
        return None, lambda res, args, tok: tracer.gauge_max(
            "projective.coord_bits_max",
            max(abs(int(c)).bit_length() for c in res))
    if span == "config.dump":
        return None, lambda res, args, tok: tracer.count(
            "config.dump.bytes", os.path.getsize(args[0]))
    if span == "poly.div_exact":
        def before(args):
            # only divisions tried by strict-transform stripping count
            # toward the filter's hit ratio
            if tracer.current == "curves.strip":
                tracer.count("curves.strip.div_attempts")
                return True
            return False

        def after(res, args, in_strip):
            if in_strip:
                tracer.count("curves.strip.div_hits")
        return before, after
    return None, None


def install(tracer: Tracer):
    """Patch every instrumented target; returns the undo list."""
    modules = {name: mod for name, mod in list(sys.modules.items())
               if mod is not None
               and (name == PACKAGE or name.startswith(PACKAGE + "."))}
    undo = []
    for mod_name, attr, span, home_only in SPANS:
        home = modules[f"{PACKAGE}.{mod_name}"]
        before, after = _hooks(tracer, span)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth,
                    span_wrapper(tracer, original, span, before, after))
            undo.append((cls, meth, original))
            continue
        original = getattr(home, attr)
        wrapped = span_wrapper(tracer, original, span, before, after)
        targets = [home] if home_only else list(modules.values())
        for mod in targets:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, original))
    return undo


def uninstall(undo) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def layer_metrics(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """Flat per-layer metrics: name -> (value, unit), zeros for idle layers."""
    table = tracer.summary()
    out: Dict[str, Tuple[float, str]] = {}
    for _mod, _attr, span, _home in SPANS:
        row = table.get(span, {"calls": 0, "self_s": 0.0})
        out[f"{span}.calls"] = (row["calls"], "count")
        out[f"{span}.self_s"] = (row["self_s"], "s")
    c, g = tracer.counters, tracer.gauges
    out["genericity.words"] = (c.get("genericity.words", 0), "count")
    out["genericity.exact_words"] = (out.pop("genericity.exact_word.calls")[0],
                                     "count")
    out.pop("genericity.exact_word.self_s")
    out["picard.registry_points"] = (g.get("picard.registry_points", 0),
                                     "count")
    out["projective.coord_bits_max"] = (g.get("projective.coord_bits_max", 0),
                                        "bits")
    attempts = c.get("curves.strip.div_attempts", 0)
    out["curves.strip.div_attempts"] = (attempts, "count")
    out["curves.strip.div_hit_ratio"] = (
        c.get("curves.strip.div_hits", 0) / attempts if attempts else 0.0,
        "ratio")
    out["config.dump.bytes"] = (c.get("config.dump.bytes", 0), "bytes")
    out["trace.spans"] = (len(tracer.span_name), "count")
    return out
