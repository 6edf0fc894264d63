"""Run configuration and document plumbing for reproducible experiments.

A run is a pure function of its configuration: generators come from a
seeded sampler or explicit matrices, per-trial walk seeds derive from the
config, and no document embeds wall-clock state.  All JSON is dumped
with sorted keys, so re-running a config must reproduce output files
byte for byte; that equality is itself one of the tests.

``dumps_json`` writes the bytes of ``json.dumps(obj, sort_keys=True,
indent=2)``.  The stdlib takes its pure-Python encoder whenever
``indent`` is set, so a container whose values are all plain ``str``,
``int``, ``float``, ``bool`` or ``None`` goes through the C encoder in
one call, with that depth's newline and indent as item separator, and
only nested containers are walked in Python, by ``json``'s rules.
"""

from __future__ import annotations

import json
import math
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Optional, Tuple

from .genericity import GenericityReport
from .maps import GeneratorData, generator_from_matrices, sample_generators
from .poly import format_poly

ARTIFACT_VERSION = 1
RNG_STAMP = "python-random-mt19937"


def stamp(doc_format: str) -> dict:
    return {"format": doc_format, "version": ARTIFACT_VERSION,
            "rng": RNG_STAMP}


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; every output is a function of these fields."""

    r: int = 2
    height: int = 5
    seed: int = 1
    matrices: Optional[Tuple[Tuple[tuple, tuple], ...]] = None
    mode: str = "exact"
    steps: int = 12
    trials: int = 1
    trial_seeds: Optional[Tuple[int, ...]] = None
    checkpoint_every: int = 8
    exact_len_cap: int = 16
    float_steps_cap: int = 5000
    degree_cap: int = 256
    max_len: int = 4
    epsilon: float = 1e-9
    retry_budget: int = 2000
    track_classes: bool = True
    curve: str = "x + y + z"
    out_dir: str = "runs"

    def __post_init__(self):
        if self.mode not in ("exact", "float"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.r < 1:
            raise ValueError("need at least one generator")
        if self.steps < 0 or self.trials < 0:
            raise ValueError("steps and trials must be nonnegative")
        if self.max_len < 0:
            raise ValueError("max_len must be nonnegative")
        if self.epsilon <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.trial_seeds is not None:
            object.__setattr__(self, "trial_seeds", tuple(self.trial_seeds))
            if len(self.trial_seeds) < self.trials:
                raise ValueError("fewer trial seeds than trials")
        if self.matrices is not None:
            canon = tuple(
                (tuple(tuple(int(v) for v in row) for row in a),
                 tuple(tuple(int(v) for v in row) for row in b))
                for a, b in self.matrices)
            object.__setattr__(self, "matrices", canon)

    def walk_seeds(self) -> Tuple[int, ...]:
        """Per-trial walk seeds: explicit list or derived from the base seed."""
        if self.trial_seeds is not None:
            return tuple(self.trial_seeds[: self.trials])
        return tuple(1000 * self.seed + i for i in range(self.trials))


def config_to_dict(config: RunConfig) -> dict:
    out = {}
    for f in fields(RunConfig):
        v = getattr(config, f.name)
        if f.name == "matrices" and v is not None:
            v = [[[list(row) for row in m] for m in pair] for pair in v]
        elif f.name == "trial_seeds" and v is not None:
            v = list(v)
        out[f.name] = v
    return out


def embedded_config(config: RunConfig) -> dict:
    """The config as output documents carry it: without ``out_dir``.

    Where a document is written is not part of the run, so the same run
    written to two directories gives the same bytes.
    """
    out = config_to_dict(config)
    del out["out_dir"]
    return out


def config_from_dict(data: dict) -> RunConfig:
    known = {f.name for f in fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    kwargs = dict(data)
    if kwargs.get("matrices") is not None:
        kwargs["matrices"] = tuple(
            (tuple(tuple(row) for row in a), tuple(tuple(row) for row in b))
            for a, b in kwargs["matrices"])
    if kwargs.get("trial_seeds") is not None:
        kwargs["trial_seeds"] = tuple(kwargs["trial_seeds"])
    return RunConfig(**kwargs)


def load_config(path, overrides: Optional[dict] = None) -> RunConfig:
    if path is None:
        config = RunConfig()
    else:
        with open(path) as fh:
            config = config_from_dict(json.load(fh))
    if overrides:
        config = replace(config, **overrides)
    return config


def build_generators(config: RunConfig) -> Tuple[GeneratorData, ...]:
    if config.matrices is not None:
        return tuple(generator_from_matrices(i, a, b)
                     for i, (a, b) in enumerate(config.matrices))
    return sample_generators(config.r, config.height,
                             random.Random(config.seed),
                             retry_budget=config.retry_budget)


# -- generator documents ------------------------------------------------


def generators_to_jsonable(gens: Tuple[GeneratorData, ...]) -> dict:
    doc = stamp("birwalk-generators")
    doc["generator_count"] = len(gens)
    doc["generators"] = [
        {
            "index": g.index,
            "a": [list(row) for row in g.a_rows],
            "b": [list(row) for row in g.b_rows],
            "components": [format_poly(p) for p in g.fwd.components],
            "inverse_components": [format_poly(p)
                                   for p in g.fwd.inverse_components],
            "base_points": [list(pt) for pt in g.base_pts],
            "inverse_base_points": [list(pt) for pt in g.inv_base_pts],
        }
        for g in gens
    ]
    return doc


def generators_from_jsonable(doc: dict) -> Tuple[GeneratorData, ...]:
    """Rebuild generators from matrices and verify every derived field."""
    if doc.get("format") != "birwalk-generators":
        raise ValueError(f"not a generator document: {doc.get('format')!r}")
    gens = []
    for i, entry in enumerate(doc["generators"]):
        if entry["index"] != i:
            raise ValueError(f"generator {i} has index {entry['index']}")
        g = generator_from_matrices(i, entry["a"], entry["b"])
        derived = {
            "components": [format_poly(p) for p in g.fwd.components],
            "inverse_components": [format_poly(p)
                                   for p in g.fwd.inverse_components],
            "base_points": [list(pt) for pt in g.base_pts],
            "inverse_base_points": [list(pt) for pt in g.inv_base_pts],
        }
        for key, want in derived.items():
            if entry.get(key) != want:
                raise ValueError(
                    f"generator {i} field {key!r} does not match its matrices")
        gens.append(g)
    return tuple(gens)


def certificate_to_jsonable(report: GenericityReport) -> dict:
    return {
        "max_len": report.max_len,
        "generator_count": report.generator_count,
        "words_checked": report.words_checked,
        "distinct_points_ok": report.distinct_points_ok,
        "ok": report.ok,
        "failures": [
            {
                "word": [list(letter) for letter in f.word],
                "expected_degree": f.expected_degree,
                "poly_degree": f.poly_degree,
                "class_degree": f.class_degree,
                "reason": f.reason,
            }
            for f in report.failures
        ],
    }


@contextmanager
def _any_int_digits():
    """Lift the interpreter's int/str digit limit for one document.

    Exact walk coordinates pass 4300 decimal digits (the default limit)
    after a dozen letters; the previous limit is restored on exit.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield  # interpreters without the limit
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


_INDENT = "  "
_FLAT_TYPES = frozenset((str, int, float, bool, type(None)))


def _atom(value) -> Optional[str]:
    """JSON text of a non-string scalar, as ``json`` writes it; else None."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    return None


def _indented(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, flat containers in C."""
    chunks = []
    flat = {}       # depth -> (C encoder, opening newline, closing newline)
    open_ids = set()  # nested containers being written, for cycles

    def flat_at(depth):
        # positional: markers, default, string encoder, indent, key and
        # item separators, sort_keys, skipkeys, allow_nan.  No markers: a
        # container of scalars cannot close a cycle.
        inner = "\n" + _INDENT * (depth + 1)
        encoder = c_make_encoder(None, None, encode_basestring_ascii, None,
                                 ": ", "," + inner, True, False, True)
        flat[depth] = (encoder, inner, "\n" + _INDENT * depth)
        return flat[depth]

    def write(obj, depth):
        if isinstance(obj, (list, tuple)):
            brackets, values = "[]", obj
        elif isinstance(obj, dict):
            brackets, values = "{}", obj.values()
        elif isinstance(obj, str):
            chunks.append(encode_basestring_ascii(obj))
            return
        else:
            text = _atom(obj)
            if text is None:
                raise TypeError(f"Object of type {obj.__class__.__name__} "
                                f"is not JSON serializable")
            chunks.append(text)
            return
        if not obj:
            chunks.append(brackets)
            return
        if _FLAT_TYPES.issuperset(map(type, values)):
            encoder, inner, outer = flat.get(depth) or flat_at(depth)
            text = "".join(encoder(obj, 0))
            chunks.extend((brackets[0], inner, text[1:-1], outer,
                           brackets[1]))
            return
        if id(obj) in open_ids:
            raise ValueError("Circular reference detected")
        open_ids.add(id(obj))
        inner = "\n" + _INDENT * (depth + 1)
        lead = brackets[0] + inner
        if brackets == "[]":
            for value in obj:
                chunks.append(lead)
                lead = "," + inner
                write(value, depth + 1)
        else:
            for key, value in sorted(obj.items()):
                if not isinstance(key, str):
                    text = _atom(key)
                    if text is None:
                        raise TypeError(
                            f"keys must be str, int, float, bool or None, "
                            f"not {key.__class__.__name__}")
                    key = text
                chunks.append(lead + encode_basestring_ascii(key) + ": ")
                lead = "," + inner
                write(value, depth + 1)
        chunks.append("\n" + _INDENT * depth + brackets[1])
        open_ids.remove(id(obj))

    try:
        write(obj, 0)
    finally:
        del write  # the closure refers to itself: free the chunk list now
    return "".join(chunks)


def dumps_json(obj) -> str:
    """The text of ``json.dumps(obj, sort_keys=True, indent=2)``."""
    with _any_int_digits():
        return _indented(obj)


def dump_json(path, obj) -> None:
    text = dumps_json(obj) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_json(path) -> dict:
    with open(path) as fh, _any_int_digits():
        return json.load(fh)
