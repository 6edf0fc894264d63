"""Run configuration and document plumbing for reproducible experiments.

A run is a pure function of its configuration: generators come from a
seeded sampler or explicit matrices, per-trial walk seeds derive from the
config, and no document embeds wall-clock state.  Every document has
the text of ``json.dumps(obj, sort_keys=True, indent=2)``, so re-running
a config must reproduce output files byte for byte; that equality is
itself one of the tests.  ``dumps_json`` writes it without the stdlib's
pure-Python encoder, which ``indent`` selects: each container of plain
scalars is one C encoder call, and only nested containers are walked in
Python.
"""

from __future__ import annotations

import json
import random
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Optional, Tuple

from .genericity import GenericityReport
from .maps import GeneratorData, generator_from_matrices, sample_generators
from .poly import format_poly

ARTIFACT_VERSION = 1
# from 2 on, per-step rows are in the CSVs only; from 3 on, the retired
# float mode's tolerances and registry counters are gone
WALK_ARTIFACT_VERSION = 3
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
    steps: int = 12
    trials: int = 1
    trial_seeds: Optional[Tuple[int, ...]] = None
    checkpoint_every: int = 8
    degree_cap: int = 256
    max_len: int = 4
    retry_budget: int = 2000
    track_classes: bool = True
    curve: str = "x + y + z"
    out_dir: str = "runs"

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("need at least one generator")
        if self.height < 1:
            raise ValueError("height must be positive")
        if self.steps < 0 or self.trials < 0:
            raise ValueError("steps and trials must be nonnegative")
        if self.max_len < 0:
            raise ValueError("max_len must be nonnegative")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be nonnegative")
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
    """The config's fields, its tuples written as lists by JSON."""
    return asdict(config)


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
    retired = unknown & {"mode", "exact_len_cap"}
    if retired:
        raise ValueError(f"retired config fields {sorted(retired)}: class "
                         f"walks are exact at every depth; delete them")
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    return RunConfig(**data)


def build_generators(config: RunConfig) -> Tuple[GeneratorData, ...]:
    if config.matrices is not None:
        return tuple(generator_from_matrices(i, a, b)
                     for i, (a, b) in enumerate(config.matrices))
    return sample_generators(config.r, config.height,
                             random.Random(config.seed),
                             retry_budget=config.retry_budget)


# -- generator documents ------------------------------------------------


def _derived_fields(g: GeneratorData) -> dict:
    """The document fields of a generator that its matrices determine."""
    return {
        "components": [format_poly(p) for p in g.fwd.components],
        "inverse_components": [format_poly(p)
                               for p in g.fwd.inverse_components],
        "base_points": [list(pt) for pt in g.base_pts],
        "inverse_base_points": [list(pt) for pt in g.inv_base_pts],
    }


def generators_to_jsonable(gens: Tuple[GeneratorData, ...]) -> dict:
    doc = stamp("birwalk-generators")
    doc["generator_count"] = len(gens)
    doc["generators"] = [
        {
            "index": g.index,
            "a": [list(row) for row in g.a_rows],
            "b": [list(row) for row in g.b_rows],
            **_derived_fields(g),
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
        for key, want in _derived_fields(g).items():
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
# a list of at most _MEMO_LEN values of these exact types is written once
# per depth and value tuple, so an itinerary's letters take one text each;
# floats and bools stay out, as -0.0 == 0.0 and True == 1
_MEMO_TYPES = frozenset((int, str))
_MEMO_LEN = 4


@lru_cache(maxsize=None)
def _flat_at(depth: int):
    """The C encoder of a flat container at ``depth``, with its opening
    and closing newline."""
    inner = "\n" + _INDENT * (depth + 1)
    # positional: markers, default, string encoder, indent, key and item
    # separators, sort_keys, skipkeys, allow_nan.  No markers: a container
    # of scalars cannot close a cycle; json's default refuses in its words.
    return (c_make_encoder(None, json.JSONEncoder().default,
                           encode_basestring_ascii, None, ": ", "," + inner,
                           True, False, True), inner, "\n" + _INDENT * depth)


def _flat_text(obj, depth: int) -> str:
    """A scalar, or a container of scalars, in one C encoder call."""
    encoder, inner, outer = _flat_at(depth)
    text = "".join(encoder(obj, 0))
    if not isinstance(obj, (list, tuple, dict)) or not obj:
        return text
    return f"{text[0]}{inner}{text[1:-1]}{outer}{text[-1]}"


def _write(obj, depth: int, chunks: list, memo: dict, open_ids: set) -> None:
    """Append the text of ``obj`` at ``depth`` to ``chunks``; a module
    function, so its recursion leaves no closure cycle behind."""
    values = ()  # a scalar, or what json refuses, is one encoder call
    if isinstance(obj, (list, tuple)):
        if len(obj) <= _MEMO_LEN and _MEMO_TYPES.issuperset(map(type, obj)):
            key = (depth, *obj)
            if key not in memo:
                memo[key] = _flat_text(obj, depth)
            chunks.append(memo[key])
            return
        brackets, values = "[]", obj
    elif isinstance(obj, dict):
        brackets, values = "{}", obj.values()
    if _FLAT_TYPES.issuperset(map(type, values)):
        chunks.append(_flat_text(obj, depth))
        return
    if id(obj) in open_ids:
        raise ValueError("Circular reference detected")
    open_ids.add(id(obj))
    inner = "\n" + _INDENT * (depth + 1)
    lead, sep = brackets[0] + inner, "," + inner
    if brackets == "[]":
        for value in obj:
            chunks.append(lead)
            lead = sep
            _write(value, depth + 1, chunks, memo, open_ids)
    else:
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError(
                        f"keys must be str, int, float, bool or None, "
                        f"not {key.__class__.__name__}")
                key = _flat_text(key, depth)
            chunks.append(lead + encode_basestring_ascii(key) + ": ")
            lead = sep
            _write(value, depth + 1, chunks, memo, open_ids)
    chunks.append("\n" + _INDENT * depth + brackets[1])
    open_ids.remove(id(obj))


def dumps_json(obj) -> str:
    """The text of ``json.dumps(obj, sort_keys=True, indent=2)``, integers
    of any length."""
    chunks = []
    with _any_int_digits():
        _write(obj, 0, chunks, {}, set())
    return "".join(chunks)


def dump_json(path, obj) -> None:
    text = dumps_json(obj) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_json(path) -> dict:
    with open(path) as fh, _any_int_digits():
        return json.load(fh)
