"""Run configuration and document plumbing for reproducible experiments.

A run is a pure function of its configuration: generators come from a
seeded sampler or explicit matrices, per-trial walk seeds derive from the
config, and no document embeds wall-clock state.  All JSON is dumped
by the stdlib with sorted keys and a two-space indent, so re-running a
config must reproduce output files byte for byte; that equality is
itself one of the tests.
"""

from __future__ import annotations

import json
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
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
        if self.steps < 0 or self.trials < 0:
            raise ValueError("steps and trials must be nonnegative")
        if self.max_len < 0:
            raise ValueError("max_len must be nonnegative")
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
    retired = unknown & {"mode", "exact_len_cap"}
    if retired:
        raise ValueError(f"retired config fields {sorted(retired)}: class "
                         f"walks are exact at every depth; delete them")
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


def dumps_json(obj) -> str:
    """``obj`` as sorted, 2-space indented JSON, integers of any length."""
    with _any_int_digits():
        return json.dumps(obj, sort_keys=True, indent=2)


def dump_json(path, obj) -> None:
    text = dumps_json(obj) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_json(path) -> dict:
    with open(path) as fh, _any_int_digits():
        return json.load(fh)
