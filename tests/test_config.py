"""Run configuration and document round trips."""

import json
import math
import random
import sys
from fractions import Fraction

import numpy
import pytest
from hypothesis import example, given, settings, strategies as st

from birwalk.config import (
    RunConfig,
    _any_int_digits,
    build_generators,
    config_from_dict,
    config_to_dict,
    dump_json,
    dumps_json,
    embedded_config,
    generators_from_jsonable,
    generators_to_jsonable,
    load_json,
)
from birwalk.maps import sample_generators
from birwalk.projective import normalize_exact

IDENTITY_ROWS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_config_roundtrip_defaults():
    config = RunConfig()
    assert config_from_dict(config_to_dict(config)) == config


def test_config_roundtrip_with_matrices_and_seeds():
    config = RunConfig(seed=7, trials=2, trial_seeds=(11, 12, 13),
                       matrices=((IDENTITY_ROWS, IDENTITY_ROWS),))
    data = json.loads(json.dumps(config_to_dict(config)))
    assert config_from_dict(data) == config


def test_embedded_config_has_no_retired_fields():
    # documents embed every config field but the output directory; the
    # retired mode and exact length cap are gone from them
    assert set(embedded_config(RunConfig())) == {
        "r", "height", "seed", "matrices", "steps", "trials", "trial_seeds",
        "checkpoint_every", "degree_cap", "max_len", "retry_budget",
        "track_classes", "curve"}


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown config fields"):
        config_from_dict({"stepz": 3})


@pytest.mark.parametrize("data", [{"mode": "exact"}, {"mode": "modp"},
                                  {"exact_len_cap": 16, "steps": 3}])
def test_config_names_retired_fields(data):
    # configs embedded by earlier versions carry these two fields
    with pytest.raises(ValueError, match="retired config fields.*exact at "
                                         "every depth"):
        config_from_dict(data)


@pytest.mark.parametrize("kwargs", [
    {"r": 0},
    {"steps": -1},
    {"trials": -2},
    {"max_len": -1},
    {"trials": 3, "trial_seeds": (1, 2)},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


def test_walk_seeds_derived_from_base_seed():
    assert RunConfig(seed=4, trials=3).walk_seeds() == (4000, 4001, 4002)


def test_walk_seeds_explicit_list_truncated():
    config = RunConfig(trials=2, trial_seeds=(9, 8, 7))
    assert config.walk_seeds() == (9, 8)


def test_build_generators_from_explicit_matrices():
    config = RunConfig(matrices=((IDENTITY_ROWS, IDENTITY_ROWS),))
    gens = build_generators(config)
    assert len(gens) == 1
    assert gens[0].a_rows == IDENTITY_ROWS


def test_generator_doc_roundtrip(certified_tuple):
    doc = generators_to_jsonable(certified_tuple)
    rebuilt = generators_from_jsonable(json.loads(json.dumps(doc)))
    assert len(rebuilt) == len(certified_tuple)
    for g, h in zip(certified_tuple, rebuilt):
        assert (g.a_rows, g.b_rows) == (h.a_rows, h.b_rows)
        assert g.base_pts == h.base_pts


@pytest.mark.parametrize("field", ["components", "inverse_components",
                                   "base_points", "inverse_base_points"])
def test_generator_doc_tamper_detected(certified_tuple, field):
    doc = generators_to_jsonable(certified_tuple)
    bad = json.loads(json.dumps(doc))
    tampered = "x^2" if field.endswith("components") else [1, 2, 3]
    assert bad["generators"][0][field][0] != tampered
    bad["generators"][0][field][0] = tampered
    with pytest.raises(ValueError, match=f"field '{field}' does not match"):
        generators_from_jsonable(bad)
    with pytest.raises(ValueError, match="not a generator document"):
        generators_from_jsonable({"format": "something-else"})
    swapped = json.loads(json.dumps(doc))
    swapped["generators"][0]["index"] = 1
    with pytest.raises(ValueError, match="index"):
        generators_from_jsonable(swapped)


def test_dump_json_bytes_are_stable(tmp_path):
    obj = {"b": [1, 2], "a": {"z": 0.5, "y": None}}
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    dump_json(p1, obj)
    dump_json(p2, obj)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text() == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_json_roundtrips_integers_past_the_digit_limit(tmp_path):
    # exact walk coordinates reach 130,000 bits, far past 4300 digits
    big = 2 ** 130000 + 7
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    path = tmp_path / "big.json"
    dump_json(path, {"coords": [big, -big, 3]})
    assert load_json(path) == {"coords": [big, -big, 3]}
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit



# -- dumps_json's contract: the stdlib's sorted, indented text -----------


def _stdlib(obj) -> str:
    with _any_int_digits():
        return json.dumps(obj, sort_keys=True, indent=2)


class _LoudInt(int):
    def __repr__(self):
        return "not json"


class _LoudFloat(float):
    def __repr__(self):
        return "not json"


_BIG_INTS = st.integers(-2 ** 20000, 2 ** 20000)
_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2e-308])
_TEXT = st.text() | st.sampled_from(
    ['"', "\\", 'a"b\\c', "\x00\x1f\n\t", "\u00e9\u20ac\U0001f600",
     "\ud800"])
_TRIPLES = st.tuples(*[st.integers(-2 ** 70, 2 ** 70)] * 3).filter(
    any).map(normalize_exact)
_SCALARS = (st.none() | st.booleans() | _BIG_INTS | _FLOATS | _TEXT
            | st.builds(_LoudInt, _BIG_INTS) | st.builds(_LoudFloat, _FLOATS))
# one dict's keys must sort against each other, as for json.dumps
_NUMBER_KEYS = st.booleans() | st.integers(-2 ** 80, 2 ** 80) | _FLOATS


def _containers(children):
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(_TEXT, children, max_size=4)
            | st.dictionaries(_NUMBER_KEYS, children, max_size=4)
            | st.dictionaries(st.none(), children, max_size=1)
            | _TRIPLES)


_DOCUMENTS = st.recursive(_SCALARS, _containers, max_leaves=30)


@settings(deadline=None, max_examples=300)
@given(_DOCUMENTS)
@example({"a": {}, "b": [[], ()], "c": [{"d": []}]})
@example([(3, -1, 2), {"x": normalize_exact((2, 4, -6))}])
# sibling lists of equal values that a memo keyed by value would merge
@example([[0.0], [-0.0]])
@example([[1], [True], [1.0]])
@example([[1, 2], [_LoudInt(1), 2]])
def test_dumps_json_is_the_stdlib_text(obj):
    assert dumps_json(obj) == _stdlib(obj)


def test_dumps_json_writes_shared_containers_each_time():
    shared = [1, [2]]
    obj = [shared, shared, {"a": shared, "b": (shared,)}]
    assert dumps_json(obj) == _stdlib(obj)


@pytest.mark.parametrize("make", [
    lambda: (lambda a: a.append(a) or a)([1]),
    lambda: (lambda a: a.append([2, a]) or a)([1]),
    lambda: (lambda d: d.update(me=d) or d)({"x": [1]}),
    lambda: (lambda d: d.update(me={"deeper": d}) or d)({"x": 1}),
])
def test_dumps_json_refuses_circular_references(make):
    with pytest.raises(ValueError, match="Circular reference"):
        json.dumps(make(), sort_keys=True, indent=2)
    with pytest.raises(ValueError, match="Circular reference"):
        dumps_json(make())


@pytest.mark.parametrize("obj", [
    {"a": 1, 2: 3},
    {"a": [1], 2: [3]},
    {(1, 2): 3},
    {(1, 2): [3]},
    Fraction(1, 3),
    [1, Fraction(1, 3)],
    {"a": [[Fraction(1, 3)]]},
    {1, 2},
    [{1, 2}],
    numpy.int64(3),
    [numpy.int64(3), 4],
    {"a": numpy.int64(5)},
])
def test_dumps_json_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError) as want:
        _stdlib(obj)
    with pytest.raises(TypeError) as got:
        dumps_json(obj)
    assert str(got.value) == str(want.value)


def test_dump_json_restores_the_digit_limit_after_an_error(tmp_path):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    with pytest.raises(TypeError):
        dump_json(tmp_path / "bad.json", {"a": [2 ** 20000, Fraction(1, 3)]})
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    assert not (tmp_path / "bad.json").exists()
