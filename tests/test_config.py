"""Run configuration and document round trips."""

import json
import random
import sys

import pytest

from birwalk.config import (
    RunConfig,
    build_generators,
    config_from_dict,
    config_to_dict,
    dump_json,
    generators_from_jsonable,
    generators_to_jsonable,
    load_config,
    load_json,
)
from birwalk.maps import sample_generators

IDENTITY_ROWS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_config_roundtrip_defaults():
    config = RunConfig()
    assert config_from_dict(config_to_dict(config)) == config


def test_config_roundtrip_with_matrices_and_seeds():
    config = RunConfig(seed=7, trials=2, trial_seeds=(11, 12, 13),
                       matrices=((IDENTITY_ROWS, IDENTITY_ROWS),),
                       mode="float", epsilon=1e-8)
    data = json.loads(json.dumps(config_to_dict(config)))
    assert config_from_dict(data) == config


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown config fields"):
        config_from_dict({"stepz": 3})


@pytest.mark.parametrize("kwargs", [
    {"mode": "symbolic"},
    {"r": 0},
    {"steps": -1},
    {"trials": -2},
    {"max_len": -1},
    {"epsilon": 0.0},
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


def test_load_config_with_overrides(tmp_path):
    path = tmp_path / "config.json"
    dump_json(path, config_to_dict(RunConfig(seed=5, steps=30)))
    config = load_config(path, {"steps": 7, "mode": "float"})
    assert (config.seed, config.steps, config.mode) == (5, 7, "float")
    assert load_config(None, None) == RunConfig()


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


def test_generator_doc_tamper_detected(certified_tuple):
    doc = generators_to_jsonable(certified_tuple)
    bad = json.loads(json.dumps(doc))
    bad["generators"][0]["components"][0] = "x^2"
    with pytest.raises(ValueError, match="does not match"):
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

