"""The recursive tree walkers and the JSON writer leave no reference cycles.

A nested function that calls itself holds itself through its closure
cell, so without care each call leaves a function -> cell -> function
cycle that keeps the walker's registry, caches and chunk lists alive
until the next full collection.
"""

import gc

from birwalk.config import dumps_json
from birwalk.genericity import check_genericity
from birwalk.walk import crosscheck_words


def _birwalk_functions_left_in_cycles(run):
    """Functions of the package that only a collection would free after run()."""
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return sorted(obj.__qualname__ for obj in gc.garbage
                      if callable(obj) and hasattr(obj, "__code__")
                      and (obj.__module__ or "").startswith("birwalk"))
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def test_genericity_walk_leaves_no_cycle(certified_tuple):
    left = _birwalk_functions_left_in_cycles(
        lambda: check_genericity(certified_tuple, 3))
    assert left == []


def test_crosscheck_walk_leaves_no_cycle(certified_tuple):
    left = _birwalk_functions_left_in_cycles(
        lambda: crosscheck_words(certified_tuple, 2))
    assert left == []


def test_json_writer_leaves_no_cycle():
    doc = {"a": [1, {"b": [2, 3, {"c": None}]}, "x"], "d": {"e": [[1.5], []]}}
    left = _birwalk_functions_left_in_cycles(lambda: dumps_json(doc))
    assert left == []
