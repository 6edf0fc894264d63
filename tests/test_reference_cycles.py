"""The recursive tree walkers, the JSON writer and the point registry
leave no reference cycles.

A nested function that calls itself holds itself through its closure
cell, so without care each call leaves a function -> cell -> function
cycle that keeps the walker's registry, caches and chunk lists alive
until the next full collection.  A registry keeps its letter operators
and the recipes that name them, so an operator that held its registry
strongly would keep every registry alive until a collection too.
"""

import gc
import weakref
from contextlib import contextmanager

import pytest

from birwalk.config import dumps_json
from birwalk.genericity import check_genericity
from birwalk.picard import PointRegistry
from birwalk.walk import crosscheck_words, run_walk


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


@pytest.mark.parametrize("track_classes", [True, False])
def test_run_walk_leaves_no_cycle(certified_tuple, track_classes):
    left = _birwalk_functions_left_in_cycles(
        lambda: run_walk(certified_tuple, 40, seed=3, checkpoint_every=4,
                         track_classes=track_classes,
                         keep_classes=track_classes))
    assert left == []


def test_json_writer_leaves_no_cycle():
    doc = {"a": [1, {"b": [2, 3, {"c": None}]}, "x"], "d": {"e": [[1.5], []]}}
    left = _birwalk_functions_left_in_cycles(lambda: dumps_json(doc))
    assert left == []


@contextmanager
def _collector_off():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _registries_alive_after(run, monkeypatch):
    """(registries run() made, how many are still alive once it returns
    and its result is dropped), with the cyclic collector off."""
    made = []
    init = PointRegistry.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(PointRegistry, "__init__", recording)
    with _collector_off():
        run()
        return len(made), sum(ref() is not None for ref in made)


def test_exact_walk_registry_dies_with_its_report(certified_tuple):
    with _collector_off():
        report = run_walk(certified_tuple, 16, seed=126,
                          keep_classes=True, track_pushforward=True)
        assert report.final_reduced_len == 16
        ref = weakref.ref(report.registry)
        del report
        assert ref() is None


def test_crosscheck_registry_dies_on_return(certified_tuple, monkeypatch):
    assert _registries_alive_after(
        lambda: crosscheck_words(certified_tuple, 3), monkeypatch) == (1, 0)


def test_genericity_registry_dies_on_return(certified_tuple, monkeypatch):
    assert _registries_alive_after(
        lambda: check_genericity(certified_tuple, 4), monkeypatch) == (1, 0)
