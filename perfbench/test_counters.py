"""Deterministic counters of the traced run: they must repeat exactly, and a
few are pinned so that a change in the work the kernel does shows up
without any timing.  Run from the root of the checkout:

    python3 -m pytest perfbench/test_counters.py
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import layers  # noqa: E402
import workloads as wl  # noqa: E402

wl.import_package()


def _items():
    """Every fixture, one hard scene and one kernel ideal, in a fixed order."""
    route = [i for i in wl.build_route_corpus(0)[0] if i.name.startswith("fixture:")]
    hard = [i for i in wl.build_hard_scenes(0)[0] if i.name == "pairing-6-origin"]
    kernel = [i for i in wl.build_kernel_ideals(0)[0] if i.name == "cyclic-5-GF32003"]
    return route + hard + kernel


def _traced(items) -> dict:
    """Calls and counters per item, each item traced on its own."""
    out = {}
    for item in items:
        rec = layers.Recorder()
        undo = layers.install(rec)
        try:
            rec.begin_item()
            try:
                item.run()
            except Exception:  # a failing item still has counters to compare
                pass
        finally:
            layers.restore(undo)
        snap = rec.snapshot()
        calls = {name: st[0] for name, st in snap["stats"].items() if st[0]}
        out[item.name] = {"calls": calls, "counters": snap["counters"]}
    return out


@pytest.fixture(scope="module")
def two_runs():
    items = _items()
    return _traced(items), _traced(items)


def test_counters_repeat_exactly(two_runs):
    first, second = two_runs
    assert first == second


# Dotted keys are call counts of a wrapped function; the others are counters.
PINNED = {
    "fixture:pairing-n2-origin": {
        "groebner.groebner": 16, "groebner.radical_membership": 8,
        "groebner.ideal_power_membership": 4, "radical_repeats": 7, "basis_len_max": 20,
    },
    "pairing-6-origin": {
        "groebner.groebner": 40, "groebner.radical_membership": 24,
        "groebner.is_empty_affine": 36, "radical_repeats": 23, "basis_len_max": 364,
    },
    "cyclic-5-GF32003": {
        "groebner.groebner": 1, "basis_len_max": 20, "max_degree": 8, "coeff_bits_max": 15,
    },
}


def test_pinned_counts(two_runs):
    first, _ = two_runs
    for name, pins in PINNED.items():
        got = {
            key: first[name]["calls"].get(key, 0) if "." in key else first[name]["counters"][key]
            for key in pins
        }
        assert got == pins, name


def test_wrappers_reach_every_binding_and_are_removed():
    mods = {short: importlib.import_module(f"strictsmooth.{short}")
            for short in ("geometry", "cli", "report", "groebner")}
    bindings = (
        (mods["geometry"], "radical_membership"),
        (mods["cli"], "analyze"),
        (mods["cli"], "load_scene"),
        (mods["report"], "sod"),
        (mods["groebner"], "normal_form"),
        (sys.modules["strictsmooth"], "groebner"),
    )
    originals = [getattr(ns, name) for ns, name in bindings]
    validate = mods["geometry"].Scene.validate
    rec = layers.Recorder()
    undo = layers.install(rec)
    try:
        for (ns, name), original in zip(bindings, originals):
            assert getattr(ns, name) is not original, name
            assert getattr(ns, name).__wrapped__ is original, name
        assert mods["geometry"].Scene.validate is not validate
    finally:
        layers.restore(undo)
    assert [getattr(ns, name) for ns, name in bindings] == originals
    assert mods["geometry"].Scene.validate is validate


def test_self_time_excludes_children():
    rec = layers.Recorder()
    undo = layers.install(rec)
    try:
        wl.build_hard_scenes(0)[0][-1].run()
    finally:
        layers.restore(undo)
    stats = rec.snapshot()["stats"]
    calls, total, self_time = stats["geometry.analyze"]
    assert calls == 1 and 0 <= self_time < total
    children = sum(stats[f"geometry.{s}"][1] for s in (
        "validate", "singular_locus_in_centers", "chart_oracle", "adjunction_ledger"))
    assert children <= total


# The inputs that expected.json leaves out as a known defect: each must
# still be in the corpus, and no other input of the corpus may fail.


def _defect_inputs():
    selftest, defect = wl.pkg("selftest"), wl.known_defect()
    fixtures = [f.build() for f in selftest.FIXTURES if f.name in defect["fixtures"]]
    scenes = [s for s in wl.route_scenes() if wl.scene_key(s) in defect["route_scenes"]]
    return fixtures, scenes


def test_known_defect_list_matches_the_inputs():
    defect = wl.known_defect()
    fixtures, scenes = _defect_inputs()
    assert len(fixtures) == len(defect["fixtures"])
    assert {wl.scene_key(s) for s in scenes} == set(defect["route_scenes"])
    items, skipped = wl.build_route_corpus(0)
    assert len(items) + len(skipped) == len(wl.pkg("selftest").FIXTURES) + wl.ROUTE_CORPUS_SIZE


def test_timed_route_items_do_not_raise():
    items, _ = wl.build_route_corpus(0)
    for item in items:
        item.run()


@pytest.mark.xfail(raises=wl.pkg("errors").StructuralError, strict=False,
                   reason="build_report renders a tangent-ring witness with the scene's names")
def test_known_defect_inputs_report():
    fixtures, scenes = _defect_inputs()
    for scene in fixtures + scenes:
        wl._analyze_and_report(scene)
