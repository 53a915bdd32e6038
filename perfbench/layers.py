"""Per-layer measurement from outside the package.

`install` replaces every public function of the package modules named in
LAYER_MODULES (and the methods in METHODS) by a timing wrapper, in every
namespace of the package that holds a binding to it: a name imported with
`from .groebner import radical_membership` lives in the importing module
too, and a wrapper installed only in `groebner` would miss those calls.
The wrappers aggregate calls, total time and self time per function, plus
deterministic kernel counters, into a Recorder.  `restore` puts the
original functions back.

Time spent by the recorder itself on counters (hashing ideals, scanning
basis coefficients) is subtracted from every enclosing span, so the
counters do not inflate the layer times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

PACKAGE = "strictsmooth"
LAYER_MODULES = ("cli", "scene_io", "parsing", "geometry", "groebner", "sod", "report")
# Stages that are methods rather than module functions: (module, class, method).
METHODS = (("geometry", "Scene", "validate"),)


MAX_COUNTERS = ("basis_len_max", "max_degree", "coeff_bits_max")


class Stat:
    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0


class Recorder:
    """Aggregated spans and kernel counters for one traced region."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.child_time: list[float] = []
        self.excluded = 0.0
        self.counters = {
            "basis_len_max": 0,
            "max_degree": 0,
            "coeff_bits_max": 0,
            "unit_bases": 0,
            "radical_repeats": 0,
        }
        self._seen_radical_ideals: set = set()

    def begin_item(self):
        """Mark an item boundary: ideal repeats are counted within one item."""
        self._seen_radical_ideals.clear()

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def snapshot(self) -> dict:
        """Plain-data form, mergeable across processes with `merge`."""
        return {
            "stats": {
                name: [st.calls, st.total, st.self_time]
                for name, st in self.stats.items()
            },
            "counters": dict(self.counters),
        }


def merge(snapshots) -> dict:
    """Sum calls, times and counts; take the largest of MAX_COUNTERS."""
    out = {"stats": {}, "counters": {}}
    for snap in snapshots:
        for name, (calls, total, self_time) in snap["stats"].items():
            acc = out["stats"].setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_time
        for key, value in snap["counters"].items():
            if key in MAX_COUNTERS:
                out["counters"][key] = max(out["counters"].get(key, 0), value)
            else:
                out["counters"][key] = out["counters"].get(key, 0) + value
    return out


def _coeff_bits(c) -> int:
    value = getattr(c, "value", None)  # prime-field scalar
    if value is not None:
        return value.bit_length()
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _inspect_groebner(rec: Recorder, args, result):
    ctr = rec.counters
    basis = result.basis
    ctr["basis_len_max"] = max(ctr["basis_len_max"], len(basis))
    if result.is_unit:
        ctr["unit_bases"] += 1
    for g in basis:
        ctr["max_degree"] = max(ctr["max_degree"], g.total_degree())
        for _, c in g.terms():
            bits = _coeff_bits(c)
            if bits > ctr["coeff_bits_max"]:
                ctr["coeff_bits_max"] = bits


def _inspect_radical(rec: Recorder, args, result):
    ideal = args[1]
    if ideal in rec._seen_radical_ideals:
        rec.counters["radical_repeats"] += 1
    else:
        rec._seen_radical_ideals.add(ideal)


INSPECTORS = {
    "groebner.groebner": _inspect_groebner,
    "groebner.radical_membership": _inspect_radical,
}


def _wrap(name: str, fn, rec: Recorder):
    stat = rec.stat(name)
    check = INSPECTORS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.child_time.append(0.0)
        excluded0 = rec.excluded
        stat.depth += 1
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - t0 - (rec.excluded - excluded0)
            stat.depth -= 1
            children = rec.child_time.pop()
            stat.calls += 1
            stat.self_time += elapsed - children
            if stat.depth == 0:  # recursive calls count once in the total
                stat.total += elapsed
            if rec.child_time:
                rec.child_time[-1] += elapsed
        if check is not None:
            t1 = perf_counter()
            check(rec, args, result)
            rec.excluded += perf_counter() - t1
        return result

    return wrapper


def _module(short: str):
    # `strictsmooth.groebner` as an attribute is the re-exported *function*;
    # the module object is only reliably found in sys.modules.
    return sys.modules[f"{PACKAGE}.{short}"]


def public_functions(short: str) -> dict:
    """Public plain functions defined in one package module, by name."""
    mod = _module(short)
    out = {}
    for attr, value in vars(mod).items():
        if attr.startswith("_") or not inspect.isfunction(value):
            continue
        if value.__module__ != mod.__name__ or hasattr(value, "__wrapped__"):
            continue  # re-exports and decorated context managers
        out[attr] = value
    return out


def import_layers():
    for short in LAYER_MODULES:
        importlib.import_module(f"{PACKAGE}.{short}")


def install(rec: Recorder) -> list:
    """Wrap every layer function in every package namespace; returns the undo list."""
    import_layers()
    replacements = {}
    for short in LAYER_MODULES:
        for attr, fn in public_functions(short).items():
            replacements[id(fn)] = (fn, _wrap(f"{short}.{attr}", fn, rec))
    namespaces = [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
    undo = []
    for mod in namespaces:
        for attr, value in list(vars(mod).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, value))
    for short, cls_name, meth in METHODS:
        cls = getattr(_module(short), cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, _wrap(f"{short}.{meth}", original, rec))
        undo.append((cls, meth, original))
    return undo


def restore(undo: list):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
