"""The measuring process for one workload; run.py starts it and reads the
single JSON line it prints.

    python3 perfbench/worker.py <workload> <seed> <seconds> <mode>

mode `setup` only imports the package and makes the inputs, and reports how
long that took.  mode `measure` then runs passes over the items with
tracing off.  mode `trace` alternates untraced passes with passes traced by
layers.py.  Passes repeat while the next one is expected to end within
`seconds` of the first; there is always at least one.
"""

import time

T0 = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import calib  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402

# Expected to record at least one call on every traced pass of the workload;
# a wrapper that sees none means a binding was missed, not a fast layer.
GEOMETRY_STAGES = (
    "validate", "multiplicity", "leading_form", "section_smoothness",
    "base_locus_check", "singular_locus_in_centers", "charts", "chart_oracle",
    "adjunction_ledger", "analyze",
)
GROEBNER_FUNCS = (
    "groebner", "radical_membership", "ideal_power_membership", "krull_dimension",
    "is_empty_affine", "minors_ideal", "normal_form",
)
_PIPELINE = tuple(f"geometry.{s}" for s in GEOMETRY_STAGES) + tuple(
    f"groebner.{g}" for g in GROEBNER_FUNCS
)
_REPORT = ("report.build_report", "report.render_structured",
           "sod.lefschetz", "sod.sod", "sod.serre_vanishing_record")
EXPECTED_CALLS = {
    "cli-scenes": ("cli.main", "scene_io.load_scene", "parsing.parse_expression",
                   "report.render_plain") + _REPORT + _PIPELINE,
    "route-corpus": _REPORT + _PIPELINE,
    "hard-scenes": _PIPELINE,
    "kernel-ideals": ("groebner.groebner",),
}
REPEAT_SAMPLE = 12  # items re-run for the determinism check when a run has one pass


class Tally:
    def __init__(self):
        self.attempted = 0
        self.crashed = 0
        self.wrong = 0
        self.messages = []

    def note(self, kind, name, message):
        if len(self.messages) < 20:
            self.messages.append(f"{kind} {name}: {message}")


def run_pass(items, tally, fingerprints, calibration, recorder=None):
    """Time every item once; check the answers after the timed region.

    Returns the pass record and the (item, elapsed, output, error) results.
    The record holds each item's time scaled to the reference host speed
    by `calibration` (calib.py), their sum `wall`, and the raw times as
    measured.
    """
    gc.collect()
    results, scaled, segment = [], [], []
    before = calibration.measure()
    for item in items:
        if recorder is not None:
            recorder.begin_item()
        t0 = time.perf_counter()
        try:
            out, error = item.run(), None
        except Exception as exc:  # an item that raises is a failed operation
            out, error = None, exc
        elapsed = time.perf_counter() - t0
        results.append((item, elapsed, out, error))
        segment.append(elapsed)
        if sum(segment) >= calibration.interval_s or item is items[-1]:
            after = calibration.after(sum(segment))
            factor = calibration.scale(before, after)
            scaled.extend(t * factor for t in segment)
            before, segment = after, []
    raw = {}
    for item, elapsed, out, error in results:
        raw[item.name] = elapsed
        check_result(item, out, error, tally, fingerprints)
    record = {
        "wall": sum(scaled),
        "items": {item.name: t for (item, *_), t in zip(results, scaled)},
        "raw_wall": sum(raw.values()),
        "raw_items": raw,
    }
    return record, results


def check_result(item, out, error, tally, fingerprints):
    tally.attempted += 1
    if error is not None:
        tally.crashed += 1
        tally.note("raised", item.name, f"{type(error).__name__}: {error}")
        return
    try:
        problem = item.check(out)
    except Exception as exc:  # malformed output is a wrong answer, not a benchmark crash
        problem = f"check raised {type(exc).__name__}: {exc}"
    if problem is None:
        mark = item.fingerprint(out)
        if mark is not None and fingerprints.setdefault(item.name, mark) != mark:
            problem = "output differs from an earlier repeat"
    if problem is not None:
        tally.wrong += 1
        tally.note("wrong", item.name, problem)


def audit(results, tally, seed):
    """Audit one result per run, picked by the seed: a full audit of all
    four kernel bases takes about 15 s, most of a run."""
    audited = sorted((r for r in results if r[0].audit is not None), key=lambda r: r[0].name)
    if not audited:
        return
    item, _, out, error = audited[seed % len(audited)]
    if error is None:
        problem = item.audit(out)
        if problem is not None:
            tally.wrong += 1
            tally.note("audit", item.name, problem)


def traced_pass(workload, items, traced_items, tally, fingerprints, workdir):
    """One pass with every layer wrapped; returns (scaled wall, merged snapshot)."""
    if workload == "cli-scenes":
        record, _ = run_pass(traced_items, tally, fingerprints, calib.PROCESS)
        snaps = []
        for path in sorted(workdir.glob("trace-*.json")):
            snaps.append(json.loads(path.read_text()))
            path.unlink()
        return record["wall"], layers.merge(snaps)
    rec = layers.Recorder()
    undo = layers.install(rec)
    try:
        record, _ = run_pass(items, tally, fingerprints, calib.LOOP, rec)
    finally:
        layers.restore(undo)
    return record["wall"], rec.snapshot()


def check_expected_calls(workload, snapshot):
    stats = snapshot["stats"]
    silent = [name for name in EXPECTED_CALLS[workload] if stats.get(name, [0])[0] == 0]
    if silent:
        raise SystemExit(f"traced run: no calls recorded by {', '.join(silent)}")


def build(workload, seed, workdir, traced=False):
    """(the items in the seed's order, names of the inputs left out as known defects)"""
    wl.import_package()
    if workload == "cli-scenes":
        items, skipped = wl.build_cli_scenes(seed, workdir, traced)
    else:
        items, skipped = {
            "route-corpus": wl.build_route_corpus,
            "hard-scenes": wl.build_hard_scenes,
            "kernel-ideals": wl.build_kernel_ideals,
        }[workload](seed)
    return wl.order(items, workload, seed), skipped


def measure(workload, seed, seconds, mode, workdir):
    items, skipped = build(workload, seed, workdir)
    traced_items = None
    if mode == "trace":
        layers.import_layers()  # keep first-import costs out of the traced pass
        if workload == "cli-scenes":
            traced_items, _ = build(workload, seed, workdir, traced=True)
    calibration = calib.PROCESS if workload == "cli-scenes" else calib.LOOP
    calibration.warm_up()
    tally, fingerprints = Tally(), {}
    untraced, traced, spans = [], [], []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        record, results = run_pass(items, tally, fingerprints, calibration)
        if not untraced:
            audit(results, tally, seed)
        untraced.append(record)
        if mode == "trace":
            wall, snapshot = traced_pass(
                workload, items, traced_items, tally, fingerprints, workdir
            )
            check_expected_calls(workload, snapshot)
            traced.append({"wall": wall, "snapshot": snapshot})
        spans.append(time.perf_counter() - start)
        if time.perf_counter() - begin + statistics.median(spans) > seconds:
            break
    if len(untraced) == 1 and not traced:
        sample = random.Random(f"repeat:{seed}").sample(items, min(REPEAT_SAMPLE, len(items)))
        run_pass(sample, tally, fingerprints, calibration)
    usage = resource.RUSAGE_CHILDREN if workload == "cli-scenes" else resource.RUSAGE_SELF
    return {
        "items_per_pass": len(items),
        "known_defect_skipped": skipped,
        "untraced": untraced,
        "traced": traced,
        "attempted": tally.attempted,
        "crashed": tally.crashed,
        "wrong": tally.wrong,
        "messages": tally.messages,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }


def main(argv):
    workload, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=wl.ROOT))
    try:
        if mode == "setup":
            build(workload, seed, workdir)
            result = {"setup_s": time.perf_counter() - T0}
        else:
            result = measure(workload, seed, seconds, mode, workdir)
    except wl.CheckoutError as exc:
        raise SystemExit(f"perfbench: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
