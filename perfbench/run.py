"""strictsmooth benchmark.  Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With --trace 0 the last line of stdout is a JSON object whose metrics are
the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
per-layer metrics.  The line before it records the machine and run context.
See README.md in this directory for the workloads and the metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import calib
from workloads import HERE, ROOT, SRC, WORKLOADS

SETUP_REPEATS = 7
SETUP_CALIB_REPEATS = 3  # a set-up lasts about ten calibration loops
IMPORT_REPEATS = 5
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import strictsmooth.cli; "
    "print(time.perf_counter() - t)"
)
IMPORTTIME_MODULES = {
    "import.strictsmooth_s": ("strictsmooth", "strictsmooth.cli"),
    "import.jsonschema_s": ("jsonschema",),
    "import.yaml_s": ("yaml",),
}


def fail(message: str):
    sys.stderr.write(f"perfbench: {message}\n")
    raise SystemExit(2)


def python(*args, capture_stderr=False) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE if capture_stderr else None, text=True,
    )
    if proc.returncode != 0:
        fail(f"{' '.join(args[:3])} exited {proc.returncode}")
    return proc


def worker(workload, seed, seconds, mode) -> dict:
    proc = python(str(HERE / "worker.py"), workload, str(seed), str(seconds), mode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_times(workload, seed) -> tuple:
    """Set-up measured in fresh interpreters, SETUP_REPEATS times: (scaled, raw)."""
    calib.LOOP.warm_up()
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = calib.LOOP.measure(SETUP_CALIB_REPEATS)
        if workload == "cli-scenes":
            seconds = float(python("-c", IMPORT_SNIPPET).stdout)
        else:
            seconds = worker(workload, seed, 0, "setup")["setup_s"]
        after = calib.LOOP.measure(SETUP_CALIB_REPEATS)
        scaled.append(seconds * calib.LOOP.scale(before, after))
        raw.append(seconds)
    return scaled, raw


def import_times() -> dict:
    """Cumulative import times from `python -X importtime`, medians of a few runs."""
    samples = {metric: [] for metric in IMPORTTIME_MODULES}
    for _ in range(IMPORT_REPEATS):
        stderr = python("-X", "importtime", "-c", "import strictsmooth.cli",
                        capture_stderr=True).stderr
        cumulative = {}
        for line in stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        for metric, modules in IMPORTTIME_MODULES.items():
            samples[metric].append(sum(cumulative[m] for m in modules))
    return {metric: statistics.median(v) for metric, v in samples.items()}


def item_times(result: dict, key="items") -> dict:
    """Each item's median time over the untraced passes of the run."""
    passes = result["untraced"]
    return {name: statistics.median(p[key][name] for p in passes) for name in passes[0][key]}


def end_to_end(result: dict, setups: list, raw=False) -> dict:
    """The end-to-end metrics; with raw=True from the times as measured."""
    walls = [p["raw_wall" if raw else "wall"] for p in result["untraced"]]
    per_item = list(item_times(result, "raw_items" if raw else "items").values())
    return {
        "wall_s": statistics.median(walls),
        "item_p50_s": statistics.median(per_item),
        "item_p90_s": statistics.quantiles(per_item, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(result: dict, names: list) -> dict:
    passes = result["traced"]
    values = {}
    snap = passes[0]["snapshot"]  # calls and counters are identical on every pass
    counters, stats = snap["counters"], snap["stats"]
    for name, (calls, _, _) in stats.items():
        values[f"{name}.calls"] = calls
        for i, suffix in ((1, "total_s"), (2, "self_s")):
            values[f"{name}.{suffix}"] = statistics.median(
                p["snapshot"]["stats"][name][i] for p in passes
            )
    for key in ("basis_len_max", "max_degree", "coeff_bits_max"):
        values[f"groebner.groebner.{key}"] = counters[key]
    values["groebner.groebner.unit_frac"] = _ratio(
        counters["unit_bases"], stats["groebner.groebner"][0])
    values["groebner.radical_membership.repeat_base_frac"] = _ratio(
        counters["radical_repeats"], stats["groebner.radical_membership"][0])
    untraced_wall = statistics.median(p["wall"] for p in result["untraced"])
    values["trace.overhead_frac"] = statistics.median(p["wall"] for p in passes) / untraced_wall - 1
    values["fail_frac"] = _ratio(result["crashed"] + result["wrong"], result["attempted"])
    values["items_per_pass"] = result["items_per_pass"]
    for item, seconds in item_times(result).items():
        values[f"item.{item}_s"] = seconds
    values.update(import_times())
    out = {}
    for name in names:
        if name in values:
            out[name] = values[name]
        elif name.startswith("item."):
            out[name] = 0.0  # an item of another workload
        else:
            raise SystemExit(f"perfbench: no value for per-layer metric {name}")
    return out


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "strictsmooth" / "__init__.py").is_file():
        fail(f"{ROOT} is not the root of a strictsmooth checkout (no src/strictsmooth)")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": commit(), "loadavg_start": list(os.getloadavg()),
    }

    if args.trace:
        result = worker(args.workload, args.seed, args.seconds, "trace")
        table = spec["per_layer"]
        values = per_layer(result, [m["name"] for m in table])
    else:
        setups, raw_setups = setup_times(args.workload, args.seed)
        result = worker(args.workload, args.seed, args.seconds, "measure")
        table = spec["end_to_end"]
        values = end_to_end(result, setups)
        context["as_measured"] = end_to_end(result, raw_setups, raw=True)

    for message in result["messages"]:
        sys.stderr.write(f"perfbench: {message}\n")
    context.update(
        passes=len(result["untraced"]), traced_passes=len(result["traced"]),
        items_per_pass=result["items_per_pass"],
        item_samples=sum(len(p["items"]) for p in result["untraced"]),
        raised=result["crashed"], wrong=result["wrong"],
        known_defect_skipped=result["known_defect_skipped"],
    )
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["crashed"] + result["wrong"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table},
    }))


if __name__ == "__main__":
    main()
