"""The four workloads: inputs made from the seed, the timed call per item,
and the check of each answer against expectations kept in this directory.

This directory sits at the root of the checkout; the package under test
is imported from `src/` of that checkout and nowhere else.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-scenes", "route-corpus", "hard-scenes", "kernel-ideals")
CLI_COMMANDS = (
    ("analyze", ("analyze",)),
    ("analyze-plain", ("analyze", "--format", "plain")),
    ("oracle", ("oracle",)),
    ("sod", ("sod",)),
)
# Fixtures run through the CLI besides the committed scenes: verdicts the
# scenes lack (oracle singular, no center, a known defect).  Few enough that
# a run makes several passes.
CLI_FIXTURES = ("double-cone", "node-no-center", "reducible-pair")
ROUTE_CORPUS_SIZE = 200
# The route corpus is the same on every run, so that runs with different
# seeds time the same work; the seed sets the order of a pass.
ROUTE_CORPUS_SEED = 0
KERNEL_PRIME = 32003


class CheckoutError(Exception):
    """The working directory is not the root of a strictsmooth checkout."""


def import_package():
    init = SRC / "strictsmooth" / "__init__.py"
    if not init.is_file():
        raise CheckoutError(f"no {init.relative_to(ROOT)} under {ROOT}")
    sys.path.insert(0, str(SRC))
    import strictsmooth

    if Path(strictsmooth.__file__).resolve() != init.resolve():
        raise CheckoutError(f"imported strictsmooth from {strictsmooth.__file__}")
    return strictsmooth


def pkg(short: str):
    """A package module, looked up at call time so that wrappers apply."""
    return importlib.import_module(f"strictsmooth.{short}")


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def known_defect() -> dict:
    """Inputs the program fails on; they are left out of the timed items."""
    return load_expected()["known_defect"]


def load_kernel_reference() -> dict:
    return json.loads((HERE / "kernel_reference.json").read_text())["digests"]


@dataclass
class Item:
    """One timed call.  `run` may raise; `check` returns a problem or None."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    fingerprint: Callable[[object], object] = lambda result: None
    audit: Optional[Callable[[object], Optional[str]]] = None  # once per run


# --------------------------------------------------------------------------
# input families


def katsura(n: int):
    """katsura-n: n+1 unknowns u0..un, the standard Groebner test system."""
    names = [f"u{i}" for i in range(n + 1)]

    def u(k):
        return names[abs(k)] if abs(k) <= n else None

    eqs = []
    for m in range(n):
        terms = [
            f"{u(l)}*{u(m - l)}" for l in range(-n, n + 1) if u(l) and u(m - l)
        ]
        eqs.append(" + ".join(terms) + f" - {names[m]}")
    eqs.append(" + ".join([names[0]] + [f"2*{v}" for v in names[1:]]) + " - 1")
    return names, eqs


def cyclic(n: int):
    """cyclic-n: the cyclic n-roots system."""
    names = [f"x{i}" for i in range(n)]
    eqs = [
        " + ".join("*".join(names[(i + j) % n] for j in range(k)) for i in range(n))
        for k in range(1, n)
    ]
    eqs.append("*".join(names) + " - 1")
    return names, eqs


KERNEL_FAMILIES = {"katsura-5": katsura(5), "cyclic-5": cyclic(5)}
KERNEL_FIELDS = {"QQ": 0, f"GF{KERNEL_PRIME}": KERNEL_PRIME}


def pairing(n: int, center: str):
    xs = [f"x{i + 1}" for i in range(n)]
    ys = [f"y{i + 1}" for i in range(n)]
    f = " + ".join(f"{x}*{y}" for x, y in zip(xs, ys))
    return xs + ys, f, ys if center == "subspace" else xs + ys


def fermat(n: int):
    names = [f"x{i + 1}" for i in range(n)]
    return names, " + ".join(f"{v}^{n}" for v in names), names


HARD_SCENES = {
    "quintic-5": (list("abcde"), "a^5 + b^5 + c^5 + d^5 + e^5 + a*b*c*d*e", list("abcde")),
    "fermat-6": fermat(6),
    "pairing-20-subspace": pairing(20, "subspace"),
    "pairing-6-origin": pairing(6, "origin"),
}


def basis_digest(polys, p: int) -> str:
    """sha256 of a basis given as [[(exponents, coefficient), ...], ...].

    Order-free: terms and polynomials are sorted.  Rational coefficients are
    written as `n/d` in lowest terms, prime-field ones as 0 <= c < p.
    """
    canon = sorted(
        json.dumps(sorted([list(e), str(c % p) if p else str(c)] for e, c in terms))
        for terms in polys
    )
    return hashlib.sha256("\n".join(canon).encode()).hexdigest()


def gb_digest(gb, p: int) -> str:
    polys = [
        [(m.exps, c.value if p else c) for m, c in g.terms()] for g in gb.basis
    ]
    return basis_digest(polys, p)


# --------------------------------------------------------------------------
# answer checks


def _status(verdict) -> Optional[str]:
    return None if verdict is None else verdict.status.value


def check_analysis(analysis, want: dict) -> Optional[str]:
    got = {
        "k": analysis.centers[0].multiplicity if analysis.centers else None,
        "section": _status(analysis.section_route),
        "oracle": _status(analysis.oracle),
        "base": _status(analysis.base_locus_route),
    }
    problems = [f"{key} {got[key]} != {want[key]}" for key in got if got[key] != want[key]]
    if not analysis.consistent:
        problems.append("routes inconsistent")
    return "; ".join(problems) or None


def check_route_agreement(analysis) -> Optional[str]:
    if analysis.section_route.status.value == "smooth" and analysis.oracle.status.value != "smooth":
        return "criterion smooth but oracle not smooth"
    if not analysis.consistent:
        return "routes inconsistent"
    return None


def check_report_doc(doc: dict, command: str, want: dict) -> Optional[str]:
    """Statuses in a structured CLI report; the schema is checked by the caller."""
    centers = doc.get("centers")
    got = {}
    if command in ("analyze", "sod"):
        got["k"] = centers[0]["multiplicity"] if centers else None
    if command == "analyze":
        verdicts = doc["verdicts"]
        got["section"] = verdicts["section_criterion"]["status"]
        base = verdicts["base_locus_criterion"]
        got["base"] = base["status"] if base.get("applicable", True) else None
        if not verdicts["consistent"]:
            return "routes inconsistent"
    if command in ("analyze", "oracle"):
        got["oracle"] = doc["verdicts"]["chart_oracle"]["status"]
    problems = [f"{key} {got[key]} != {want[key]}" for key in got if got[key] != want[key]]
    return "; ".join(problems) or None


# --------------------------------------------------------------------------
# workload builders


def _scene(names, text, vanishing, center_name):
    geometry, parsing, scalars = pkg("geometry"), pkg("parsing"), pkg("scalars")
    names = tuple(names)
    index = {v: i for i, v in enumerate(names)}
    f = parsing.parse_expression(text, names, scalars.QQ)
    centers = (geometry.Center(center_name, tuple(index[v] for v in vanishing)),)
    return geometry.Scene(len(names), names, f, centers)


def scene_key(scene) -> str:
    """A scene written out in full, as `known_defect.route_scenes` lists it."""
    centers = "; ".join(
        f"{c.name}:{','.join(scene.names[i] for i in c.vanishing)}" for c in scene.centers
    )
    return f"{','.join(scene.names)}: {scene.f.render(scene.names)} | {centers}"


def route_scenes(seed: int = ROUTE_CORPUS_SEED, count: int = ROUTE_CORPUS_SIZE):
    """The scenes of selftest.route_agreement_suite(count, seed), without analysis."""
    selftest, errors = pkg("selftest"), pkg("errors")
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if len(out) % 3 == 0:
            scene = selftest.random_pairing_like_scene(rng)
        else:
            scene = selftest.random_scene(rng)
        try:
            scene.validate()
        except errors.StrictSmoothError:
            continue
        out.append(scene)
    return out


def _analyze_and_report(scene):
    analysis = pkg("geometry").analyze(scene)
    report = pkg("report")
    return analysis, report.render_structured(report.build_report(analysis))


def build_route_corpus(seed: int):
    """(items, names of the inputs left out as known defects)."""
    expected = load_expected()["fixtures"]
    defect = known_defect()
    items, skipped = [], []
    for fixture in pkg("selftest").FIXTURES:
        if fixture.name in defect["fixtures"]:
            skipped.append(f"fixture:{fixture.name}")
            continue
        want = expected[fixture.name]
        items.append(Item(
            f"fixture:{fixture.name}",
            lambda scene=fixture.build(): _analyze_and_report(scene),
            lambda result, want=want: check_analysis(result[0], want),
            fingerprint=lambda result: result[1],
        ))
    for i, scene in enumerate(route_scenes()):
        if scene_key(scene) in defect["route_scenes"]:
            skipped.append(f"route:{i}")
            continue
        items.append(Item(
            f"route:{i}",
            lambda scene=scene: _analyze_and_report(scene),
            lambda result: check_route_agreement(result[0]),
            fingerprint=lambda result: result[1],
        ))
    return items, skipped


def build_hard_scenes(seed: int):
    expected = load_expected()["hard"]
    items = []
    for name, (names, text, vanishing) in HARD_SCENES.items():
        center = "X" if len(vanishing) < len(names) else "O"
        items.append(Item(
            name,
            lambda scene=_scene(names, text, vanishing, center): pkg("geometry").analyze(scene),
            lambda analysis, want=expected[name]: check_analysis(analysis, want),
        ))
    return items, []


def _audit_basis(gb) -> Optional[str]:
    try:
        gb.verify()
    except pkg("errors").InternalCheckError as exc:
        return f"verify: {exc}"
    return None


def build_kernel_ideals(seed: int):
    reference = load_kernel_reference()
    groebner, parsing, scalars = pkg("groebner"), pkg("parsing"), pkg("scalars")
    items = []
    for family, (names, eqs) in KERNEL_FAMILIES.items():
        for label, p in KERNEL_FIELDS.items():
            field = scalars.PrimeField(p) if p else scalars.QQ
            gens = tuple(parsing.parse_expression(e, names, field) for e in eqs)
            ideal = groebner.Ideal(gens, len(names), field)
            name = f"{family}-{label}"
            want = reference[name]
            items.append(Item(
                name,
                lambda ideal=ideal: pkg("groebner").groebner(ideal),
                lambda gb, want=want, p=p: (
                    None if gb_digest(gb, p) == want else "basis differs from the reference"
                ),
                audit=_audit_basis,
            ))
    return items, []


class CliFailed(Exception):
    """A CLI invocation exited non-zero."""


def _yaml_scene(fixture) -> str:
    import yaml

    scene = fixture.build()
    doc = {
        "schema": "strictsmooth-scene/1",
        "field": {"kind": "rational"},
        "variables": list(scene.names),
        "hypersurface": scene.f.render(scene.names),
        "centers": [
            {"name": c.name, "vanishing": [scene.names[i] for i in c.vanishing]}
            for c in scene.centers
        ],
    }
    return f"# fixture {fixture.name}\n" + yaml.safe_dump(doc, sort_keys=False)


def cli_inputs(workdir: Path) -> list:
    """(name, path, expected) for the committed scenes and the CLI_FIXTURES."""
    expected = load_expected()
    out = []
    for path in sorted((ROOT / "scenes").glob("*.yaml")):
        out.append((path.stem, path, expected["scenes"][path.stem]))
    for fixture in pkg("selftest").FIXTURES:
        if fixture.name not in CLI_FIXTURES:
            continue
        path = workdir / f"fixture-{fixture.name}.yaml"
        path.write_text(_yaml_scene(fixture))
        out.append((f"fixture-{fixture.name}", path, expected["fixtures"][fixture.name]))
    return out


def build_cli_scenes(seed: int, workdir: Path, traced: bool = False):
    import jsonschema

    schema = json.loads((SRC / "strictsmooth" / "schemas" / "report.schema.json").read_text())
    validator = jsonschema.validators.validator_for(schema)(schema)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if traced:
        prefix = [sys.executable, str(HERE / "traced_cli.py")]
    else:
        prefix = [sys.executable, "-m", "strictsmooth.cli"]

    def invoke(argv, name):
        if traced:
            argv = [str(workdir / f"trace-{name}.json")] + argv
        proc = subprocess.run(prefix + argv, env=env, capture_output=True, cwd=ROOT)
        if proc.returncode != 0:
            raise CliFailed(
                f"exit {proc.returncode}: {proc.stderr.decode(errors='replace').strip()}"
            )
        return proc.stdout

    def check(stdout, command, plain, want):
        text = stdout.decode()
        if plain:
            if not text.startswith("strictsmooth "):
                return "plain report lacks its header"
            oracle = f"chart oracle: {want['oracle']}"
            if not any(line == oracle or line.startswith(oracle + " (")
                       for line in text.splitlines()):
                return "plain report lacks the expected oracle verdict"
            return None
        doc = json.loads(text)
        error = next(iter(validator.iter_errors(doc)), None)
        if error is not None:
            return f"report fails the schema: {error.message}"
        return check_report_doc(doc, command, want)

    defect = known_defect()
    items, skipped = [], []
    for name, path, want in cli_inputs(workdir):
        for label, argv in CLI_COMMANDS:
            item_name = f"{name}:{label}"
            if item_name in defect["cli"]:
                skipped.append(item_name)
                continue
            items.append(Item(
                item_name,
                lambda argv=[*argv, str(path)], n=item_name.replace(":", "-"): invoke(argv, n),
                lambda out, c=argv[0], plain="plain" in argv, w=want: check(out, c, plain, w),
                fingerprint=lambda out: out,
            ))
    return items, skipped


def order(items: list, workload: str, seed: int) -> list:
    """The seed fixes the order in which a pass visits the items."""
    items = list(items)
    random.Random(f"{workload}:{seed}").shuffle(items)
    return items
