"""Built-in fixture corpus and seeded random scene generators.

The fixtures pin expected verdicts for the standard pairing family
f = x1*y1 + ... + xn*yn with its two natural centers, plus a zoo of
degenerate hypersurfaces.  The random generators drive the two property
suites: hypothesis-route smoothness must imply chart-oracle smoothness,
and for vanishing order 1 the base-locus route must agree with the
exceptional-section route.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from .geometry import Analysis, Center, Scene, Status, analyze
from .parsing import parse_expression
from .poly import Monomial, Polynomial
from .scalars import QQ


def pairing_scene(n: int, center: str = "subspace") -> Scene:
    """The hyperbolic pairing hypersurface x1*y1 + ... + xn*yn in A^(2n).

    `center` picks the blow-up center: "subspace" is the n-plane where all
    y vanish, "origin" is the single point where everything vanishes.
    """
    nvars = 2 * n
    f = Polynomial.zero(nvars)
    for i in range(n):
        f = f + Polynomial.variable(i, nvars) * Polynomial.variable(n + i, nvars)
    names = tuple(f"x{i + 1}" for i in range(n)) + tuple(f"y{i + 1}" for i in range(n))
    if center == "subspace":
        ctr = Center("X", tuple(range(n, nvars)))
    elif center == "origin":
        ctr = Center("O", tuple(range(nvars)))
    else:
        raise ValueError(f"unknown center kind {center!r}")
    return Scene(nvars, names, f, (ctr,))


def _poly(names, text):
    return parse_expression(text, names, QQ)


def _scene(names, f_text, vanishing, center_name="C"):
    names = tuple(names)
    index = {n: i for i, n in enumerate(names)}
    center = Center(center_name, tuple(index[v] for v in vanishing))
    return Scene(len(names), names, _poly(names, f_text), (center,))


@dataclass(frozen=True)
class Fixture:
    name: str
    build: Callable[[], Scene]
    multiplicity: Optional[int]        # of the single center, when present
    section_route: Status
    oracle: Status
    base_route: Optional[Status] = None


FIXTURES = (
    Fixture("pairing-n1-subspace", lambda: pairing_scene(1, "subspace"),
            1, Status.SMOOTH, Status.SMOOTH, Status.SMOOTH),
    Fixture("pairing-n2-subspace", lambda: pairing_scene(2, "subspace"),
            1, Status.SMOOTH, Status.SMOOTH, Status.SMOOTH),
    Fixture("pairing-n3-subspace", lambda: pairing_scene(3, "subspace"),
            1, Status.SMOOTH, Status.SMOOTH, Status.SMOOTH),
    Fixture("pairing-n1-origin", lambda: pairing_scene(1, "origin"),
            2, Status.SMOOTH, Status.SMOOTH),
    Fixture("pairing-n2-origin", lambda: pairing_scene(2, "origin"),
            2, Status.SMOOTH, Status.SMOOTH),
    Fixture("pairing-n3-origin", lambda: pairing_scene(3, "origin"),
            2, Status.SMOOTH, Status.SMOOTH),
    Fixture("cusp-origin", lambda: _scene(("x", "y"), "x^2 - y^3", ("x", "y"), "O"),
            2, Status.INCONCLUSIVE, Status.SMOOTH),
    Fixture("double-cone", lambda: _scene(("x", "y", "z"), "x^2 - y^2*z^2", ("x", "y", "z"), "O"),
            2, Status.INCONCLUSIVE, Status.SINGULAR),
    Fixture("higher-cusp", lambda: _scene(("x", "y"), "x^2 - y^5", ("x", "y"), "O"),
            2, Status.INCONCLUSIVE, Status.SINGULAR),
    Fixture("node-no-center", lambda: Scene(
        2, ("x", "y"), _poly(("x", "y"), "x^2 - y^2"), ()),
        None, Status.INCONCLUSIVE, Status.SINGULAR),
    Fixture("smooth-line-no-center", lambda: Scene(
        2, ("x", "y"), _poly(("x", "y"), "x"), ()),
        None, Status.SMOOTH, Status.SMOOTH),
    Fixture("double-divisor", lambda: _scene(("x", "y"), "y^2", ("y",), "D"),
            2, Status.SMOOTH, Status.SMOOTH),
    Fixture("reducible-pair", lambda: _scene(
        ("x1", "x2", "y1", "y2"), "x1*y1 + x1*y2", ("y1", "y2"), "C"),
        1, Status.INCONCLUSIVE, Status.SINGULAR, Status.INCONCLUSIVE),
    Fixture("pairing-n2-deformed", lambda: _scene(
        ("x1", "x2", "y1", "y2"), "x1*y1 + x2*y2 + y1^3", ("y1", "y2"), "C"),
        1, Status.SMOOTH, Status.SMOOTH, Status.SMOOTH),
    Fixture("linear-center", lambda: _scene(("x", "y"), "y", ("y",), "L"),
            1, Status.SMOOTH, Status.SMOOTH, Status.SMOOTH),
)


# --------------------------------------------------------------------------
# random scenes


def _random_coefficient(rng) -> int:
    c = 0
    while c == 0:
        c = rng.randint(-3, 3)
    return c


def _random_monomial(rng, nvars, normal, min_normal_degree, max_degree):
    while True:
        exps = [0] * nvars
        budget = rng.randint(min_normal_degree, max_degree)
        for _ in range(budget):
            exps[rng.randrange(nvars)] += 1
        if sum(exps[i] for i in normal) >= min_normal_degree:
            return tuple(exps)


def random_scene(rng: random.Random, force_k1: bool = False) -> Scene:
    """A seeded random scene: one coordinate-subspace center inside f.

    Every term of f is divisible by a normal variable, so the center is
    contained in the hypersurface by construction.  With `force_k1` a term
    of normal-degree exactly one is guaranteed, pinning the vanishing order
    to 1.
    """
    nvars = rng.choice((2, 3, 4))
    d = rng.randint(1, nvars)
    normal = tuple(sorted(rng.sample(range(nvars), d)))
    max_degree = rng.choice((2, 3, 3, 4))
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = _random_monomial(rng, nvars, normal, 1, max_degree)
        terms[Monomial(exps)] = QQ.coerce(_random_coefficient(rng))
    if force_k1:
        exps = _random_monomial(rng, nvars, normal, 1, max_degree)
        lowered = list(exps)
        excess = sum(lowered[i] for i in normal) - 1
        for i in normal:
            take = min(lowered[i], excess)
            lowered[i] -= take
            excess -= take
            if not excess:
                break
        terms[Monomial(lowered)] = QQ.coerce(_random_coefficient(rng))
    f = Polynomial(nvars, QQ, terms)
    names = tuple(f"v{i + 1}" for i in range(nvars))
    return Scene(nvars, names, f, (Center("C", normal),))


def random_pairing_like_scene(rng: random.Random) -> Scene:
    """Deformations of the pairing family; often hypothesis-route smooth."""
    pairing = pairing_scene(rng.choice((1, 2)))
    nvars, f = pairing.nvars, pairing.f
    normal = pairing.centers[0].vanishing
    for _ in range(rng.randint(0, 2)):
        exps = _random_monomial(rng, nvars, normal, 2, 4)
        f = f + Polynomial(nvars, QQ, {Monomial(exps): QQ.coerce(_random_coefficient(rng))})
    return Scene(nvars, pairing.names, f, (Center("C", normal),))


# --------------------------------------------------------------------------
# suites


def fixture_suite():
    """Run every fixture; yields (name, ok, message) triples."""
    for fixture in FIXTURES:
        scene = fixture.build()
        analysis = analyze(scene)
        problems = []
        if fixture.multiplicity is not None:
            got = analysis.centers[0].multiplicity
            if got != fixture.multiplicity:
                problems.append(f"multiplicity {got} != {fixture.multiplicity}")
        if analysis.section_route.status is not fixture.section_route:
            problems.append(
                f"section route {analysis.section_route.status.value} != "
                f"{fixture.section_route.value}"
            )
        if analysis.oracle.status is not fixture.oracle:
            problems.append(
                f"oracle {analysis.oracle.status.value} != {fixture.oracle.value}"
            )
        if fixture.base_route is not None:
            got_route = analysis.base_locus_route
            if got_route is None or got_route.status is not fixture.base_route:
                problems.append("base-locus route mismatch")
        if not analysis.consistent:
            problems.append("routes inconsistent")
        yield fixture.name, not problems, "; ".join(problems)


def route_agreement_suite(count: int, seed: int):
    """Seeded scenes for: section-route Smooth implies chart-oracle Smooth.

    Yields (index, scene, analysis); the caller asserts the implication.
    Mixes fully random scenes with pairing-like deformations so that the
    hypothesis route actually fires on a decent fraction.
    """
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        if produced % 3 == 0:
            scene = random_pairing_like_scene(rng)
        else:
            scene = random_scene(rng)
        yield produced, scene, analyze(scene)
        produced += 1


def equivalence_suite(count: int, seed: int):
    """Seeded k = 1 scenes comparing the two smoothness routes directly.

    Yields (index, scene, section_verdict, base_result); both sides are
    computed through disjoint code paths on the same leading form.
    `force_k1` gives f a term of normal degree one, so k = 1 on every scene.
    """
    rng = random.Random(seed)
    for produced in range(count):
        scene = random_scene(rng, force_k1=True)
        (stages,) = Analysis(scene).centers
        yield produced, scene, stages.section_verdict, stages.base_locus


def run_selftest(seed: int = 0, stream=None, route_count: int = 40, equiv_count: int = 25):
    """Fixture corpus plus trimmed property suites; returns (passed, failed)."""
    tally = {True: 0, False: 0}  # passed, failed

    def emit(line):
        if stream is not None:
            stream.write(line + "\n")

    def check(ok, pass_line, fail_line):
        tally[ok] += 1
        emit(pass_line if ok else fail_line)

    for name, ok, message in fixture_suite():
        check(ok, f"PASS fixture {name}", f"FAIL fixture {name}: {message}")

    breaches = 0
    smooth_hits = 0
    for idx, scene, analysis in route_agreement_suite(route_count, seed):
        if analysis.section_route.status is Status.SMOOTH:
            smooth_hits += 1
            if analysis.oracle.status is not Status.SMOOTH:
                breaches += 1
                emit(f"FAIL route-agreement scene {idx}: {scene.f!r}")
    check(
        not breaches,
        f"PASS route-agreement ({route_count} scenes, {smooth_hits} hypothesis hits)",
        f"FAIL route-agreement: {breaches} breaches",
    )

    mismatches = 0
    for idx, scene, section, base in equivalence_suite(equiv_count, seed + 1):
        left = base.verdict.status is Status.SMOOTH
        right = section.status is Status.SMOOTH
        if left != right:
            mismatches += 1
            emit(f"FAIL equivalence scene {idx}: {scene.f!r}")
    check(
        not mismatches,
        f"PASS equivalence ({equiv_count} scenes)",
        f"FAIL equivalence: {mismatches} mismatches",
    )
    return tally[True], tally[False]
