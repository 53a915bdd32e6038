"""A Groebner-free point oracle over small prime fields and their squares.

Over GF(p) a point of F_p^n, or of F_{p^2}^n, is a point over the
algebraic closure, so by the Jacobian criterion a singular point forces a
verdict:

* a point off the center where f and all its partials vanish forces the
  containment verdict, and with it the chart oracle, to Singular;
* a point with t = 0 in a chart where the strict transform and all its
  partials vanish forces the chart oracle to Singular;
* a point with a nonzero normal coordinate where the leading form phi and
  all its partials vanish forces the center's section verdict to Singular.

Over F_p the check is one-way: finding no point proves nothing.  Over
F_{p^2}, for the reductions with p^(2n) <= 6561, it checks two claims:
(i) a witness forces Singular, as over F_p; (ii) every Singular verdict of
containment, oracle and section has a witness.  Claim (ii) is a measured
fact about this fixed corpus, not a theorem: a zero-dimensional singular
locus may need a larger extension of F_p (Lang-Weil, Amer. J. Math. 76,
1954, bounds the points of the positive-dimensional ones).  It is what
catches a wrong Singular: a chart oracle whose strict transform keeps a
factor t, or a radical test that answers False where the answer is True.

Each polynomial is read as a term map {exponent tuple: int mod p} and
evaluated with plain int arithmetic, by table lookups over F_{p^2}: no
Polynomial and no Groebner call.
"""

import itertools
from functools import cache

from strictsmooth.errors import SceneError
from strictsmooth.geometry import Center, Scene, Status, analyze
from strictsmooth.parsing import parse_expression
from strictsmooth.poly import Polynomial
from strictsmooth.scalars import QQ, PrimeField
from strictsmooth.selftest import FIXTURES, route_agreement_suite

PRIMES = (2, 3, 5, 7)

# the F_{p^2} pass visits at most this many points per reduction
SQUARE_POINTS = 6561

# singular only on the exceptional divisor of the origin, which the random
# scenes barely reach
EXCEPTIONAL_ONLY = ("x^2 + y^2 + z^4", "x^2 + y^2 + z^6", "x^2 + y^3 + z^4")


def corpus():
    """The fixtures in at most 4 variables, the 200 route scenes and the
    EXCEPTIONAL_ONLY surfaces centered at the origin, all over QQ."""
    scenes = [s for s in (fixture.build() for fixture in FIXTURES) if s.nvars <= 4]
    scenes += [scene for _, scene, _ in route_agreement_suite(200, 0)]
    names = ("x", "y", "z")
    origin = Center("O", (0, 1, 2))
    scenes += [
        Scene(3, names, parse_expression(text, names, QQ), (origin,)) for text in EXCEPTIONAL_ONLY
    ]
    return scenes


def reduce_mod(f, p):
    """The term map of the QQ polynomial f mod p, or None when p divides
    a denominator."""
    out = {}
    for m, c in f.terms():
        if c.denominator % p == 0:
            return None
        v = c.numerator * pow(c.denominator, -1, p) % p
        if v:
            out[tuple(m)] = v
    return out


def with_partials(terms, n, p):
    """[terms, its partial derivative in each of the n variables], mod p."""
    out = [terms]
    for i in range(n):
        d = {}
        for m, c in terms.items():
            v = c * m[i] % p  # zero when x_i does not divide m
            if v:
                d[m[:i] + (m[i] - 1,) + m[i + 1:]] = v
        out.append(d)
    return out


def vanishing_test(polys, p):
    """A function of a point: whether every term map of `polys` vanishes
    there mod p, compiled to one Python expression of ints."""

    def value(terms):
        monomials = (
            "*".join([str(c)] + [f"x[{i}]**{e}" for i, e in enumerate(m) if e])
            for m, c in terms.items()
        )
        return f"({' + '.join(monomials) or '0'}) % {p} == 0"

    return eval("lambda x: " + " and ".join(map(value, polys)))


@cache
def square_field(p):
    """(add, mul) tables of F_{p^2} = F_p[a]/(a^2 - s*a - r) for the least
    (s, r) whose polynomial has no root mod p.  The element u + v*a is the
    int u + v*p, so F_p is 0..p-1 and 0 is zero."""
    s, r = next(
        (s, r) for s in range(p) for r in range(1, p)
        if all((x * x - s * x - r) % p for x in range(p))
    )
    q = p * p
    add = [[(a % p + b % p) % p + (a // p + b // p) % p * p for b in range(q)] for a in range(q)]
    mul = []
    for a in range(q):
        u, v = a % p, a // p
        mul.append([
            (u * (b % p) + v * (b // p) * r) % p
            + (u * (b // p) + v * (b % p) + v * (b // p) * s) % p * p
            for b in range(q)
        ])
    # a field: every nonzero element has an inverse
    assert all(1 in mul[a] for a in range(1, q))
    return add, mul


def square_vanishing_test(polys, p):
    """A function of a point of F_{p^2}^n: whether every term map of
    `polys` vanishes there, one expression of table lookups."""
    add, mul = square_field(p)
    top = max((e for terms in polys for m in terms for e in m), default=0)
    power = []  # power[a][e] = a^e
    for a in range(p * p):
        row = [1]
        for _ in range(top):
            row.append(mul[row[-1]][a])
        power.append(row)

    def total(values):
        if len(values) == 1:
            return values[0]
        half = len(values) // 2
        return f"A[{total(values[:half])}][{total(values[half:])}]"

    def term(m, c):
        out = str(c)
        for i, e in enumerate(m):
            if e:
                out = f"M[{out}][W[x[{i}]][{e}]]"
        return out

    def value(terms):
        return f"{total([term(m, c) for m, c in terms.items()]) if terms else 0} == 0"

    return eval("lambda x: " + " and ".join(map(value, polys)), {"A": add, "M": mul, "W": power})


def normal_degree(m, normal):
    return sum(m[l] for l in normal)


@cache
def reductions():
    """(scene, p, f mod p, analysis of the reduction) of each scene of the
    corpus and each of PRIMES, but those where p divides a denominator or
    `Scene.validate` rejects the reduction."""
    out = []
    for scene in corpus():
        for p in PRIMES:
            f = reduce_mod(scene.f, p)
            if f is None:
                continue
            n = scene.nvars
            reduced = Scene(n, scene.names, Polynomial(n, PrimeField(p), f), scene.centers)
            try:
                reduced.validate()
            except SceneError:
                continue
            out.append((scene, p, f, analyze(reduced)))
    return out


def point_check(scene, p, f, analysis, square=False):
    """(violations, witnesses, unwitnessed) of the reduction of `scene` mod
    p, at the points of F_p^n, or of F_{p^2}^n when `square`.

    A witness is a point that forces a Singular verdict; a violation is a
    witness whose verdict is not Singular; `unwitnessed` lists the Singular
    verdicts no point forces.
    """
    n = scene.nvars
    size = p * p if square else p
    points = list(itertools.product(range(size), repeat=n))
    violations, witnesses, unwitnessed = [], 0, []

    def require(verdict, found, what):
        nonlocal witnesses
        if found is not None:
            witnesses += 1
            if verdict.status is not Status.SINGULAR:
                status = verdict.status.value
                violations.append(f"{scene.f} mod {p}: {what} at {found}, verdict {status}")

    def witnessed(verdict, found, what):
        if verdict.status is Status.SINGULAR and all(x is None for x in found):
            unwitnessed.append(f"{scene.f} mod {p}: {what} is Singular with no point")

    def singular_point(terms, where):
        polys = with_partials(terms, n, p)
        vanish = square_vanishing_test(polys, p) if square else vanishing_test(polys, p)
        return next((x for x in points if where(x) and vanish(x)), None)

    normal = scene.centers[0].vanishing if scene.centers else ()
    off_center = singular_point(f, lambda x: not normal or any(x[l] for l in normal))
    require(analysis.singular_containment, off_center, "singular point off the center")
    require(analysis.oracle, off_center, "singular point off the center")
    witnessed(analysis.singular_containment, [off_center], "containment")
    on_exceptional = [off_center]
    for center, stages in zip(scene.centers, analysis.centers):
        normal = center.vanishing
        k = min(normal_degree(m, normal) for m in f)
        for j in normal:
            # the chart of y_j as an exponent map: y_j's exponent becomes the
            # normal degree, less k for the strict transform
            strict = {
                m[:j] + (normal_degree(m, normal) - k,) + m[j + 1:]: c for m, c in f.items()
            }
            on_t0 = singular_point(strict, lambda x: x[j] == 0)
            require(analysis.oracle, on_t0, f"singular point on t = 0 of the chart of {j}")
            on_exceptional.append(on_t0)
        phi = {m: c for m, c in f.items() if normal_degree(m, normal) == k}
        on_cone = singular_point(phi, lambda x: any(x[l] for l in normal))
        require(stages.section_verdict, on_cone, "singular point of the leading form's cone")
        witnessed(stages.section_verdict, [on_cone], f"the section of {center.name}")
    witnessed(analysis.oracle, on_exceptional, "the chart oracle")
    return violations, witnesses, unwitnessed


def test_rational_singular_points_force_singular_verdicts():
    checked, witnesses, violations = 0, 0, []
    for scene, p, f, analysis in reductions():
        checked += 1
        found, count, _ = point_check(scene, p, f, analysis)
        violations += found
        witnesses += count
    assert violations == []
    # most reductions survive, and the points are found often enough to
    # catch a wrong verdict
    assert checked > 800
    assert witnesses > 300


def test_singular_verdicts_have_points_over_the_square_field():
    checked, singular, violations, unwitnessed = 0, 0, [], []
    for scene, p, f, analysis in reductions():
        if p ** (2 * scene.nvars) > SQUARE_POINTS:
            continue
        checked += 1
        found, _, missing = point_check(scene, p, f, analysis, square=True)
        violations += found
        unwitnessed += missing
        verdicts = [analysis.singular_containment, analysis.oracle]
        verdicts += [stages.section_verdict for stages in analysis.centers]
        singular += sum(v.status is Status.SINGULAR for v in verdicts)
    # (i) a point over F_{p^2} forces Singular
    assert violations == []
    # (ii) on this corpus, every Singular verdict has a point over F_{p^2}
    assert unwitnessed == []
    assert checked > 500 and singular > 400
