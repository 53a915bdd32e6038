"""A Groebner-free point oracle over small prime fields.

Over GF(p) a point of F_p^n is a point over the algebraic closure, so by
the Jacobian criterion a rational singular point forces a verdict:

* a point off the center where f and all its partials vanish forces the
  containment verdict, and with it the chart oracle, to Singular;
* a point with t = 0 in a chart where the strict transform and all its
  partials vanish forces the chart oracle to Singular;
* a point with a nonzero normal coordinate where the leading form phi and
  all its partials vanish forces the center's section verdict to Singular.

The check is one-way: finding no point proves nothing.  It reads each
polynomial as a term map {exponent tuple: int mod p} and evaluates it with
plain int arithmetic: no Polynomial and no Groebner call.
"""

import itertools

from strictsmooth.errors import SceneError
from strictsmooth.geometry import Center, Scene, Status, analyze
from strictsmooth.parsing import parse_expression
from strictsmooth.poly import Polynomial
from strictsmooth.scalars import QQ, PrimeField
from strictsmooth.selftest import FIXTURES, route_agreement_suite

PRIMES = (2, 3, 5, 7)

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


def normal_degree(m, normal):
    return sum(m[l] for l in normal)


def point_check(scene, p):
    """(violations, witnesses) of the reduction of `scene` mod p, or None
    when p divides a denominator or `Scene.validate` rejects the reduction.

    A witness is a rational point that forces a Singular verdict; a
    violation is a witness whose verdict is not Singular.
    """
    f = reduce_mod(scene.f, p)
    if f is None:
        return None
    n = scene.nvars
    reduced = Scene(n, scene.names, Polynomial(n, PrimeField(p), f), scene.centers)
    try:
        reduced.validate()
    except SceneError:
        return None
    analysis = analyze(reduced)
    points = list(itertools.product(range(p), repeat=n))
    violations, witnesses = [], 0

    def require(verdict, found, what):
        nonlocal witnesses
        if found is not None:
            witnesses += 1
            if verdict.status is not Status.SINGULAR:
                status = verdict.status.value
                violations.append(f"{scene.f} mod {p}: {what} at {found}, verdict {status}")

    def singular_point(terms, where):
        vanish = vanishing_test(with_partials(terms, n, p), p)
        return next((x for x in points if where(x) and vanish(x)), None)

    normal = scene.centers[0].vanishing if scene.centers else ()
    off_center = singular_point(f, lambda x: not normal or any(x[l] for l in normal))
    require(analysis.singular_containment, off_center, "singular point off the center")
    require(analysis.oracle, off_center, "singular point off the center")
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
        phi = {m: c for m, c in f.items() if normal_degree(m, normal) == k}
        on_cone = singular_point(phi, lambda x: any(x[l] for l in normal))
        require(stages.section_verdict, on_cone, "singular point of the leading form's cone")
    return violations, witnesses


def test_rational_singular_points_force_singular_verdicts():
    checked, witnesses, violations = 0, 0, []
    for scene in corpus():
        for p in PRIMES:
            result = point_check(scene, p)
            if result is not None:
                checked += 1
                violations += result[0]
                witnesses += result[1]
    assert violations == []
    # most reductions survive, and the points are found often enough to
    # catch a wrong verdict
    assert checked > 800
    assert witnesses > 300
