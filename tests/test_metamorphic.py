"""Verdicts that do not depend on coordinates.

An automorphism of the ambient space that maps the center to itself lifts
to the blow-up (the universal property of blowing up; Hartshorne,
*Algebraic Geometry*, II.7.14).  So the vanishing order k, the status of
every route, the oracle verdict and the ledger are the same on the image of
a scene.  Witness ideals and rendered polynomials move with the
coordinates, so analyses are compared by those fields, not by report bytes.

The maps, each applied with `_naive.naive_substitute` (ring operations
only) to route-corpus scenes over QQ, GF(7) and GF(32003), and to the A3
surface x^2 + y^2 + z^4 and its permutations, whose only singular point
after the blow-up lies on the exceptional divisor:
- a permutation times a unitriangular integer map on the normal variables;
- the same kind of map on the tangent variables, plus constants;
- a shear u -> u + y_a*y_b of one tangent variable by normal ones.
"""

from __future__ import annotations

import random

import pytest

from _naive import naive_substitute
from strictsmooth.errors import StrictSmoothError
from strictsmooth.geometry import Center, Scene, analyze
from strictsmooth.parsing import parse_expression
from strictsmooth.poly import Polynomial
from strictsmooth.scalars import QQ, PrimeField
from strictsmooth.selftest import random_pairing_like_scene, random_scene

FIELDS = (QQ, PrimeField(7), PrimeField(32003))
SCENES = 60


def _route_corpus(count: int):
    """The first `count` valid scenes of the route corpus (seed 0), the
    i-th moved to FIELDS[i % 3]."""
    rng = random.Random(0)
    drawn = 0
    out = []
    while len(out) < count:
        scene = random_pairing_like_scene(rng) if drawn % 3 == 0 else random_scene(rng)
        drawn += 1
        field = FIELDS[len(out) % len(FIELDS)]
        terms = {m: field.from_rational(c.numerator, c.denominator) for m, c in scene.f.terms()}
        scene = Scene(scene.nvars, scene.names, Polynomial(scene.nvars, field, terms), scene.centers)
        try:
            scene.validate()
        except StrictSmoothError:
            continue
        out.append(scene)
    return out


def _exceptional_only():
    """x^2 + y^2 + z^4 at the origin, and with the quartic on x and on y,
    over each field."""
    names = ("x", "y", "z")
    return [
        Scene(3, names, parse_expression(text, names, field), (Center("O", (0, 1, 2)),))
        for text in ("x^2 + y^2 + z^4", "x^4 + y^2 + z^2", "x^2 + y^4 + z^2")
        for field in FIELDS
    ]


def _var(scene, i):
    return Polynomial.variable(i, scene.nvars, scene.field)


def _unitriangular(scene, variables, rng):
    """The images of `variables` under P*U, P a permutation and U
    unitriangular with entries in -2..2."""
    images = {}
    for row, i in enumerate(rng.sample(variables, len(variables))):
        images[i] = _var(scene, variables[row])
        for j in variables[row + 1:]:
            images[i] = images[i] + _var(scene, j) * rng.randint(-2, 2)
    return images


def _normal_linear(scene, rng):
    return _unitriangular(scene, scene.centers[0].vanishing, rng)


def _tangent_affine(scene, rng):
    """u -> P*U*u plus constants on the tangent variables."""
    images = _unitriangular(scene, scene.centers[0].tangent(scene.nvars), rng)
    one = Polynomial.constant(scene.field.one, scene.nvars, scene.field)
    return {i: image + one * rng.randint(1, 3) for i, image in images.items()}


def _tangent_shear(scene, rng):
    """u -> u + y_a*y_b on one tangent variable u, for normal y_a and y_b."""
    tangent = scene.centers[0].tangent(scene.nvars)
    if not tangent:
        return {}
    normal = scene.centers[0].vanishing
    u = rng.choice(tangent)
    return {u: _var(scene, u) + _var(scene, rng.choice(normal)) * _var(scene, rng.choice(normal))}


MAPS = {
    "normal-linear": _normal_linear,
    "tangent-affine": _tangent_affine,
    "tangent-shear": _tangent_shear,
}


def _invariants(analysis):
    """What no center-preserving automorphism may change."""
    return {
        "k": [a.multiplicity for a in analysis.centers],
        "section": [a.section_verdict.status for a in analysis.centers],
        "base_locus": [
            None if a.base_locus is None else a.base_locus.verdict.status
            for a in analysis.centers
        ],
        "routes": [
            None if v is None else v.status
            for v in (
                analysis.singular_containment,
                analysis.section_route,
                analysis.base_locus_route,
            )
        ],
        "consistent": analysis.consistent,
        "oracle": analysis.oracle.status,
        # singular on the exceptional divisor, which the blow-up determines
        "oracle_on_exceptional": analysis.oracle.chart is not None,
        "ledger": analysis.ledger,
    }


@pytest.fixture(scope="module")
def corpus():
    scenes = _route_corpus(SCENES) + _exceptional_only()
    return [(scene, _invariants(analyze(scene))) for scene in scenes]


def test_corpus_covers_every_field_and_both_verdicts(corpus):
    assert {scene.field for scene, _ in corpus} == set(FIELDS)
    assert {want["oracle"].value for _, want in corpus} == {"smooth", "singular"}
    # and singular only on the exceptional divisor: containment smooth
    assert any(
        want["routes"][0].value == "smooth" and want["oracle"].value == "singular"
        for _, want in corpus
    )


@pytest.mark.parametrize("kind", sorted(MAPS))
def test_verdicts_do_not_depend_on_coordinates(corpus, kind):
    rng = random.Random(kind)
    checked = 0
    for scene, want in corpus:
        images = MAPS[kind](scene, rng)
        image = Scene(scene.nvars, scene.names, naive_substitute(scene.f, images), scene.centers)
        try:
            image.validate()
        except StrictSmoothError:
            continue
        assert _invariants(analyze(image)) == want, (kind, scene.f, image.f)
        checked += 1
    assert checked >= len(corpus) - 5
