"""Acceptance suite: one test per criterion, exact assertions, stated budgets.

Every Groebner basis computed while these tests run is eagerly re-verified
(S-polynomials reduce to zero, basis reduced and monic) through the audit
hook installed by the module fixture.
"""

import random
import time

import pytest

from strictsmooth.geometry import Status, analyze
from strictsmooth.groebner import Ideal, basis_audit, groebner, is_empty_affine
from strictsmooth.poly import Monomial, Polynomial
from strictsmooth.scalars import QQ
from strictsmooth.selftest import (
    FIXTURES,
    equivalence_suite,
    pairing_scene,
    random_scene,
    route_agreement_suite,
)
from strictsmooth.sod import lefschetz, sod

from _naive import naive_groebner, naive_is_empty, naive_member

VERIFIED_BASES = {"count": 0}


@pytest.fixture(scope="module", autouse=True)
def verify_every_basis():
    def hook(gb):
        gb.verify()
        VERIFIED_BASES["count"] += 1

    with basis_audit(hook):
        yield


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_pairing_subspace_centers():
    start = time.monotonic()
    for n in (1, 2, 3):
        analysis = analyze(pairing_scene(n, "subspace"))
        a = analysis.centers[0]
        assert a.multiplicity == 1, f"n={n}: k != 1"
        base = a.base_locus
        assert base is not None and base.dimension == 0
        assert base.verdict.status is Status.SMOOTH
        # the base locus is exactly the origin of the tangent space
        from strictsmooth.groebner import krull_dimension, radical_membership

        b_ideal = Ideal(base.equations, n, QQ)
        assert krull_dimension(b_ideal) == 0
        for i in range(n):
            assert radical_membership(Polynomial.variable(i, n), b_ideal)
        assert analysis.base_locus_route.status is Status.SMOOTH
        assert analysis.section_route.status is Status.SMOOTH
        assert analysis.oracle.status is Status.SMOOTH
        assert analysis.ledger["strict_transform"] == {
            "pullback:Y": 1,
            "E:X": -1,
        }
    elapsed = time.monotonic() - start
    _report(1, elapsed < 5.0, f"n=1,2,3 exact, {elapsed:.2f}s < 5s")


def test_criterion_2_pairing_origin_centers():
    start = time.monotonic()
    for n in (1, 2, 3):
        analysis = analyze(pairing_scene(n, "origin"))
        a = analysis.centers[0]
        assert a.multiplicity == 2, f"n={n}: k != 2"
        assert a.section_verdict.status is Status.SMOOTH  # the quadric section
        assert analysis.section_route.status is Status.SMOOTH
        assert analysis.oracle.status is Status.SMOOTH
        assert analysis.ledger["strict_transform"] == {
            "pullback:Y": 1,
            "E:O": -2,
        }
        record = analysis.ledger["per_center"][0]
        assert record["discrepancy_formula"] == 2 * n - 3 == record["discrepancy_lattice"]
    elapsed = time.monotonic() - start
    _report(2, elapsed < 10.0, f"n=1,2,3 exact, {elapsed:.2f}s < 10s")


def test_criterion_3_sufficiency_only_witness():
    x, y = (Polynomial.variable(i, 2) for i in range(2))
    from strictsmooth.geometry import Center, Scene

    scene = Scene(2, ("x", "y"), x**2 - y**3, (Center("O", (0, 1)),))
    analysis = analyze(scene)
    assert analysis.centers[0].multiplicity == 2
    assert analysis.centers[0].section_verdict.status is Status.SINGULAR
    assert analysis.section_route.status is Status.INCONCLUSIVE
    assert analysis.oracle.status is Status.SMOOTH
    assert analysis.consistent
    _report(3, True, "cusp: hypothesis inconclusive, oracle smooth")


def test_criterion_4_route_agreement_200_scenes():
    start = time.monotonic()
    smooth_hits = 0
    breaches = []
    for idx, scene, analysis in route_agreement_suite(200, seed=20240811):
        if analysis.section_route.status is Status.SMOOTH:
            smooth_hits += 1
            if analysis.oracle.status is not Status.SMOOTH:
                breaches.append((idx, scene.f))
    elapsed = time.monotonic() - start
    assert smooth_hits > 0, "generator never produced a hypothesis-smooth scene"
    _report(
        4,
        not breaches and elapsed < 300.0,
        f"200 scenes, {smooth_hits} hypothesis hits, 0 exceptions, {elapsed:.1f}s < 300s",
    )


def test_criterion_5_equivalence_100_scenes():
    mismatches = []
    for idx, scene, section, base in equivalence_suite(100, seed=7):
        left = base.verdict.status is Status.SMOOTH
        right = section.status is Status.SMOOTH
        if left != right:
            mismatches.append((idx, scene.f))
    _report(5, not mismatches, "100 k=1 scenes, two routes agree, 0 exceptions")


def test_criterion_6_adjunction_ledger():
    for fixture in FIXTURES:
        analysis = analyze(fixture.build())
        for record in analysis.ledger["per_center"]:
            assert record["discrepancy_formula"] == record["discrepancy_lattice"], fixture.name
    rng = random.Random(99)
    checked = 0
    while checked < 25:
        scene = random_scene(rng)
        try:
            scene.validate()
        except Exception:
            continue
        analysis = analyze(scene)
        for record in analysis.ledger["per_center"]:
            assert record["discrepancy_formula"] == record["discrepancy_lattice"]
        checked += 1
    analysis = analyze(pairing_scene(2, "origin"))
    assert analysis.ledger["per_center"][0]["discrepancy_formula"] == 1
    _report(6, True, "formula == lattice everywhere; origin-center n=2 gives a=1")


def test_criterion_7_sod_ledger():
    residual = {"residual": True, "weakly_crepant": True}
    assert sod([("C", 4, 2)])["blocks"] == [{"center": "C", "twist": -1}, residual]
    assert sod([("C", 2, 1)])["blocks"] == [residual]
    for d in range(2, 13):
        for k in range(1, d):
            result = lefschetz("C", d, k)
            assert len(result["blocks"]) == d - k
            assert len(result["dual_blocks"]) == d - k
            twisted = [b for b in sod([("C", d, k)])["blocks"] if not b.get("residual")]
            assert len(twisted) == d - k - 1
    _report(7, True, "(4,2) and (2,1) exact; block counts hold for 1 <= k < d <= 12")


def test_criterion_8_kernel_invariants_and_naive_oracle():
    # part one: the module fixture re-verified every basis computed so far
    assert VERIFIED_BASES["count"] > 0, "no bases were verified during criteria 1-7"

    # part two: agreement with the independent naive oracle
    rng = random.Random(60221023)
    cases = 0
    attempts = 0
    while cases < 100:
        attempts += 1
        assert attempts < 2000, "oracle case generation stalled"
        nvars = rng.choice((2, 3))
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                exps = [0] * nvars
                for _ in range(rng.randint(0, 3)):
                    exps[rng.randrange(nvars)] += 1
                terms[Monomial(exps)] = QQ.coerce(rng.randint(-3, 3))
            p = Polynomial(nvars, QQ, terms)
            if not p.is_zero:
                gens.append(p)
        if not gens:
            continue
        ideal = Ideal(tuple(gens), nvars)
        try:
            naive = naive_groebner(list(ideal.generators))
        except RuntimeError:
            continue
        if len(naive) > 6:
            continue  # keep the all-permutations division affordable
        gb = groebner(ideal)
        assert is_empty_affine(ideal) == naive_is_empty(naive)
        member = Polynomial.zero(nvars)
        for g in ideal.generators:
            scale = Polynomial.constant(rng.randint(-2, 2), nvars)
            member = member + scale * g
        probe_terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = [0] * nvars
            for _ in range(rng.randint(0, 3)):
                exps[rng.randrange(nvars)] += 1
            probe_terms[Monomial(exps)] = QQ.coerce(rng.randint(-3, 3))
        probe = Polynomial(nvars, QQ, probe_terms)
        for p in (member, probe):
            assert gb.contains(p) == naive_member(p, naive)
        cases += 1
    _report(
        8,
        True,
        f"{VERIFIED_BASES['count']} bases re-verified; {cases} naive-oracle agreements",
    )
