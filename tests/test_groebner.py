import hashlib
import importlib
import itertools
import random
import traceback
from fractions import Fraction
from functools import cache
from operator import add, le, mul, sub

import pytest

from strictsmooth import geometry
from strictsmooth.errors import DegreeLimitError, InternalCheckError, StructuralError
from strictsmooth.geometry import Center, Scene, Status, Verdict, analyze, chart_oracle
from strictsmooth.groebner import (
    GroebnerBasis,
    Ideal,
    basis_audit,
    degree_limit,
    determinant,
    groebner,
    ideal_power_membership,
    is_empty_affine,
    krull_dimension,
    minors_ideal,
    normal_form,
    power_ideal,
    radical_membership,
)
from strictsmooth.parsing import parse_expression
from strictsmooth.poly import Monomial, Polynomial, _grevlex_key
from strictsmooth.report import build_report, render_structured
from strictsmooth.scalars import QQ, ModularInt, PrimeField
from strictsmooth.selftest import FIXTURES, pairing_scene, route_agreement_suite

from _naive import (
    divide,
    naive_groebner,
    naive_is_empty,
    naive_krull_dimension,
    naive_finish,
    naive_member,
    naive_radical_member,
    naive_reduced_basis,
    naive_unit_certificate,
    naive_pair_sequence,
)

# the kernel module itself: the package re-exports its `groebner` function
kernel = importlib.import_module("strictsmooth.groebner")

# exponent data size of several cases below: the cap of the short divisibility
# masks that critical-pair maintenance once used, so exponents go past it
MASK_CAP = 4


def variables(nvars):
    return [Polynomial.variable(i, nvars) for i in range(nvars)]


def random_poly(rng, nvars, max_degree=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(nvars)] += 1
        terms[Monomial(exps)] = QQ.coerce(rng.randint(-3, 3))
    return Polynomial(nvars, QQ, terms)


def random_ideal(rng, nvars, max_degree=3):
    gens = []
    for _ in range(rng.randint(1, 3)):
        p = random_poly(rng, nvars, max_degree)
        if not p.is_zero:
            gens.append(p)
    if not gens:
        return random_ideal(rng, nvars, max_degree)
    return Ideal(tuple(gens), nvars)


# ----- groebner ------------------------------------------------------------


def test_hand_buchberger_example():
    x, y = variables(2)
    gb = groebner(Ideal((x**2, x * y + y**2), 2))
    expected = {x**2, x * y + y**2, y**3}
    assert set(gb.basis) == expected
    gb.verify()
    # confirmed against the independent naive implementation: equal ideals
    naive = naive_groebner([x**2, x * y + y**2])
    for g in gb.basis:
        assert divide(g, naive).is_zero
    for g in naive:
        assert normal_form(g, gb).is_zero


def test_basis_terms_are_monomials():
    # the perfbench digest reads m.exps from the terms of every basis
    x, y, z = variables(3)
    gb = groebner(Ideal((x**2 - y * z, x * y - z**2, y**2 - x * z), 3))
    for g in gb.basis:
        for m, _ in g.terms():
            assert type(m) is Monomial and m.exps == tuple(m)


def test_kernel_leaves_its_inputs_unchanged():
    rng = random.Random(8)
    for _ in range(30):
        ideal = random_ideal(rng, 3)
        p = random_poly(rng, 3)
        polys = list(ideal.generators) + [p]
        before = [dict(q.terms()) for q in polys]
        gb = groebner(ideal)
        polys += gb.basis
        before += [dict(q.terms()) for q in gb.basis]
        normal_form(p, gb)
        gb.verify()
        f, g = ideal.generators[0], ideal.generators[-1]
        groebner(Ideal((f, g, p), 3) if not p.is_zero else ideal)
        assert [dict(q.terms()) for q in polys] == before


def test_principal_ideal():
    x, y = variables(2)
    gb = groebner(Ideal((x,), 2))
    assert gb.basis == (x,)


def test_unit_ideal():
    x, y = variables(2)
    gb = groebner(Ideal((Polynomial.constant(1, 2), x), 2))
    assert gb.is_unit and len(gb.basis) == 1


def test_every_groebner_basis_is_reduced_and_spolys_vanish():
    rng = random.Random(2718)
    for _ in range(25):
        ideal = random_ideal(rng, rng.choice((2, 3)))
        gb = groebner(ideal)
        gb.verify()
        for g in ideal.generators:
            assert normal_form(g, gb).is_zero


# ----- normal form ----------------------------------------------------------


def test_membership_of_random_combination():
    rng = random.Random(17)
    x, y, z = variables(3)
    ideal = Ideal((x * y - z, y**2 + x), 3)
    gb = groebner(ideal)
    for _ in range(10):
        combo = Polynomial.zero(3)
        for g in ideal.generators:
            combo = combo + random_poly(rng, 3, 2) * g
        assert normal_form(combo, gb).is_zero


def test_normal_form_of_one_in_proper_ideal():
    x, y = variables(2)
    one = Polynomial.constant(1, 2)
    gb = groebner(Ideal((x, y), 2))
    assert normal_form(one, gb) == one


def test_pairing_quadric_in_coordinate_ideal():
    x1, x2, y1, y2 = variables(4)
    f = x1 * y1 + x2 * y2
    gb = groebner(Ideal((y1, y2), 4))
    assert normal_form(f, gb).is_zero


# ----- power membership ------------------------------------------------------


def test_pairing_quadric_power_membership():
    x1, x2, y1, y2 = variables(4)
    f = x1 * y1 + x2 * y2
    small = Ideal((y1, y2), 4)
    assert ideal_power_membership(f, small, 1)
    assert not ideal_power_membership(f, small, 2)
    origin = Ideal((x1, x2, y1, y2), 4)
    assert ideal_power_membership(f, origin, 2)
    assert not ideal_power_membership(f, origin, 3)


def test_power_membership_brute_force_example():
    x, y, z = variables(3)
    f = x**2 - y**2 * z
    ideal = Ideal((x, y), 3)
    # oracle: expand the generators of I^2 and I^3 and divide
    sq = naive_groebner(list(power_ideal(ideal, 2).generators))
    cube = naive_groebner(list(power_ideal(ideal, 3).generators))
    assert naive_member(f, sq) is True
    assert naive_member(f, cube) is False
    assert ideal_power_membership(f, ideal, 2)
    assert not ideal_power_membership(f, ideal, 3)


def test_power_membership_antitone_in_k():
    rng = random.Random(4242)
    x, y = variables(2)
    ideal = Ideal((x, y), 2)
    for _ in range(20):
        p = random_poly(rng, 2, 4)
        if p.is_zero:
            continue
        results = [ideal_power_membership(p, ideal, k) for k in (1, 2, 3)]
        for weaker, stronger in zip(results, results[1:]):
            if stronger:
                assert weaker


def test_power_membership_checks_the_ring_before_any_power(monkeypatch):
    # the ring is checked first: a zero polynomial of another ring does not
    # pass as a member, and no power is built for a polynomial that fails
    built = []
    real = kernel.power_ideal
    monkeypatch.setattr(kernel, "power_ideal", lambda *args: built.append(args) or real(*args))
    x = Polynomial.variable(0, 2, QQ)
    ideal = Ideal((x,), 2, QQ)
    others = [
        Polynomial.zero(5, QQ),  # another ring
        Polynomial.variable(0, 5, QQ),
        Polynomial.zero(2, PrimeField(7)),  # another field
        Polynomial.variable(1, 2, PrimeField(7)),
    ]
    for p in others:
        for k in (1, 2):
            with pytest.raises(StructuralError, match="polynomial of the same ring"):
                ideal_power_membership(p, ideal, k)
        with pytest.raises(StructuralError, match="polynomial of the same ring"):
            radical_membership(p, ideal)
    assert built == []
    assert ideal_power_membership(Polynomial.zero(2, QQ), ideal, 2)


# ----- emptiness -------------------------------------------------------------


def test_inconsistent_system_is_empty():
    x, y = variables(2)
    assert is_empty_affine(Ideal((x, x + 1), 2))


def test_origin_survives():
    x, y = variables(2)
    assert not is_empty_affine(Ideal((x, y), 2))


def test_pairing_jacobian_keeps_origin():
    n = 2
    nvars = 2 * n
    vs = variables(nvars)
    f = vs[0] * vs[2] + vs[1] * vs[3]
    gens = [f] + [f.partial(i) for i in range(nvars)]
    assert not is_empty_affine(Ideal(tuple(gens), nvars))


# ----- radical membership -----------------------------------------------------


def test_radical_membership_basics():
    x, y = variables(2)
    assert radical_membership(y, Ideal((y**2,), 2))
    assert not radical_membership(x, Ideal((y,), 2))


def test_radical_membership_jacobian_ideal():
    x1, x2, y1, y2 = variables(4)
    f = x1 * y1 + x2 * y2
    jac = Ideal(tuple(f.partial(i) for i in range(4)), 4)
    gb = groebner(jac)
    assert set(gb.basis) == {x1, x2, y1, y2}
    assert radical_membership(y1, jac)


def test_radical_membership_implied_by_power_in_ideal():
    rng = random.Random(808)
    for _ in range(20):
        ideal = random_ideal(rng, 2, 2)
        g = random_poly(rng, 2, 2)
        gb = groebner(ideal)
        if any(normal_form(g**m, gb).is_zero for m in (1, 2, 3, 4)):
            assert radical_membership(g, ideal)


# ----- dimension --------------------------------------------------------------


def test_dimension_of_coordinate_subspaces():
    for nvars in (2, 4, 6):
        c = nvars // 2
        gens = tuple(Polynomial.variable(i, nvars) for i in range(c))
        assert krull_dimension(Ideal(gens, nvars)) == nvars - c
    rng = random.Random(12)
    for _ in range(10):
        nvars = rng.randint(1, 6)
        c = rng.randint(0, nvars)
        idx = sorted(rng.sample(range(nvars), c))
        gens = tuple(Polynomial.variable(i, nvars) for i in idx)
        ideal = Ideal(gens, nvars, QQ)
        assert krull_dimension(ideal) == nvars - c


def test_dimension_of_two_lines():
    x, y = variables(2)
    assert krull_dimension(Ideal((x * y,), 2)) == 1


def test_dimension_empty_and_zero():
    x, y = variables(2)
    assert krull_dimension(Ideal((x, x + 1), 2)) is None
    assert krull_dimension(Ideal((x, y), 2)) == 0


def test_dimension_of_many_coordinate_hyperplanes_is_fast():
    # the exhaustive search would try 2^24 subsets here
    gens = tuple(Polynomial.variable(i, 24) for i in range(24))
    assert krull_dimension(Ideal(gens, 24)) == 0


DIMENSION_FIELDS = (QQ, PrimeField(32003), PrimeField(7))


def field_poly(rng, nvars, fld, max_degree, max_terms):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(nvars)] += 1
        terms[Monomial(exps)] = fld.coerce(rng.randint(-3, 3))
    return Polynomial(nvars, fld, terms)


def dimension_case(rng):
    """A small ideal over QQ or GF(p): random, monomial, zero-dimensional or unit."""
    fld = rng.choice(DIMENSION_FIELDS)
    nvars = rng.randint(1, 7)
    kind = rng.choice(("random", "monomial", "zero-dim", "unit"))
    gens = []
    if kind == "monomial":
        for _ in range(rng.randint(1, 5)):
            exps = [0] * nvars
            for _ in range(rng.randint(1, 3)):
                exps[rng.randrange(nvars)] += 1
            gens.append(Polynomial(nvars, fld, {Monomial(exps): fld.coerce(rng.randint(1, 3))}))
    elif kind == "zero-dim":
        # a pure power leads each generator: dimension 0, or empty once the
        # extra generator is adjoined
        for i in range(nvars):
            power = Polynomial.variable(i, nvars, fld) ** rng.randint(1, 3)
            gens.append(power + field_poly(rng, nvars, fld, 0, 1))
        if rng.random() < 0.3:
            gens.append(field_poly(rng, nvars, fld, 2, 3))
    else:
        for _ in range(rng.randint(1, 3)):
            gens.append(field_poly(rng, nvars, fld, 2, 3))
        if kind == "unit":
            g = field_poly(rng, nvars, fld, 2, 3)
            gens += [g, g + Polynomial.constant(fld.coerce(rng.randint(1, 3)), nvars, fld)]
    gens = tuple(g for g in gens if not g.is_zero)
    return Ideal(gens, nvars, fld)


def test_dimension_search_matches_exhaustive_search():
    rng = random.Random(19880601)
    seen = {"empty": 0, "zero": 0, "positive": 0, "prime field": 0}
    checked = 0
    while checked < 240:
        ideal = dimension_case(rng)
        try:
            want = naive_krull_dimension(ideal.generators, ideal.nvars)
        except RuntimeError:
            continue  # the naive Buchberger ran out of steps
        assert krull_dimension(ideal) == want, ideal.generators
        seen["empty" if want is None else "zero" if want == 0 else "positive"] += 1
        seen["prime field"] += ideal.field != QQ
        checked += 1
    assert min(seen.values()) >= 20, seen


# ----- minors ------------------------------------------------------------------


def test_identity_minors_full_rank():
    one = Polynomial.constant(1, 2)
    zero = Polynomial.zero(2)
    ideal = minors_ideal([[one, zero], [zero, one]], 2)
    assert is_empty_affine(ideal)


def test_two_by_two_determinant():
    x1, x2, y1, y2 = variables(4)
    matrix = [[y1, y2], [x1, x2]]
    ideal = minors_ideal(matrix, 2)
    assert ideal.generators == (y1 * x2 - y2 * x1,)
    # cofactor-expansion oracle
    assert determinant(matrix) == y1 * x2 - x1 * y2
    # an empty matrix is a structural error, as for `minors_ideal`
    with pytest.raises(StructuralError, match="determinant of an empty matrix"):
        determinant([])


def test_zero_first_row_has_zero_determinant_and_no_minors():
    x, y, z = variables(3)
    zero = Polynomial.zero(3)
    matrix = [[zero, zero, zero], [x, y, z], [y, z, x]]
    assert determinant(matrix).is_zero
    assert determinant([row[:2] for row in matrix[:2]]).is_zero
    # the minors of rows (0, 1) and (0, 2) are zero and left out
    ideal = minors_ideal(matrix, 2)
    assert ideal.generators == (x * z - y * y, x * x - z * y, y * x - z * z)


def test_one_by_n_minors_are_the_entries():
    x, y, z = variables(3)
    jac = [[x, y**2, z]]
    ideal = minors_ideal(jac, 1)
    assert set(ideal.generators) == {x, y**2, z}


def test_minors_size_zero_is_unit():
    x, y = variables(2)
    ideal = minors_ideal([[x, y]], 0)
    assert is_empty_affine(ideal)


def test_minors_size_too_large_rejected():
    x, y = variables(2)
    with pytest.raises(StructuralError):
        minors_ideal([[x, y]], 2)


# ----- input guards --------------------------------------------------------------


def _verify_with_a_source_outside_the_basis():
    # the basis {x} of (x) with (x, y) as its source: y does not reduce to zero
    x, y = variables(2)
    gb = groebner(Ideal((x,), 2, QQ))
    GroebnerBasis(gb._reducers, gb._pk, Ideal((x, y), 2, QQ)).verify()


def _x(nvars=2, fld=QQ):
    return Polynomial.variable(0, nvars, fld)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Ideal((Polynomial.zero(2),), 2), StructuralError, "must be nonzero"),
        (lambda: Ideal((_x(3),), 2), StructuralError, "does not live in the ambient ring"),
        (lambda: Ideal((_x(), _x(2, PrimeField(7))), 2), StructuralError,
         "generators over different fields"),
        (lambda: normal_form(_x(3), groebner(Ideal((_x(),), 2))), StructuralError,
         "does not live in the basis ring"),
        (lambda: normal_form(_x(2, PrimeField(7)), groebner(Ideal((_x(),), 2))),
         StructuralError, "over a different field than the basis"),
        (lambda: power_ideal(Ideal((_x(),), 2), 0), StructuralError, "requires k >= 1"),
        (lambda: ideal_power_membership(_x(), Ideal((_x(),), 2), 0), StructuralError,
         "requires k >= 1"),
        (lambda: determinant([[_x(), _x()]]), StructuralError, "requires a square matrix"),
        (lambda: minors_ideal([], 1), StructuralError, "minors of an empty matrix"),
        (lambda: minors_ideal([[]], 1), StructuralError, "minors of an empty matrix"),
        (lambda: minors_ideal([[_x(), _x()], [_x()]], 1), StructuralError,
         "rows have unequal lengths"),
        (lambda: minors_ideal([[_x(), _x(3)]], 1), StructuralError,
         "entries live in different rings"),
        (lambda: minors_ideal([[_x(), _x(2, PrimeField(7))]], 1), StructuralError,
         "entries live in different rings"),
        (_verify_with_a_source_outside_the_basis, InternalCheckError,
         "a source generator does not reduce to zero"),
    ],
    ids=[
        "ideal-zero-generator", "ideal-other-ring", "ideal-mixed-fields",
        "normal-form-other-ring", "normal-form-other-field", "power-ideal-k0",
        "power-membership-k0", "determinant-not-square", "minors-no-rows",
        "minors-no-columns", "minors-ragged", "minors-other-ring", "minors-other-field",
        "verify-source-outside",
    ],
)
def test_input_guards_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()


# ----- agreement with the naive oracle -------------------------------------------


def test_membership_and_emptiness_agree_with_naive_oracle():
    rng = random.Random(60221023)
    checked = 0
    while checked < 40:
        nvars = rng.choice((2, 3))
        ideal = random_ideal(rng, nvars)
        try:
            naive = naive_groebner(list(ideal.generators))
        except RuntimeError:
            continue
        if len(naive) > 6:
            continue  # keep the exhaustive permutation set tractable
        gb = groebner(ideal)
        assert is_empty_affine(ideal) == naive_is_empty(naive)
        combo = Polynomial.zero(nvars)
        for g in ideal.generators:
            combo = combo + random_poly(rng, nvars, 2) * g
        probe = random_poly(rng, nvars, 3)
        for p in (combo, probe):
            assert gb.contains(p) == naive_member(p, naive)
        checked += 1


# ----- monomial bookkeeping: packed lcms, the unit exit, ideal powers ----------


def test_packed_lcm_is_the_fieldwise_max():
    rng = random.Random(4)
    for width in range(2, 7):
        for _ in range(150):
            nvars = rng.randint(1, 5)
            pk = kernel._packing(nvars, width)
            # two monomials of degree below the guard bound; their lcm
            # may have degree up to 2 * (bound - 1)
            a, b, c, d = (bounded_exponents(rng, nvars, pk.bound - 1) for _ in "abcd")
            ea, eb, ec, ed = (pk.exponents(sum(map(mul, m, pk.weights))) for m in (a, b, c, d))
            lab, lcd = pk.lcm(ea, eb), pk.lcm(ec, ed)
            want = tuple(map(max, a, b))
            assert pk.monomial(pk.pack(lab)) == want, (width, a, b)
            assert pk.pack(ea) == sum(map(mul, a, pk.weights))
            want_cd = tuple(map(max, c, d))
            assert (pk.pack(lab) < pk.pack(lcd)) == (_grevlex_key(want) < _grevlex_key(want_cd))
            coprime = not any(map(min, a, b))
            assert (lab == ea + eb) == coprime, (width, a, b)


def sparse_poly(rng, nvars, fld, top):
    """One to three terms with exponents up to `top`, nonzero coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = Monomial(rng.randint(0, top) for _ in range(nvars))
        terms[exps] = fld.coerce(rng.choice((-3, -2, -1, 1, 2, 3)))
    return Polynomial(nvars, fld, terms)


def rabinowitsch(gens, g):
    """The ideal of the radical test for g: gens and 1 - t*g in one more variable."""
    n = g.nvars
    t = Polynomial.variable(n, n + 1, g.field)
    one = Polynomial.constant(g.field.one, n + 1, g.field)
    return tuple(p.extended(n + 1) for p in gens) + (one - t * g.extended(n + 1),)


def term_sets(polys):
    return {frozenset(p.terms()) for p in polys}


@pytest.mark.parametrize(
    "fld", [QQ, PrimeField(7), PrimeField(32003)], ids=["QQ", "GF7", "GF32003"]
)
def test_reduced_basis_matches_naive_above_the_mask_cap(fld):
    rng = random.Random(91)
    top = MASK_CAP + 2
    x, y = (Polynomial.variable(i, 2, fld) for i in range(2))
    cases = [
        (x**6 - y, x * y**5 - x),
        # g lies in the radical: the seed reduces 1 - t*g to a constant
        rabinowitsch((x, y), x + y),
        # g lies in the radical, and the unit comes out of the pair loop
        rabinowitsch((x**5, y**6 - x), x),
        rabinowitsch((x**5 - y**6, y**5), y),
        rabinowitsch(((x**2 + y) ** 3 * y,), (x**2 + y) * y),
    ]
    for gens in cases:
        got = groebner(Ideal(gens, gens[0].nvars, fld)).basis
        assert term_sets(got) == term_sets(naive_reduced_basis(gens, max_steps=60)), gens
    checked = 0
    while checked < 15:
        nvars = rng.choice((2, 3))
        gens = [sparse_poly(rng, nvars, fld, top) for _ in range(rng.randint(1, 3))]
        gens = tuple(g for g in gens if not g.is_zero)
        try:
            want = naive_reduced_basis(gens, max_steps=60)
        except RuntimeError:
            continue  # the naive Buchberger ran out of steps
        got = groebner(Ideal(gens, nvars, fld)).basis
        assert term_sets(got) == term_sets(want), gens
        checked += 1


def test_seed_ends_at_the_first_constant(monkeypatch):
    x, y, t = variables(3)
    pk = kernel._packing(3, kernel._WIDTH)
    reduced = []
    real = kernel._reduce
    monkeypatch.setattr(kernel, "_reduce", lambda p, *rest: reduced.append(p) or real(p, *rest))

    def seed(*polys):
        gens = [kernel._kernel_terms(g._terms, 0, pk.weights) for g in polys]
        return [{e.lm: e.lc, **e.tail} for e in kernel._interreduce_seed(gens, 0, pk)]

    # 1 - t*x reduces to 1 against x; the last generator is never reduced
    assert seed(x, y, 1 - t * x, t**2 * y + x**3) == [{0: 1}]
    assert len(reduced) == 2


def test_power_ideal_keeps_the_generator_order():
    # variables with coefficient one take the exponent-vector path, every
    # other tuple the Polynomial products: both give the products of
    # combinations_with_replacement, coefficient for coefficient, in order,
    # and an ideal equal to the plain `Ideal` of those products
    rng = random.Random(12)
    for fld in (QQ, PrimeField(32003)):
        x, y, z = (Polynomial.variable(i, 3, fld) for i in range(3))
        wide = [Polynomial.variable(i, 40, fld) for i in range(40)]
        origin = [Polynomial.variable(i, 12, fld) for i in range(12)]
        variable_tuples = [
            (x, y, z),
            tuple(wide[20:]),  # the 20 y's of a 40-variable ring
            tuple(origin),  # a 12-variable origin
            (z, x),  # out of index order
            (x, x, y),  # a repeated variable
        ]
        tuples = variable_tuples + [
            (x * y, y**2, x**3 * z),  # monomials that are not variables
            (2 * x, -y),  # monomials whose coefficient is not one
            (x, y + z, y * z),  # monomial and non-monomial generators
            (x + y, x * z - y**2, z**3 + 1),  # non-monomial
            (x - y, x - y, y * z),  # a repeated generator
        ]
        for _ in range(6):
            gens = (field_poly(rng, 3, fld, 3, 3) for _ in range(rng.randint(1, 4)))
            tuples.append(tuple(g for g in gens if not g.is_zero) or (x,))
        for gens in tuples:
            ideal = Ideal(gens, gens[0].nvars, fld)
            for k in range(1, 5):
                want = []
                for combo in itertools.combinations_with_replacement(gens, k):
                    prod = combo[0]
                    for g in combo[1:]:
                        prod = prod * g
                    want.append(prod)
                power = power_ideal(ideal, k)
                got = power.generators
                assert [list(g.terms()) for g in got] == [list(g.terms()) for g in want]
                assert {type(c) for g in got for c in g._terms.values()} == {type(fld.one)}
                assert all(type(m) is Monomial for g in got for m in g._terms)
                plain = Ideal(tuple(want), ideal.nvars, fld)
                assert power == plain
                assert power.graded_variables == plain.graded_variables
                if gens not in variable_tuples:
                    continue
                basis = groebner(power).basis
                if len(want) <= 80:
                    assert term_sets(basis) == term_sets(naive_reduced_basis(want, max_steps=4000))
                else:
                    # every product has degree k, so none divides another:
                    # the reduced basis is the distinct products (up to
                    # 8,855 of them, beyond the naive pair loop's budget)
                    assert term_sets(basis) == term_sets(want)


# ----- packed monomials -------------------------------------------------------------


def random_exponents(rng, nvars):
    """Exponent vectors with small entries, entries above `MASK_CAP`, and large ones."""
    top = rng.choice((2, 3 * MASK_CAP, 300))
    return tuple(rng.randint(0, top) for _ in range(nvars))


def bounded_exponents(rng, nvars, degree):
    """An exponent vector of total degree at most `degree`, at times all in
    one variable."""
    if rng.random() < 0.3:
        exps = [0] * nvars
        exps[rng.randrange(nvars)] = rng.randint(0, degree)
        return tuple(exps)
    exps = [rng.randint(0, degree) for _ in range(nvars)]
    while sum(exps) > degree:
        exps[rng.randrange(nvars)] //= 2
    return tuple(exps)


def test_packing_is_additive_ordered_invertible_and_tests_divisibility():
    rng = random.Random(11)
    for _ in range(400):
        nvars = rng.randint(1, 5)
        a, b = random_exponents(rng, nvars), random_exponents(rng, nvars)
        if rng.random() < 0.3:  # a sure divisor
            a = tuple(rng.randint(0, e) for e in b)
        product = tuple(map(add, a, b))
        # a width at which the product's degree fits, as `_packed` picks it
        pk = kernel._packing(nvars, sum(product).bit_length() + 1)
        ka, kb, kab = (sum(map(mul, m, pk.weights)) for m in (a, b, product))
        assert ka + kb == kab and kab - ka == kb
        assert (ka < kb) == (_grevlex_key(a) < _grevlex_key(b)), (a, b)
        assert (ka == kb) == (a == b)
        for m, k in ((a, ka), (b, kb), (product, kab)):
            assert pk.monomial(k) == m and type(pk.monomial(k)) is Monomial
            assert k & pk.mask == sum(m)
        ea, eb = pk.exponents(ka), pk.exponents(kb)
        assert pk.divides(ea, eb) == all(map(le, a, b)), (a, b)
        assert pk.divides(eb, ea) == all(map(le, b, a)), (a, b)


@pytest.mark.parametrize("fld", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
def test_monomial_ideals_match_naive_under_every_order(fld):
    rng = random.Random(53)
    for _ in range(40):
        nvars = rng.randint(1, 4)
        gens = []
        for _ in range(rng.randint(1, 5)):
            exps = Monomial(rng.randint(0, 4) for _ in range(nvars))
            if rng.random() < 0.05:
                exps = Monomial((0,) * nvars)  # a constant generator
            c = fld.coerce(rng.choice((-3, -2, 2, 3, 5)))
            gens.append(Polynomial(nvars, fld, {exps: c}))
        gb = groebner(Ideal(tuple(gens), nvars, fld))
        gb.verify()
        want = naive_reduced_basis(gens)
        assert term_sets(gb.basis) == term_sets(want), gens
        # descending in the order, as the Buchberger path returns them
        keys = [_grevlex_key(g.leading_monomial()) for g in gb.basis]
        assert keys == sorted(keys, reverse=True)


def overflow_cases(fld):
    x, y = (Polynomial.variable(i, 2, fld) for i in range(2))
    ideals = [
        Ideal(gens, gens[0].nvars, fld)
        for gens in (
            (x**6 - y, x * y**5 - x),
            rabinowitsch((x**5, y**6 - x), x),
            rabinowitsch((x**5 - y**6, y**5), y),
        )
    ]
    ideals.append(Ideal(rabinowitsch(((x**2 + y) ** 3 * y,), (x**2 + y) * y), 3, fld))
    ideals.append(katsura_ideal(3, fld))
    ideals.append(signature_overflow_case(fld))
    # the smallest width gets this one wrong without the S-polynomial check
    ideals.append(Ideal((2 * x**4 * y**2 + 2 * y**2, y**4 - x * y**3 + y**2), 2, fld))
    return ideals


def signature_overflow_case(fld):
    """A square system whose run at width 4 overflows a pair's signature,
    not an S-polynomial's lcm."""
    x0, x1, x2, x3 = (Polynomial.variable(i, 4, fld) for i in range(4))
    gens = (2 * x0**2 * x2 + 3 * x1 * x2 - 2 * x3, x1**2 * x2**2 - x0 + 3 * x2 + 3)
    return Ideal(gens, 4, fld)


@pytest.mark.parametrize(
    "fld", [QQ, PrimeField(7), PrimeField(32003)], ids=["QQ", "GF7", "GF32003"]
)
def test_overflow_restarts_give_the_bases_of_the_default_width(fld, monkeypatch):
    ideals = overflow_cases(fld)
    want = [groebner(ideal).basis for ideal in ideals]
    widths = []
    real = kernel._packing
    monkeypatch.setattr(kernel, "_WIDTH", 2)
    monkeypatch.setattr(kernel, "_packing", lambda *key: widths.append(key[1]) or real(*key))
    restarts = []
    for ideal, basis in zip(ideals, want):
        widths.clear()
        gb = groebner(ideal)
        assert gb.basis == basis, ideal.generators
        # each restart doubles the width
        assert all(b == 2 * a for a, b in zip(widths, widths[1:])), widths
        restarts.append(len(widths) - 1)
        gb.verify()
    # the S-polynomial check's case restarts, and so do others
    assert restarts[-1] > 0 and sum(r > 0 for r in restarts) > 1, restarts


@pytest.mark.parametrize(
    "fld", [QQ, PrimeField(7), PrimeField(32003)], ids=["QQ", "GF7", "GF32003"]
)
def test_signature_check_restarts_the_run_without_an_s_polynomial_overflow(fld, monkeypatch):
    ideal = signature_overflow_case(fld)
    want = groebner(ideal).basis
    widths, overflows, runs = [], [], []
    packing, spoly, signature = kernel._packing, kernel._spoly_t, kernel._signature

    def checked_spoly(*args):
        try:
            return spoly(*args)
        except kernel._Overflow:
            overflows.append(args)
            raise

    monkeypatch.setattr(kernel, "_WIDTH", 2)
    monkeypatch.setattr(kernel, "_packing", lambda *key: widths.append(key[1]) or packing(*key))
    monkeypatch.setattr(kernel, "_spoly_t", checked_spoly)
    monkeypatch.setattr(kernel, "_signature", lambda *a: runs.append(a) or signature(*a))
    gb = groebner(ideal)
    # the input degree 4 starts the run at width 4; the signature check
    # restarts it at width 8, and no S-polynomial overflows
    assert widths == [4, 8] and len(runs) == 2 and overflows == []
    assert gb.basis == want


@pytest.mark.parametrize(
    "fld", [QQ, PrimeField(7), PrimeField(32003)], ids=["QQ", "GF7", "GF32003"]
)
def test_signature_overflow_check_comes_before_the_koszul_test(fld, monkeypatch):
    """(y^4, 3*x^2*y^2*z - 3*y*z - z) starts at width 4, for its input
    degree, and its second step has `kept` = {y^4}.  The first pair whose
    signature reaches the bound 8 reads as divisible by y^4 under the
    guard-bit test, which holds only below the bound.  A loop that ran the
    Koszul test first would drop that pair and finish at width 4; the
    overflow check restarts the run at width 8, with the default basis."""
    x, y, z = (Polynomial.variable(i, 3, fld) for i in range(3))
    ideal = Ideal((y**4, 3 * x**2 * y**2 * z - 3 * y * z - z), 3, fld)
    want = groebner(ideal).basis
    widths, misread = [], []
    packing, signature = kernel._packing, kernel._signature

    def checked(*args):
        try:
            return signature(*args)
        except kernel._Overflow as exc:
            # the pair being pushed when the check fired, read off `push`
            frame = list(traceback.walk_tb(exc.__traceback__))[-1][0]
            sig, koszul, pk = (frame.f_locals[name] for name in ("sig", "koszul", "pk"))
            x = pk.exponents(sig) | pk.guard
            misread.append(any((x - w) & pk.guard == pk.guard for w in koszul))
            raise

    monkeypatch.setattr(kernel, "_WIDTH", 2)
    monkeypatch.setattr(kernel, "_packing", lambda *key: widths.append(key[1]) or packing(*key))
    monkeypatch.setattr(kernel, "_signature", checked)
    gb = groebner(ideal)
    assert widths == [4, 8] and misread == [True]
    assert gb.basis == want


def test_large_exponents_survive_packing():
    fld = PrimeField(32003)
    x, y = (Polynomial.variable(i, 2, fld) for i in range(2))
    gens = (x**70000 - y, y**2 - x)
    assert groebner(Ideal(gens, 2, fld)).basis == gens


# the quintic-5 scene of the hard-scenes benchmark, and the sha256 of its
# structured report; kernel bookkeeping must leave those bytes as they are
QUINTIC = "a^5 + b^5 + c^5 + d^5 + e^5 + a*b*c*d*e"
QUINTIC_REPORT_SHA256 = "0da304999e3d15bf2fd9e2d82259af833983796d081b89a5c13cb08f9ba00a3a"


def quintic_scene():
    names = tuple("abcde")
    return Scene(5, names, parse_expression(QUINTIC, names, QQ), (Center("O", tuple(range(5))),))


def test_quintic_report_bytes_are_unchanged():
    text = render_structured(build_report(analyze(quintic_scene())))
    assert hashlib.sha256(text.encode()).hexdigest() == QUINTIC_REPORT_SHA256


# the least degree bound D (the CLI's --max-degree) under which `analyze`
# finishes, for D = 1..8; from there on the report is that of an unbounded
# run.  quintic-5 needed D = 8 while its radical tests ran on Rabinowitsch
# lifts in one more variable; cusp-origin, double-cone, higher-cusp and
# pairing-n2-deformed needed D = 4, 6, 8 and 5 while their chart oracle
# tested the whole (S, dS, t), not its restriction to t = 0
FIRST_FINISHING_DEGREE = {
    "pairing-n1-subspace": 2, "pairing-n2-subspace": 2, "pairing-n3-subspace": 2,
    "pairing-n1-origin": 3, "pairing-n2-origin": 3, "pairing-n3-origin": 3,
    "cusp-origin": 3, "double-cone": 4, "higher-cusp": 5, "node-no-center": 2,
    "smooth-line-no-center": 1, "double-divisor": 3, "reducible-pair": 2,
    "pairing-n2-deformed": 3, "linear-center": 2, "quintic-5": 7,
}


def test_the_least_degree_bound_each_scene_finishes_under_is_pinned():
    builds = {f.name: f.build for f in FIXTURES} | {"quintic-5": quintic_scene}
    assert builds.keys() == FIRST_FINISHING_DEGREE.keys()
    for name, build in builds.items():
        full = render_structured(build_report(analyze(build())))
        for bound in range(1, 9):
            scene = build()
            try:
                with degree_limit(bound):
                    text = render_structured(build_report(analyze(scene)))
            except DegreeLimitError:
                text = None
            assert (text is not None) is (bound >= FIRST_FINISHING_DEGREE[name]), (name, bound)
            assert text in (None, full), (name, bound)


# ----- radical tests share the seed of their ideal -------------------------------

# the sha256 of the structured report of pairing_scene(20, "subspace")
PAIRING_20_REPORT_SHA256 = "341bade22efd6fe696aa4351b3c6c14e0620871de11f84d76864cf90448b7cc6"

RADICAL_FIELDS = [QQ, PrimeField(7), PrimeField(32003)]


def counting(monkeypatch, module, name, seen):
    """Replace module.name by a wrapper that appends each call's result to `seen`."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: seen.append(real(*args)) or seen[-1])


def recording(monkeypatch, module, name, seen):
    """Replace module.name by a wrapper that appends each call's first argument to `seen`."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda arg, *rest: seen.append(arg) or real(arg, *rest))


def is_homogeneous(ideal):
    return all(len({sum(m) for m in h.monomials()}) == 1 for h in ideal.generators)


@cache
def radical_cases(fld):
    """(ideal, [(probe, naive answer), ...]) for seeded Jacobian ideals
    (h, its nonzero partials) in two variables, probed at every variable
    and at x + y, and for bases of their own: one whose seed is {1} by a
    constant generator, one whose seed reduces to {1}, one with no
    generators, and two whose pair loop overflows the narrowest packing
    after their seed is built."""
    rng = random.Random(18)
    x, y = (Polynomial.variable(i, 2, fld) for i in range(2))
    ideals = [
        Ideal((x + y, 2 + 0 * x), 2, fld),
        Ideal((x, x * y - 1), 2, fld),
        Ideal((), 2, fld),
        Ideal((x**3 - y,), 2, fld),
        Ideal((x * y**2 - y, x**3), 2, fld),
    ]
    while len(ideals) < 13:
        h = sparse_poly(rng, 2, fld, 3)
        if not h.is_constant:
            partials = (d for d in (h.partial(0), h.partial(1)) if not d.is_zero)
            ideals.append(Ideal((h, *partials), 2, fld))
    cases = []
    for ideal in ideals:
        try:
            want = [(g, naive_radical_member(g, ideal.generators, 400)) for g in (x, y, x + y)]
        except RuntimeError:
            continue  # the naive Buchberger ran out of steps
        cases.append((ideal, want))
    return cases


@pytest.mark.parametrize("width", [kernel._WIDTH, 2], ids=["default-width", "width-2"])
@pytest.mark.parametrize("fld", RADICAL_FIELDS, ids=["QQ", "GF7", "GF32003"])
def test_radical_tests_on_one_ideal_match_the_naive_test(fld, width, monkeypatch):
    cases = radical_cases(fld)
    assert {answer for _, want in cases for _, answer in want} == {True, False}
    assert sum(not is_homogeneous(ideal) for ideal, _ in cases) >= 6
    monkeypatch.setattr(kernel, "_WIDTH", width)
    packings = []
    real_packing = kernel._packing

    def packing(*key):
        # each of these tests needs at most one restart: a restart that
        # did not widen the packing would overflow again without end
        packings.append(key)
        assert len(packings) <= 2, packings
        return real_packing(*key)

    def check(g, ideal, answer):
        packings.clear()
        assert radical_membership(g, ideal) is answer, (ideal.generators, g)

    monkeypatch.setattr(kernel, "_packing", packing)
    restarted = 0
    for ideal, want in cases:
        # in a row on one object, then on an equal but distinct one
        for base in (ideal, Ideal(ideal.generators, 2, fld)):
            for g, answer in want:
                check(g, base, answer)
                restarted += len(packings) == 2
            # read once, cached on the object (`test_graded_variables_match_a_sympy_rank_test`
            # checks the value)
            assert "graded_variables" in vars(base)
    # the narrowest packing overflows on some tests, and each restarts once
    assert restarted > 0 if width == 2 else restarted == 0
    # interleaved, A, B, A: a test answers as it does alone
    for (a, want_a), (b, want_b) in zip(cases, cases[1:]):
        for (g, answer_a), (_, answer_b) in zip(want_a, want_b):
            check(g, a, answer_a)
            check(g, b, answer_b)
            check(g, a, answer_a)


def test_radical_witness_reduced_against_its_ideal_forms_no_pair(monkeypatch):
    # the witness is reduced against the generators before it: 1 - t*x is 1
    # modulo x, so no pair is ever formed
    x, y = variables(2)
    updates, tested = [], []
    counting(monkeypatch, kernel, "_update", updates)
    recording(monkeypatch, kernel, "is_empty_affine", tested)
    # not a variable, then a variable that no weight of its ideal grades (x^2 - x):
    # both take the Rabinowitsch route
    assert radical_membership(x + y, Ideal((x, y), 2))
    assert radical_membership(x, Ideal((x**2 - x, x), 2))
    # the weight (1, 0) grades (y^2 - y, x): x takes the chart route, whose
    # constant generator 1 ends the test before any packing
    assert radical_membership(x, Ideal((y**2 - y, x), 2))
    assert [ideal.nvars for ideal in tested] == [3, 3, 2]
    assert updates == []


def cone_line_scene(extra=""):
    names = ("x", "y", "z")
    f = parse_expression("y^2 + z^2 + x*y*z" + extra, names, QQ)
    return Scene(3, names, f, (Center("L", (1, 2)),))


def test_radical_tests_of_the_pipeline_share_no_work(monkeypatch):
    reduces, radicals = [], []
    counting(monkeypatch, kernel, "_reduce", reduces)
    counting(monkeypatch, geometry, "radical_membership", radicals)
    text = render_structured(build_report(analyze(pairing_scene(20, "subspace"))))
    assert hashlib.sha256(text.encode()).hexdigest() == PAIRING_20_REPORT_SHA256
    assert len(radicals) == 40
    # 1,643 while each radical test interreduced its ideal again
    assert len(reduces) <= 150
    tests, tested = [], []
    real = geometry.radical_membership
    monkeypatch.setattr(
        geometry, "radical_membership", lambda g, J: tests.append((g, J)) or real(g, J)
    )
    recording(monkeypatch, kernel, "is_empty_affine", tested)
    # y^2 + z^2 + x*y*z on {y, z}: the section and containment routes test
    # equal Jacobians (its leading form is f itself), graded by the weight
    # (0, 1, 1), so each test takes the chart of its variable, on an ideal
    # of its own
    analyze(cone_line_scene())
    section, containment = {id(J): J for _, J in tests}.values()
    assert section == containment and section is not containment
    assert section.graded_variables == containment.graded_variables == {1, 2}
    assert len(tests) == len(tested) == 4 and len({id(ideal) for ideal in tested}) == 4
    assert all(ideal.nvars == 3 for ideal in tested)
    # + y^3: the containment Jacobian is graded at no variable, so its two
    # tests lift it to a Rabinowitsch ideal each; the section's are charts
    tests.clear()
    tested.clear()
    analyze(cone_line_scene(" + y^3"))
    section, containment = {id(J): J for _, J in tests}.values()
    assert section.graded_variables == {1, 2} and containment.graded_variables == set()
    assert len(tests) == len(tested) == 4 and len({id(ideal) for ideal in tested}) == 4
    for (g, J), ideal in zip(tests, tested):
        if J is section:
            assert ideal.nvars == 3
        else:
            assert ideal.generators == rabinowitsch(J.generators, g)


# ----- radical tests of a graded ideal run on a weighted chart --------------------


def hard_scenes():
    return [quintic_scene(), fermat_scene(6), pairing_scene(20, "subspace"), pairing_scene(6, "origin")]


@pytest.fixture(scope="module")
def pipeline_radical_tests():
    """(g, ideal, answer) of every radical test `analyze` makes on the
    fixtures, on `route_agreement_suite(200, 0)` and on the hard scenes."""
    calls = []
    real = geometry.radical_membership

    def record(g, ideal):
        calls.append((g, ideal, real(g, ideal)))
        return calls[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "radical_membership", record)
        for fixture in FIXTURES:
            analyze(fixture.build())
        for _ in route_agreement_suite(200, 0):
            pass
        for scene in hard_scenes():
            analyze(scene)
    return calls


def exceptional_scenes(count, seed):
    """`count` seeded scenes, over QQ and GF(7), whose hypersurface is
    smooth away from the center, so that the oracle's verdict rests on its
    charts: one center of codimension 2 or 3 in 2 or 3 variables, and f a
    sum of terms of normal degree k and k + 1 (k = 2 or 3), some times a
    variable more.  Scenes whose singular locus leaves the center are
    skipped."""
    rng = random.Random(seed)
    found = 0
    while found < count:
        fld = rng.choice((QQ, QQ, PrimeField(7)))
        nvars = rng.choice((2, 3, 3))
        normal = tuple(sorted(rng.sample(range(nvars), rng.randint(2, nvars))))
        k = rng.choice((2, 2, 3))
        terms = {}
        for degree in (k, *(rng.choice((k, k + 1, k + 1)) for _ in range(rng.randint(1, 3)))):
            e = [0] * nvars
            for _ in range(degree):
                e[rng.choice(normal)] += 1
            e[rng.randrange(nvars)] += rng.randint(0, 1)
            terms[Monomial(e)] = fld.coerce(rng.choice((-2, -1, 1, 1, 2, 3)))
        names = tuple(f"v{i + 1}" for i in range(nvars))
        scene = Scene(nvars, names, Polynomial(nvars, fld, terms), (Center("C", normal),))
        if analyze(scene).singular_containment.status is Status.SMOOTH:
            found += 1
            yield scene


@pytest.fixture(scope="module")
def pipeline_charts():
    """(scene, chart, whether the scene's hypersurface is smooth away from
    its center) for every chart of the fixtures, of
    `route_agreement_suite(200, 0)`, of the hard scenes and of
    `exceptional_scenes(60, 0)`."""
    analyses = [analyze(fixture.build()) for fixture in FIXTURES]
    analyses += [analysis for _, _, analysis in route_agreement_suite(200, 0)]
    analyses += [analyze(scene) for scene in hard_scenes()]
    analyses += [analyze(scene) for scene in exceptional_scenes(60, 0)]
    return [
        (a.scene, chart, a.singular_containment.status is Status.SMOOTH)
        for a in analyses
        for charts in a.charts
        for chart in charts
    ]


def test_chart_oracle_on_the_exceptional_divisor_matches_the_whole_chart_ideal(
    pipeline_charts, monkeypatch
):
    """The oracle tests each chart on t = 0 with (S0, dS0, D): S0 the terms
    of the strict transform S free of t, D those linear in t with t = 1.
    Its emptiness must be that of (S, dS, t), the witness it reports."""
    tested = []
    recording(monkeypatch, geometry, "is_empty_affine", tested)
    smooth = Verdict(Status.SMOOTH)
    decided_by_d = only_on_e = 0
    for scene, chart, smooth_off_e in pipeline_charts:
        strict = chart.strict_transform
        j, n, fld = chart.variable, strict.nvars, strict.field
        whole = geometry._jacobian(strict, Polynomial.variable(j, n, fld))
        s0 = Polynomial(n, fld, {m: c for m, c in strict.terms() if not m[j]})
        tested.clear()
        verdict = chart_oracle(scene, smooth, ((chart,),))
        (on_e,) = tested
        # one ideal in which t is free, led by S0
        assert on_e.generators[0] == s0
        assert not any(m[j] for h in on_e.generators for m in h.monomials())
        singular = not is_empty_affine(whole)
        assert (verdict.status is Status.SINGULAR) is singular, (scene.f, j)
        if singular:
            assert verdict.witness == whole
        # S0 and its partials meet, but D does not vanish there
        decided_by_d += not singular and not is_empty_affine(geometry._jacobian(s0))
        only_on_e += singular and smooth_off_e
    assert decided_by_d >= 10 and only_on_e >= 20


def rabinowitsch_answer(g, ideal):
    """Whether g is in the radical, by the basis of J + (1 - t*g)."""
    return groebner(Ideal(rabinowitsch(ideal.generators, g), ideal.nvars + 1, ideal.field)).is_unit


def chart_answer(l, ideal):
    """Whether the chart x_l = 1 of the ideal is empty, each generator
    rewritten by Polynomial sums, so terms that meet are merged."""
    n, fld = ideal.nvars, ideal.field
    chart = []
    for h in ideal.generators:
        c = Polynomial.zero(n, fld)
        for m, a in h.terms():
            c = c + Polynomial(n, fld, {Monomial(m[:l] + (0,) + m[l + 1:]): a})
        if not c.is_zero:
            chart.append(c)
    return is_empty_affine(Ideal(tuple(chart), n, fld))


def sympy_graded_variables(sympy, ideal):
    """The variables l whose unit vector e_l raises the rank of the matrix
    of exponent differences a - b of two terms of one generator."""
    n = ideal.nvars
    rows = sorted({
        tuple(map(sub, a, b))
        for h in ideal.generators
        for a, b in itertools.combinations(h.monomials(), 2)
    })
    rank = sympy.Matrix(rows).rank() if rows else 0
    return frozenset(
        l for l in range(n)
        if sympy.Matrix([*rows, [int(i == l) for i in range(n)]]).rank() > rank
    )


def probed_variable(g):
    """The index l when g is the variable x_l with coefficient one, else None."""
    terms = list(g.terms())
    if len(terms) == 1 and terms[0][1] == g.field.one and sum(terms[0][0]) == 1:
        return terms[0][0].index(1)
    return None


def test_radical_tests_of_the_pipeline_match_the_rabinowitsch_test(pipeline_radical_tests):
    charted, lifted_variables = [], 0
    for g, ideal, answer in pipeline_radical_tests:
        l = probed_variable(g)
        if l is not None and l in ideal.graded_variables:
            charted.append(answer)
        elif l is not None:
            lifted_variables += 1
    # most tests take the chart route, with both answers; every variable of
    # a homogeneous ideal is graded, and of others those a weight grades
    assert len(charted) > 500 and set(charted) == {True, False}
    homogeneous = sum(is_homogeneous(ideal) for _, ideal, _ in pipeline_radical_tests)
    assert len(charted) > homogeneous and lifted_variables > 0
    naive = 0
    for g, ideal, answer in set(pipeline_radical_tests):  # equal tests once
        assert rabinowitsch_answer(g, ideal) is answer, (ideal.generators, g)
        l = probed_variable(g)
        if l is not None and l in ideal.graded_variables:
            assert chart_answer(l, ideal) is answer, (ideal.generators, g)
        if ideal.nvars <= 6:
            try:
                assert naive_radical_member(g, ideal.generators, 100) is answer
                naive += 1
            except RuntimeError:
                pass  # the naive Buchberger ran out of steps
    assert naive > 300


def test_graded_variables_match_a_sympy_rank_test(pipeline_radical_tests):
    sympy = pytest.importorskip("sympy")
    ideals = {id(ideal): ideal for _, ideal, _ in pipeline_radical_tests}
    for fld in RADICAL_FIELDS:
        ideals |= {id(ideal): ideal for ideal, _ in radical_cases(fld)}
        ideals |= {id(ideal): ideal for ideal, _ in weighted_hand_ideals(fld)}
    inhomogeneous = partial = 0
    for ideal in ideals.values():
        if ideal.nvars > 6 and is_homogeneous(ideal):
            # every variable, by the total degree; the rank of the 40-variable
            # Jacobians' differences is left to the smaller ideals
            assert ideal.graded_variables == frozenset(range(ideal.nvars))
            continue
        want = sympy_graded_variables(sympy, ideal)
        assert ideal.graded_variables == want, ideal.generators
        inhomogeneous += not is_homogeneous(ideal)
        partial += 0 < len(want) < ideal.nvars
    assert inhomogeneous > 100 and partial > 50


def weighted_hand_ideals(fld):
    """(ideal, graded variables) in x, y, z over `fld`: inhomogeneous
    ideals graded by a weight with a negative entry, by one that p divides,
    by one of only some variables, and by none."""
    x, y, z = (Polynomial.variable(i, 3, fld) for i in range(3))
    return [
        (Ideal((x * y - 1,), 3, fld), {0, 1, 2}),  # w = (1, -1, 0)
        (Ideal((y**7 - x,), 3, fld), {0, 1, 2}),  # w = (7, 1, 0)
        (Ideal((x**2 - 2 * x,), 3, fld), {1, 2}),  # x = 2 is a point, x = 1 is not
        (Ideal((x**3 - y * z, x - 1), 3, fld), {1, 2}),  # w = (0, 1, -1)
        (Ideal((x**2 - 2 * x, y - x), 3, fld), {2}),
        (Ideal((x * y - 1, y - z**2, x - z), 3, fld), set()),
    ]


def test_weighted_charts_match_the_rabinowitsch_and_naive_tests():
    """Random ideals over QQ and GF(7), probed at every variable: the
    graded variables are those of the sympy rank test, and at each of them
    the chart answer, `radical_membership`, the Rabinowitsch basis and the
    naive test agree."""
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def polys(fld, nvars):
        # exponents up to 3, and 7, which p = 7 divides
        term = st.tuples(st.tuples(*[st.sampled_from((0, 0, 1, 2, 3, 7))] * nvars),
                         st.integers(-3, 3))
        return st.lists(term, min_size=1, max_size=3).map(
            lambda terms: sum(
                (Polynomial(nvars, fld, {Monomial(e): fld.coerce(c)}) for e, c in terms),
                Polynomial.zero(nvars, fld),
            )
        )

    def cases(fld):
        return st.integers(1, 3).flatmap(
            lambda n: st.lists(polys(fld, n), min_size=1, max_size=3).map(lambda gens: (n, gens))
        )

    seen = []  # (graded, inhomogeneous) per probe whose naive test finished
    for fld in (QQ, PrimeField(7)):

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hypothesis.given(cases(fld))
        def check(case):
            n, gens = case
            gens = tuple(g for g in gens if not g.is_zero)
            hypothesis.assume(gens)
            ideal = Ideal(gens, n, fld)
            assert ideal.graded_variables == sympy_graded_variables(sympy, ideal), gens
            for l in range(n):
                g = Polynomial.variable(l, n, fld)
                answer = radical_membership(g, ideal)
                assert rabinowitsch_answer(g, ideal) is answer, (gens, l)
                if l in ideal.graded_variables:
                    assert chart_answer(l, ideal) is answer, (gens, l)
                try:
                    assert naive_radical_member(g, gens, 100) is answer, (gens, l)
                except RuntimeError:
                    continue  # the naive Buchberger ran out of steps
                seen.append((l in ideal.graded_variables, not is_homogeneous(ideal)))

        check()
    # charts of inhomogeneous ideals, and variables left to the lift
    assert seen.count((True, True)) > 20 and seen.count((False, True)) > 20


@pytest.mark.parametrize("fld", RADICAL_FIELDS, ids=["QQ", "GF7", "GF32003"])
def test_weighted_hand_cases_take_the_route_their_grading_allows(fld, monkeypatch):
    tested = []
    recording(monkeypatch, kernel, "is_empty_affine", tested)
    wrong_charts = 0
    for ideal, graded in weighted_hand_ideals(fld):
        assert ideal.graded_variables == graded, ideal.generators
        for l in range(3):
            g = Polynomial.variable(l, 3, fld)
            answer = radical_membership(g, ideal)
            # the chart x_l = 1 has 3 variables, the Rabinowitsch ideal 4
            assert tested[-1].nvars == (3 if l in graded else 4), (ideal.generators, l)
            assert rabinowitsch_answer(g, ideal) is answer, (ideal.generators, l)
            assert naive_radical_member(g, ideal.generators) is answer, (ideal.generators, l)
            if l in graded:
                assert chart_answer(l, ideal) is answer, (ideal.generators, l)
            else:
                wrong_charts += chart_answer(l, ideal) is not answer
    # x of (x^2 - 2x): its chart is empty, but x = 2 is a point
    assert wrong_charts >= 1


def radical_hand_cases(fld):
    """(generators, probe, answer) in x, y, z over `fld`, each homogeneous
    ideal probed at a variable, with False answers, inhomogeneous ideals
    graded by a weight that is nonzero at the probe, and inhomogeneous
    ideals whose chart would answer wrongly."""
    x, y, z = (Polynomial.variable(i, 3, fld) for i in range(3))
    three = Polynomial.constant(fld.coerce(3), 3, fld)
    return [
        ((x**2 + y**2,), x, False),  # x = ±i·y over the closure
        ((x**2, y**3), x, True),
        ((x**2, y**3), y, True),
        ((x**2, y**3), z, False),
        ((x * y,), x, False),
        ((x**2 - y**2, x * y), y, True),
        ((x**2 - 2 * x * y,), x, False),  # the point (2, 1, 0)
        ((x**2 + y**2 + z**2, x * y, y * z, x * z), z, True),
        ((x**7 + y**7,), x, False),  # (x + y)^7 over GF(7)
        ((x * y - z**2, x, y), z, True),
        ((three, x * y), z, True),  # the unit ideal
        ((), x, False),
        # graded by (1, -1, 0), (7, 1, 0) (p = 7 divides w_x) and (1, 2, 0)
        ((x * y - 1,), x, False),
        ((x * y - 1, y), x, True),
        ((y**7 - x,), y, False),
        ((y**7 - x, x), y, True),
        ((x**2 + y, y), x, True),
        # graded at no weight nonzero at the probe: the chart x = 1 of
        # (x^2 - 2x) is empty, but x = 2 is a point
        ((x**2 - 2 * x,), x, False),
        ((x**2 - 2 * x, y - x), y, False),
        ((x**3 - y * z, x - 1), x, False),
        # not a variable
        ((x**2, y**3), x + y, True),
        ((x * y,), x + y, False),
        ((x**2 + y**2,), 2 * x, False),
    ]


def test_radical_charts_of_the_pipeline_stop_at_their_first_constant(monkeypatch):
    tests, charts, homogeneity = [], [], []
    real = geometry.radical_membership
    monkeypatch.setattr(
        geometry, "radical_membership", lambda g, J: tests.append((g, J)) or real(g, J)
    )
    recording(monkeypatch, kernel, "is_empty_affine", charts)
    recording(monkeypatch, Ideal.graded_variables, "func", homogeneity)
    analyze(pairing_scene(20, "subspace"))
    # J = (f, y_1, ..., y_20, x_1, ..., x_20) twice: the section's and the
    # containment's, each tested at the 20 variables y_l
    assert len(tests) == len(charts) == 40
    jacobians = list({id(J): J for _, J in tests}.values())
    assert len(jacobians) == 2 and all(len(J.generators) == 41 for J in jacobians)
    # the grading computed once per Jacobian object, not once per variable;
    # both are homogeneous, so every variable is graded
    assert list(map(id, homogeneity)) == list(map(id, jacobians))
    assert all(J.graded_variables == frozenset(range(40)) for J in jacobians)
    for (g, J), chart in zip(tests, charts):
        l = next(iter(g.monomials())).index(1)
        *head, last = chart.generators
        assert last.is_constant and not any(h.is_constant for h in head)
        # y_l sits at place l - 19 of J, so the chart keeps at most 21 of 41
        assert len(chart.generators) == l - 18
        for h, c in zip(J.generators, chart.generators):
            assert set(c.monomials()) == {m[:l] + (0,) + m[l + 1:] for m in h.monomials()}


def chart_stop_cases(fld):
    """(generators, probe x, answer, the place of the first generator that
    x = 1 makes constant, or None) in x, y, z over `fld`: homogeneous
    ideals whose chart meets a constant first, in the middle, last, or
    never."""
    x, y, z = (Polynomial.variable(i, 3, fld) for i in range(3))
    return [
        ((x**2, y**2 + z**2, x * y), x, True, 0),
        ((3 * x**3, y * z, x**2), x, True, 0),  # the constant 3, then 1 never built
        ((y**2, x**2, z**3), x, True, 1),
        ((y**2 + z**2, y * z, x**3), x, True, 2),
        ((y**2 + z**2, y * z, x**3), y, True, None),  # 1 + z^2, z, x^3: empty
        ((x**2 + y**2, y * z), x, False, None),  # the point (1, i, 0)
    ]


@pytest.mark.parametrize("fld", RADICAL_FIELDS, ids=["QQ", "GF7", "GF32003"])
def test_radical_hand_cases_match_the_rabinowitsch_test(fld, monkeypatch):
    for gens, g, answer in radical_hand_cases(fld):
        ideal = Ideal(gens, 3, fld)
        assert radical_membership(g, ideal) is answer, (gens, g)
        assert rabinowitsch_answer(g, ideal) is answer, (gens, g)
        assert naive_radical_member(g, gens) is answer, (gens, g)
    tested = []
    recording(monkeypatch, kernel, "is_empty_affine", tested)
    for gens, g, answer, stop in chart_stop_cases(fld):
        ideal = Ideal(gens, 3, fld)
        tested.clear()
        assert radical_membership(g, ideal) is answer, (gens, g)
        (chart,) = tested  # each generator with x = 1, up to the first constant
        l = next(iter(g.monomials())).index(1)
        want = [{m[:l] + (0,) + m[l + 1:] for m in h.monomials()} for h in gens]
        assert [set(c.monomials()) for c in chart.generators] == want[: len(chart.generators)]
        constants = [c.is_constant for c in chart.generators]
        if stop is None:
            assert len(chart.generators) == len(gens) and not any(constants), (gens, g)
        else:
            assert constants == [False] * stop + [True], (gens, g)
        assert rabinowitsch_answer(g, ideal) is answer, (gens, g)
        assert naive_radical_member(g, gens) is answer, (gens, g)


# ----- agreement with sympy --------------------------------------------------------


def coefficient_sets(gb):
    """The basis as sets of (exponents, scalar), with residues as ints."""
    return {
        frozenset((m.exps, c.value if isinstance(c, ModularInt) else c) for m, c in g.terms())
        for g in gb.basis
    }


def sympy_basis(sympy, nvars, p, generators):
    """sympy's reduced grevlex basis, as sets of (exponents, scalar), of the
    generators given as raw lists of (exponents, int or Fraction) terms."""
    xs = sympy.symbols(f"x0:{nvars}")
    exprs = [
        sum(
            sympy.Rational(c.numerator, c.denominator) * sympy.prod(x**e for x, e in zip(xs, exps))
            for exps, c in terms
        )
        for terms in generators
    ]
    exprs = [e for e in exprs if e != 0]
    if p:
        ref = sympy.groebner(exprs, *xs, order="grevlex", modulus=p)
        convert = lambda c: int(c) % p
    else:
        ref = sympy.groebner(exprs, *xs, order="grevlex", domain=sympy.QQ)
        convert = lambda c: Fraction(int(c.p), int(c.q))
    return {frozenset((tuple(m), convert(c)) for m, c in g.terms()) for g in ref.polys}


@pytest.mark.parametrize("modulus", [None, 32003], ids=["QQ", "GF32003"])
def test_reduced_basis_matches_sympy(modulus):
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fld = QQ if modulus is None else PrimeField(modulus)

    def generators(nvars):
        term = st.tuples(st.tuples(*[st.integers(0, 2)] * nvars), st.integers(-3, 3))
        poly = st.lists(term, min_size=1, max_size=3)
        return st.lists(poly, min_size=1, max_size=3).map(lambda gens: (nvars, gens))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(1, 3).flatmap(generators))
    def check(spec):
        nvars, raw = spec
        polys = []
        for terms in raw:
            p = Polynomial.zero(nvars, fld)
            for exps, c in terms:
                p = p + Polynomial(nvars, fld, {Monomial(exps): fld.coerce(c)})
            if not p.is_zero:
                polys.append(p)
        hypothesis.assume(polys)
        gb = groebner(Ideal(tuple(polys), nvars, fld))
        assert coefficient_sets(gb) == sympy_basis(sympy, nvars, modulus, raw)

    check()


def test_every_basis_of_the_pipeline_matches_sympy():
    # `verify` proves only that the source lies in the basis's ideal, so the
    # basis {1} passes it for any source; sympy's basis settles both sides
    sympy = pytest.importorskip("sympy")
    bases = []
    with basis_audit(bases.append):
        for fixture in FIXTURES:
            analyze(fixture.build())
        for _ in route_agreement_suite(40, 0):
            pass
    assert len(bases) > 500
    for gb in bases:
        source = gb.source
        if not source.nvars:  # no ring for sympy; nonzero constants give {1}
            assert gb.is_unit == bool(source.generators)
            continue
        raw = [
            [(m.exps, c.value if isinstance(c, ModularInt) else c) for m, c in g.terms()]
            for g in source.generators
        ]
        want = sympy_basis(sympy, source.nvars, source.field.characteristic, raw)
        assert coefficient_sets(gb) == want, source.generators


def test_every_unit_basis_of_the_pipeline_has_a_nullstellensatz_certificate():
    # `verify` passes the basis {1} for any source, and sympy is optional:
    # cofactors with 1 = sum h_i * f_i, found by `naive_unit_certificate`
    # and multiplied out with Polynomial arithmetic, show that the source
    # generates the unit ideal
    bases = []
    with basis_audit(bases.append):
        for fixture in FIXTURES:
            analyze(fixture.build())
        for _ in route_agreement_suite(40, 0):
            pass
    sources = [gb.source for gb in bases if gb.is_unit]
    assert len(sources) > 250
    for source in sources:
        cofactors = naive_unit_certificate(source.generators, max_steps=400)
        assert cofactors is not None, source.generators
        nvars, fld = source.nvars, source.field
        total = Polynomial.zero(nvars, fld)
        for h, f in zip(cofactors, source.generators):
            total = total + h * f
        assert total == Polynomial.constant(fld.one, nvars, fld), source.generators


# ----- integer coefficients in the kernel ------------------------------------------

MERSENNE_61 = 2**61 - 1
KERNEL_FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(32003), PrimeField(MERSENNE_61)]
KERNEL_FIELD_IDS = ["QQ", "GF2", "GF3", "GF32003", "GF(2^61-1)"]


def big_coefficient(rng, p):
    """A nonzero raw scalar: over QQ (p = 0) a Fraction with numerator up to
    2^40 over a non-unit denominator, over GF(p) an int residue."""
    if p:
        return rng.randrange(1, p)
    numerator = rng.choice((-1, 1)) * rng.randint(1, 2**40)
    return Fraction(numerator, rng.choice((1, 3, 10, 2**20 + 7, 3**25)))


def big_terms(rng, nvars, p, max_degree=3, max_terms=4):
    """A raw term list [(exponents, scalar)] with distinct exponents."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = big_coefficient(rng, p)
    return list(terms.items())


def from_terms(terms, nvars, fld):
    scalar = fld.coerce if fld.characteristic else (lambda c: c)
    return Polynomial(nvars, fld, {Monomial(exps): scalar(c) for exps, c in terms})


def big_poly(rng, nvars, fld, max_degree=3, max_terms=4):
    terms = big_terms(rng, nvars, fld.characteristic, max_degree, max_terms)
    return from_terms(terms, nvars, fld)


def big_ideals(fld, count, seed):
    """`count` seeded (ideal, naive reduced basis, raw generator terms)
    triples for ideals that the naive Buchberger finishes."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        nvars = rng.choice((2, 3))
        raw = [big_terms(rng, nvars, fld.characteristic) for _ in range(rng.randint(2, 3))]
        gens = tuple(from_terms(terms, nvars, fld) for terms in raw)
        try:
            want = naive_reduced_basis(gens, max_steps=60)
        except RuntimeError:
            continue  # the naive Buchberger ran out of steps
        out.append((Ideal(gens, nvars, fld), want, raw))
    return out


@pytest.mark.parametrize("fld", KERNEL_FIELDS, ids=KERNEL_FIELD_IDS)
def test_kernel_matches_naive_and_sympy_on_large_coefficients(fld):
    cases = big_ideals(fld, 12, seed=10)
    assert any(len(want) > 1 for _, want, _ in cases)
    bases = []
    for ideal, want, raw in cases:
        gb = groebner(ideal)
        gb.verify()
        assert term_sets(gb.basis) == term_sets(want), ideal.generators
        bases.append((gb, ideal.nvars, raw))
    sympy = pytest.importorskip("sympy")
    p = fld.characteristic
    for gb, nvars, raw in bases:
        assert coefficient_sets(gb) == sympy_basis(sympy, nvars, p, raw), raw


@pytest.mark.parametrize("fld", KERNEL_FIELDS, ids=KERNEL_FIELD_IDS)
def test_normal_form_is_the_exact_remainder(fld):
    rng = random.Random(11)
    for ideal, _, _ in big_ideals(fld, 8, seed=11):
        gb = groebner(ideal)
        if gb.is_unit:
            continue
        nvars = ideal.nvars
        member = Polynomial.zero(nvars, fld)
        for g in ideal.generators:
            member = member + big_poly(rng, nvars, fld, 2, 2) * g
        assert normal_form(member, gb).is_zero
        for _ in range(3):
            probe = big_poly(rng, nvars, fld, 4, 5)
            want = divide(probe, list(gb.basis))
            assert normal_form(probe, gb) == want
            assert normal_form(member + probe, gb) == want


def katsura_ideal(n, fld):
    """katsura-n in n + 1 unknowns u0..un."""
    u = [Polynomial.variable(i, n + 1, fld) for i in range(n + 1)]

    def at(k):
        return u[abs(k)] if abs(k) <= n else None

    gens = []
    for m in range(n):
        total = -u[m]
        for l in range(-n, n + 1):
            if at(l) is not None and at(m - l) is not None:
                total = total + at(l) * at(m - l)
        gens.append(total)
    gens.append(u[0] + 2 * sum(u[1:], Polynomial.zero(n + 1, fld)) - 1)
    return Ideal(tuple(gens), n + 1, fld)


def cyclic_ideal(n, fld):
    """cyclic-n: the elementary symmetric sums of n cyclically consecutive
    unknowns, and their product minus 1."""
    x = [Polynomial.variable(i, n, fld) for i in range(n)]
    gens = []
    for k in range(1, n):
        total = Polynomial.zero(n, fld)
        for i in range(n):
            term = Polynomial.constant(fld.one, n, fld)
            for j in range(k):
                term = term * x[(i + j) % n]
            total = total + term
        gens.append(total)
    product = Polynomial.constant(fld.one, n, fld)
    for v in x:
        product = product * v
    gens.append(product - 1)
    return Ideal(tuple(gens), n, fld)


def test_prime_field_kernel_builds_scalars_only_for_its_output(monkeypatch):
    fld = PrimeField(32003)
    ideal = katsura_ideal(5, fld)
    member = ideal.generators[0] * ideal.generators[1] + 3 * ideal.generators[2]
    built = []
    real = ModularInt.__init__

    def counting_init(self, value, p):
        built.append(1)
        real(self, value, p)

    monkeypatch.setattr(ModularInt, "__init__", counting_init)
    gb = groebner(ideal)
    # the kernel, the unit test and membership read the packed basis only
    assert not gb.is_unit
    assert gb.contains(member)
    assert built == []
    # the basis keeps no second form: it has no instance dict to cache one
    assert not hasattr(gb, "__dict__")
    # each read of `basis` builds one scalar per output term, and the two
    # reads are equal
    basis = gb.basis
    assert len(basis) == 22
    assert len(built) == sum(len(g.terms()) for g in basis)
    built.clear()
    assert gb.basis == basis
    assert len(built) == sum(len(g.terms()) for g in basis)


def test_pair_installation_matches_the_becker_weispfenning_update(
    monkeypatch, pipeline_radical_tests, pipeline_charts
):
    """Every Buchberger run of the route corpus, of the Rabinowitsch ideals
    of the pipeline's radical tests and of the whole chart ideals (S, dS, t)
    of its charts forms its S-polynomials in the order of the eager update
    it replaced: `naive_update` on a set of pairs, the next pair taken by
    `min`.  Square systems, such as katsura-5 and cyclic-5, take the
    signature loop and never reach it."""
    real_loop, real_spoly = kernel._buchberger, kernel._spoly_t
    formed, runs = [], []

    def spoly(f, g, k, p, pk):
        formed.append((k, f, g))
        return real_spoly(f, g, k, p, pk)

    def both(entries, p, limit, pk):
        want = []
        try:
            naive_pair_sequence(entries, p, pk, want)
        except kernel._Overflow:
            pass
        formed.clear()
        try:
            return real_loop(entries, p, limit, pk)
        finally:
            # the kernel appends the elements it finds to `entries`
            index = {id(e): t for t, e in enumerate(entries)}
            runs.append(([(k, index[id(f)], index[id(g)]) for k, f, g in formed], want))

    monkeypatch.setattr(kernel, "_buchberger", both)
    monkeypatch.setattr(kernel, "_spoly_t", spoly)
    for fixture in FIXTURES:
        analyze(fixture.build())
    for _ in route_agreement_suite(200, 0):
        pass
    # a homogeneous ideal is tested on a chart, so its lift runs only here
    for g, ideal, _ in pipeline_radical_tests:
        rabinowitsch_answer(g, ideal)
    # the oracle tests t = 0 of each chart, so (S, dS, t) runs only here
    for _, chart, _ in pipeline_charts:
        strict = chart.strict_transform
        t = Polynomial.variable(chart.variable, strict.nvars, strict.field)
        groebner(geometry._jacobian(strict, t))
    assert len(runs) > 1000 and sum(len(got) for got, _ in runs) > 1800
    assert sum(got != want for got, want in runs) == 0


def fermat_scene(n):
    names = tuple(f"x{i + 1}" for i in range(n))
    f = parse_expression(" + ".join(f"{v}^{n}" for v in names), names, QQ)
    return Scene(n, names, f, (Center("O", tuple(range(n))),))


GF32003 = PrimeField(32003)


def fixtures_and_route_scenes():
    for fixture in FIXTURES:
        analyze(fixture.build())
    for _ in route_agreement_suite(200, 0):
        pass


# (S-polynomials formed, `_reduce` calls) of the items of the benchmark's
# `hard-scenes` and `kernel-ideals` workloads: a change to the pair queue or
# to the criteria that changes the work fails here, without any timing.
# katsura-5 and cyclic-5 are square systems and take the signature loop; in
# Buchberger's loop they took (66, 94) and (102, 125).  The radical tests of
# the two scenes run on the charts of their homogeneous Jacobians: on
# Rabinowitsch lifts they took (962, 921) and (66, 130); while their chart
# oracle tested (S, dS, t) and not its restriction to the exceptional
# divisor, (270, 349) and (6, 46).
# The fixtures and route scenes, from which the `route-corpus` workload
# leaves out its known defects, are the only input whose radical tests
# still take the Rabinowitsch route: while the tests on one ideal shared
# its lifted seed they took (1267, 3310), and while only homogeneous
# ideals had charts and the oracle tested (S, dS, t), (1267, 3458); while
# Buchberger's loop interreduced all of its final G, not only its minimal
# basis, (648, 2208).
# While each finish reduced every element of the minimal basis, not only
# those whose tail a new leading monomial divides, and the signature loop
# scanned `kept` for each monomial at every step of a reduction, the route
# scenes took (648, 2139), katsura-5 (26, 79) and cyclic-5 (34, 75)
KERNEL_WORK = {
    "fixtures-and-route-scenes": (fixtures_and_route_scenes, (648, 2031)),
    "quintic-5": (lambda: analyze(quintic_scene()), (270, 344)),
    "fermat-6": (lambda: analyze(fermat_scene(6)), (6, 40)),
    "katsura-5-QQ": (lambda: groebner(katsura_ideal(5, QQ)), (26, 58)),
    "katsura-5-GF32003": (lambda: groebner(katsura_ideal(5, GF32003)), (26, 58)),
    "cyclic-5-QQ": (lambda: groebner(cyclic_ideal(5, QQ)), (34, 50)),
    "cyclic-5-GF32003": (lambda: groebner(cyclic_ideal(5, GF32003)), (34, 50)),
}


@pytest.mark.parametrize("item", KERNEL_WORK)
def test_kernel_work_per_item_is_pinned(item, monkeypatch):
    run, want = KERNEL_WORK[item]
    spolys, reduces = [], []
    counting(monkeypatch, kernel, "_spoly_t", spolys)
    counting(monkeypatch, kernel, "_reduce", reduces)
    run()
    assert (len(spolys), len(reduces)) == want


@pytest.mark.parametrize("fld", [QQ, PrimeField(7), GF32003], ids=["QQ", "GF7", "GF32003"])
def test_buchberger_finish_interreduces_only_the_minimal_basis(fld, monkeypatch):
    """The seed of (x*y + z, x, y^2, z^2) is installed ascending, x before
    x*y + z, and `_update` prunes only what a new element divides, so
    x*y + z stays in G to the end.  Of the 2 S-polynomials one is zero, so
    the `_reduce` calls are 3 in the seed, 1 in the loop and none in the
    finish, which leaves x*y + z out of the minimal basis {x, z, y^2}, whose
    elements have no tail; interreducing all of G would also reduce x*y + z,
    to zero.  While the finish reduced every element of the minimal basis
    but its first, the calls were 6."""
    x, y, z = (Polynomial.variable(i, 3, fld) for i in range(3))
    runs, spolys, reduces = [], [], []
    recording(monkeypatch, kernel, "_buchberger", runs)
    counting(monkeypatch, kernel, "_spoly_t", spolys)
    counting(monkeypatch, kernel, "_reduce", reduces)
    gb = groebner(Ideal((x * y + z, x, y**2, z**2), 3, fld))
    assert len(runs) == 1
    assert set(gb.basis) == {y**2, x, z}
    assert (len(spolys), len(reduces)) == (2, 4)


# heap pushes of the signature loop: a pair whose signature a leading word of
# `kept` divides (a Koszul syzygy) is never pushed.  While that test ran when
# a pair was popped, katsura-5 pushed 297 pairs and cyclic-5 651, and formed
# the same S-polynomials
SIGNATURE_PUSHES = {
    "katsura-5-QQ": 52, "katsura-5-GF32003": 52, "cyclic-5-QQ": 138, "cyclic-5-GF32003": 138,
}


@pytest.mark.parametrize("item", SIGNATURE_PUSHES)
def test_kernel_work_per_item_pushes_no_koszul_pair(item, monkeypatch):
    run, want = KERNEL_WORK[item]
    spolys, pushes = [], []
    counting(monkeypatch, kernel, "_spoly_t", spolys)
    counting(monkeypatch, kernel, "heappush", pushes)
    run()
    assert (len(spolys), len(pushes)) == (want[0], SIGNATURE_PUSHES[item])


def zero_reductions(run):
    """The number of S-polynomials that `run` forms and that reduce to zero."""
    spolys, zero = [], []
    with pytest.MonkeyPatch.context() as mp:
        counting(mp, kernel, "_spoly_t", spolys)
        real = kernel._reduce

        def reduce(target, *rest):
            out = real(target, *rest)
            if not out and any(target is s for s in spolys):
                zero.append(target)
            return out

        mp.setattr(kernel, "_reduce", reduce)
        run()
    return sum(not s for s in spolys) + len(zero)


# S-polynomials that reduce to zero in Buchberger's loop
BUCHBERGER_ZERO_REDUCTIONS = {
    "katsura-5-QQ": 48, "katsura-5-GF32003": 48, "cyclic-5-QQ": 65, "cyclic-5-GF32003": 65,
}


@pytest.mark.parametrize("item", BUCHBERGER_ZERO_REDUCTIONS)
def test_kernel_work_per_item_has_no_zero_reduction_in_the_signature_loop(item, monkeypatch):
    run, _ = KERNEL_WORK[item]
    assert zero_reductions(run) == 0
    monkeypatch.setattr(kernel, "_signature", kernel._buchberger)
    assert zero_reductions(run) == BUCHBERGER_ZERO_REDUCTIONS[item]


def loop_basis(ideal, loop):
    """The reduced basis of `ideal` that the kernel loop `loop` finds from
    the seed `groebner()` builds, as term maps on exponent tuples."""
    p = ideal.field.characteristic
    gens = [g._terms for g in ideal.generators]

    def run(pk):
        seed = kernel._interreduce_seed(
            [kernel._kernel_terms(g, p, pk.weights) for g in gens], p, pk
        )
        return [
            {pk.monomial(m): c for m, c in {r.lm: r.lc, **r.tail}.items()}
            for r in loop(seed, p, None, pk)
        ]

    return kernel._packed(ideal.nvars, kernel._degree(gens), run)


def random_square_system(rng, fld):
    """1 to n generators in n = 2..5 variables, each of 1 to 4 terms of
    degree at most 4 with coefficients in -3..3."""
    n = rng.randint(2, 5)
    gens = []
    for _ in range(rng.randint(1, n)):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = [0] * n
            for _ in range(rng.randint(0, 4)):
                e[rng.randrange(n)] += 1
            terms[Monomial(e)] = fld.coerce(rng.randint(-3, 3))
        terms = {m: c for m, c in terms.items() if c != fld.zero}
        if terms:
            gens.append(Polynomial(n, fld, terms))
    return Ideal(tuple(gens), n, fld) if gens else random_square_system(rng, fld)


SIGNATURE_FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(7), GF32003]


# the S-polynomials the signature loop forms on the 650 systems per field; a
# loop that does not record the signature of a zero reduction forms 2,046
# over QQ, since that syzygy is the only check that drops its repeats
SIGNATURE_SPOLYS = {0: 1832, 2: 607, 3: 616, 7: 1145, 32003: 1427}


@pytest.mark.parametrize("fld", SIGNATURE_FIELDS, ids=["QQ", "GF2", "GF3", "GF7", "GF32003"])
def test_signature_loop_matches_buchberger_on_random_square_systems(fld, monkeypatch):
    formed = []
    real = kernel._spoly_t
    monkeypatch.setattr(kernel, "_spoly_t", lambda *a: formed.append(1) or real(*a))
    rng = random.Random(fld.characteristic)
    spolys = 0
    for _ in range(650):
        ideal = random_square_system(rng, fld)
        formed.clear()
        basis = loop_basis(ideal, kernel._signature)
        spolys += len(formed)
        assert basis == loop_basis(ideal, kernel._buchberger)
    assert spolys == SIGNATURE_SPOLYS[fld.characteristic]


@pytest.mark.parametrize("fld", [QQ, PrimeField(7), GF32003], ids=["QQ", "GF7", "GF32003"])
def test_signature_step_finish_matches_the_whole_interreduction(fld, monkeypatch):
    """Each step's finish `_reduced(kept, new)` on the random square systems
    returns what the earlier finish, `naive_finish`, returned from
    interreducing the whole minimal basis; an element that finish leaves
    as it was comes back as the same object."""
    real = kernel._reduced
    kept_objects, rebuilt = [], []

    def reduced(kept, new, p, pk):
        got = real(kept, new, p, pk)
        assert got == naive_finish(kept + new, p, pk)
        given = kept + new
        for e in got:
            if e in given:
                assert any(e is g for g in given)
                kept_objects.append(e)
            else:
                rebuilt.append(e)
        return got

    monkeypatch.setattr(kernel, "_reduced", reduced)
    rng = random.Random(fld.characteristic)
    for _ in range(650):
        loop_basis(random_square_system(rng, fld), kernel._signature)
    assert kept_objects and rebuilt


def test_signature_loop_matches_buchberger_on_katsura_6():
    ideal = katsura_ideal(6, GF32003)
    assert loop_basis(ideal, kernel._signature) == loop_basis(ideal, kernel._buchberger)


# square systems where dropping the singular top-reducible results of the
# signature loop loses a basis element
@pytest.mark.parametrize("fld, nvars, gens", [
    (PrimeField(7), 4, [
        {(0, 1, 1, 2): 4},
        {(1, 2, 0, 0): 4, (0, 1, 0, 3): 2, (2, 0, 1, 0): 2, (1, 0, 0, 1): 5, (0, 0, 1, 0): 5,
         (1, 0, 0, 0): 4},
        {(0, 1, 0, 0): 2, (0, 2, 1, 1): 6, (1, 0, 0, 0): 3, (1, 0, 0, 1): 4},
    ]),
    (QQ, 5, [
        {(0, 1, 0, 1, 1): -1, (0, 2, 0, 1, 0): 1, (1, 2, 0, 0, 0): 3, (0, 3, 0, 0, 1): -3},
        {(0, 1, 0, 3, 0): 5, (0, 0, 0, 0, 0): -1, (0, 0, 1, 1, 1): 2},
        {(1, 0, 0, 2, 1): 2, (2, 1, 1, 0, 0): 1, (0, 0, 0, 0, 0): -3, (0, 0, 0, 1, 1): -5,
         (0, 0, 1, 0, 1): -2},
    ]),
], ids=["GF7", "QQ"])
def test_signature_loop_keeps_singular_top_reducible_elements(fld, nvars, gens):
    ideal = Ideal(tuple(
        Polynomial(nvars, fld, {Monomial(e): fld.coerce(c) for e, c in g.items()}) for g in gens
    ), nvars, fld)
    assert loop_basis(ideal, kernel._signature) == loop_basis(ideal, kernel._buchberger)


def test_signature_loop_runs_on_square_systems_only(monkeypatch):
    """Each emptiness test of quintic-5 is a chart ideal with more generators
    than occurring variables and takes Buchberger's loop; katsura-5, six
    generators in six variables, takes the signature loop."""
    runs, tested = [], []
    for name in ("_signature", "_buchberger"):
        real = getattr(kernel, name)
        monkeypatch.setattr(kernel, name, lambda *a, name=name, real=real: runs.append(name) or real(*a))
    recording(monkeypatch, kernel, "is_empty_affine", tested)
    analyze(quintic_scene())
    shapes = {
        (len(i.generators), sum(map(any, zip(*(m for h in i.generators for m in h.monomials())))))
        for i in tested
    }
    assert (6, 4) in shapes
    assert runs and set(runs) == {"_buchberger"}
    runs.clear()
    groebner(katsura_ideal(5, QQ))
    assert runs == ["_signature"]


@pytest.mark.parametrize("fld", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
def test_normal_form_leaves_out_only_the_reducers_above_the_target(fld, monkeypatch):
    # hand bases with elements of degrees 2 to 5, and targets below, at and
    # above each of those degrees: a term at a reducer's own degree must
    # still meet it, and the remainder is that of division by the basis
    passed = []  # (target degree, the degrees of the reducers passed)
    real = kernel._reduce

    def reduce(target, reducers, p, pk, *regular):
        degrees = [r.lm & pk.mask for r in reducers]
        passed.append((max((m & pk.mask for m in target), default=0), degrees))
        return real(target, reducers, p, pk, *regular)

    monkeypatch.setattr(kernel, "_reduce", reduce)

    def parse(text):
        return parse_expression(text, "xyz", fld)

    ideals = [
        ["x^2 - y*z", "y^3 - 2*x*z^2", "z^5 + x*y"],
        ["x*y - z", "y^3 - x", "x^2*z^2 + 3*z"],
    ]
    targets = [
        "0", "5", "3*x - y + 1", "2*x^2 + y + 1", "x*y + 4*y^2 + z", "y^3 + x^2 + z",
        "x^2*y - 3*x*z", "z^4 + x^3 + y", "x^2*z^2 - y*z^3", "z^5 + x*y*z^3 + 2",
        "x^3*y^3 + z^6 - x", "x*y*z^4 + y^6 + 3*x^2*y^2*z",
    ]
    for gens in ideals:
        gb = groebner(Ideal(tuple(parse(g) for g in gens), 3, fld))
        basis = list(gb.basis)
        degrees = sorted({g.total_degree() for g in basis})
        assert len(degrees) >= 2
        for text in targets:
            p = parse(text)
            passed.clear()
            got = normal_form(p, gb)
            assert got == divide(p, basis), text
            # one `_reduce` per normal form, given every reducer at or below
            # the target's degree and none above it
            ((degree, given),) = passed
            assert degree == max(p.total_degree(), 0)
            assert given == sorted((g.total_degree() for g in basis if g.total_degree() <= degree),
                                   reverse=True)
            assert gb.contains(p) == got.is_zero
        # the members of the ideal at each degree of the basis reduce to zero
        for g in basis:
            for q in (g, g * parse("x + 2"), g + basis[-1] * parse("y")):
                assert normal_form(q, gb).is_zero


def test_normal_form_matches_division():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def polys(fld, nvars, max_terms):
        term = st.tuples(st.tuples(*[st.integers(0, 3)] * nvars), st.integers(-3, 3))
        return st.lists(term, min_size=1, max_size=max_terms).map(
            lambda terms: sum(
                (Polynomial(nvars, fld, {Monomial(e): fld.coerce(c)}) for e, c in terms),
                Polynomial.zero(nvars, fld),
            )
        )

    def cases(fld):
        return st.integers(1, 3).flatmap(
            lambda n: st.tuples(st.lists(polys(fld, n, 3), min_size=1, max_size=3), polys(fld, n, 5))
        )

    for fld in (QQ, PrimeField(7)):

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hypothesis.given(cases(fld))
        def check(case):
            gens, p = case
            gens = [g for g in gens if not g.is_zero]
            hypothesis.assume(gens)
            gb = groebner(Ideal(tuple(gens), p.nvars, fld))
            want = divide(p, list(gb.basis))
            # twice on one basis, and membership from the same reducers
            assert normal_form(p, gb) == want
            assert normal_form(p, gb) == want
            assert gb.contains(p) == want.is_zero
            assert gb.contains(p - want)

        check()


def test_monomial_bases_match_the_naive_oracles():
    """Ideals shaped like a power of a center: monomials of one degree in
    some variables, repeated, plus proper divisors of them at lower degrees,
    with coefficients other than one.  The basis is the textbook reduced
    basis, normal forms are remainders of division, membership agrees."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def polys(fld, nvars, degree):
        term = st.tuples(st.tuples(*[st.integers(0, degree)] * nvars), st.integers(-3, 3))
        return st.lists(term, min_size=1, max_size=4).map(
            lambda terms: sum(
                (Polynomial(nvars, fld, {Monomial(e): fld.coerce(c)}) for e, c in terms),
                Polynomial.zero(nvars, fld),
            )
        )

    @st.composite
    def cases(draw, fld):
        n, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        center = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        top = [
            tuple(combo.count(v) for v in range(n))
            for combo in itertools.combinations_with_replacement(sorted(center), d)
        ]
        exps = draw(st.lists(st.sampled_from(top), min_size=1, max_size=min(2 * len(top), 20)))
        for e in draw(st.lists(st.sampled_from(top), max_size=3)):
            divisor = tuple(draw(st.integers(0, a)) for a in e)
            if sum(divisor) < d:
                exps.append(divisor)
        coeff = st.tuples(st.sampled_from([1, 1, -1, 2, -3]), st.sampled_from([1, 1, 2]))
        gens = [
            Polynomial(n, fld, {Monomial(e): fld.from_rational(*draw(coeff))}) for e in exps
        ]
        gens = draw(st.permutations(gens))
        targets = draw(st.lists(polys(fld, n, d + 1), min_size=1, max_size=3))
        # multiples of generators, alone and on top of a target, lie in the ideal
        for q, i in draw(st.lists(st.tuples(polys(fld, n, 2), st.integers(0, len(gens) - 1)),
                                  max_size=2)):
            targets += [q * gens[i], targets[0] + q * gens[i]]
        return gens, targets

    for fld in (QQ, PrimeField(7)):

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hypothesis.given(cases(fld))
        def check(case):
            gens, targets = case
            gb = groebner(Ideal(tuple(gens), gens[0].nvars, fld))
            want = naive_reduced_basis(gens)
            assert term_sets(gb.basis) == term_sets(want)
            for p in targets:
                assert normal_form(p, gb) == divide(p, want)
                assert gb.contains(p) == naive_member(p, want, permutation_cap=6)

        check()


@pytest.mark.parametrize("fld", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
def test_normal_form_repacks_when_the_degree_overflows_the_basis(fld, monkeypatch):
    x, y = (Polynomial.variable(i, 2, fld) for i in range(2))
    gb = groebner(Ideal((x - y, y**3 - 2 * y + 1), 2, fld))
    width = gb._pk.mask.bit_length()
    widths, entries = [], []
    real_packing, real_entry = kernel._packing, kernel._entry
    monkeypatch.setattr(kernel, "_packing", lambda *key: widths.append(key[1]) or real_packing(*key))
    monkeypatch.setattr(kernel, "_entry", lambda *args: entries.append(1) or real_entry(*args))
    reads, real_basis = [], GroebnerBasis.basis
    monkeypatch.setattr(GroebnerBasis, "basis", property(
        lambda gb: reads.append(1) or real_basis.fget(gb)))
    targets = (x * y + 1, x**300 + y, x**2 - 5, x**300 - y**299, x * y + 1)
    forms = []
    for p in targets:
        widths.clear()
        entries.clear()
        forms.append(normal_form(p, gb))
        if p.total_degree() < 2 ** (width - 1):
            # the basis's own packing and reducers: none is built
            assert widths == [width]
            assert entries == []
        else:
            # x^300 needs a wider packing: the reducers' terms are packed again for it
            assert widths[0] > width
            assert len(entries) == len(gb._reducers)
    # no normal form read the basis's Polynomials, and none is kept
    assert reads == [] and not hasattr(gb, "__dict__")
    for p, form in zip(targets, forms):
        assert form == divide(p, list(gb.basis)), p
    assert gb.contains((x**300 - y**300) * (x + 1))


def test_verify_audits_the_polynomials_callers_read(monkeypatch):
    x, y = variables(2)
    gb = groebner(Ideal((x**2 - y, x * y - 1), 2))
    gb.verify()
    good = gb.basis
    assert len(good) > 1
    corrupt = (
        good[:-1],                          # an element missing
        (good[0] * 2,) + good[1:],          # not monic
        (good[0] + good[1],) + good[1:],    # not reduced
        good + (x**5,),                     # not reduced either
    )
    for bad in corrupt:
        # the packed form stays as the kernel left it
        monkeypatch.setattr(GroebnerBasis, "basis", property(lambda gb, bad=bad: bad))
        with pytest.raises(InternalCheckError):
            gb.verify()
    monkeypatch.undo()
    gb.verify()


# ----- guardrail and audit hook ---------------------------------------------------


def test_degree_guardrail_triggers():
    x, y = variables(2)
    ideal = Ideal((x**3 - y, y**3 - x), 2)
    with degree_limit(2):
        with pytest.raises(DegreeLimitError):
            groebner(ideal)
    groebner(ideal)  # no limit: fine
    # cyclic-5's inputs have degree 5 and its basis degree 8: the signature
    # loop checks each element it finds
    with degree_limit(7):
        with pytest.raises(DegreeLimitError):
            groebner(cyclic_ideal(5, GF32003))
    with degree_limit(8):
        groebner(cyclic_ideal(5, GF32003))


def test_basis_audit_hook_sees_every_basis():
    x, y = variables(2)
    seen = []
    with basis_audit(seen.append):
        groebner(Ideal((x**2, x * y + y**2), 2))
        radical_membership(y, Ideal((y**2,), 2))
    assert len(seen) >= 2
    assert all(isinstance(b, GroebnerBasis) for b in seen)


@pytest.mark.parametrize("fld", RADICAL_FIELDS, ids=["QQ", "GF7", "GF32003"])
def test_a_constant_generator_gives_the_unit_basis_unpacked(fld, monkeypatch):
    x, y = (Polynomial.variable(i, 2, fld) for i in range(2))
    one = Polynomial.constant(fld.one, 2, fld)
    three = Polynomial.constant(fld.coerce(3), 2, fld)
    packed, audited = [], []
    counting(monkeypatch, kernel, "_kernel_terms", packed)
    for gens in [(three,), (x * y - 1, x**5 + y, three), (x, three, y**2), (x**40 - y, 3 * one)]:
        packed.clear()
        with basis_audit(audited.append):
            gb = groebner(Ideal(gens, 2, fld))
        assert gb.is_unit and gb.basis == (one,)
        assert packed == [] and audited[-1] is gb
        gb.verify()
    # a constant term is not a constant generator: the kernel finds the unit
    packed.clear()
    assert groebner(Ideal((x + 1, x), 2, fld)).is_unit and packed


def test_zero_ideal_needs_explicit_field():
    with pytest.raises(StructuralError):
        Ideal((), 2)
    zero_ideal = Ideal((), 2, QQ)
    assert krull_dimension(zero_ideal) == 2
