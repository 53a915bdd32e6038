import random
from fractions import Fraction

import pytest

from strictsmooth.errors import StructuralError
from strictsmooth.poly import Monomial, Polynomial, _grevlex_key
from strictsmooth.scalars import QQ, PrimeField


def variables(nvars, field=QQ):
    return [Polynomial.variable(i, nvars, field) for i in range(nvars)]


def random_poly(rng, nvars, max_degree=3, max_terms=5, field=QQ):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(nvars)] += 1
        terms[Monomial(exps)] = field.coerce(rng.randint(-4, 4))
    return Polynomial(nvars, field, terms)


# ----- arithmetic -----------------------------------------------------------


def test_difference_of_squares():
    x, y = variables(2)
    assert (x + y) * (x - y) == x**2 - y**2


def test_additive_inverse_is_empty_map():
    rng = random.Random(7)
    p = random_poly(rng, 3)
    z = p + (-p)
    assert z.is_zero and not dict(z.terms())


def test_multiplicative_identity():
    x1, x2, y1, y2 = variables(4)
    p = x1 * y1 + x2 * y2
    one = Polynomial.constant(1, 4)
    assert p * one == p


def test_mismatched_variable_counts_rejected():
    p = Polynomial.variable(0, 2)
    q = Polynomial.variable(0, 3)
    with pytest.raises(StructuralError):
        p + q
    with pytest.raises(StructuralError):
        p * q
    with pytest.raises(StructuralError):
        p - q


def test_mixed_fields_rejected():
    p = Polynomial.variable(0, 2, QQ)
    q = Polynomial.variable(0, 2, PrimeField(5))
    with pytest.raises(StructuralError):
        p + q
    with pytest.raises(StructuralError):
        p - q


def test_scalars_subtract_on_either_side():
    for fld, half in ((QQ, Fraction(1, 2)), (PrimeField(7), 4)):
        x = Polynomial.variable(0, 2, fld)
        for c in (3, half, 0):
            value = fld.coerce(c)
            assert x - c == Polynomial(2, fld, {(1, 0): 1, (0, 0): -value})
            assert c - x == Polynomial(2, fld, {(1, 0): -1, (0, 0): value})


def _x(nvars=2, fld=QQ):
    return Polynomial.variable(0, nvars, fld)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Polynomial.variable(2, 2), "variable index 2 out of range for 2 variables"),
        (lambda: Polynomial.variable(-1, 2), "variable index -1 out of range"),
        (lambda: _x().partial(2), "variable index 2 out of range"),
        (lambda: _x().partial(-1), "variable index -1 out of range"),
        (lambda: _x().extended(1), "cannot shrink the ambient ring"),
        (lambda: _x().render(("x",)), "name list does not match variable count"),
        (lambda: _x() ** -1, "exponent must be a nonnegative integer"),
        (lambda: _x() ** 1.5, "exponent must be a nonnegative integer"),
        (lambda: Polynomial.zero(2).leading_monomial(), "zero polynomial has no leading"),
    ],
    ids=[
        "variable-above", "variable-negative", "partial-above", "partial-negative",
        "extended-shrinks", "render-name-count", "negative-power", "fractional-power",
        "zero-leading-monomial",
    ],
)
def test_input_guards_raise(call, message):
    with pytest.raises(StructuralError, match=message):
        call()


def test_a_polynomial_never_equals_a_scalar():
    # `__eq__` defers to the scalar, which knows no Polynomial
    assert (Polynomial.variable(0, 1) == 3) is False


def test_ring_axioms_on_random_triples():
    rng = random.Random(20240901)
    for _ in range(40):
        n = rng.choice((1, 2, 3))
        p, q, r = (random_poly(rng, n) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + q == q + p
        assert p * q == q * p


def test_no_zero_coefficients_stored():
    rng = random.Random(5)
    for _ in range(30):
        p = random_poly(rng, 2) * random_poly(rng, 2) + random_poly(rng, 2)
        assert all(c for _, c in p.terms())
        assert all(len(m.exps) == 2 for m in p.monomials())


# ----- monomial invariants --------------------------------------------------


def test_monomial_cached_degree():
    m = Monomial((2, 0, 3))
    assert m.degree == 5 == sum(m.exps)
    with pytest.raises(StructuralError):
        Monomial((1, -1))


def test_monomial_is_its_exponent_tuple():
    m = Monomial((2, 0, 1))
    assert isinstance(m, tuple) and m.exps is m
    assert m == (2, 0, 1) and hash(m) == hash((2, 0, 1))
    p = Polynomial(2, QQ, {(1, 0): 3, (0, 0): -1})
    assert all(type(k) is Monomial for k in p.monomials())
    assert p.coefficient((1, 0)) == 3 == p.coefficient(Monomial((1, 0)))
    assert p.coefficient((0, 1)) == 0


def test_term_order_of_the_input_does_not_matter():
    rng = random.Random(11)
    names = ("x", "y", "z")
    for _ in range(30):
        p = random_poly(rng, 3, max_terms=8)
        items = [(tuple(m), c) for m, c in p.terms()]
        rng.shuffle(items)
        q = Polynomial(3, QQ, dict(items))
        assert q.render(names) == p.render(names)
        assert q == p and hash(q) == hash(p)


@pytest.mark.parametrize(
    "key", [(1, -1), (1, 0.5), (1, 0, 0), (1,), Monomial((1, 0, 0))],
    ids=["negative", "non-int", "too-long", "too-short", "monomial-too-long"],
)
def test_constructor_rejects_bad_keys(key):
    with pytest.raises(StructuralError):
        Polynomial(2, QQ, {key: 1})


def test_orders_are_total_and_respect_multiplication():
    rng = random.Random(99)
    for _ in range(60):
        a = Monomial(tuple(rng.randint(0, 3) for _ in range(4)))
        b = Monomial(tuple(rng.randint(0, 3) for _ in range(4)))
        c = Monomial(tuple(rng.randint(0, 3) for _ in range(4)))
        ka, kb = _grevlex_key(a), _grevlex_key(b)
        if a.exps == b.exps:
            assert ka == kb
        else:
            assert ka != kb
        if ka < kb:
            assert _grevlex_key(a.mul(c)) < _grevlex_key(b.mul(c))
        unit = Monomial.unit(4)
        if a.exps != unit.exps:
            assert _grevlex_key(a) > _grevlex_key(unit)


def test_grevlex_vs_lex_disagree_where_expected():
    # x1*x3 vs x2^2: grevlex prefers the smaller exponent in the last
    # variable, where lex would prefer x1*x3
    a = Monomial((1, 0, 1))
    b = Monomial((0, 2, 0))
    assert _grevlex_key(a) < _grevlex_key(b)
    # x2*x3 vs x1: grevlex prefers the higher degree, where lex would prefer x1
    c = Monomial((0, 1, 1))
    d = Monomial((1, 0, 0))
    assert _grevlex_key(c) > _grevlex_key(d)


# ----- calculus -------------------------------------------------------------


def test_partial_of_pairing_quadric():
    x1, x2, y1, y2 = variables(4)
    p = x1 * y1 + x2 * y2
    assert p.partial(0) == y1
    assert p.partial(2) == x1


def test_partial_of_constant_is_zero():
    c = Polynomial.constant(5, 3)
    assert c.partial(1).is_zero


def test_partial_in_characteristic_two():
    F2 = PrimeField(2)
    x = Polynomial.variable(0, 1, F2)
    assert (x**2).partial(0).is_zero


def test_leibniz_rule_on_random_pairs():
    rng = random.Random(31337)
    for _ in range(30):
        n = rng.choice((2, 3))
        p, q = random_poly(rng, n), random_poly(rng, n)
        i = rng.randrange(n)
        lhs = (p * q).partial(i)
        rhs = p.partial(i) * q + p * q.partial(i)
        assert lhs == rhs


def assert_same_terms(got, want):
    """got and want have the same terms in the same order, with Monomial
    keys and coefficients of the same types."""
    assert (got.nvars, got.field) == (want.nvars, want.field)
    pairs = list(zip(got.terms(), want.terms()))
    assert len(pairs) == len(want.terms()) == len(got.terms())
    for (m, c), (wm, wc) in pairs:
        assert (m, c) == (wm, wc) and type(m) is type(wm) is Monomial
        assert type(c) is type(wc)


def assert_gradient_is_every_partial(h):
    grad = h.gradient()
    assert len(grad) == h.nvars
    for i, dp in enumerate(grad):
        assert_same_terms(dp, h.partial(i))


GRADIENT_FIELDS = [QQ, PrimeField(7), PrimeField(32003)]


@pytest.mark.parametrize("fld", GRADIENT_FIELDS, ids=["QQ", "GF7", "GF32003"])
def test_gradient_drops_the_terms_whose_exponent_is_zero_mod_p(fld):
    x, y = variables(2, fld)
    h = x**7 + x**14 * y + 3 * x * y + y**2 + 5
    dx, dy = h.gradient()
    if fld.characteristic == 7:  # 7x^6 and 14x^13*y are zero
        assert_same_terms(dx, 3 * y)
    else:
        assert_same_terms(dx, 7 * x**6 + 14 * x**13 * y + 3 * y)
    assert_same_terms(dy, x**14 + 3 * x + 2 * y)
    assert_gradient_is_every_partial(h)
    assert all(dp.is_zero for dp in Polynomial.constant(5, 3, fld).gradient())


@pytest.mark.parametrize("fld", GRADIENT_FIELDS, ids=["QQ", "GF7", "GF32003"])
def test_gradient_matches_the_partials_on_random_polynomials(fld):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def polys(nvars):
        # exponents up to 15 reach 7 and 14, multiples of the small prime
        term = st.tuples(st.tuples(*[st.integers(0, 15)] * nvars), st.integers(-40, 40))
        return st.lists(term, max_size=6).map(
            lambda terms: Polynomial(nvars, fld, {Monomial(m): c for m, c in terms})
        )

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(1, 4).flatmap(polys))
    def check(h):
        assert_gradient_is_every_partial(h)

    check()


def test_gradient_matches_the_partials_on_the_fixtures_and_the_route_scenes():
    from strictsmooth.selftest import FIXTURES, random_pairing_like_scene, random_scene

    scenes = [fixture.build() for fixture in FIXTURES]
    rng = random.Random(0)  # the scenes of route_agreement_suite(200, 0)
    scenes += [
        random_pairing_like_scene(rng) if k % 3 == 0 else random_scene(rng) for k in range(200)
    ]
    for scene in scenes:
        assert_gradient_is_every_partial(scene.f)


def test_extended_ring():
    x = Polynomial.variable(0, 1)
    lifted = x.extended(3)
    assert lifted.nvars == 3 and lifted == Polynomial.variable(0, 3)
    assert lifted.extended(lifted.nvars) == lifted


# ----- graded parts ---------------------------------------------------------


def test_graded_part_term_inspection():
    x, y = variables(2)
    p = x * y + y**3
    assert p.graded_part((1,), 1) == x * y
    assert p.graded_part((1,), 3) == y**3


def test_graded_part_full_variable_set():
    x1, x2, y1, y2 = variables(4)
    p = x1 * y1 + x2 * y2
    assert p.graded_part(range(4), 2) == p


def test_graded_part_above_degree_is_zero():
    x, y = variables(2)
    p = x**2 + y
    assert p.graded_part((0, 1), 7).is_zero


def test_graded_parts_sum_back():
    rng = random.Random(R := 404)
    for _ in range(25):
        n = rng.choice((2, 3, 4))
        p = random_poly(rng, n)
        subset = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        total = Polynomial.zero(n)
        for k in range(0, p.total_degree() + 2 if not p.is_zero else 1):
            total = total + p.graded_part(subset, k)
        assert total == p


# ----- rendering ------------------------------------------------------------


def test_render_canonical_examples():
    x1, x2, y1, y2 = variables(4)
    p = x1 * y1 + x2 * y2
    assert p.render(("x1", "x2", "y1", "y2")) == "x1*y1 + x2*y2"
    x, y = variables(2)
    assert (x**2 - y**2).render(("x", "y")) == "x^2 - y^2"
    assert Polynomial.zero(2).render(("x", "y")) == "0"
    half = Polynomial.constant(Fraction(1, 2), 2)
    assert (half * x).render(("x", "y")) == "1/2*x"
    assert (-x + Polynomial.constant(1, 2)).render(("x", "y")) == "-x + 1"


def test_render_prime_field_coefficients():
    F7 = PrimeField(7)
    x = Polynomial.variable(0, 1, F7)
    p = x * 10 + 6  # 3*x + 6 mod 7
    assert p.render(("x",)) == "3*x + 6"


def _render_by_sign_split(p, names):
    """`Polynomial.render` written with an explicit sign/magnitude split of
    each coefficient: a Fraction's sign and absolute value, a residue's
    value with no sign."""
    chunks = []
    for m, c in p.sorted_terms():
        if isinstance(c, Fraction):
            negative, magnitude = c < 0, str(abs(c))
        else:
            negative, magnitude = False, str(c.value)
        factors = [f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(m) if e]
        body = "*".join(([] if factors and magnitude == "1" else [magnitude]) + factors)
        if chunks:
            chunks.append(f" - {body}" if negative else f" + {body}")
        else:
            chunks.append(f"-{body}" if negative else body)
    return "".join(chunks) or "0"


def test_render_reads_the_sign_off_the_coefficient_text():
    rng = random.Random(41)
    names = ("x", "y", "z")
    qq = [Fraction(n, d) for n in (-7, -3, -1, 1, 2, 5) for d in (1, 2, 9)]
    for field, coefficients in (
        (QQ, qq),
        (PrimeField(7), [PrimeField(7).coerce(n) for n in range(1, 7)]),
        (PrimeField(32003), [PrimeField(32003).coerce(n) for n in (-2, -1, 1, 2, 16001)]),
    ):
        seen = set()
        for _ in range(200):
            terms = {}
            for _ in range(rng.randint(0, 4)):
                exps = [rng.randint(0, 2) for _ in names]
                terms[Monomial(exps)] = rng.choice(coefficients)
            p = Polynomial(len(names), field, terms)
            assert p.render(names) == _render_by_sign_split(p, names)
            seen.update(c for _, c in p.terms())
        assert seen == set(coefficients)  # every coefficient was rendered
