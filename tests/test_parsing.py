import random
import sys
import time
from fractions import Fraction

import pytest

from strictsmooth import parsing, scene_io
from strictsmooth.cli import main
from strictsmooth.errors import DegreeLimitError, ParseError
from strictsmooth.groebner import degree_limit
from strictsmooth.parsing import parse_expression, tokenize
from strictsmooth.poly import Monomial, Polynomial
from strictsmooth.scalars import QQ, PrimeField

NAMES = ("x1", "x2", "y1", "y2")


def parse(text, names=NAMES, field=QQ):
    return parse_expression(text, names, field)


def test_pairing_quadric():
    p = parse("x1*y1 + x2*y2")
    expected = Polynomial.variable(0, 4) * Polynomial.variable(2, 4) + (
        Polynomial.variable(1, 4) * Polynomial.variable(3, 4)
    )
    assert p == expected


def test_unary_minus_and_powers_cancel():
    assert parse("-(x1)^2 + x1^2").is_zero


def test_precedence_caret_tightest():
    # -x^2 is -(x^2); 2*x^3 multiplies after the power
    assert parse("-x1^2") == -(Polynomial.variable(0, 4) ** 2)
    assert parse("2*x1^3") == Polynomial.variable(0, 4) ** 3 * 2


def test_negative_exponent_rejected():
    with pytest.raises(ParseError):
        parse("x1^(-1)")
    with pytest.raises(ParseError):
        parse("x1^-1")


def test_implicit_multiplication_rejected():
    with pytest.raises(ParseError):
        parse("2 x1")
    with pytest.raises(ParseError):
        parse("x1 y1")


def test_unknown_variable_reported_with_position():
    with pytest.raises(ParseError) as err:
        parse("x1 + zz")
    assert "zz" in str(err.value)
    assert err.value.column == 6
    # a superscript continues a name, as any letter or digit does
    with pytest.raises(ParseError, match="unknown variable 'x²'"):
        parse("x²", ("x",))


def test_lexical_error_has_line_and_column():
    with pytest.raises(ParseError) as err:
        parse("x1 +\n x2 $ 3")
    assert err.value.line == 2 and err.value.column == 5
    # digits that int() does not read are not literals
    for text, char, line, column in (
        ("x^²", "²", 1, 3),
        ("²", "²", 1, 1),
        ("1①7", "①", 1, 2),
        ("x + ³", "³", 1, 5),
        ("x +\n  ²", "²", 2, 3),
    ):
        with pytest.raises(ParseError, match=f"unexpected character '{char}'") as err:
            parse(text, ("x",))
        assert (err.value.line, err.value.column) == (line, column), text


def test_decimal_digits_of_any_script_are_literals():
    # int() reads every Unicode decimal digit
    assert parse("x^٣", ("x",)) == parse("x^3", ("x",))
    assert parse("𝟙*x", ("x",)) == parse("x", ("x",))


def test_rational_coefficients():
    p = parse("1/2*x1 - 3/4")
    assert p.coefficient(Monomial((1, 0, 0, 0))) == Fraction(1, 2)
    assert p.coefficient(Monomial((0, 0, 0, 0))) == Fraction(-3, 4)
    with pytest.raises(ParseError):
        parse("x1/2")
    with pytest.raises(ParseError):
        parse("1/0")


def test_prime_field_coefficients():
    F7 = PrimeField(7)
    p = parse("10*x1 + 1/2", NAMES, F7)
    assert p.coefficient(Monomial((1, 0, 0, 0))).value == 3
    assert p.coefficient(Monomial((0, 0, 0, 0))).value == 4  # 2^{-1} = 4 mod 7
    with pytest.raises(ParseError):
        parse("1/7", NAMES, F7)


def test_parentheses_and_power_of_sum():
    p = parse("(x1 + y1)^2")
    x, y = Polynomial.variable(0, 4), Polynomial.variable(2, 4)
    assert p == x**2 + 2 * x * y + y**2


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
def test_powers_match_repeated_multiplication(field):
    # `**` and the parser's `^` share one square-and-multiply loop, so each
    # is checked against e - 1 left-to-right products instead of the other
    names = ("x", "y")
    x, y = (Polynomial.variable(i, 2, field) for i in range(2))
    one = Polynomial.constant(field.one, 2, field)
    bases = {
        "0": Polynomial.zero(2, field),
        "3": 3 * one,
        "x": x,
        "(x + y)": x + y,  # (x + y)^7 = x^7 + y^7 over GF(7)
        "(x - 2*y + 1/3)": x - 2 * y + field.from_rational(1, 3),
    }
    for text, base in bases.items():
        assert parse(text, names, field) == base
        expected = one  # 0^0 = 1 among the rest
        for e in range(10):
            assert base**e == expected, (text, e)
            assert parse(f"{text}^{e}", names, field) == expected, (text, e)
            expected = expected * base


@pytest.mark.parametrize("exponent", [3, 4], ids=["multiply-step", "square-step"])
def test_coefficient_budget_stops_a_power_at_its_caret(max_digits, exponent):
    # 3^(2*digits) has about 3.2 bits a digit: it and its square fit the
    # budget of 8 bits a digit, so the cube fails at its multiply step and
    # the fourth power at its second square
    base = f"(x1 + 3^{2 * max_digits})"
    with pytest.raises(ParseError, match=f"more than {8 * max_digits} bits") as err:
        parse(f"y1 +\n  {base}^{exponent}")
    assert (err.value.line, err.value.column) == (2, 3 + len(base))


def test_degree_limit_stops_products_and_powers():
    with degree_limit(4):
        assert parse("(x1 + y1)^2 * (x2 + y2)^2").total_degree() == 4
        assert parse("0 * x1^4 * y1").is_zero  # the zero polynomial has degree -1
        for text, column in (("(x1 + y1)^5", 10), ("x1^2 * y1 * y2^2", 11)):
            with pytest.raises(DegreeLimitError, match=f"guardrail .*column {column}"):
                parse(text)
    assert parse("x1^5").total_degree() == 5  # no bound outside the block


def test_tokenizer_positions():
    tokens = tokenize("x1 + 12")
    kinds = [t[0] for t in tokens]
    assert kinds == ["NAME", "PLUS", "INT", "END"]
    assert tokens[2][2:] == (1, 6)
    # END sits just past the last character, trailing whitespace included
    assert tokens[3][2:] == (1, 8)
    assert tokenize("x1 +\n  ")[-1][2:] == (2, 3)


@pytest.mark.parametrize(
    "text",
    ["(" * 200 + "x1" + ")" * 200, "-" * 1000 + "x1"],
    ids=["parentheses", "unary-minus"],
)
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nested too deeply") as err:
        parse(text)
    assert err.value.line == 1 and err.value.column is not None


def test_moderate_nesting_still_parses():
    assert parse("(" * 100 + "x1" + ")" * 100) == parse("x1")


def nested(shape, levels):
    """x1 under `levels` levels of parentheses, unary minuses or both."""
    if shape == "parentheses":
        return "(" * levels + "x1" + ")" * levels
    if shape == "unary-minus":
        return "-" * levels + "x1"
    half = levels // 2
    return "-" * (levels % 2) + "-(" * half + "x1" + ")" * half + " + -(-x2)"


def call_under(frames, fn):
    """fn() called with `frames` extra frames on the stack."""
    return fn() if frames == 0 else call_under(frames - 1, fn)


@pytest.mark.parametrize("frames", [0, 200])
@pytest.mark.parametrize("shape", ["parentheses", "unary-minus", "mixed"])
def test_nesting_budget_does_not_depend_on_the_caller(shape, frames):
    budget = parsing.MAX_NESTING
    assert 100 <= budget < 200
    value = call_under(frames, lambda: parse(nested(shape, budget)))
    assert value.total_degree() == 1
    with pytest.raises(ParseError, match="nested too deeply") as err:
        call_under(frames, lambda: parse(nested(shape, budget + 1)))
    assert err.value.line == 1


def call_with_frames_left(left, fn):
    """fn() called where about `left` frames of the recursion limit remain."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return call_under(sys.getrecursionlimit() - depth - left, fn)


def outcomes_under_a_deep_caller(fn, error):
    """The message of the `error` that fn() raises, or None when it returns,
    for each of a range of frames left; a RecursionError fails the test."""
    out = []
    for left in range(50, 810, 10):  # from where the call itself fits
        try:
            call_with_frames_left(left, fn)
            out.append(None)
        except error as exc:
            out.append(str(exc))
        except RecursionError:
            pytest.fail(f"a RecursionError escaped with {left} frames left")
    return out


def test_parser_under_a_deep_caller_fails_cleanly():
    # 60 levels are within the budget, so "nested too deeply" is the
    # parser's RecursionError fallback, not its nesting count
    levels = 60
    assert levels < parsing.MAX_NESTING
    out = outcomes_under_a_deep_caller(lambda: parse(nested("parentheses", levels)), ParseError)
    assert None in out
    errors = [m for m in out if m is not None]
    assert errors and all(m.startswith("expression nested too deeply") for m in errors)


def test_scene_loader_under_a_deep_caller_fails_cleanly(tmp_path):
    # 40 levels are within the loader's budget, so "nested too deeply" is
    # its RecursionError fallback; with room to spare the schema rejects
    # the nested variable list
    levels = 40
    assert levels < scene_io.MAX_NESTING
    scene = tmp_path / "deep.yaml"
    scene.write_text(
        "schema: strictsmooth-scene/1\nvariables: " + "[" * levels + "x" + "]" * levels
        + '\nhypersurface: "x"\ncenters: []\n'
    )
    out = outcomes_under_a_deep_caller(lambda: scene_io.load_scene(scene), scene_io.SceneError)
    assert "scene file nested too deeply" in out
    assert all(
        m == "scene file nested too deeply" or m.startswith("scene file invalid at variables/0")
        for m in out
    )
    assert out[-1] != "scene file nested too deeply"


@pytest.mark.parametrize(
    "bound, at_bound, over_bound",
    [
        (6, "(x1 + x2 + y1)*(y1 + y2)", "(x1 + x2 + y1 + y2)*(y1 + y2)"),
        (6, "(x1 + x2 + y1 + y2 + 1 + x1^2)^1", "(x1 + x2 + y1 + y2 + 1 + x1^2 + x2^2)^1"),
        (9, "(x1 + x2 + y1)^2", "(x1 + x2 + y1 + y2)^2"),
    ],
    ids=["product", "power-multiply", "power-square"],
)
def test_term_budget_bounds_products(monkeypatch, bound, at_bound, over_bound):
    monkeypatch.setattr(parsing, "MAX_TERMS", bound)
    parse(at_bound)
    with pytest.raises(ParseError, match=f"a product would have more than {bound} terms") as err:
        parse(over_bound)
    operator = "*" if "*" in over_bound else "^"
    assert (err.value.line, err.value.column) == (1, over_bound.rindex(operator) + 1)


@pytest.mark.parametrize("frames", [0, 200])
def test_yaml_nesting_budget_does_not_depend_on_the_caller(capsys, tmp_path, frames):
    budget = scene_io.MAX_NESTING
    assert 5 <= budget < 200  # a scene's deepest nodes sit at depth 5
    scene = tmp_path / "deep.yaml"
    head = 'schema: strictsmooth-scene/1\nvariables: [x1, y1]\nhypersurface: "x1*y1"\ncenters: '
    # the document is depth 1, so `levels` brackets reach depth levels + 1
    for levels, message in ((budget - 1, "invalid at centers/0"), (budget, "nested too deeply")):
        scene.write_text(head + "[" * levels + "]" * levels + "\n")
        code = call_under(frames, lambda: main(["analyze", str(scene)]))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err, captured.err[:200]


@pytest.fixture
def max_digits():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("int/str conversion is unlimited in this interpreter")
    return limit


def test_overlong_integer_literal_is_a_parse_error(max_digits):
    assert parse("9" * max_digits) == parse("10^%d - 1" % max_digits)
    with pytest.raises(ParseError, match=f"more than {max_digits} digits") as err:
        parse("x1 + " + "7" * (max_digits + 700))
    assert (err.value.line, err.value.column) == (1, 6)
    with pytest.raises(ParseError, match="integer literal"):
        parse("x1^" + "1" * (max_digits + 1))


def test_overlong_parsed_coefficient_is_a_parse_error(max_digits):
    for text in (f"x1*y1 + 10^{max_digits}*x1^2", f"x1 + 1/10^{max_digits}"):
        with pytest.raises(ParseError, match="coefficient has more than") as err:
            parse(text)
        assert err.value.line is None
    # the digit limit holds for the parsed result; intermediate values only
    # need to fit the larger budget below, so they may cancel
    assert parse("x1*y1 + 3^20000*x1^2 - 3^20000*x1^2") == parse("x1*y1")
    assert sys.get_int_max_str_digits() == max_digits


def test_coefficient_budget_stops_growth_as_it_is_formed(max_digits):
    hostile = (
        "x1 + 3^4000000",
        "x1 + (2/3)^2000000",
        "x1 + " + "*".join(["3^9000"] * 800),
        "(x1 + 3^9000)^64",
    )
    for text in hostile:
        start = time.perf_counter()
        with pytest.raises(ParseError, match=f"more than {8 * max_digits} bits"):
            parse(text)
        assert time.perf_counter() - start < 1.0, text
    # GF(p) coefficients are bounded by p, so no budget applies
    assert parse("x1 + 3^4000000", field=PrimeField(5)) == parse("x1 + 1", field=PrimeField(5))


def random_poly(rng, nvars, field=QQ):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(nvars)] += 1
        if field.characteristic:
            coeff = field.coerce(rng.randint(1, field.characteristic - 1))
        else:
            coeff = Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))
        terms[Monomial(exps)] = coeff
    return Polynomial(nvars, field, terms)


def test_parse_render_round_trip():
    rng = random.Random(123456)
    names = ("x", "y", "z")
    for _ in range(60):
        field = PrimeField(7) if rng.random() < 0.3 else QQ
        p = random_poly(rng, 3, field)
        rendered = p.render(names)
        assert parse_expression(rendered, names, field) == p
        # rendering is idempotent through a parse cycle
        assert parse_expression(rendered, names, field).render(names) == rendered
