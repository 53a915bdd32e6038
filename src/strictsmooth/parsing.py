"""Recursive-descent parser for polynomial expressions.

Grammar (whitespace insensitive, no implicit multiplication):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-' factor | power
    power   := atom ('^' INT)?
    atom    := INT ('/' INT)? | NAME | '(' expr ')'

An INT is a run of decimal digits, exactly the digits `int()` reads; a
NAME is a word that starts with a letter or '_'.  Any other character
outside the operators and whitespace, such as the '²' of 'x^²', is a
ParseError (exit 2 from the CLI).
Exponents are nonnegative integer literals.  A '/' is only legal between
two integer literals, where it forms an exact coefficient.  Errors carry
line and column numbers where a token is at fault.  Integer literals and
parsed coefficients are limited to the digits Python converts between int
and str (`sys.get_int_max_str_digits`), so every accepted expression can
be rendered back.  Over QQ every product and every step of a power is
checked as it is formed: a numerator or denominator longer than 8 bits
per allowed digit (room for any number of twice the digit limit, since
10^2 < 2^8) is a ParseError, so no expression grows past that budget.
Over every field a product of m and n terms, at a '*' or at a step of a
power, is a ParseError before it is formed when m * n exceeds
`MAX_TERMS`, so no product has more terms than that.
Nesting is limited to `MAX_NESTING` levels, counted as the parser
descends: each open parenthesis and each unary minus is one level.  The
parser spends about 5 frames of the recursion limit per level, so a
caller with fewer than about 5 * `MAX_NESTING` frames to spare meets the
`RecursionError` fallback below the limit.  It raises the same
"expression nested too deeply" error, at the column where the stack ran
out.

Inside a `degree_limit` block, a product or power whose degree exceeds the
bound raises DegreeLimitError before it is expanded.  Over a field the
degree of a product is the sum of the degrees, so the check is exact.
"""

from __future__ import annotations

import re
import sys

from .errors import DegreeLimitError, ParseError
from .groebner import active_degree_limit
from .poly import Polynomial, _power


# the deepest nesting of parentheses and unary minuses an expression may have
MAX_NESTING = 100
# the most terms a product of m and n terms may have, taken as m * n
MAX_TERMS = 10_000

_SINGLE = {
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "^": "CARET",
    "/": "SLASH",
    "(": "LPAREN",
    ")": "RPAREN",
}

# A line break, an integer literal, a word, or any other single character;
# the whitespace between them matches nothing and is skipped.
_TOKEN = re.compile(r"(\n)|(\d+)|(\w+)|(\S)")


def _max_digits() -> int:
    """Python's int/str conversion limit in digits; 0 means unlimited."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def tokenize(text: str):
    limit = _max_digits()
    tokens = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        newline, digits, word, char = match.groups()
        col = match.start() - line_start + 1
        if newline:
            line, line_start = line + 1, match.end()
        elif digits:
            if limit and len(digits) > limit:
                raise ParseError(f"integer literal has more than {limit} digits", line, col)
            tokens.append(("INT", digits, line, col))
        elif word and (word[0].isalpha() or word[0] == "_"):
            tokens.append(("NAME", word, line, col))
        elif char in _SINGLE:
            tokens.append((_SINGLE[char], char, line, col))
        else:
            raise ParseError(f"unexpected character {match[0][0]!r}", line, col)
    tokens.append(("END", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens, names, nvars, field):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open parentheses and unary minuses around the current token
        self.index = {name: i for i, name in enumerate(names)}
        self.nvars = nvars
        self.field = field
        self.limit = active_degree_limit()
        self.max_bits = 0 if field.characteristic else 8 * _max_digits()

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, token=None):
        token = token or self.peek()
        raise ParseError(message, token[2], token[3]) from None

    def descend(self):
        """Enter one more level of nesting, or fail past MAX_NESTING."""
        if self.depth == MAX_NESTING:
            self.error("expression nested too deeply")
        self.depth += 1
        self.advance()

    def check_degree(self, degree, token):
        if self.limit is not None and degree > self.limit:
            raise DegreeLimitError(
                f"expression degree {degree} exceeds the degree guardrail "
                f"({self.limit}) (line {token[2]}, column {token[3]})"
            )

    def product(self, a: Polynomial, b: Polynomial, token) -> Polynomial:
        """`a * b`, unless it could have more than MAX_TERMS terms or has a
        coefficient over the intermediate budget."""
        if len(a.terms()) * len(b.terms()) > MAX_TERMS:
            self.error(f"a product would have more than {MAX_TERMS} terms", token)
        value = a * b
        if self.max_bits and any(
            max(c.numerator.bit_length(), c.denominator.bit_length()) > self.max_bits
            for _, c in value.terms()
        ):
            self.error(f"an intermediate coefficient has more than {self.max_bits} bits", token)
        return value

    def expect(self, kind, message):
        tok = self.peek()
        if tok[0] != kind:
            self.error(message, tok)
        return self.advance()

    def parse(self) -> Polynomial:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            self.error(f"unexpected token {tok[1]!r}", tok)
        return value

    def expr(self) -> Polynomial:
        value = self.term()
        while self.peek()[0] in ("PLUS", "MINUS"):
            op = self.advance()
            rhs = self.term()
            value = value + rhs if op[0] == "PLUS" else value - rhs
        return value

    def term(self) -> Polynomial:
        value = self.factor()
        while self.peek()[0] == "STAR":
            star = self.advance()
            rhs = self.factor()
            self.check_degree(value.total_degree() + rhs.total_degree(), star)
            value = self.product(value, rhs, star)
        return value

    def factor(self) -> Polynomial:
        if self.peek()[0] == "MINUS":
            self.descend()
            value = -self.factor()
            self.depth -= 1
            return value
        return self.power()

    def power(self) -> Polynomial:
        base = self.atom()
        if self.peek()[0] == "CARET":
            caret = self.advance()
            tok = self.peek()
            if tok[0] != "INT":
                self.error(
                    "exponent must be a nonnegative integer literal", tok
                )
            self.advance()
            exponent = int(tok[1])
            self.check_degree(base.total_degree() * exponent, caret)
            # every step checked before the next
            return _power(base, exponent, lambda a, b: self.product(a, b, caret))
        return base

    def atom(self) -> Polynomial:
        tok = self.peek()
        if tok[0] == "INT":
            self.advance()
            numerator = int(tok[1])
            if self.peek()[0] == "SLASH":
                self.advance()
                den = self.peek()
                if den[0] != "INT":
                    self.error("'/' is only allowed between integer literals", den)
                self.advance()
                if int(den[1]) == 0:
                    self.error("zero denominator", den)
                try:
                    value = self.field.from_rational(numerator, int(den[1]))
                except ZeroDivisionError as exc:
                    raise ParseError(str(exc), den[2], den[3]) from None
                return Polynomial.constant(value, self.nvars, self.field)
            return Polynomial.constant(self.field.coerce(numerator), self.nvars, self.field)
        if tok[0] == "NAME":
            self.advance()
            idx = self.index.get(tok[1])
            if idx is None:
                self.error(f"unknown variable {tok[1]!r}", tok)
            return Polynomial.variable(idx, self.nvars, self.field)
        if tok[0] == "LPAREN":
            self.descend()
            value = self.expr()
            self.expect("RPAREN", "expected ')'")
            self.depth -= 1
            return value
        if tok[0] == "END":
            self.error("unexpected end of expression", tok)
        self.error(f"unexpected token {tok[1]!r}", tok)


def parse_expression(text: str, names, field) -> Polynomial:
    """Parse `text` into an exact polynomial in the given named variables."""
    names = tuple(names)
    parser = _Parser(tokenize(text), names, len(names), field)
    try:
        value = parser.parse()
    except RecursionError:
        parser.error("expression nested too deeply")
    limit = _max_digits()
    if limit and not field.characteristic:
        for _, c in value.terms():
            for n in (abs(c.numerator), c.denominator):
                # below 2^(3*limit) < 10^limit the slow comparison is not needed
                if n.bit_length() > 3 * limit and n >= 10 ** limit:
                    raise ParseError(f"a coefficient has more than {limit} digits")
    return value
