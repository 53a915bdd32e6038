"""Sparse multivariate polynomials over an exact field.

A polynomial is an immutable map from exponent vectors to nonzero
coefficients.  All ring operations are exact; there is no floating point
anywhere.  The term map is keyed by Monomials, which are exponent
tuples, and is the same map the Groebner kernel reads.  Terms are stored
in no particular order; rendering and `sorted_terms` sort them by
grevlex, so the text form is deterministic.
"""

from __future__ import annotations

from itertools import compress
from operator import add, le, mul, neg, sub
from typing import Iterable, Mapping

from .errors import StructuralError
from .scalars import QQ

_new = tuple.__new__


class Monomial(tuple):
    """Exponent vector of fixed length.

    A Monomial is its tuple of exponents: it hashes and compares as that
    plain tuple, so a term map keyed by Monomials is also read with plain
    tuple keys, and the Groebner kernel works on it without conversion.
    Calling the class validates the exponents; results of monomial
    arithmetic skip that check, since they are valid by construction.
    """

    __slots__ = ()

    def __new__(cls, exps: Iterable[int]):
        mono = _new(cls, exps)
        for e in mono:
            if not isinstance(e, int) or e < 0:
                raise StructuralError(f"exponents must be nonnegative integers: {tuple(mono)}")
        return mono

    @property
    def exps(self) -> "Monomial":
        return self

    @property
    def degree(self) -> int:
        return sum(self)

    @classmethod
    def unit(cls, nvars: int) -> "Monomial":
        return _new(cls, (0,) * nvars)

    def mul(self, other) -> "Monomial":
        return _new(Monomial, map(add, self, other))

    def divides(self, other) -> bool:
        return all(map(le, self, other))

    def quotient(self, other) -> "Monomial":
        return Monomial(map(sub, self, other))

    def lcm(self, other) -> "Monomial":
        return _new(Monomial, map(max, self, other))

    def degree_in(self, indices: Iterable[int]) -> int:
        return sum(self[i] for i in indices)

    def __repr__(self):
        return f"Monomial{tuple(self)}"


def _grevlex_key(exps):
    """The sort key of grevlex, the one monomial order: total degree first,
    then the smaller exponent in the last variable where they differ."""
    return sum(exps), tuple(map(neg, reversed(exps)))


class Polynomial:
    """Immutable sparse polynomial with exact coefficients.

    The term map never stores a zero coefficient; the zero polynomial is the
    empty map.  Operations between polynomials require equal variable counts
    and equal fields, otherwise a StructuralError is raised.
    """

    __slots__ = ("nvars", "field", "_terms")

    def __init__(self, nvars: int, field=QQ, terms: Mapping | None = None):
        self.nvars = nvars
        self.field = field
        cleaned = {}
        if terms:
            coerce = field.coerce
            for mono, coeff in terms.items():
                if type(mono) is not Monomial:
                    mono = Monomial(mono)
                if len(mono) != nvars:
                    raise StructuralError(
                        f"monomial {mono!r} has {len(mono)} exponents, expected {nvars}"
                    )
                coeff = coerce(coeff)
                if coeff:
                    cleaned[mono] = coeff
        self._terms = cleaned

    # ----- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, field=QQ) -> "Polynomial":
        return cls(nvars, field)

    @classmethod
    def constant(cls, value, nvars: int, field=QQ) -> "Polynomial":
        return cls(nvars, field, {Monomial.unit(nvars): value})

    @classmethod
    def variable(cls, index: int, nvars: int, field=QQ) -> "Polynomial":
        if not 0 <= index < nvars:
            raise StructuralError(f"variable index {index} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[index] = 1
        return _trusted(nvars, field, {_new(Monomial, exps): field.one})

    # ----- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return all(m.degree == 0 for m in self._terms)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(m.degree for m in self._terms)

    def terms(self):
        return self._terms.items()

    def monomials(self):
        return self._terms.keys()

    def sorted_terms(self):
        """The (monomial, coefficient) pairs, descending in grevlex."""
        return sorted(self._terms.items(), key=lambda kv: _grevlex_key(kv[0]), reverse=True)

    def coefficient(self, mono):
        return self._terms.get(mono, self.field.zero)

    def leading_monomial(self) -> Monomial:
        if not self._terms:
            raise StructuralError("the zero polynomial has no leading monomial")
        return max(self._terms, key=_grevlex_key)

    # ----- ring operations ------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise StructuralError(
                f"variable counts differ: {self.nvars} vs {other.nvars}"
            )
        if self.field != other.field:
            raise StructuralError("cannot combine polynomials over different fields")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.nvars, self.field)
        self._check_compatible(other)
        merged = dict(self._terms)
        for m, c in other._terms.items():
            cur = merged.get(m)
            val = c if cur is None else cur + c
            if val:
                merged[m] = val
            elif cur is not None:
                del merged[m]
        return _trusted(self.nvars, self.field, merged)

    __radd__ = __add__

    def __neg__(self):
        return _trusted(self.nvars, self.field, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            scalar = self.field.coerce(other)
            if not scalar:
                return Polynomial.zero(self.nvars, self.field)
            return _trusted(
                self.nvars, self.field, {m: c * scalar for m, c in self._terms.items()}
            )
        self._check_compatible(other)
        acc: dict = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1.mul(m2)
                c = c1 * c2
                cur = acc.get(m)
                val = c if cur is None else cur + c
                if val:
                    acc[m] = val
                elif cur is not None:
                    del acc[m]
        return _trusted(self.nvars, self.field, acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise StructuralError("polynomial exponent must be a nonnegative integer")
        return _power(self, exponent, mul)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.field == other.field
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.nvars, self.field, frozenset(self._terms.items())))

    # ----- calculus -------------------------------------------------------

    def partial(self, index: int) -> "Polynomial":
        """Formal partial derivative.

        In prime characteristic the exponent multiplies into the coefficient
        mod p, so d(x^p)/dx = 0.  `gradient` takes all of them at once.
        """
        if not 0 <= index < self.nvars:
            raise StructuralError(f"variable index {index} out of range")
        acc = {}
        for m, c in self._terms.items():
            e = m[index]
            if not e:
                continue
            coeff = c * e
            if coeff:
                acc[_new(Monomial, m[:index] + (e - 1,) + m[index + 1:])] = coeff
        return _trusted(self.nvars, self.field, acc)

    def gradient(self) -> list:
        """`[self.partial(i) for i in range(nvars)]`, from one pass over the
        nonzero exponents of the terms.

        An exponent e = 1 passes the coefficient c on as it is; otherwise
        the coefficient is c*e, and the term is dropped when that is 0 mod
        p.  Each partial's terms come in the order of this polynomial's
        terms, as `partial` makes them.
        """
        n = self.nvars
        accs = [{} for _ in range(n)]
        for m, c in self._terms.items():
            for i in compress(range(n), m):
                e = m[i]
                coeff = c if e == 1 else c * e
                if coeff:
                    accs[i][_new(Monomial, m[:i] + (e - 1,) + m[i + 1:])] = coeff
        return [_trusted(n, self.field, acc) for acc in accs]

    def extended(self, nvars: int) -> "Polynomial":
        """The same polynomial viewed in a larger ring (zero-padded exponents)."""
        if nvars < self.nvars:
            raise StructuralError("cannot shrink the ambient ring")
        pad = (0,) * (nvars - self.nvars)
        return _trusted(
            nvars, self.field, {_new(Monomial, m + pad): c for m, c in self._terms.items()}
        )

    def graded_part(self, indices, k: int) -> "Polynomial":
        """Sum of the terms whose total degree in `indices` is exactly k."""
        indices = tuple(indices)
        acc = {m: c for m, c in self._terms.items() if m.degree_in(indices) == k}
        return _trusted(self.nvars, self.field, acc)

    # ----- rendering --------------------------------------------------------

    def render(self, names) -> str:
        """Canonical text form: terms descending in grevlex, explicit `*` and `^`."""
        if len(names) != self.nvars:
            raise StructuralError("name list does not match variable count")
        if not self._terms:
            return "0"
        chunks = []
        for m, c in self.sorted_terms():
            text = str(c)
            negative = text.startswith("-")
            magnitude = text.removeprefix("-")
            factors = [
                f"{names[i]}^{e}" if e > 1 else names[i]
                for i, e in enumerate(m)
                if e
            ]
            if not factors:
                body = magnitude
            elif magnitude == "1":
                body = "*".join(factors)
            else:
                body = "*".join([magnitude, *factors])
            if not chunks:
                chunks.append(f"-{body}" if negative else body)
            else:
                chunks.append(f" - {body}" if negative else f" + {body}")
        return "".join(chunks)

    def __repr__(self):
        names = [f"v{i}" for i in range(self.nvars)]
        return f"Polynomial({self.render(names)})"


def _power(base: Polynomial, e: int, product) -> Polynomial:
    """base^e by square-and-multiply, each step formed by `product(a, b)`:
    the result times the base at each set bit of e, from the lowest, and
    the base squared only while a higher bit remains."""
    result = Polynomial.constant(base.field.one, base.nvars, base.field)
    while e:
        if e & 1:
            result = product(result, base)
        e >>= 1
        if e:
            base = product(base, base)
    return result


def _trusted(nvars: int, field, terms: dict) -> Polynomial:
    """The Polynomial of a term map canonical by construction (Monomial keys
    of length `nvars`, nonzero `field` scalars), not validated: for ring
    operations, charts and the Groebner kernel; `Polynomial(...)` validates."""
    poly = object.__new__(Polynomial)
    poly.nvars, poly.field, poly._terms = nvars, field, terms
    return poly
