"""Exact coefficient arithmetic: rationals and prime fields.

Rational scalars are plain :class:`fractions.Fraction` values (always in
lowest terms with positive denominator).  Prime-field scalars are
:class:`ModularInt` values kept in canonical form ``0 <= value < p``.
The two kinds never mix silently: any attempt raises ``TypeError``.
"""

from __future__ import annotations

from fractions import Fraction


# Miller-Rabin with the prime bases 2..41 decides primality exactly below
# this bound (Sorenson & Webster, Math. Comp. 86, 2017).
PRIME_BOUND = 3_317_044_064_679_887_385_961_981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError for n >= PRIME_BOUND."""
    if n >= PRIME_BOUND:
        raise ValueError(f"{n} is not below {PRIME_BOUND}, the bound of the primality test")
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ModularInt:
    """An element of the field with p elements, p prime.

    Supports the usual arithmetic operators against other ModularInt values
    of the same p and against plain ints (coerced mod p).  ``bool(x)`` is the
    zero test, which is what the polynomial layer relies on.
    """

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, ModularInt):
            if other.p != self.p:
                raise TypeError(f"cannot mix GF({self.p}) and GF({other.p}) scalars")
            return other
        if isinstance(other, int):
            return ModularInt(other, self.p)
        if isinstance(other, Fraction):
            raise TypeError("cannot mix prime-field and rational scalars")
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ModularInt(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ModularInt(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ModularInt(o.value - self.value, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ModularInt(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.value == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return ModularInt(self.value * pow(o.value, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return ModularInt(pow(self.value, exponent, self.p), self.p)

    def __neg__(self):
        return ModularInt(-self.value, self.p)

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, ModularInt):
            return self.p == other.p and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"ModularInt({self.value}, {self.p})"


class RationalField:
    """The rational numbers, with Fraction as the carrier type."""

    characteristic = 0

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def from_rational(self, numerator: int, denominator: int) -> Fraction:
        return Fraction(numerator, denominator)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, ModularInt):
            raise TypeError("cannot use a prime-field scalar as a rational coefficient")
        raise TypeError(f"cannot coerce {value!r} into the rational field")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational-field")

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    """The field with p elements, p prime."""

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise ValueError(f"the field size must be an integer, not {p!r}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @property
    def characteristic(self):
        return self.p

    @property
    def zero(self):
        return ModularInt(0, self.p)

    @property
    def one(self):
        return ModularInt(1, self.p)

    def from_rational(self, numerator: int, denominator: int) -> ModularInt:
        if denominator % self.p == 0:
            raise ZeroDivisionError(
                f"denominator {denominator} is not invertible in GF({self.p})"
            )
        return ModularInt(numerator, self.p) / ModularInt(denominator, self.p)

    def coerce(self, value):
        if isinstance(value, ModularInt):
            if value.p != self.p:
                raise TypeError(f"scalar from GF({value.p}) used in GF({self.p})")
            return value
        if isinstance(value, int):
            return ModularInt(value, self.p)
        if isinstance(value, Fraction):
            raise TypeError("cannot use a rational scalar as a prime-field coefficient")
        raise TypeError(f"cannot coerce {value!r} into GF({self.p})")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime-field", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


QQ = RationalField()
