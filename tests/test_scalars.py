from fractions import Fraction

import random

import pytest

from strictsmooth.scalars import PRIME_BOUND, QQ, ModularInt, PrimeField, is_prime


def test_rational_canonical_form():
    assert QQ.coerce(Fraction(2, 4)) == Fraction(1, 2)
    c = QQ.from_rational(1, -2)
    assert c.denominator > 0 and c == Fraction(-1, 2)


def test_prime_field_range():
    F7 = PrimeField(7)
    assert F7.coerce(10).value == 3
    assert F7.coerce(-1).value == 6
    assert (F7.coerce(3) / F7.coerce(5)).value == 2  # 3 * 5^{-1} = 3*3 = 9 = 2


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(6)
    assert is_prime(2) and is_prime(101) and not is_prime(1)


@pytest.mark.parametrize("p", [7.0, 2.0, Fraction(7), "7"])
def test_prime_field_rejects_a_size_that_is_not_an_int(p):
    with pytest.raises(ValueError, match="must be an integer"):
        PrimeField(p)


def test_kinds_never_mix():
    F5 = PrimeField(5)
    with pytest.raises(TypeError):
        F5.coerce(1) + Fraction(1, 2)
    with pytest.raises(TypeError):
        Fraction(1, 2) * F5.coerce(2)
    with pytest.raises(TypeError):
        F5.coerce(1) + PrimeField(7).coerce(1)
    with pytest.raises(TypeError):
        QQ.coerce(F5.coerce(1))
    with pytest.raises(TypeError):
        F5.coerce(Fraction(1, 2))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ModularInt(3, 7) ** -1, ValueError, "exponent must be a nonnegative integer"),
        (lambda: QQ.coerce(1.5), TypeError, "cannot coerce 1.5 into the rational field"),
        (lambda: PrimeField(7).coerce(ModularInt(1, 5)), TypeError,
         r"scalar from GF\(5\) used in GF\(7\)"),
        (lambda: PrimeField(7).coerce(1.5), TypeError, r"cannot coerce 1.5 into GF\(7\)"),
    ],
    ids=["negative-power", "rational-float", "prime-other-field", "prime-float"],
)
def test_input_guards_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_modular_arithmetic():
    F5 = PrimeField(5)
    a, b = F5.coerce(3), F5.coerce(4)
    assert (a + b).value == 2
    assert (a - b).value == 4
    assert (a * b).value == 2
    assert (-a).value == 2
    assert (a ** 3).value == 2
    assert bool(F5.zero) is False and bool(a) is True
    # an int on the left is coerced mod p
    assert (3 - b).value == 4 and (1 / a).value == 2 and (1 / b).value == 4
    with pytest.raises(ZeroDivisionError):
        a / F5.zero
    with pytest.raises(ZeroDivisionError):
        1 / F5.zero
    with pytest.raises(ZeroDivisionError):
        F5.from_rational(1, 5)


def test_is_prime_matches_a_sieve_below_200000():
    limit = 200_000
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for d in range(2, int(limit**0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, limit, d)))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2..7, 2..31 and 2..37 respectively
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)


def test_is_prime_matches_sympy_on_a_seeded_sample():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20170)
    sample = [rng.randrange(2, PRIME_BOUND) for _ in range(300)]
    sample += [sympy.nextprime(rng.randrange(2, PRIME_BOUND // 2)) for _ in range(100)]
    small = [sympy.nextprime(rng.randrange(2, 10**12)) for _ in range(101)]
    sample += [p * q for p, q in zip(small, small[1:])]  # semiprimes
    sample += [2**31 - 1, 2**61 - 1, 2**64 + 1, 321197185]  # the last is a Carmichael number
    for n in sample:
        assert is_prime(n) == sympy.isprime(n), n


def test_prime_field_rejects_p_at_the_bound():
    assert is_prime(PRIME_BOUND - 2) is False  # answered just below the bound
    for p in (PRIME_BOUND, PRIME_BOUND + 2):
        with pytest.raises(ValueError, match=str(PRIME_BOUND)):
            PrimeField(p)
