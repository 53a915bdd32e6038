"""Groebner-basis kernel and the decision procedures built on it.

The kernel has two loops, chosen by the input.  An ideal with more
generators than variables occurring in them runs a Buchberger loop with
the normal pair-selection strategy and the coprime / chain criteria: the
pairs of Becker & Weispfenning's update (p. 230), in Gebauer & Möller's
form (JSC 6, 1988).  Tie-breaking is lexicographic on internal indices, so
results repeat bit for bit.  A square or underdetermined system runs
`_signature`, an incremental signature loop in position-over-term order
(F5C), whose criteria skip S-polynomials that would reduce to zero.
Every emptiness test of the pipeline is a hypersurface with its partials,
or a Rabinowitsch lift of one, so it has more generators than occurring
variables; there the signature order reaches 1 late, so those inputs keep
Buchberger's loop.  The seed, the reduction, the S-polynomials and the
packing are shared, and both loops return the reduced basis, which is
unique.

Monomials inside the kernel are packed ints K (Bachmann & Schönemann,
"Monomial representations for Gröbner bases computations", ISSAC 1998;
Monagan & Pearce, CASC 2007), laid out by `_Packing`.  The one monomial
order is grevlex: in n variables with w-bit fields and B = 2^w,
K = deg·B^(n+1) − Σ e_i·B^(i+1), plus a low field holding the total
degree.  A product is `Ka + Kb`, integer order is grevlex, so the leading
term of a term map is `max(d)`, and divisibility is one guard-bit test,
which the reducer scan of `_reduce` makes once per reducer.
`_kernel_terms` packs each monomial in the pass that converts its
coefficient, and each basis element's `_Reducer`, which holds each term
once, is built once, when it joins the basis.

The width starts at `_WIDTH` bits, or wider when an input degree needs
it.  Each S-polynomial first checks that the degree of its lcm stays
below 2^(w-1), the guard bit; if not, the call restarts at twice the
width.  The signature loop checks each pair's signature the same way
when it makes the pair, before its Koszul test, since its criteria are
guard-bit tests on signatures.  Grevlex is graded,
so no reduction step makes a term of higher degree than the term it
reduces, and reductions need no check.  Reduced bases and normal forms
are unique, so a restart returns the same result.

Critical pairs live on packed monomials too.  Each basis element keeps
the exponent word of its leading monomial; a pair keeps the word of its
lcm, `_Packing.lcm`, a fieldwise maximum in three big-int operations, and
that lcm packed, `_Packing.pack`, as its key on a heap; `_update` and the
signature loop's pair making inline both.  An lcm has degree below 2^w,
so no field carries and integer order on the packed lcm is still grevlex.
Coprimality is `lcm == ea + eb`; the new pairs of an element are
installed per distinct lcm, tested in packed order (a proper divisor
comes first) against the lcms kept.  Gebauer &
Möller's B criterion, which drops an old pair when a later element's
leading monomial divides its lcm and makes a pair of the same lcm with
neither end, is not applied to every pending pair at every installation:
a pair carries the number of elements installed when it was made, and is
tested against the ones installed after it when it is popped.  It meets
the same elements in either form, so the same pairs are formed in the
same order, and the pairs still pending when 1 ends a run are never
tested.  These tests and the pruning of the basis are guard-bit tests
on words.
The index set G of that update is the loop's only basis set, and the
reducers are its elements by leading monomial; `_reduced` finishes the
run, as it finishes each step of the signature loop, rebuilds only the
elements whose tail a new leading monomial divides, and scans the
elements before them once per monomial in the whole pass.
A monomial ideal skips Buchberger: its generators are packed and walked
one degree at a time, each one divisible by one kept at a lower degree is
dropped, and the one-term `_Reducer`s of the basis are built from the
exponent words of that walk.
An ideal with a constant generator is the unit ideal: `groebner` returns
{1} before it packs any generator.
The seed interreduction reduces each generator against those kept before
it, in one pass, and returns as soon as a constant appears.

Coefficients in the kernel are plain Python ints.  `groebner` converts
each generator once on entry: over GF(p) to its residues (`c.value`),
over QQ to an integer multiple (denominators cleared with their lcm).
The kernel works up to units, and `_normalize` makes every polynomial it
keeps, from the seed on, monic over GF(p) and primitive with a positive
leading coefficient over QQ.  A reduction step over GF(p) is
`(cur - c*bc) % p`.  Over QQ it is fraction-free: with g = gcd(c, lb),
the work and the remainder found so far are multiplied by lb // g and
(c // g) times the shifted reducer is subtracted; an S-polynomial
cross-multiplies the two leading coefficients.  Since reduced bases are
unique and pair selection reads only leading monomials, the pair sequence
and the basis are those of field arithmetic.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from heapq import heappop, heappush
from math import gcd, lcm
from operator import attrgetter, mul, sub
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import DegreeLimitError, InternalCheckError, StructuralError
from .poly import Monomial, Polynomial, _trusted

_degree_limit_var: ContextVar[Optional[int]] = ContextVar("degree_limit", default=None)
_audit_var: ContextVar[Optional[Callable]] = ContextVar("basis_audit", default=None)

_new = tuple.__new__
_lead = attrgetter("lm")


@contextmanager
def degree_limit(bound: Optional[int]):
    """Abort any Groebner run that produces a polynomial above `bound` degree.

    The bound applies to every polynomial the selected loop forms, not only
    to the basis it returns, so the lowest bound under which a run finishes
    depends on the loop: cyclic-6 over GF(32003) needs 11 in the signature
    loop, and Buchberger's loop finishes it under 9.  The expression parser
    reads the same bound (`active_degree_limit`) and stops before it builds
    a product or power above it.
    """
    token = _degree_limit_var.set(bound)
    try:
        yield
    finally:
        _degree_limit_var.reset(token)


def active_degree_limit() -> Optional[int]:
    """The bound set by the innermost `degree_limit`, or None."""
    return _degree_limit_var.get()


@contextmanager
def basis_audit(callback: Callable):
    """Invoke `callback(gb)` on every GroebnerBasis computed in this context."""
    token = _audit_var.set(callback)
    try:
        yield
    finally:
        _audit_var.reset(token)


@dataclass(frozen=True)
class Ideal:
    """A polynomial ideal given by generators in a fixed ambient ring."""

    generators: tuple
    nvars: int
    field: object = None

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        fld, nvars = self.field, self.nvars
        for g in gens:
            if not g._terms:
                raise StructuralError("ideal generators must be nonzero")
            if g.nvars != nvars:
                raise StructuralError("generator does not live in the ambient ring")
            gf = g.field
            if fld is None:
                fld = gf
            elif gf is not fld and gf != fld:  # one field object is shared by most
                raise StructuralError("generators over different fields")
        if fld is None:
            raise StructuralError("a generator-free ideal needs an explicit field")
        object.__setattr__(self, "field", fld)

    @cached_property
    def graded_variables(self) -> frozenset:
        """The l such that some integer weight w with w_l != 0 grades every
        generator: e_l is not in the Q-span of the exponent differences of
        two terms of one generator.  The total degree grades a homogeneous
        ideal; otherwise the differences to each generator's first term are
        brought to reduced echelon form over the integers, where e_l is in
        their span exactly when the row of pivot l has no other nonzero
        entry.  Read once per object (`cached_property` writes to the
        instance `__dict__`, past the frozen `__setattr__`)."""
        n = self.nvars
        gens = [h._terms for h in self.generators]
        if all(len({sum(e) for e in t}) == 1 for t in gens):
            return frozenset(range(n))
        rows = {}  # pivot column -> row, each row zero at every other pivot
        for t in gens:
            first, *rest = t
            for e in rest:
                v = list(map(sub, e, first))
                for k, r in rows.items():  # v cleared at every pivot
                    if v[k]:
                        a, b = r[k], v[k]
                        v = [a * x - b * y for x, y in zip(v, r)]
                c = next((i for i, x in enumerate(v) if x), None)
                if c is None:
                    continue
                for k, r in rows.items():
                    if r[c]:
                        a, b = v[c], r[c]
                        r = [a * x - b * y for x, y in zip(r, v)]
                        g = gcd(*r)
                        rows[k] = [x // g for x in r]
                g = gcd(*v)
                rows[c] = [x // g for x in v]
                if len(rows) == n:  # the span is everything
                    return frozenset()
        return frozenset(
            l for l in range(n) if l not in rows or any(x for i, x in enumerate(rows[l]) if i != l)
        )


# --------------------------------------------------------------------------
# packed monomials

# starting width in bits of one field of a packed monomial (see `_Packing`):
# at least 2, one bit of exponent and the guard bit
_WIDTH = 8


class _Overflow(Exception):
    """A degree in a packed computation would reach the guard bits."""


class _Packing:
    """Grevlex monomials as ints K: a product is `Ka + Kb`, the order is `<`.

    K is made of n + 2 w-bit fields, B = 2^w.  Field 0 holds the total
    degree.  Variable v has field v + 1, so the last variable is highest,
    and field n + 1 holds the degree again: K = deg·(1 + B^(n+1)) −
    Σ e_v·B^(v+1), its degree, then its exponents negated, which is
    grevlex.  So variable v adds the weight 1 + B^(n+1) − B^(v+1) to K.
    While every total degree stays below `bound` = 2^(w-1), no field
    carries into the next, K is the sum of its monomial's exponents times
    the weights, and integer order on K is grevlex.

    The exponent word E = `exponents(K)` holds e_v in field v + 1: the
    exponent fields of K hold −E mod B^(n+1), and one negation recovers it.
    a divides b exactly when `((Eb | guard) - Ea) & guard == guard`, where
    `guard` has the top bit of each exponent field set: that bit survives
    the subtraction in a field exactly when e_a <= e_b there, and no field
    borrows from the next.  These tests and `lcm` need only each exponent
    below `bound`, so they also take an lcm of two such words, whose degree
    is at most 2·bound − 2 < B: `pack` of an lcm carries no field either.
    """

    __slots__ = (
        "weights", "bound", "mask", "fields", "ones", "guard", "guard_shift", "shifts", "top",
        "spread",
    )

    def __init__(self, nvars, width):
        self.mask = mask = (1 << width) - 1  # k & mask is the total degree of k
        self.bound = bound = 1 << (width - 1)
        self.guard_shift = width - 1  # the guard bit's place in its field
        self.top = top = (nvars + 1) * width  # the place of the high degree field
        self.shifts = shifts = tuple(range(width, top, width))
        self.weights = tuple(1 + (1 << top) - (1 << s) for s in shifts)
        self.fields = sum(mask << s for s in shifts)
        self.guard = sum(bound << s for s in shifts)
        self.ones = 1 << width
        # times `spread` every exponent lands in the high degree field
        self.spread = sum(1 << (top - s) for s in shifts)

    def exponents(self, k):
        """The exponent word E of the packed monomial k."""
        return ((~k & self.fields) + self.ones) & self.fields

    def pack(self, e):
        """The packed monomial K of the exponent word e: deg·(1 + B^(n+1)) − e,
        the degree a horizontal sum of the fields in one multiplication.

        `_update` and the signature loop's `add` inline this and `lcm`.
        """
        deg = e * self.spread >> self.top & self.mask
        return (deg << self.top | deg) - e

    def lcm(self, ea, eb):
        """The exponent word of the lcm of the words ea and eb: their
        fieldwise maximum, taken where the guard bit marks e_a >= e_b.

        `_update`, `_dropped` and the signature loop's `add` inline it.
        """
        ge = ((ea | self.guard) - eb) & self.guard
        take = (ge >> self.guard_shift) * self.mask
        return ea & take | eb & ~take

    def divides(self, ea, eb):
        """Whether the monomial of exponent word ea divides that of eb.

        The kernel's loops inline this test, with `eb | guard` taken once.
        """
        return ((eb | self.guard) - ea) & self.guard == self.guard

    def monomial(self, k):
        """The Monomial of the packed monomial k."""
        e, mask = self.exponents(k), self.mask
        return _new(Monomial, [e >> s & mask for s in self.shifts])


@cache
def _packing(nvars, width):
    """The `_Packing` of (nvars, width), built once per process; a run
    meets only a handful of these pairs."""
    return _Packing(nvars, width)


def _packed(nvars, degree, run):
    """`run(packing)` at width `_WIDTH`, or wider when the input degree
    `degree` needs it, restarted at twice the width while a degree
    overflows.

    Reduced bases and normal forms are unique, so a restart returns what
    a wider first try would have returned.
    """
    width = max(_WIDTH, degree.bit_length() + 1)
    while True:
        try:
            return run(_packing(nvars, width))
        except _Overflow:
            width *= 2


# --------------------------------------------------------------------------
# kernel: term maps keyed by packed monomials with int coefficients


def _degree(term_maps):
    """The largest total degree of a term of the exponent-tuple term maps; 0 for none."""
    return max(map(sum, itertools.chain.from_iterable(term_maps)), default=0)


def _check_degree(degree, limit):
    if limit is not None and degree > limit:
        raise DegreeLimitError(f"Groebner computation exceeded the degree guardrail ({limit})")


def _kernel_terms(terms, p, weights):
    """The kernel's term map of a Polynomial's term map, in one pass.

    Each monomial packed with `weights` (`_Packing`).  Each coefficient:
    over GF(p) its residue; over QQ an integer, the denominators cleared
    with their lcm.  The content stays: `_normalize` makes each seed
    element primitive.
    """
    if p:
        return {sum(map(mul, m, weights)): c.value for m, c in terms.items()}
    den = lcm(*(c.denominator for c in terms.values()))
    return {
        sum(map(mul, m, weights)): c.numerator * (den // c.denominator)
        for m, c in terms.items()
    }


def _normalize(d, p):
    """(leading monomial, d normalized): monic over GF(p); over QQ
    primitive with a positive leading coefficient."""
    lm = max(d)
    lc = d[lm]
    if p:
        if lc == 1:
            return lm, d
        inv = pow(lc, -1, p)
        return lm, {m: c * inv % p for m, c in d.items()}
    content = gcd(*d.values())
    if lc < 0:
        content = -content
    if content == 1:
        return lm, d
    return lm, {m: c // content for m, c in d.items()}


class _Reducer(NamedTuple):
    """A normalized term map as the reduction loop reads it, each term
    once: the whole map is `{lm: lc, **tail}`."""

    word: int  # the exponent word of the leading monomial
    lm: int
    lc: int  # 1 in a basis `groebner` returns, whose tails over QQ hold Fractions
    tail: dict  # the other terms, monomial -> coefficient


def _entry(lm, d, pk):
    """The `_Reducer` of the term map d with leading monomial lm.

    Built with `tuple.__new__`, which skips the named tuple's Python-level
    constructor: the seed and `normal_form` build one per element per call.
    """
    tail = dict(d)
    return _new(_Reducer, (pk.exponents(lm), lm, tail.pop(lm), tail))


def _reduce(target, reducers, p, pk, regular=(), divisors=None):
    """Normal form of the term map `target` against `_Reducer`s, up to a unit.

    The first reducer whose leading monomial divides the leading work term
    reduces it; when none does, the first of the (bound, `_Reducer`) pairs
    `regular` whose leading monomial divides it and whose bound lies above
    it (the signature loop's regular reduction).  `divisors`, when given,
    maps a monomial to its first divisor in `reducers`, or None, and gains
    each monomial scanned: the signature loop keeps one per step, whose
    `reducers` do not change.  Over GF(p) every reducer is monic and a step
    is `(cur - c*bc) % p`.  Over QQ a step is fraction-free: with
    g = gcd(c, lb) for the reducer's leading coefficient lb, the work and
    the remainder found so far are scaled by lb // g, and (c // g) times
    the shifted reducer is subtracted.  The result is then a positive
    integer multiple of the remainder; it is the remainder itself when
    every reducer has leading coefficient 1, which also holds for Fraction
    coefficients.
    """
    # no overflow check: grevlex is graded, so a step never makes a term of
    # higher degree than the work term it reduces, and every target fits
    # its packing (inputs by the width `_packed` picks, S-polynomials by
    # the check in `_spoly_t`)
    fields, ones, guard = pk.fields, pk.ones, pk.guard
    work = dict(target)
    rem = {}
    while work:
        lm = max(work)
        c = work.pop(lm)
        x = ((~lm & fields) + ones) & fields | guard  # pk.exponents(lm) | guard
        r = False if divisors is None else divisors.get(lm, False)
        if r is False:  # not looked up yet
            for r in reducers:
                if (x - r[0]) & guard == guard:  # r.word divides lm
                    break
            else:
                r = None
            if divisors is not None:
                divisors[lm] = r
        if r is None:
            for b, r in regular:
                if lm < b and (x - r[0]) & guard == guard:
                    break
            else:
                rem[lm] = c
                continue
        _, blm, lb, tail = r
        if lb != 1:
            g = gcd(c, lb)
            scale = lb // g
            c //= g
            if scale != 1:
                work = {m: v * scale for m, v in work.items()}
                rem = {m: v * scale for m, v in rem.items()}
        shift = lm - blm
        for m, bc in tail.items():
            mm = m + shift
            cur = work.get(mm)
            val = -(c * bc) if cur is None else cur - c * bc
            if p:
                val %= p
            if val:
                work[mm] = val
            elif cur is not None:
                del work[mm]
    return rem


def _spoly_t(f, g, k, p, pk):
    """S-polynomial of two `_Reducer`s, each scaled by the other's leading
    coefficient (over GF(p) both are monic).  `k` is the packed lcm of
    their leading monomials; the two leading terms cancel and are never
    formed.  Raises `_Overflow` when the lcm's degree reaches `pk.bound`."""
    if k & pk.mask >= pk.bound:
        raise _Overflow
    a, b, lf, lg = k - f.lm, k - g.lm, f.lc, g.lc
    out = {m + a: lg * c for m, c in f.tail.items()}
    for m, c in g.tail.items():
        mm = m + b
        cur = out.get(mm)
        val = -(lf * c) if cur is None else cur - lf * c
        if p:
            val %= p
        if val:
            out[mm] = val
        elif cur is not None:
            del out[mm]
    return out


def _update(G, CP, ih, words, pk, stamp):
    # Gebauer & Möller's installation (JSC 6, 1988) of basis element ih: its
    # new pairs pushed on the heap CP, and G pruned in place of the elements
    # whose leading monomial lm(ih) divides.  words[i] is the exponent word of
    # lm(i); a pair is (packed lcm, i, j, lcm word, stamp), where `stamp` is
    # the number of elements installed so far, ih included.  (k, i, j) is
    # unique, so the heap pops the normal strategy with ties broken on
    # (i, j) and never compares a stamp.  One new pair (ih, g) survives per
    # lcm that no other new lcm divides, that of the largest g, and none if
    # some g is coprime to ih; a proper divisor comes first in the order, so
    # the lcms are tested in packed order.  The old pairs are not visited
    # here: the B criterion tests a pair against the elements installed
    # after it when it is popped (`_dropped`).  `_Packing.lcm`, `.pack` and
    # `.divides` are inlined.
    guard, shift, mask = pk.guard, pk.guard_shift, pk.mask
    spread, top = pk.spread, pk.top
    eh = words[ih]
    xh = eh | guard
    new = {}  # lcm word -> the largest g with it, None when some g is coprime
    for g in sorted(G, reverse=True):
        e = words[g]
        take = (((xh - e) & guard) >> shift) * mask
        l = eh & take | e & ~take
        if l == eh + e:
            new[l] = None
        elif l not in new:
            new[l] = g
    kept = []
    packed = []
    for l, g in new.items():
        deg = l * spread >> top & mask
        packed.append(((deg << top | deg) - l, l, g))
    for k, l, g in sorted(packed):
        x = l | guard
        for f in kept:
            if (x - f) & guard == guard:
                break
        else:
            kept.append(l)
            if g is not None:
                heappush(CP, (k, ih, g, l, stamp))
    G.difference_update([g for g in G if ((words[g] | guard) - eh) & guard == guard])
    G.add(ih)


def _dropped(l, ei, ej, later, pk):
    """Whether Gebauer & Möller's B criterion drops the pair of exponent
    words ei, ej with lcm word l: some word eh of `later`, the elements
    installed after the pair was made, divides l, and l is neither
    lcm(ei, eh) nor lcm(ej, eh).  `_Packing.divides` and `.lcm` are inlined."""
    guard, shift, mask = pk.guard, pk.guard_shift, pk.mask
    x = l | guard
    for eh in later:
        if (x - eh) & guard == guard:  # lm(h) divides the lcm
            take = ((((ei | guard) - eh) & guard) >> shift) * mask
            if ei & take | eh & ~take != l:
                take = ((((ej | guard) - eh) & guard) >> shift) * mask
                if ej & take | eh & ~take != l:
                    return True
    return False


def _interreduce_seed(gens, p, pk):
    """`_Reducer`s of the nonzero, nonconstant kernel term maps `gens`, each
    reduced in one pass against the ones kept before it and normalized;
    those that reduce to zero are dropped.

    A reduction to a constant ends the work at once: the ideal is the unit
    ideal, and that one reducer is returned.
    """
    kept = []
    for d in gens:
        r = _reduce(d, kept, p, pk) if kept else d
        if r:
            kept.append(_entry(*_normalize(r, p), pk))
            if not kept[-1].lm:
                return kept[-1:]
    return kept


def _reduced(kept, new, p, pk):
    """The `_Reducer`s of the reduced basis, ascending, of the ideal of
    `kept` and `new`, normalized `_Reducer`s that together form a Groebner
    basis of it, where `kept` is a reduced basis and none of its leading
    monomials divides a tail term of `new`: true of remainders by `kept`,
    and of any `new` when `kept` is empty.

    A reduced basis is the minimal basis, interreduced (Becker &
    Weispfenning, §5.4).  The minimal basis is the elements whose leading
    monomial no element before them, ascending, divides (an equal one
    included).  Only a new leading monomial can divide one of their tail
    terms, and a divisor lies at or below its multiple, so an element
    whose tail terms at or above the smallest new leading monomial have no
    new divisor is reduced and stays, the same object.  The others are
    interreduced in one ascending pass, each against the elements before
    it, among which is every divisor of its tail terms.  Both loops finish
    here, the signature loop at the end of each step.

    One divisor table serves every `_reduce` call of the pass.  Each
    monomial looked up while e is rebuilt lies below lm(e), except lm(e)
    itself, and every element appended to `out` later has a larger leading
    monomial, so it divides none of them: a first divisor in `out`, or
    none, once found is final for the pass.  lm(e) is the exception, since
    e joins `out` next and divides it, so its entry leaves the table.
    """
    minimal = []
    for e in sorted(kept + new, key=_lead):
        if not any(pk.divides(m.word, e.word) for m in minimal):
            minimal.append(e)
    guard, fields, ones = pk.guard, pk.fields, pk.ones
    low = min(e.lm for e in new)
    words = [e.word for e in new]
    out = []
    divisors = {}  # monomial -> its first divisor in `out`, or None
    for e in minimal:
        if e.lm > low:
            for t in e.tail:
                if t >= low:
                    x = ((~t & fields) + ones) & fields | guard  # pk.exponents(t) | guard
                    if any((x - w) & guard == guard for w in words):
                        d = _reduce({e.lm: e.lc, **e.tail}, out, p, pk, (), divisors)
                        del divisors[e.lm]
                        e = _entry(*_normalize(d, p), pk)
                        break
        out.append(e)
    return out


def _buchberger(entries, p, limit, pk):
    """The `_Reducer`s of the reduced basis of the ideal of the seed
    `entries` (`_interreduce_seed`, which returns a unit seed as its only
    entry), descending in the order: `_reduced` of G when no pair is left.
    G need not be minimal, since `_update` prunes only the elements that
    the new element divides, and the seed is installed ascending."""
    if not entries[0].lm:
        return entries

    words = [e.word for e in entries]
    installed = []  # the exponent words of the elements, in the order installed
    G: set = set()
    CP: list = []  # the pending pairs, a heap
    reducers = []  # the elements of G, ascending in the order

    def install(ih):
        installed.append(words[ih])
        _update(G, CP, ih, words, pk, len(installed))
        # the leading monomials of G are distinct, so the order is total
        reducers[:] = sorted((entries[g] for g in G), key=_lead)

    for ih in sorted(range(len(entries)), key=lambda i: (entries[i].lm, i)):
        install(ih)

    while CP:
        k, i, j, l, stamp = heappop(CP)
        if _dropped(l, words[i], words[j], installed[stamp:], pk):
            continue
        s = _spoly_t(entries[i], entries[j], k, p, pk)
        if not s:
            continue
        r = _reduce(s, reducers, p, pk)
        if not r:
            continue
        e = _entry(*_normalize(r, p), pk)
        _check_degree(e.lm & pk.mask, limit)
        if not e.lm:
            return [e]
        entries.append(e)
        words.append(e.word)
        install(len(entries) - 1)

    return _reduced([], reducers, p, pk)[::-1]


def _signature(entries, p, limit, pk):
    """The `_Reducer`s of the reduced basis of the ideal of the seed
    `entries`, descending in the order, by an incremental signature loop
    in position-over-term order (F5C: Eder & Perry, JSC 45, 2010; the
    criteria of Roune & Stillman, ISSAC 2012, and Eder & Faugère, JSC 80,
    2017).

    Step i joins the i-th seed element, ascending, to `kept`, the reduced
    basis of the ideal of those before it, whose signatures all lie below
    the step's.  A step element is (signature, its exponent word,
    `_Reducer`); signatures are packed monomials of position i.  The seed
    element reduced by `kept` has signature 1, packed 0.  A pair's
    signature is the larger of its two multiples' signatures, and its
    generator the element that gives it; a pair with an element of `kept`
    takes its signature from the step element, and when the two leading
    monomials are coprime that signature is a Koszul one, so the pair is
    never made.  A pair goes to the heap only when no leading word of
    `kept` divides its signature (the Koszul syzygies, all known when the
    pair is made); its signature's overflow is checked first, since that
    guard-bit test holds only below the bound.  Pairs pop in ascending
    signature σ, and each is reduced unless the signature of an earlier
    zero reduction divides σ, or the signature of an element found after
    its generator does (the rewrite criterion).  A later pair of a σ
    already reduced meets one of the two: its own zero reduction, or the
    element of signature σ that the reduction added.
    The regular reduction of an S-polynomial of signature σ reduces by
    every element of `kept`, and by a step element c only a term x with
    sig(c)·x/lm(c) < σ.  `kept` does not change during a step, so the
    step keeps each monomial's first divisor in it, and scans it once per
    monomial.  A result that some c top-reduces at signature exactly σ
    (singular top-reducible) is kept: dropping it under this add-order
    rewrite criterion loses basis elements.  A step ends with `_reduced`
    of `kept` and its elements, which are remainders of a reduction by
    `kept`, as `_reduced` requires.  A unit seed ends the first step,
    whose element is then the constant.
    """
    guard, mask, shift = pk.guard, pk.mask, pk.guard_shift
    fields, ones, spread, top = pk.fields, pk.ones, pk.spread, pk.top
    kept = []  # the reduced basis of the ideal so far, ascending

    def push(sig, gi, g, k):
        # the overflow check first: the Koszul test holds only below the bound
        if sig & mask >= pk.bound:
            raise _Overflow
        w = ((~sig & fields) + ones) & fields  # pk.exponents(sig)
        x = w | guard
        for y in koszul:
            if (x - y) & guard == guard:
                return
        heappush(pairs, (sig, next(made), gi, g, k, w))

    def add(sig, word, e):
        # e joins the step, and its pairs the heap: (signature, count, the
        # generator's index in `step`, the other element, packed lcm, the
        # signature's exponent word); `_Packing.lcm` and `.pack` inlined
        j = len(step)
        ea, base = e.word, sig - e.lm
        xa = ea | guard
        for g in kept:
            eb = g.word
            take = (((xa - eb) & guard) >> shift) * mask
            l = ea & take | eb & ~take
            if l != ea + eb:
                deg = l * spread >> top & mask
                k = (deg << top | deg) - l
                push(k + base, j, g, k)
        for i, (t, _, c) in enumerate(step):
            eb = c.word
            take = (((xa - eb) & guard) >> shift) * mask
            l = ea & take | eb & ~take
            deg = l * spread >> top & mask
            k = (deg << top | deg) - l
            u, v = k + base, k - c.lm + t
            # the larger signature names the generator; a singular pair,
            # u == v, is never made
            if u > v:
                push(u, j, c, k)
            elif v > u:
                push(v, i, e, k)
        step.append((sig, word, e))

    for f in sorted(entries, key=_lead):
        divisors = {}  # monomial -> its first divisor in `kept`, or None
        d = {f.lm: f.lc, **f.tail}
        d = _reduce(d, kept, p, pk, (), divisors) if kept else d
        if not d:
            continue
        e = _entry(*_normalize(d, p), pk)
        if not e.lm:
            return [e]
        step, pairs, made = [], [], itertools.count()
        koszul = [g.word for g in kept]
        syzygies = []  # the words of zero reductions' signatures
        add(0, 0, e)
        while pairs:
            sig, _, gi, g, k, w = heappop(pairs)
            x = w | guard
            if any((x - y) & guard == guard for y in syzygies) or any(
                (x - y) & guard == guard for _, y, _ in step[gi + 1:]
            ):
                continue
            r = _spoly_t(step[gi][2], g, k, p, pk)
            if r:
                r = _reduce(r, kept, p, pk, [(sig - t + c.lm, c) for t, _, c in step], divisors)
            if not r:
                syzygies.append(w)
                continue
            e = _entry(*_normalize(r, p), pk)
            _check_degree(e.lm & mask, limit)
            if not e.lm:
                return [e]
            add(sig, w, e)
        kept = _reduced(kept, [e for *_, e in step], p, pk)
    return kept[::-1]


def _monomial_basis(gens, pk):
    """The reduced basis of the one-term term maps `gens` (exponent
    tuples) as the `_Reducer`s of its elements, each {lm: 1}, descending
    in the order.

    Packed order is graded and a proper divisor has a lower degree, so
    the monomials are walked one degree at a time, each tested only
    against the words kept at lower degrees: none in the lowest degree.
    When every monomial has one degree, as in a power of a center, all of
    them are kept without the walk.
    """
    guard, mask, w = pk.guard, pk.mask, pk.weights
    fields, ones = pk.fields, pk.ones
    monos = sorted({sum(map(mul, m, w)) for g in gens for m in g})
    if monos and monos[0] & mask == monos[-1] & mask:
        return [_new(_Reducer, (((~k & fields) + ones) & fields, k, 1, {})) for k in reversed(monos)]
    words = []  # the exponent words kept at lower degrees
    kept = []  # (exponent word, packed monomial), ascending
    for _, level in itertools.groupby(monos, mask.__and__):
        new = []
        for k in level:
            e = ((~k & fields) + ones) & fields  # pk.exponents(k)
            x = e | guard
            for f in words:
                if (x - f) & guard == guard:
                    break
            else:
                new.append((e, k))
        kept += new
        words += [e for e, _ in new]
    return [_new(_Reducer, (e, k, 1, {})) for e, k in reversed(kept)]


def _polynomial(d, pk, nvars, fld):
    """The Polynomial over `fld` of the kernel term map d, packed by pk."""
    mono, coerce = pk.monomial, fld.coerce
    return _trusted(nvars, fld, {mono(m): coerce(c) for m, c in d.items()})


# --------------------------------------------------------------------------
# public surface


class GroebnerBasis:
    """A reduced grevlex Groebner basis together with its source ideal.

    It keeps one form of the basis, the kernel's: the `_Reducer` of each
    element, packed by `_pk`, descending, with residues over GF(p) and
    monic Fractions over QQ.  `basis` converts them to Polynomials on each
    read and keeps none; `is_unit`, `normal_form` and `krull_dimension`
    read the reducers.
    """

    __slots__ = ("_reducers", "_pk", "source")

    def __init__(self, reducers: list, pk: _Packing, source: Ideal):
        self._reducers = reducers
        self._pk = pk
        self.source = source

    @property
    def basis(self) -> tuple:
        nvars, fld, pk = self.source.nvars, self.source.field, self._pk
        return tuple(_polynomial({r.lm: r.lc, **r.tail}, pk, nvars, fld) for r in self._reducers)

    @property
    def is_unit(self) -> bool:
        return len(self._reducers) == 1 and not self._reducers[0].lm

    def contains(self, p: Polynomial) -> bool:
        return normal_form(p, self).is_zero

    def verify(self):
        """Assert the defining invariants; raises InternalCheckError on failure.

        Checks that every basis element is monic, that the basis is reduced
        (no leading monomial divides any monomial of another element), that
        every S-polynomial of a basis pair reduces to zero, and that every
        generator of the source ideal reduces to zero.  It reads `basis`
        once, so it audits what callers read, not the packed form.
        """
        basis = self.basis
        terms = [g._terms for g in basis + self.source.generators]
        _packed(self.source.nvars, _degree(terms), lambda pk: self._verify(basis, pk))

    def _verify(self, basis, pk):
        fld = self.source.field
        p = fld.characteristic
        entries = []
        for g in basis:
            d = _kernel_terms(g._terms, p, pk.weights)
            lm = max(d)
            if g._terms[pk.monomial(lm)] != fld.one:
                raise InternalCheckError("basis element is not monic")
            entries.append(_entry(lm, d, pk))
        for i, e in enumerate(entries):
            words = [pk.exponents(m) for m in (e.lm, *e.tail)]
            for j, f in enumerate(entries):
                if i != j and any(pk.divides(f.word, x) for x in words):
                    raise InternalCheckError("basis is not reduced")
        for i, f in enumerate(entries):
            for g in entries[i + 1:]:
                s = _spoly_t(f, g, pk.pack(pk.lcm(f.word, g.word)), p, pk)
                if _reduce(s, entries, p, pk):
                    raise InternalCheckError(
                        "an S-polynomial does not reduce to zero against the basis"
                    )
        for g in self.source.generators:
            if _reduce(_kernel_terms(g._terms, p, pk.weights), entries, p, pk):
                raise InternalCheckError("a source generator does not reduce to zero")


def groebner(ideal: Ideal) -> GroebnerBasis:
    """Reduced grevlex Groebner basis of `ideal`.

    Deterministic: identical inputs produce the identical basis, and the
    reduced basis itself is mathematically unique.
    """
    nvars, fld = ideal.nvars, ideal.field
    p = fld.characteristic
    limit = _degree_limit_var.get()
    gens = [g._terms for g in ideal.generators]
    degree = _degree(gens)
    _check_degree(degree, limit)
    unit = (0,) * nvars

    def run(pk):
        if any(len(g) == 1 and unit in g for g in gens):  # a constant: the unit ideal
            return [_new(_Reducer, (0, 0, 1, {}))], pk
        if all(len(g) == 1 for g in gens):
            return _monomial_basis(gens, pk), pk
        packed = [_kernel_terms(g, p, pk.weights) for g in gens]
        # a square or underdetermined system takes the signature loop: no
        # more generators than the variables that occur in them
        square = len(gens) <= nvars and len(gens) <= sum(
            map(any, zip(*itertools.chain.from_iterable(gens)))
        )
        loop = _signature if square else _buchberger
        basis = loop(_interreduce_seed(packed, p, pk), p, limit, pk)
        if not p:  # monic over QQ
            basis = [
                r if r.lc == 1
                else r._replace(lc=1, tail={m: Fraction(c, r.lc) for m, c in r.tail.items()})
                for r in basis
            ]
        return basis, pk

    gb = GroebnerBasis(*_packed(nvars, degree, run), ideal)
    hook = _audit_var.get()
    if hook is not None:
        hook(gb)
    return gb


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Remainder of `p` under multivariate division by the basis.

    Zero exactly when p lies in the ideal.  Reducers above the degree of
    p are left out: grevlex is graded, so none of them divides a term of
    p, and no reduction step raises a degree.  The basis's own reducers
    serve when p fits its packing; a wider packing re-packs their terms.
    """
    if p.nvars != gb.source.nvars:
        raise StructuralError("polynomial does not live in the basis ring")
    if p.field != gb.source.field:
        raise StructuralError("polynomial over a different field than the basis")
    fld = p.field
    char = fld.characteristic
    degree = _degree([p._terms])
    mask = gb._pk.mask
    kept = gb._reducers
    if kept and kept[0].lm & mask > degree:
        # the reducers descend in the order, so those above p's degree come first
        kept = kept[bisect_left(kept, -degree, key=lambda r: -(r.lm & mask)):]

    def run(pk):
        w = pk.weights
        reducers = kept
        if pk is not gb._pk:  # re-pack the reducers' own terms
            old = gb._pk.monomial
            whole = ({r.lm: r.lc, **r.tail} for r in reducers)
            repacked = ({sum(map(mul, old(m), w)): c for m, c in d.items()} for d in whole)
            reducers = [_entry(max(d), d, pk) for d in repacked]
        if char:
            target = _kernel_terms(p._terms, char, w)
        else:  # QQ: as it is, exact
            target = {sum(map(mul, m, w)): c for m, c in p._terms.items()}
        return _polynomial(_reduce(target, reducers, char, pk), pk, p.nvars, fld)

    # no narrower than the basis's own packing
    return _packed(p.nvars, max(degree, gb._pk.bound - 1), run)


def power_ideal(ideal: Ideal, k: int) -> Ideal:
    """The ideal generated by all k-fold products of the generators, in the
    order of `combinations_with_replacement`.

    When every generator is a variable with coefficient one, as in the
    ideal of a center, each product is one exponent vector and no level
    below k is built, so a power of a center reaches its normal form with
    no coefficient arithmetic (membership in a monomial ideal is a
    divisibility test on each term: Cox, Little & O'Shea, Ch. 2 §4)."""
    if k < 1:
        raise StructuralError("ideal power requires k >= 1")
    nvars, fld = ideal.nvars, ideal.field
    gens, one = ideal.generators, fld.one
    places = []  # the variable of each generator, while each is one with coefficient one
    for g in gens:
        if len(g._terms) != 1:
            break
        ((m, c),) = g._terms.items()
        if c != one or sum(m) != 1:
            break
        places.append(m.index(1))
    else:
        # variables, as a center's ideal: each product is one exponent
        # vector, one per factor at the factor's variable
        prods = []
        for combo in itertools.combinations_with_replacement(places, k):
            e = [0] * nvars
            for v in combo:
                e[v] += 1
            prods.append(_trusted(nvars, fld, {_new(Monomial, e): one}))
        return Ideal(tuple(prods), nvars, fld)
    # each level extends every product of the level before by each generator
    # from its last one on: the same left-to-right products, and one
    # multiplication per product
    prods = list(enumerate(gens))  # (index of the last generator, product)
    for _ in range(k - 1):
        prods = [(j, p * gens[j]) for i, p in prods for j in range(i, len(gens))]
    return Ideal(tuple(p for _, p in prods), nvars, fld)


def ideal_power_membership(p: Polynomial, ideal: Ideal, k: int) -> bool:
    """Whether p lies in the k-th power of the ideal."""
    if k < 1:
        raise StructuralError("ideal power membership requires k >= 1")
    if p.nvars != ideal.nvars or p.field != ideal.field:
        raise StructuralError("ideal power membership requires a polynomial of the same ring")
    if p.is_zero:
        return True
    return groebner(power_ideal(ideal, k)).contains(p)


def is_empty_affine(ideal: Ideal) -> bool:
    """Whether the vanishing locus is empty over the algebraic closure.

    By the Nullstellensatz this holds exactly when the reduced basis is {1}.
    """
    return groebner(ideal).is_unit


def radical_membership(g: Polynomial, ideal: Ideal) -> bool:
    """Whether g vanishes on the whole vanishing locus of the ideal.

    When g is a variable x_l (coefficient one) and an integer weight w
    with w_l != 0 grades the ideal (`Ideal.graded_variables`), decided on
    the chart: the ideal with x_l = 1 has empty vanishing locus.  The
    scaling x_i -> s^(w_i)*x_i maps V(ideal) to itself, and s^(w_l) = 1/a
    has a root s over the closure whatever the sign of w_l and whether p
    divides it, so a point with x_l = a != 0 moves to x_l = 1 (the
    projective Nullstellensatz in its torus form: Cox, Little & O'Shea,
    Ch. 8 §2; Sturmfels, "Gröbner Bases and Convex Polytopes", Ch. 2).
    The chart stops at the first generator that x_l = 1 turns into a
    nonzero constant, as the ideal is then the unit ideal.  Otherwise decided with
    one extra variable t: g is in the radical exactly when the ideal
    together with 1 - t*g has empty vanishing locus.  Each call builds its
    own ideal; no state outlives it but `ideal.graded_variables`, cached
    on the ideal itself.
    """
    if g.nvars != ideal.nvars or g.field != ideal.field:
        raise StructuralError("radical membership requires a polynomial of the same ring")
    if g.is_zero:
        return True
    n, fld = ideal.nvars, ideal.field
    (m, c), *rest = g._terms.items()
    if not rest and c == fld.one and sum(m) == 1 and (l := m.index(1)) in ideal.graded_variables:
        # x_l on a graded ideal: the chart x_l = 1 of its torus orbits is empty;
        # e_l is no difference of two terms' exponents, so no two terms merge
        unit = (0,) * n
        chart = []
        for h in ideal.generators:
            if any(e[l] for e in h._terms):  # only the terms that hold x_l change
                h = _trusted(n, fld, {
                    (_new(Monomial, e[:l] + (0,) + e[l + 1:]) if e[l] else e): a
                    for e, a in h._terms.items()
                })
            chart.append(h)
            if len(h._terms) == 1 and unit in h._terms:  # a nonzero constant
                break
        return is_empty_affine(Ideal(tuple(chart), n, fld))
    t = Polynomial.variable(n, n + 1, fld)
    witness = Polynomial.constant(fld.one, n + 1, fld) - t * g.extended(n + 1)
    lifted = tuple(h.extended(n + 1) for h in ideal.generators)
    return is_empty_affine(Ideal(lifted + (witness,), n + 1, fld))


def krull_dimension(ideal: Ideal) -> Optional[int]:
    """Dimension of the vanishing locus over the closure; None when empty.

    The dimension is the largest size of a variable set that is independent
    modulo the leading-term ideal of a Groebner basis: a set none of whose
    subsets is the support of a leading monomial.  The maximum is found by
    the depth-first search for maximal independent sets of Kredel and
    Weispfenning ("Computing dimension and independent sets for polynomial
    ideals", J. Symbolic Comput. 6, 1988): decide the variables in index
    order, take a variable only while the set stays independent, and drop
    a branch once the variables chosen plus the variables left cannot beat
    the best set found so far.
    """
    gb = groebner(ideal)
    if gb.is_unit:
        return None
    n = ideal.nvars
    pk = gb._pk
    words = [r.word for r in gb._reducers]
    supports = {sum(1 << v for v, s in enumerate(pk.shifts) if e >> s & pk.mask) for e in words}
    # the supports to test when variable v joins the chosen set
    touching = [[s for s in supports if s >> v & 1] for v in range(n)]
    best = -1

    def search(v: int, chosen: int, size: int) -> None:
        nonlocal best
        if size + n - v <= best:
            return
        if v == n:
            best = size
            return
        grown = chosen | 1 << v
        if all(s & grown != s for s in touching[v]):
            search(v + 1, grown, size + 1)
        search(v + 1, chosen, size)

    search(0, 0, 0)
    return best


def determinant(matrix: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant by cofactor expansion along the first row."""
    n = len(matrix)
    if n == 0:
        raise StructuralError("determinant of an empty matrix")
    if any(len(row) != n for row in matrix):
        raise StructuralError("determinant requires a square matrix")
    if n == 1:
        return matrix[0][0]
    first = matrix[0]
    total = None
    for j, entry in enumerate(first):
        if entry.is_zero:
            continue
        minor = [
            [row[c] for c in range(n) if c != j]
            for row in matrix[1:]
        ]
        term = entry * determinant(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        e0 = matrix[0][0]
        return Polynomial.zero(e0.nvars, e0.field)
    return total


def minors_ideal(matrix: Sequence[Sequence[Polynomial]], size: int) -> Ideal:
    """Ideal generated by all size x size minors of a polynomial matrix."""
    rows = len(matrix)
    if rows == 0 or len(matrix[0]) == 0:
        raise StructuralError("minors of an empty matrix")
    cols = len(matrix[0])
    if any(len(row) != cols for row in matrix):
        raise StructuralError("matrix rows have unequal lengths")
    sample = matrix[0][0]
    nvars, fld = sample.nvars, sample.field
    for row in matrix:
        for entry in row:
            if entry.nvars != nvars or entry.field != fld:
                raise StructuralError("matrix entries live in different rings")
    if size == 0:
        one = Polynomial.constant(fld.one, nvars, fld)
        return Ideal((one,), nvars, fld)
    if size > min(rows, cols):
        raise StructuralError(
            f"minor size {size} exceeds matrix dimensions {rows}x{cols}"
        )
    gens = []
    for ridx in itertools.combinations(range(rows), size):
        for cidx in itertools.combinations(range(cols), size):
            minor = determinant([[matrix[r][c] for c in cidx] for r in ridx])
            if not minor.is_zero:
                gens.append(minor)
    return Ideal(tuple(gens), nvars, fld)
