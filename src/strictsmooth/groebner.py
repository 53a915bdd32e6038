"""Groebner-basis kernel and the decision procedures built on it.

The kernel is a Buchberger loop with the normal pair-selection strategy and
the coprime / chain criteria (critical-pair bookkeeping after Becker &
Weispfenning, p. 230).  It works on term maps keyed by exponent tuples,
the keys of each input :class:`Polynomial`'s term map, which it never
writes into; only the coefficients are converted (see below).  Tie-breaking is
lexicographic on internal indices everywhere, so results are reproducible
bit for bit.

Within one kernel call each derived monomial quantity is computed once:
order keys go through a memo that lives for that call only, each basis
element keeps its leading monomial, and each critical pair keeps its lcm
and that lcm's key.  These are caches of pure functions of the exponent
tuples, so the basis, the pair order and every result are the same with
or without them.

Critical-pair maintenance tests divisibility behind short exponent
vectors (Bachmann & Schönemann, ISSAC 1998; the pair criteria are
Gebauer & Möller's, JSC 6, 1988).  Each basis element keeps a bit mask of
its leading monomial and each pair the mask of its lcm, which is the OR
of two masks.  A failed mask subset test proves non-divisibility with one
`&`; only when it passes does the exact test `_divides_t` run, since
exponents above `_MASK_CAP` are not visible in the mask.  Coprimality is
exact on the masks alone.  The seed interreduction returns as soon as a
constant appears, since the ideal is then the unit ideal.

Coefficients in the kernel are plain Python ints.  `groebner` converts
each generator once on entry: over GF(p) to its residues (`c.value`),
over QQ to its primitive integer multiple (denominators cleared with
their lcm, content divided out).  The kernel works up to units, so every
polynomial it keeps is normalized: monic over GF(p), primitive with a
positive leading coefficient over QQ.  A reduction step over GF(p) is
`(cur - c*bc) % p`.  Over QQ it is fraction-free: with g = gcd(c, lb),
the work and the remainder found so far are multiplied by lb // g and
(c // g) times the shifted reducer is subtracted; an S-polynomial
cross-multiplies the two leading coefficients.  Each element of the
reduced basis is converted back once on exit: over QQ to monic
Fractions, over GF(p) through the Polynomial constructor.  Since reduced
bases are unique and pair selection reads only leading monomials, the
pair sequence and the basis are those of field arithmetic.
`normal_form` over QQ passes the monic Fraction basis through the same
loop, where no step scales, so its remainder is exact.

`power_ideal` builds each k-fold product from its (k-1)-fold prefix, in
the generator order of `combinations_with_replacement`.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd, lcm
from operator import add, le, sub
from typing import Callable, Optional, Sequence

from .errors import DegreeLimitError, InternalCheckError, StructuralError
from .poly import GREVLEX, MonomialOrder, Polynomial

_degree_limit_var: ContextVar[Optional[int]] = ContextVar("degree_limit", default=None)
_audit_var: ContextVar[Optional[Callable]] = ContextVar("basis_audit", default=None)

# exponent levels per variable in a divisibility mask (see `_mask_t`)
_MASK_CAP = 4


@contextmanager
def degree_limit(bound: Optional[int]):
    """Abort any Groebner run that produces a polynomial above `bound` degree.

    The expression parser reads the same bound (`active_degree_limit`) and
    stops before it builds a product or power above it.
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
    order: MonomialOrder = dc_field(default=GREVLEX)

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        fld = self.field
        for g in gens:
            if g.is_zero:
                raise StructuralError("ideal generators must be nonzero")
            if g.nvars != self.nvars:
                raise StructuralError("generator does not live in the ambient ring")
            if fld is None:
                fld = g.field
            elif g.field != fld:
                raise StructuralError("generators over different fields")
        if fld is None:
            raise StructuralError("a generator-free ideal needs an explicit field")
        object.__setattr__(self, "field", fld)

    def join(self, other: "Ideal") -> "Ideal":
        if other.nvars != self.nvars or other.field != self.field:
            raise StructuralError("cannot join ideals of different rings")
        return Ideal(self.generators + other.generators, self.nvars, self.field, self.order)


# --------------------------------------------------------------------------
# tuple-level kernel


class _KeyMemo(dict):
    """Order keys of exponent tuples, each computed on first use.

    One memo lives for one kernel call and is dropped when it returns, so
    nothing accumulates across calls.  Use `_KeyMemo(order).__getitem__`
    as the sort key: a hit is a plain dict lookup.
    """

    __slots__ = ("_raw",)

    def __init__(self, order: MonomialOrder):
        super().__init__()
        self._raw = order.key

    def __missing__(self, exps):
        key = self[exps] = self._raw(exps)
        return key


def _mul_t(a, b):
    return tuple(map(add, a, b))


def _quo_t(a, b):
    return tuple(map(sub, a, b))


def _divides_t(a, b):
    return all(map(le, a, b))


def _mask_t(a):
    """Short exponent vector of `a`: bit i*_MASK_CAP + j is set when a[i] > j.

    If a divides b then `_mask_t(a)` is a subset of `_mask_t(b)`, the mask
    of an lcm is the OR of the two masks, and two monomials are coprime
    exactly when their masks share no bit of `_mask_t((1,) * nvars)`.  A
    subset test therefore settles most non-divisibility with one `&`; when
    it passes, `_divides_t` decides, since exponents above the cap are
    not seen by the mask.
    """
    m = 0
    for i, e in enumerate(a):
        if e:
            m |= ((1 << min(e, _MASK_CAP)) - 1) << (i * _MASK_CAP)
    return m


def _lcm_t(a, b):
    return tuple(map(max, a, b))


def _check_degree(poly_dict, limit):
    if limit is not None and poly_dict:
        if max(sum(m) for m in poly_dict) > limit:
            raise DegreeLimitError(
                f"Groebner computation exceeded the degree guardrail ({limit})"
            )


def _kernel_terms(terms, p):
    """The kernel's int term map of a Polynomial's term map.

    Over GF(p) the residues.  Over QQ the primitive integer multiple: the
    denominators cleared with their lcm, then the content divided out.
    """
    if p:
        return {m: c.value for m, c in terms.items()}
    den = lcm(*(c.denominator for c in terms.values()))
    ints = {m: c.numerator * (den // c.denominator) for m, c in terms.items()}
    content = gcd(*ints.values())
    return {m: c // content for m, c in ints.items()} if content > 1 else ints


def _normalize(d, keyf, p):
    """(leading monomial, d normalized): monic over GF(p); over QQ
    primitive with a positive leading coefficient."""
    lm = max(d, key=keyf)
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


def _reduce(target, basis, keyf, p):
    """Normal form of `target` against (lm, dict) pairs, up to a unit.

    Over GF(p) every reducer is monic and a step is `(cur - c*bc) % p`.
    Over QQ a step is fraction-free: with g = gcd(c, lb) for the reducer's
    leading coefficient lb, the work and the remainder found so far are
    scaled by lb // g, and (c // g) times the shifted reducer is
    subtracted.  The result is then a positive integer multiple of the
    remainder; it is the remainder itself when every reducer has leading
    coefficient 1, which also holds for Fraction coefficients.
    """
    work = dict(target)
    rem = {}
    while work:
        lm = max(work, key=keyf)
        c = work.pop(lm)
        for blm, bd in basis:
            if _divides_t(blm, lm):
                break
        else:
            rem[lm] = c
            continue
        lb = bd[blm]
        if lb != 1:
            g = gcd(c, lb)
            scale = lb // g
            c //= g
            if scale != 1:
                work = {m: v * scale for m, v in work.items()}
                rem = {m: v * scale for m, v in rem.items()}
        shift = _quo_t(lm, blm)
        for m, bc in bd.items():
            if m == blm:
                continue
            mm = _mul_t(m, shift)
            cur = work.get(mm)
            val = -(c * bc) if cur is None else cur - c * bc
            if p:
                val %= p
            if val:
                work[mm] = val
            elif cur is not None:
                del work[mm]
    return rem


def _spoly_t(f, g, lmf, lmg, p):
    """S-polynomial of two kernel term maps, each scaled by the other's
    leading coefficient (over GF(p) both are monic)."""
    lcm_fg = _lcm_t(lmf, lmg)
    a = _quo_t(lcm_fg, lmf)
    b = _quo_t(lcm_fg, lmg)
    lf, lg = f[lmf], g[lmg]
    out = {_mul_t(m, a): lg * c for m, c in f.items()}
    for m, c in g.items():
        mm = _mul_t(m, b)
        cur = out.get(mm)
        val = -(lf * c) if cur is None else cur - lf * c
        if p:
            val %= p
        if val:
            out[mm] = val
        elif cur is not None:
            del out[mm]
    return out


def _update(G, B, ih, lms, keyf):
    # critical-pair maintenance with the coprime and chain criteria,
    # following Becker-Weispfenning p. 230.  lms[i] is the (leading
    # monomial, mask) pair of basis element i.  A critical pair is the
    # tuple (order key of its lcm, i, j, lcm, lcm mask), so min(B) is the
    # normal strategy with ties broken on (i, j).  Each divisibility test
    # checks the masks first and calls `_divides_t` only when they pass.
    mh, bh = lms[ih]
    low = _mask_t((1,) * len(mh))
    C = sorted(G)
    lcms = [(_lcm_t(mh, lms[ig][0]), bh | lms[ig][1]) for ig in C]
    D = []  # (ig, lcm, lcm mask, coprime) for the pairs (ih, ig) that survive
    for t, ig in enumerate(C):
        lcm_hg, b_hg = lcms[t]
        coprime = not bh & lms[ig][1] & low
        if coprime or not (
            any(b & b_hg == b and _divides_t(l, lcm_hg) for l, b in lcms[t + 1:])
            or any(b & b_hg == b and _divides_t(l, lcm_hg) for _, l, b, _ in D)
        ):
            D.append((ig, lcm_hg, b_hg, coprime))
    B_new = set()
    for pair in B:
        _, i, j, lcm_ij, b_ij = pair
        if (
            b_ij & bh != bh
            or not _divides_t(mh, lcm_ij)
            or _lcm_t(lms[i][0], mh) == lcm_ij
            or _lcm_t(lms[j][0], mh) == lcm_ij
        ):
            B_new.add(pair)
    B_new.update((keyf(l), ih, ig, l, b) for ig, l, b, coprime in D if not coprime)
    G_new = {g for g in G if lms[g][1] & bh != bh or not _divides_t(mh, lms[g][0])}
    G_new.add(ih)
    return G_new, B_new


def _interreduce_seed(gens, keyf, p):
    """Normalized (lm, dict) pairs, each reduced against the ones before it.

    A constant leading monomial, in the input or after a reduction, ends
    the work at once: the ideal is the unit ideal, and that one pair is
    returned.
    """
    f1 = [_normalize(g, keyf, p) for g in gens if g]
    for pair in f1:
        if not any(pair[0]):
            return [pair]
    while True:
        f = f1
        f1 = []
        for i, (_, d) in enumerate(f):
            r = _reduce(d, f[:i], keyf, p) if i else d
            if r:
                f1.append(_normalize(r, keyf, p))
                if not any(f1[-1][0]):
                    return f1[-1:]
        if f == f1:
            return f


def _unit_basis(nvars):
    unit = (0,) * nvars
    return [(unit, {unit: 1})]


def _reducers(G, lms, polys, keyf):
    """The (lm, dict) pairs of G, ascending in the order, ties on index."""
    return [(lms[g][0], polys[g]) for g in sorted(G, key=lambda g: (keyf(lms[g][0]), g))]


def _buchberger(gens, keyf, nvars, p, limit):
    """The reduced basis of the kernel term maps `gens` as normalized
    (lm, dict) pairs, descending in the order."""
    f = _interreduce_seed(gens, keyf, p)
    if not f:
        return []
    for lm, d in f:
        _check_degree(d, limit)
        if not any(lm):
            return _unit_basis(nvars)

    lms = [(lm, _mask_t(lm)) for lm, _ in f]
    polys = [d for _, d in f]
    G: set = set()
    CP: set = set()
    for ih in sorted(range(len(polys)), key=lambda i: (keyf(lms[i][0]), i)):
        G, CP = _update(G, CP, ih, lms, keyf)
    reducers = _reducers(G, lms, polys, keyf)

    while CP:
        pair = min(CP)
        CP.remove(pair)
        _, i, j, _, _ = pair
        s = _spoly_t(polys[i], polys[j], lms[i][0], lms[j][0], p)
        if not s:
            continue
        r = _reduce(s, reducers, keyf, p)
        if not r:
            continue
        _check_degree(r, limit)
        lm_r, r = _normalize(r, keyf, p)
        if not any(lm_r):
            return _unit_basis(nvars)
        polys.append(r)
        lms.append((lm_r, _mask_t(lm_r)))
        G, CP = _update(G, CP, len(polys) - 1, lms, keyf)
        reducers = _reducers(G, lms, polys, keyf)

    out = []
    for t, (_, d) in enumerate(reducers):
        r = _reduce(d, reducers[:t] + reducers[t + 1:], keyf, p)
        if r:
            out.append(_normalize(r, keyf, p))
    out.sort(key=lambda pair: keyf(pair[0]), reverse=True)
    return out


def _monomial_basis(gens, keyf):
    monos = sorted({next(iter(g)) for g in gens}, key=keyf)
    kept = {}  # degree -> the minimal generators of that degree found so far
    for m in monos:
        dm = sum(m)
        # a divisor sorts first, and distinct monomials of one degree never
        # divide each other, so only lower-degree survivors need testing
        if not any(_divides_t(k, m) for d, ks in kept.items() if d < dm for k in ks):
            kept.setdefault(dm, []).append(m)
    keep = [m for ks in kept.values() for m in ks]
    return [(m, {m: 1}) for m in sorted(keep, key=keyf, reverse=True)]


# --------------------------------------------------------------------------
# public surface


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis together with its order and source ideal."""

    basis: tuple
    order: MonomialOrder
    source: Ideal

    @property
    def is_unit(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].is_constant

    def contains(self, p: Polynomial) -> bool:
        return normal_form(p, self).is_zero

    def verify(self):
        """Assert the defining invariants; raises InternalCheckError on failure.

        Checks that every basis element is monic, that the basis is reduced
        (no leading monomial divides any monomial of another element), that
        every S-polynomial of a basis pair reduces to zero, and that every
        generator of the source ideal reduces to zero.
        """
        keyf = _KeyMemo(self.order).__getitem__
        fld = self.source.field
        p = fld.characteristic
        lms = [max(g._terms, key=keyf) for g in self.basis]
        for g, lm in zip(self.basis, lms):
            if g._terms[lm] != fld.one:
                raise InternalCheckError("basis element is not monic")
        dicts = [_kernel_terms(g._terms, p) for g in self.basis]
        for i, d in enumerate(dicts):
            for j, lm in enumerate(lms):
                if i == j:
                    continue
                if any(_divides_t(lm, m) for m in d):
                    raise InternalCheckError("basis is not reduced")
        pairs = list(zip(lms, dicts))
        for i in range(len(dicts)):
            for j in range(i + 1, len(dicts)):
                s = _spoly_t(dicts[i], dicts[j], lms[i], lms[j], p)
                if _reduce(s, pairs, keyf, p):
                    raise InternalCheckError(
                        "an S-polynomial does not reduce to zero against the basis"
                    )
        for g in self.source.generators:
            if _reduce(_kernel_terms(g._terms, p), pairs, keyf, p):
                raise InternalCheckError("a source generator does not reduce to zero")


def groebner(ideal: Ideal) -> GroebnerBasis:
    """Reduced Groebner basis of `ideal` with respect to its monomial order.

    Deterministic: identical inputs produce the identical basis, and the
    reduced basis itself is mathematically unique for the given order.
    """
    limit = _degree_limit_var.get()
    keyf = _KeyMemo(ideal.order).__getitem__
    fld = ideal.field
    p = fld.characteristic
    gens = [g._terms for g in ideal.generators]
    for g in gens:
        _check_degree(g, limit)
    if gens and all(len(g) == 1 for g in gens):
        basis = _monomial_basis(gens, keyf)
    else:
        basis = _buchberger([_kernel_terms(g, p) for g in gens], keyf, ideal.nvars, p, limit)
    # back to monic Fractions over QQ; the constructor takes the residues,
    # and the ints of a QQ element whose leading coefficient is already 1
    basis = [
        (lm, {m: Fraction(c, d[lm]) for m, c in d.items()} if d[lm] != 1 else d)
        for lm, d in basis
    ]
    polys = tuple(Polynomial(ideal.nvars, fld, d) for _, d in basis)
    gb = GroebnerBasis(polys, ideal.order, ideal)
    hook = _audit_var.get()
    if hook is not None:
        hook(gb)
    return gb


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Remainder of `p` under multivariate division by the basis.

    Zero exactly when p lies in the ideal.
    """
    if p.nvars != gb.source.nvars:
        raise StructuralError("polynomial does not live in the basis ring")
    if p.field != gb.source.field:
        raise StructuralError("polynomial over a different field than the basis")
    keyf = _KeyMemo(gb.order).__getitem__
    char = p.field.characteristic
    target = p._terms
    basis = [g._terms for g in gb.basis]
    if char:
        target = _kernel_terms(target, char)
        basis = [_kernel_terms(d, char) for d in basis]
    # over QQ the monic Fraction basis goes through the loop as it is: no
    # step scales, so the remainder is exact
    pairs = [(max(d, key=keyf), d) for d in basis]
    return Polynomial(p.nvars, p.field, _reduce(target, pairs, keyf, char))


def spolynomial(p: Polynomial, q: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
    if p.is_zero or q.is_zero:
        raise StructuralError("S-polynomial of a zero polynomial")
    char = p.field.characteristic
    lmp, dp = _normalize(_kernel_terms(p._terms, char), order.key, char)
    lmq, dq = _normalize(_kernel_terms(q._terms, char), order.key, char)
    s = _spoly_t(dp, dq, lmp, lmq, char)
    if not char:  # the S-polynomial of the monic multiples
        scale = dp[lmp] * dq[lmq]
        s = {m: Fraction(c, scale) for m, c in s.items()}
    return Polynomial(p.nvars, p.field, s)


def power_ideal(ideal: Ideal, k: int) -> Ideal:
    """The ideal generated by all k-fold products of the generators."""
    if k < 1:
        raise StructuralError("ideal power requires k >= 1")
    if k == 1:
        return ideal
    # each level extends every product of the level before by each generator
    # from its last one on: the order of combinations_with_replacement, with
    # the same left-to-right products, and one multiplication per product
    gens = ideal.generators
    prods = list(enumerate(gens))  # (index of the last generator, product)
    for _ in range(k - 1):
        prods = [(j, p * gens[j]) for i, p in prods for j in range(i, len(gens))]
    return Ideal(tuple(p for _, p in prods), ideal.nvars, ideal.field, ideal.order)


def ideal_power_membership(p: Polynomial, ideal: Ideal, k: int) -> bool:
    """Whether p lies in the k-th power of the ideal."""
    if k < 1:
        raise StructuralError("ideal power membership requires k >= 1")
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

    Decided with one extra variable t: g is in the radical exactly when
    the ideal together with 1 - t*g has empty vanishing locus.
    """
    if g.nvars != ideal.nvars or g.field != ideal.field:
        raise StructuralError("radical membership requires a polynomial of the same ring")
    if g.is_zero:
        return True
    n = ideal.nvars
    lifted = [p.extended(n + 1) for p in ideal.generators]
    t = Polynomial.variable(n, n + 1, ideal.field)
    witness = Polynomial.constant(ideal.field.one, n + 1, ideal.field) - t * g.extended(n + 1)
    return is_empty_affine(Ideal(tuple(lifted) + (witness,), n + 1, ideal.field))


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
    supports = {
        sum(1 << i for i, e in enumerate(g.leading_monomial(ideal.order)) if e)
        for g in gb.basis
    }
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
