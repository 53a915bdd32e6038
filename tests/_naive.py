"""Independent naive oracles for the Groebner kernel and chart tests.

Deliberately dumb: textbook Buchberger with a FIFO pair queue and no
criteria, no interreduction of the result, and membership decided by
dividing against every permutation of the computed basis (all answers must
be unanimous).  Shares no code with the package kernel beyond the public
Polynomial type, with four exceptions.  `naive_update` is the kernel's
critical-pair update in Becker & Weispfenning's form; it reads the packed
words through the kernel's packing, which the caller passes in.
`naive_pair_sequence` is the kernel's pair loop with that update run
eagerly on a set of pairs, and forms S-polynomials and reduces with the
kernel's own arithmetic, so that only the pair bookkeeping differs.
`naive_finish` is the kernel's earlier finish of a run, which interreduced
the whole minimal basis with the kernel's seed pass.
`naive_multiplicity` searches for the vanishing order with the kernel's
ideal-power membership, one candidate k at a time.
"""

from __future__ import annotations

import itertools

from strictsmooth.errors import SceneError
from strictsmooth.groebner import (
    _entry,
    _interreduce_seed,
    _normalize,
    _reduce,
    _spoly_t,
    ideal_power_membership,
)
from strictsmooth.poly import Polynomial


def _divide_once(p, divisors):
    """One pass of multivariate division; returns (remainder, changed)."""
    remainder = Polynomial.zero(p.nvars, p.field)
    changed = False
    while not p.is_zero:
        lm = p.leading_monomial()
        lc = p.coefficient(lm)
        hit = None
        for g in divisors:
            glm = g.leading_monomial()
            if glm.divides(lm):
                hit = (g, glm)
                break
        if hit is None:
            mono_poly = Polynomial(p.nvars, p.field, {lm: lc})
            remainder = remainder + mono_poly
            p = p - mono_poly
        else:
            g, glm = hit
            shift = lm.quotient(glm)
            factor = Polynomial(p.nvars, p.field, {shift: lc / g.coefficient(glm)})
            p = p - factor * g
            changed = True
    return remainder, changed


def divide(p, divisors):
    remainder, _ = _divide_once(p, divisors)
    return remainder


def naive_groebner(generators, max_steps=2000):
    """Unoptimized Buchberger: process every pair, first in first out."""
    basis = [g for g in generators if not g.is_zero]
    if not basis:
        return []
    queue = list(itertools.combinations(range(len(basis)), 2))
    steps = 0
    while queue:
        steps += 1
        if steps > max_steps:
            raise RuntimeError("naive Buchberger exceeded the step budget")
        i, j = queue.pop(0)
        gi, gj = basis[i], basis[j]
        lmi, lmj = gi.leading_monomial(), gj.leading_monomial()
        lcm = lmi.lcm(lmj)
        ti = Polynomial(gi.nvars, gi.field, {lcm.quotient(lmi): gi.field.one})
        tj = Polynomial(gj.nvars, gj.field, {lcm.quotient(lmj): gj.field.one})
        spoly = ti * gi * (gi.field.one / gi.coefficient(lmi)) - tj * gj * (
            gj.field.one / gj.coefficient(lmj)
        )
        remainder = divide(spoly, basis)
        if not remainder.is_zero:
            basis.append(remainder)
            queue.extend((t, len(basis) - 1) for t in range(len(basis) - 1))
    return basis


def naive_reduced_basis(generators, max_steps=2000):
    """The reduced Groebner basis, from `naive_groebner` by the textbook steps.

    Make every element monic, drop each element whose leading monomial is
    divisible by that of another (of two equal ones the first stays), then
    replace each survivor by its remainder against the others.
    """
    basis = naive_groebner(list(generators), max_steps)
    monic = [g * (g.field.one / g.coefficient(g.leading_monomial())) for g in basis]
    leads = [g.leading_monomial() for g in monic]
    minimal = [
        g
        for i, g in enumerate(monic)
        if not any(
            leads[j].divides(leads[i]) and (leads[j] != leads[i] or j < i)
            for j in range(len(monic))
            if j != i
        )
    ]
    return [divide(g, [h for h in minimal if h is not g]) for g in minimal]


def naive_member(p, basis, permutation_cap=720):
    """Membership by division against every ordering of the basis.

    All orderings must agree (the basis is a Groebner basis, so remainders
    are ordering-independent); disagreement raises.
    """
    if not basis:
        return p.is_zero
    perms = itertools.permutations(basis)
    answers = set()
    for count, perm in enumerate(perms):
        if count >= permutation_cap:
            break
        answers.add(divide(p, list(perm)).is_zero)
    if len(answers) != 1:
        raise AssertionError("division answers depend on the basis ordering")
    return answers.pop()


def naive_is_empty(basis) -> bool:
    return any((not g.is_zero) and g.is_constant for g in basis)


def naive_krull_dimension(generators, nvars):
    """Dimension of the vanishing locus by exhaustive subset search.

    None when the locus is empty.  Otherwise the largest variable subset
    that contains the support of no leading monomial of a Groebner basis,
    found by trying every subset from the largest size down (2^n subsets).
    """
    basis = naive_groebner(list(generators))
    if naive_is_empty(basis):
        return None
    supports = [frozenset(i for i, e in enumerate(g.leading_monomial().exps) if e) for g in basis]
    for size in range(nvars, -1, -1):
        for subset in itertools.combinations(range(nvars), size):
            chosen = frozenset(subset)
            if not any(s <= chosen for s in supports):
                return size
    raise AssertionError("every variable set contains a leading support")


def naive_substitute(p, images):
    """Compose p with polynomial images of its variables: sum c * prod image_i^e_i.

    Variables without an image stay themselves.  Only ring operations, so the
    chart tests check the exponent rewrite of `geometry.charts` against it.
    """
    result = Polynomial.zero(p.nvars, p.field)
    for mono, coeff in p.terms():
        term = Polynomial.constant(coeff, p.nvars, p.field)
        for i, e in enumerate(mono):
            image = images.get(i, Polynomial.variable(i, p.nvars, p.field))
            term = term * image**e
        result = result + term
    return result


def naive_multiplicity(f, center):
    """Largest k such that f lies in the k-th power of the center ideal,
    searched k by k: the package's search before it read k off the
    exponents, kept as the oracle the term scan must agree with."""
    ideal = center.ideal(f.nvars, f.field)
    if not ideal_power_membership(f, ideal, 1):
        raise SceneError(
            f"center {center.name!r} is not contained in the hypersurface"
        )
    bound = f.total_degree()
    k = 1
    while k <= bound and ideal_power_membership(f, ideal, k + 1):
        k += 1
    return k


def naive_update(G, B, ih, words, pk):
    """Critical-pair update of the Groebner kernel before its Gebauer-Möller
    installation, kept as the oracle the installation must agree with.

    Leaves G and B unchanged and returns the new (G, B).
    """
    # critical-pair maintenance with the coprime and chain criteria,
    # following Becker-Weispfenning p. 230.  words[i] is the exponent word
    # of the leading monomial of basis element i.  A critical pair is the
    # tuple (packed lcm, i, j, lcm word), so min(B) is the normal strategy
    # with ties broken on (i, j).  Each divisibility test is the guard-bit
    # test of `_Packing.divides`, inlined.
    guard, lcm = pk.guard, pk.lcm
    eh = words[ih]
    C = sorted(G)
    lcms = [lcm(eh, words[ig]) for ig in C]
    D = []  # (ig, lcm word, coprime) for the pairs (ih, ig) that survive
    for t, ig in enumerate(C):
        l_hg = lcms[t]
        coprime = l_hg == eh + words[ig]
        x = l_hg | guard
        if coprime or not (
            any((x - l) & guard == guard for l in lcms[t + 1:])
            or any((x - l) & guard == guard for _, l, _ in D)
        ):
            D.append((ig, l_hg, coprime))
    B_new = set()
    for pair in B:
        _, i, j, l_ij = pair
        if (
            ((l_ij | guard) - eh) & guard != guard
            or lcm(words[i], eh) == l_ij
            or lcm(words[j], eh) == l_ij
        ):
            B_new.add(pair)
    B_new.update((pk.pack(l), ih, ig, l) for ig, l, coprime in D if not coprime)
    G_new = {g for g in G if ((words[g] | guard) - eh) & guard != guard}
    G_new.add(ih)
    return G_new, B_new


def naive_pair_sequence(entries, p, pk, formed):
    """The pair loop of the Groebner kernel before its pairs moved to a heap,
    kept as the oracle of the order in which the kernel forms S-polynomials.

    `entries` is a seed of `_Reducer`s, left unchanged.  Appends (packed
    lcm, i, j) to `formed` before forming each S-polynomial, i and j
    indices into the seed followed by the elements found.  Every pending
    pair sits in a set and is pruned by `naive_update` each time an
    element joins; the next pair is `min(B)`.  Stops at the unit ideal.
    """
    if any(not e.lm for e in entries):
        return
    entries = list(entries)
    words = [e.word for e in entries]
    G, B = set(), set()
    for ih in sorted(range(len(entries)), key=lambda i: (entries[i].lm, i)):
        G, B = naive_update(G, B, ih, words, pk)
    while B:
        pair = min(B)
        B.remove(pair)
        k, i, j, _ = pair
        formed.append((k, i, j))
        s = _spoly_t(entries[i], entries[j], k, p, pk)
        if not s:
            continue
        r = _reduce(s, sorted((entries[g] for g in G), key=lambda e: e.lm), p, pk)
        if not r:
            continue
        e = _entry(*_normalize(r, p), pk)
        if not e.lm:
            return
        entries.append(e)
        words.append(e.word)
        G, B = naive_update(G, B, len(entries) - 1, words, pk)



def naive_finish(elements, p, pk):
    """The reduced basis, ascending, of the kernel `_Reducer`s `elements`,
    a Groebner basis: every element whose leading word no element before
    it, ascending, divides, all interreduced in one pass of
    `_interreduce_seed`, each rebuilt whether it changes or not."""
    minimal = []
    for e in sorted(elements, key=lambda e: e.lm):
        if not any(pk.divides(m.word, e.word) for m in minimal):
            minimal.append(e)
    return _interreduce_seed([{e.lm: e.lc, **e.tail} for e in minimal], p, pk)


def naive_unit_certificate(generators, max_steps=2000):
    """Cofactors h with 1 = sum h_i * f_i for the generators f, or None when
    the ideal they generate is not the unit ideal.

    `naive_groebner` that carries along, for each basis element, the
    cofactors that write it in the generators (an extended Groebner basis:
    Becker & Weispfenning, *Gröbner Bases*, 1993): a division step
    g - t * b takes t times the cofactors of b off those of g.  It stops
    at the first constant element c, whose cofactors divided by c are the
    certificate; a basis with no constant means that none exists.  Only
    `Polynomial` arithmetic, none of the kernel.
    """
    nvars, fld = generators[0].nvars, generators[0].field
    zero = Polynomial.zero(nvars, fld)
    one = Polynomial.constant(fld.one, nvars, fld)
    basis = []  # (element, its cofactors)
    pending = [
        (f, [one if u == t else zero for u in range(len(generators))])
        for t, f in enumerate(generators)
    ]
    queue = []  # pairs of basis indices, first in first out
    steps = 0
    while True:
        for g, row in pending:
            if g.is_zero:
                continue
            lm = g.leading_monomial()
            if not any(lm):  # a constant c: 1 = sum (h_i / c) * f_i
                inverse = Polynomial.constant(fld.one / g.coefficient(lm), nvars, fld)
                return [inverse * h for h in row]
            queue.extend((t, len(basis)) for t in range(len(basis)))
            basis.append((g, row))
        if not queue:
            return None
        steps += 1
        if steps > max_steps:
            raise RuntimeError("naive extended Buchberger exceeded the step budget")
        (gi, hi), (gj, hj) = (basis[t] for t in queue.pop(0))
        lmi, lmj = gi.leading_monomial(), gj.leading_monomial()
        lcm = lmi.lcm(lmj)
        ti = Polynomial(nvars, fld, {lcm.quotient(lmi): fld.one / gi.coefficient(lmi)})
        tj = Polynomial(nvars, fld, {lcm.quotient(lmj): fld.one / gj.coefficient(lmj)})
        row = [ti * a - tj * b for a, b in zip(hi, hj)]
        pending = [_divide_tracked(ti * gi - tj * gj, row, basis)]


def _divide_tracked(p, row, basis):
    """The remainder of p under division by the elements of `basis`, each
    with its cofactors, and the cofactors of that remainder: `row` holds
    those of p, and each step p - t * b takes t times those of b off."""
    remainder = Polynomial.zero(p.nvars, p.field)
    while not p.is_zero:
        lm = p.leading_monomial()
        lc = p.coefficient(lm)
        for b, hb in basis:
            blm = b.leading_monomial()
            if blm.divides(lm):
                t = Polynomial(p.nvars, p.field, {lm.quotient(blm): lc / b.coefficient(blm)})
                p = p - t * b
                row = [h - t * x for h, x in zip(row, hb)]
                break
        else:
            lead = Polynomial(p.nvars, p.field, {lm: lc})
            p, remainder = p - lead, remainder + lead
    return remainder, row


def naive_radical_member(g, generators, max_steps=2000):
    """Rabinowitsch's test: g vanishes on the locus of the generators exactly
    when they and 1 - t*g, t one more variable, have the reduced basis {1}."""
    n, fld = g.nvars, g.field
    one = Polynomial.constant(fld.one, n + 1, fld)
    witness = one - Polynomial.variable(n, n + 1, fld) * g.extended(n + 1)
    gens = [p.extended(n + 1) for p in generators] + [witness]
    return naive_reduced_basis(gens, max_steps=max_steps) == [one]
