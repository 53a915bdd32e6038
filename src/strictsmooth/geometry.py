"""Blow-up geometry for a hypersurface in affine space.

A scene is an affine ambient space, a hypersurface f = 0 and a list of
coordinate-subspace centers contained in it.  For each center the module
computes the vanishing order k along the center, the leading form of f in
the normal variables, and two independent smoothness routes for the strict
transform of the hypersurface in the blow-up:

* the hypothesis route checks that the hypersurface is smooth away from the
  centers and that the projectivized leading form cuts a smooth effective
  divisor out of each exceptional projective bundle (with a base-locus
  specialization when k = 1);
* the chart oracle pulls f back to each affine chart of the blow-up (a
  monomial change of coordinates, so an exponent map on the terms of f)
  and runs the Jacobian criterion on the strict transform directly.

The hypothesis route is a sufficient criterion only: when it fails the
verdict is Inconclusive, never Singular.  The chart oracle always decides.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Optional

from .errors import InternalCheckError, SceneError, StructuralError
from .groebner import (
    Ideal,
    groebner,
    ideal_power_membership,
    is_empty_affine,
    krull_dimension,
    minors_ideal,
    radical_membership,
)
from .poly import Monomial, Polynomial, _new, _trusted


class Status(str, Enum):
    SMOOTH = "smooth"
    SINGULAR = "singular"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    status: Status
    detail: str = ""
    witness: Optional[Ideal] = None
    witness_names: Optional[tuple] = None
    chart: Optional[tuple] = None  # (center name, chart variable index)


@dataclass(frozen=True)
class Center:
    """A coordinate subspace, given by the variables that vanish on it."""

    name: str
    vanishing: tuple

    def __post_init__(self):
        vanishing = tuple(sorted(set(self.vanishing)))
        if not vanishing:
            raise SceneError(f"center {self.name!r} has an empty vanishing set")
        object.__setattr__(self, "vanishing", vanishing)

    @property
    def codimension(self) -> int:
        return len(self.vanishing)

    def tangent(self, nvars: int) -> tuple:
        normal = set(self.vanishing)
        return tuple(i for i in range(nvars) if i not in normal)

    def ideal(self, nvars: int, field) -> Ideal:
        gens = tuple(Polynomial.variable(i, nvars, field) for i in self.vanishing)
        return Ideal(gens, nvars, field)


@dataclass(frozen=True)
class Scene:
    """Ambient space, hypersurface and centers: the whole input universe."""

    nvars: int
    names: tuple
    f: Polynomial
    centers: tuple

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "centers", tuple(self.centers))

    @property
    def field(self):
        return self.f.field

    def validate(self):
        """Check every scene invariant; raises SceneError on the first failure."""
        if len(self.names) != self.nvars:
            raise SceneError("variable name list does not match the ambient dimension")
        if len(set(self.names)) != self.nvars:
            raise SceneError("variable names must be unique")
        if self.f.nvars != self.nvars:
            raise SceneError("hypersurface polynomial does not live in the ambient ring")
        if self.f.is_zero:
            raise SceneError("the hypersurface polynomial is zero")
        if self.f.is_constant:
            raise SceneError("the hypersurface polynomial is a nonzero constant (a unit)")
        seen = set()
        for center in self.centers:
            if center.name in seen:
                raise SceneError(f"duplicate center name {center.name!r}")
            seen.add(center.name)
            if center.vanishing[0] < 0 or center.vanishing[-1] >= self.nvars:
                raise SceneError(
                    f"center {center.name!r} names a variable outside the ambient space"
                )
            gb = groebner(center.ideal(self.nvars, self.field))
            if not gb.contains(self.f):
                raise SceneError(
                    f"center {center.name!r} is not contained in the hypersurface"
                )
        # Coordinate subspaces all contain the origin, so no two centers are
        # disjoint: a valid scene has at most one center.
        if len(self.centers) > 1:
            a, b = self.centers[:2]
            raise SceneError(f"centers {a.name!r} and {b.name!r} are not disjoint")


@dataclass(frozen=True)
class BaseLocusResult:
    """Outcome of the k = 1 specialization on one center.

    The base locus is the common zero set, inside the center, of the
    coefficient polynomials of the (linear) leading form.  The verdict is
    Smooth when the locus is empty (vacuously, flagged) or has the expected
    dimension and full-rank Jacobian everywhere.
    """

    equations: tuple               # coefficient polynomials in the tangent ring
    dimension: Optional[int]       # None when the base locus is empty
    expected_dimension: int
    verdict: Verdict

    @property
    def vacuous(self) -> bool:
        """Whether the base locus is empty, so the verdict holds vacuously."""
        return self.dimension is None


@dataclass(frozen=True)
class CenterAnalysis:
    center: Center
    multiplicity: int
    leading_form: Polynomial       # also the exceptional section, read on the bundle
    section_verdict: Verdict
    base_locus: Optional[BaseLocusResult]


@dataclass(frozen=True)
class BlowupChart:
    """One affine chart of the blow-up along one center.

    In the chart of the vanishing variable with index `variable`, that
    variable becomes the exceptional coordinate t and every other vanishing
    variable y_l becomes t*u_l; tangent variables are untouched.  On
    exponents, x^m pulls back to the monomial whose `variable` exponent is
    the normal degree of m, all others unchanged.  The pulled back
    hypersurface is exactly t^exponent times the strict transform and the
    strict transform is not divisible by t.  The chart is that exponent map
    alone: the report writes the coordinate change from `names`.
    """

    center: Center
    variable: int
    names: tuple                   # display names of the chart coordinates
    strict_transform: Polynomial
    exceptional_exponent: int


# --------------------------------------------------------------------------
# per-center computations


def _jacobian(h: Polynomial, *extra: Polynomial) -> Ideal:
    """The ideal (h, the nonzero partials of h in index order, *extra), the
    partials all taken in one pass over the terms of h (`gradient`)."""
    partials = (dp for dp in h.gradient() if not dp.is_zero)
    return Ideal((h, *partials, *extra), h.nvars, h.field)


def _verdict(holds: bool, detail: str, witness: Ideal) -> Verdict:
    """Smooth when the condition holds, else Singular with `detail` and `witness`."""
    return Verdict(Status.SMOOTH) if holds else Verdict(Status.SINGULAR, detail, witness)


def _inside(jac: Ideal, center: Center) -> bool:
    """Whether V(jac) lies in the center: each normal variable is in the radical."""
    return all(
        radical_membership(Polynomial.variable(l, jac.nvars, jac.field), jac)
        for l in center.vanishing
    )


def multiplicity(f: Polynomial, center: Center) -> int:
    """Largest k with f in the k-th power of the center ideal: the least
    normal degree of a term of f, since the powers of an ideal of variables
    are monomial ideals.  The kernel confirms f in I^k and not in I^(k+1)."""
    ideal = center.ideal(f.nvars, f.field)
    if not ideal_power_membership(f, ideal, 1):
        raise SceneError(
            f"center {center.name!r} is not contained in the hypersurface"
        )
    k = min(m.degree_in(center.vanishing) for m in f.monomials())
    inside = k == 1 or ideal_power_membership(f, ideal, k)
    if not inside or ideal_power_membership(f, ideal, k + 1):
        raise InternalCheckError(f"the kernel does not confirm k={k} at center {center.name!r}")
    return k


def leading_form(f: Polynomial, center: Center, k: int) -> Polynomial:
    """The degree-k part of f in the normal variables of the center.

    This is the representative of f in I^k / I^(k+1); the postcondition
    f - phi in I^(k+1) is asserted.
    """
    phi = f.graded_part(center.vanishing, k)
    if phi.is_zero:
        raise InternalCheckError(
            f"leading form vanishes at center {center.name!r} with k={k}"
        )
    ideal = center.ideal(f.nvars, f.field)
    if not ideal_power_membership(f - phi, ideal, k + 1):
        raise InternalCheckError(
            f"f minus its leading form is not in I^{k + 1} at center {center.name!r}"
        )
    return phi


def section_smoothness(center: Center, phi: Polynomial) -> Verdict:
    """Decide whether the projectivized leading form cuts a smooth divisor.

    The zero locus of the section lives on (center) x P^(d-1).  It is a
    smooth effective divisor exactly when the affine cone defined by phi is
    nonsingular away from the zero section, i.e. when the common zero set of
    phi and all of its partials lies inside the locus where every normal
    variable vanishes.
    """
    if phi.is_zero:
        raise SceneError(
            f"the exceptional section at center {center.name!r} is zero: not a divisor"
        )
    jac = _jacobian(phi)
    return _verdict(
        _inside(jac, center),
        f"the zero locus of the exceptional section at center "
        f"{center.name!r} is singular away from the irrelevant locus",
        jac,
    )


def base_locus_check(center: Center, phi: Polynomial, nvars: int) -> BaseLocusResult:
    """k = 1 specialization: smoothness and dimension of the base locus.

    The linear leading form phi = sum c_l * y_l gives d coefficient
    polynomials on the center.  Their common zero locus must be smooth of
    dimension 2*dim(center) - dim(ambient); smoothness is decided by
    adjoining the d x d minors of the coefficient Jacobian and testing
    emptiness.  An empty base locus passes vacuously (flagged).
    """
    d = center.codimension
    fld = phi.field
    if phi.is_zero or any(m.degree_in(center.vanishing) != 1 for m in phi.monomials()):
        raise StructuralError("base locus check requires a leading form of degree 1")
    tangent = center.tangent(nvars)
    tdim = len(tangent)
    rows = {l: {} for l in center.vanishing}
    for mono, coeff in phi.terms():
        l = next(i for i in center.vanishing if mono[i])
        rows[l][tuple(mono[i] for i in tangent)] = coeff
    equations = tuple(
        Polynomial(tdim, fld, rows[l]) for l in center.vanishing
    )
    nonzero = tuple(eq for eq in equations if not eq.is_zero)
    b_ideal = Ideal(nonzero, tdim, fld)
    dim_b = krull_dimension(b_ideal)
    expected = 2 * tdim - nvars
    if dim_b is None:
        verdict = Verdict(
            Status.SMOOTH, "base locus is empty; the dimension condition holds vacuously"
        )
    elif expected < 0:
        verdict = Verdict(
            Status.SINGULAR,
            f"expected dimension {expected} is negative but the base locus "
            f"is nonempty (dimension {dim_b})",
            b_ideal,
        )
    elif dim_b != expected:
        verdict = Verdict(
            Status.SINGULAR, f"base locus has dimension {dim_b}, expected {expected}", b_ideal
        )
    else:
        jacobian = [eq.gradient() for eq in equations]
        rank_drop = minors_ideal(jacobian, d)
        witness = Ideal(nonzero + rank_drop.generators, tdim, fld)
        # with every d x d minor identically zero the rank never reaches d
        verdict = _verdict(
            bool(rank_drop.generators) and is_empty_affine(witness),
            f"base locus of center {center.name!r} is singular",
            witness,
        )
    return BaseLocusResult(equations, dim_b, expected, verdict)


# --------------------------------------------------------------------------
# global checks


def singular_locus_in_centers(scene: Scene) -> Verdict:
    """Whether the singular locus of the hypersurface sits inside the centers.

    With no centers this is emptiness of the singular locus.  Otherwise the
    scene has one center (see Scene.validate), and the containment of
    V(jacobian) in it is radical membership of each of its normal variables.
    """
    jac = _jacobian(scene.f)
    if not scene.centers:
        return _verdict(
            is_empty_affine(jac), "the hypersurface is singular and there are no centers", jac
        )
    (center,) = scene.centers
    return _verdict(
        _inside(jac, center), "the hypersurface is singular away from the centers", jac
    )


def fresh_names(scene_names, center: Center, bases) -> tuple:
    """The scene's names with each normal variable renamed, in order, to its
    base in `bases` (parallel to `center.vanishing`).  While a base clashes
    with a tangent name or an earlier new name an underscore is prepended,
    so the names are pairwise distinct."""
    names = list(scene_names)
    taken = set(names) - {names[l] for l in center.vanishing}
    for l, candidate in zip(center.vanishing, bases):
        while candidate in taken:
            candidate = "_" + candidate
        taken.add(candidate)
        names[l] = candidate
    return tuple(names)


def charts(scene: Scene, center: Center) -> tuple:
    """All affine blow-up charts of one center, with strict transforms.

    In the chart of y_j the blow-up sets y_j = t and y_l = t*u_l for the
    other normal variables, a monomial change of coordinates, so the
    pullback is rewritten term by term: the monomial x^m goes to the
    monomial whose j-th exponent is the normal degree sum_{l in V} m_l, with
    every other exponent unchanged.  That map is injective, so no two terms
    merge, over QQ and GF(p) alike.  The t-valuation of the pullback is the
    least normal degree of a term of f, the same in every chart: the k of
    `multiplicity`.  The strict transform is the pullback divided by t^k.
    The chart coordinates are t for y_j and u_<name> for the other y_l.
    """
    normal = center.vanishing
    terms = [(m, m.degree_in(normal), c) for m, c in scene.f.terms()]
    valuation = min(d for _, d, _ in terms)
    out = []
    for j in normal:
        strict = _trusted(scene.nvars, scene.field, {
            _new(Monomial, m[:j] + (d - valuation,) + m[j + 1:]): c for m, d, c in terms
        })
        bases = ("t" if l == j else f"u_{scene.names[l]}" for l in normal)
        out.append(
            BlowupChart(
                center=center,
                variable=j,
                names=fresh_names(scene.names, center, bases),
                strict_transform=strict,
                exceptional_exponent=valuation,
            )
        )
    return tuple(out)


def chart_oracle(scene: Scene, containment: Verdict, center_charts: tuple) -> Verdict:
    """Direct smoothness decision for the strict transform, chart by chart.

    Singular points away from every exceptional locus correspond one to one
    to singular points of the hypersurface away from the centers, so they
    are covered by the containment check; each chart then only needs the
    Jacobian criterion on the exceptional locus, (S, ∂S, t) for the strict
    transform S.  At t = 0, S and its other partials are those of S₀, the
    terms of S free of t, and ∂S/∂t is D, its terms linear in t with t = 1,
    so the test is (S₀, ∂S₀, D), D left out when zero, in which t is free;
    the witness (S, ∂S, t) is built for a Singular verdict only.
    `containment` is the `singular_locus_in_centers` verdict and
    `center_charts` holds the `charts` of each center, parallel to
    `scene.centers` (the shape of `Analysis.charts`).  The verdict is
    never Inconclusive.
    """
    for chart_list in center_charts:
        for chart in chart_list:
            strict, j = chart.strict_transform, chart.variable
            d = strict.graded_part((j,), 1).partial(j)
            extra = () if d.is_zero else (d,)
            if not is_empty_affine(_jacobian(strict.graded_part((j,), 0), *extra)):
                t = Polynomial.variable(j, strict.nvars, strict.field)
                return Verdict(
                    Status.SINGULAR,
                    detail=(
                        f"strict transform is singular on the exceptional locus "
                        f"in the {scene.names[chart.variable]!r}-chart of center "
                        f"{chart.center.name!r}"
                    ),
                    witness=_jacobian(strict, t),
                    witness_names=chart.names,
                    chart=(chart.center.name, chart.variable),
                )
    return _verdict(
        containment.status is Status.SMOOTH,
        "the hypersurface is singular away from the centers, and those "
        "points persist on the strict transform",
        containment.witness,
    )


# --------------------------------------------------------------------------
# divisor-class bookkeeping


def _divisor_class(*summands) -> dict:
    """Sum of integer vectors on labelled divisors, as a {label: int} dict
    with zero entries dropped and keys sorted (the plain report prints it)."""
    total = Counter()
    for summand in summands:
        total.update(summand)
    return {label: c for label, c in sorted(total.items()) if c}


def adjunction_ledger(analyses) -> dict:
    """The report's `divisor_classes` section: the discrepancy of every
    center computed two independent ways.

    Route one is the closed formula d - k - 1.  Route two adds honest
    divisor-class vectors: the canonical class of the blow-up picks up
    (d - 1) times each exceptional divisor, the strict transform is the
    pullback of the hypersurface minus k times each exceptional divisor,
    and adjunction restricts their sum.  The routes must agree, else
    InternalCheckError.

    Returns `assumes_normal`, the `strict_transform` and `canonical`
    classes (see `_divisor_class`), and `per_center`, one entry per
    analysis in order with its codimension, multiplicity, both discrepancy
    values, `agree`, `crepant` and the codimension-2, k = 1 class identity
    (None elsewhere).
    """
    labels = [f"E:{a.center.name}" for a in analyses]
    strict = _divisor_class(
        {"pullback:Y": 1},
        {label: -a.multiplicity for label, a in zip(labels, analyses)},
    )
    blowup_canonical = _divisor_class(
        {"pullback:K_Z": 1},
        {label: a.center.codimension - 1 for label, a in zip(labels, analyses)},
    )
    restricted = _divisor_class(blowup_canonical, strict)
    canonical = {"pullback:K_Y": 1}
    per_center = []
    for label, a in zip(labels, analyses):
        d, k = a.center.codimension, a.multiplicity
        by_formula = d - k - 1
        by_lattice = restricted.get(label, 0)
        if by_formula != by_lattice:
            raise InternalCheckError(
                f"discrepancy mismatch at center {a.center.name!r}: "
                f"{by_formula} by formula, {by_lattice} by lattice"
            )
        canonical[label] = by_formula
        identity = None
        if d == 2 and k == 1:
            identity = {
                "lhs": "exceptional divisor of the base locus inside the center",
                "rhs": {"pullback:det_conormal": 1, "pullback:Y": 1, label: 2 - k},
            }
        per_center.append(
            {
                "center": a.center.name,
                "codimension": d,
                "multiplicity": k,
                "discrepancy_formula": by_formula,
                "discrepancy_lattice": by_lattice,
                "agree": True,
                "crepant": by_formula == 0,
                "class_identity": identity,
            }
        )
    return {
        "assumes_normal": True,
        "strict_transform": strict,
        "canonical": _divisor_class(canonical),
        "per_center": per_center,
    }


# --------------------------------------------------------------------------
# full pipeline


def _route(containment: Verdict, verdicts) -> Verdict:
    """Verdict of one hypothesis route: the containment check plus one
    verdict per center.  Smooth when all hold, otherwise Inconclusive with
    the detail and witness of the first that fails."""
    failed = next(
        (v for v in (containment, *verdicts) if v.status is not Status.SMOOTH), None
    )
    if failed is None:
        return Verdict(Status.SMOOTH)
    return Verdict(
        Status.INCONCLUSIVE,
        detail="hypothesis fails: " + failed.detail,
        witness=failed.witness,
        witness_names=failed.witness_names,
    )


class Analysis:
    """The pipeline over one scene: `Analysis(scene)` validates the scene
    and runs nothing else; each stage runs, once, when first read."""

    def __init__(self, scene: Scene):
        scene.validate()
        self.scene = scene

    @cached_property
    def centers(self) -> tuple:
        """CenterAnalysis per center; a base-locus witness is in the tangent ring."""
        scene, out = self.scene, []
        for center in scene.centers:
            k = multiplicity(scene.f, center)
            phi = leading_form(scene.f, center, k)
            section = section_smoothness(center, phi)
            base = base_locus_check(center, phi, scene.nvars) if k == 1 else None
            if base is not None and base.verdict.witness is not None:
                names = tuple(scene.names[i] for i in center.tangent(scene.nvars))
                base = replace(base, verdict=replace(base.verdict, witness_names=names))
            out.append(CenterAnalysis(center, k, phi, section, base))
        return tuple(out)

    @cached_property
    def singular_containment(self) -> Verdict:
        return singular_locus_in_centers(self.scene)

    @cached_property
    def charts(self) -> tuple:
        """The `charts` of each center, parallel to `scene.centers`; reads no multiplicity."""
        return tuple(charts(self.scene, center) for center in self.scene.centers)

    @cached_property
    def oracle(self) -> Verdict:
        return chart_oracle(self.scene, self.singular_containment, self.charts)

    @cached_property
    def section_route(self) -> Verdict:
        return _route(self.singular_containment, [a.section_verdict for a in self.centers])

    @cached_property
    def base_locus_route(self) -> Optional[Verdict]:
        if self.centers and all(a.multiplicity == 1 for a in self.centers):
            return _route(self.singular_containment, [a.base_locus.verdict for a in self.centers])
        return None

    @cached_property
    def consistent(self) -> bool:
        """Only a Smooth route, a sufficient criterion, can contradict the oracle."""
        claims = [r.status for r in (self.section_route, self.base_locus_route) if r is not None]
        return self.oracle.status is Status.SMOOTH or Status.SMOOTH not in claims

    @cached_property
    def notes(self) -> tuple:
        notes = []
        if (self.section_route.status is Status.INCONCLUSIVE
                and self.oracle.status is Status.SMOOTH):
            notes.append(
                "the smoothness criterion is sufficient only: the chart oracle "
                "certifies smoothness although a hypothesis fails"
            )
        for a in self.centers:
            if a.base_locus is not None and a.base_locus.vacuous:
                notes.append(
                    f"center {a.center.name!r}: empty base locus accepted vacuously "
                    f"(expected dimension {a.base_locus.expected_dimension})"
                )
        return tuple(notes)

    @cached_property
    def warnings(self) -> tuple:
        p = self.scene.field.characteristic
        threshold = self.scene.f.total_degree()  # = max(k, deg f), as 1 <= k <= deg f
        if not p or p > threshold:
            return ()
        return (
            f"prime characteristic {p} is at most max(multiplicity, deg f) = "
            f"{threshold}: Jacobian-based verdicts certify smoothness of the "
            f"hypersurface scheme over the algebraic closure and may differ "
            f"from characteristic-zero behaviour",
        )

    @cached_property
    def ledger(self) -> dict:
        return adjunction_ledger(self.centers)


def analyze(scene: Scene) -> Analysis:
    """`Analysis(scene)` with every stage read, in pipeline order."""
    analysis = Analysis(scene)
    for stage in ("centers", "singular_containment", "charts", "section_route",
                  "base_locus_route", "oracle", "consistent", "notes", "warnings", "ledger"):
        getattr(analysis, stage)
    return analysis
