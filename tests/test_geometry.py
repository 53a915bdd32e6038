import io
import random
from dataclasses import replace
from pathlib import Path

import pytest

from strictsmooth import geometry, selftest
from strictsmooth.cli import main
from strictsmooth.errors import InternalCheckError, SceneError, StructuralError
from strictsmooth.geometry import (
    Analysis,
    Center,
    Scene,
    Status,
    adjunction_ledger,
    analyze,
    base_locus_check,
    charts,
    leading_form,
    multiplicity,
    section_smoothness,
    singular_locus_in_centers,
)
from strictsmooth.groebner import Ideal, krull_dimension, radical_membership
from strictsmooth.parsing import parse_expression
from strictsmooth.poly import Polynomial
from strictsmooth.report import build_report
from strictsmooth.scalars import QQ, PrimeField
from strictsmooth.selftest import (
    FIXTURES,
    equivalence_suite,
    pairing_scene,
    random_scene,
    route_agreement_suite,
    run_selftest,
)

from _naive import naive_multiplicity, naive_substitute


def variables(nvars, field=QQ):
    return [Polynomial.variable(i, nvars, field) for i in range(nvars)]


def scene2(f_text_or_poly, names, vanishing_names, center_name="C"):
    names = tuple(names)
    index = {n: i for i, n in enumerate(names)}
    f = f_text_or_poly
    center = Center(center_name, tuple(index[v] for v in vanishing_names))
    return Scene(len(names), names, f, (center,))


def _pairing_with_centers(*centers):
    x1, x2, y1, y2 = variables(4)
    return Scene(4, ("x1", "x2", "y1", "y2"), x1 * y1 + x2 * y2, centers)


# ----- multiplicity ----------------------------------------------------------


def test_multiplicity_pairing_centers():
    x1, x2, y1, y2 = variables(4)
    f = x1 * y1 + x2 * y2
    assert multiplicity(f, Center("X", (2, 3))) == 1
    assert multiplicity(f, Center("O", (0, 1, 2, 3))) == 2


def test_multiplicity_brute_force_case():
    x, y, z = variables(3)
    f = x**2 - y**2 * z
    assert multiplicity(f, Center("C", (0, 1))) == 2
    # independent check: the vanishing order along a coordinate subspace is
    # the minimal degree of a term in the vanishing variables
    assert min(m.degree_in((0, 1)) for m in f.monomials()) == 2


def test_multiplicity_matches_the_k_by_k_search_on_random_scenes():
    """random_scene draws, their integer coefficients read in each field:
    those are nonzero and at most 3 in size, so every field keeps every term."""
    for field in (QQ, PrimeField(7), PrimeField(32003)):
        rng = random.Random(1009)
        for _ in range(25):
            scene = random_scene(rng)
            f = Polynomial(scene.nvars, field, {
                m: field.from_int(c.numerator) for m, c in scene.f.terms()
            })
            assert set(f.monomials()) == set(scene.f.monomials())
            center = scene.centers[0]
            assert multiplicity(f, center) == naive_multiplicity(f, center)


FERMAT_6 = tuple(f"x{i}" for i in range(1, 7))


@pytest.mark.parametrize("scene, powers", [
    (lambda: pairing_scene(2, "subspace"), (1, 2)),
    (lambda: pairing_scene(2, "origin"), (1, 2, 3)),
    (lambda: scene2(sum(v**6 for v in variables(6)), FERMAT_6, FERMAT_6), (1, 6, 7)),
    (lambda: scene2(parse_expression("x*y^1500", "xy", QQ), "xy", "y"), (1, 1500, 1501)),
], ids=["pairing-n2-subspace", "pairing-n2-origin", "fermat-6", "x*y^1500"])
def test_multiplicity_asks_the_kernel_at_one_k_and_k_plus_one(monkeypatch, scene, powers):
    scene, seen = scene(), []
    member = geometry.ideal_power_membership

    def recording(g, ideal, k):
        seen.append(k)
        return member(g, ideal, k)

    monkeypatch.setattr(geometry, "ideal_power_membership", recording)
    multiplicity(scene.f, scene.centers[0])
    assert tuple(seen) == powers


@pytest.mark.parametrize("lie_at", ["k+1", "k"])
def test_multiplicity_raises_when_the_kernel_disagrees(monkeypatch, capsys, lie_at):
    scene = pairing_scene(2, "origin")
    member = geometry.ideal_power_membership

    def lying(g, ideal, k):
        if k == 3 and lie_at == "k+1":
            return True
        if k == 2 and lie_at == "k":
            return False
        return member(g, ideal, k)

    monkeypatch.setattr(geometry, "ideal_power_membership", lying)
    with pytest.raises(InternalCheckError, match="does not confirm k=2"):
        multiplicity(scene.f, scene.centers[0])
    path = Path(__file__).parent.parent / "scenes" / "pairing-n2-origin.yaml"
    assert main(["analyze", str(path)]) == 3
    assert "internal invariant violation" in capsys.readouterr().err


def test_multiplicity_rejects_center_not_in_hypersurface():
    x, y = variables(2)
    with pytest.raises(SceneError):
        multiplicity(x + 1, Center("C", (1,)))


# ----- leading form -----------------------------------------------------------


def test_leading_form_examples():
    x1, x2, y1, y2 = variables(4)
    f = x1 * y1 + x2 * y2
    assert leading_form(f, Center("X", (2, 3)), 1) == f
    x, y = variables(2)
    g = x * y + y**3
    assert leading_form(g, Center("C", (1,)), 1) == x * y
    lin = Polynomial.variable(2, 4)
    assert leading_form(lin, Center("X", (2, 3)), 1) == lin


def test_leading_form_identity_on_random_scenes():
    rng = random.Random(55)
    from strictsmooth.groebner import ideal_power_membership

    for _ in range(20):
        scene = random_scene(rng)
        center = scene.centers[0]
        k = multiplicity(scene.f, center)
        phi = leading_form(scene.f, center, k)
        assert not phi.is_zero
        ideal = center.ideal(scene.nvars, scene.field)
        assert ideal_power_membership(scene.f - phi, ideal, k + 1)


# ----- exceptional section smoothness -------------------------------------------


def test_section_smooth_for_linear_pairing():
    x1, x2, y1, y2 = variables(4)
    phi = x1 * y1 + x2 * y2
    verdict = section_smoothness(Center("X", (2, 3)), phi)
    assert verdict.status is Status.SMOOTH


def test_section_singular_for_double_line():
    # squared coordinate on the projective line: non-reduced, hence singular
    x, y = variables(2)
    phi = x**2  # center = origin, k = 2
    verdict = section_smoothness(Center("O", (0, 1)), phi)
    assert verdict.status is Status.SINGULAR
    assert verdict.witness is not None
    jac = verdict.witness
    assert radical_membership(x, jac)
    assert not radical_membership(y, jac)


def test_section_smooth_for_full_quadric():
    vs = variables(4)
    phi = vs[0] * vs[2] + vs[1] * vs[3]
    verdict = section_smoothness(Center("O", (0, 1, 2, 3)), phi)
    assert verdict.status is Status.SMOOTH


def test_zero_section_rejected():
    with pytest.raises(SceneError):
        section_smoothness(Center("O", (0, 1)), Polynomial.zero(2))


# ----- base locus (k = 1 route) ---------------------------------------------------


def test_base_locus_pairing_case():
    for n in (1, 2, 3):
        scene = pairing_scene(n, "subspace")
        center = scene.centers[0]
        phi = leading_form(scene.f, center, 1)
        result = base_locus_check(center, phi, scene.nvars)
        assert result.dimension == 0
        assert result.expected_dimension == 0
        assert result.verdict.status is Status.SMOOTH
        assert not result.vacuous
        # the locus really is the origin of the tangent space
        b_ideal = Ideal(result.equations, n, QQ)
        assert krull_dimension(b_ideal) == 0
        for i in range(n):
            assert radical_membership(Polynomial.variable(i, n), b_ideal)


def test_base_locus_requires_k_equal_one():
    x, y, z = variables(3)
    f = x**2 - y**2 * z
    with pytest.raises(StructuralError):
        base_locus_check(Center("C", (0, 1)), f.graded_part((0, 1), 2), 3)


def test_base_locus_dimension_failure():
    # coefficients (x1, x1): dimension 1 instead of the expected 0
    x1, x2, y1, y2 = variables(4)
    phi = x1 * y1 + x1 * y2
    result = base_locus_check(Center("C", (2, 3)), phi, 4)
    assert result.dimension == 1 and result.expected_dimension == 0
    assert result.verdict.status is Status.SINGULAR
    assert "dimension" in result.verdict.detail


def test_base_locus_vacuous_pass_when_empty():
    # f = y1 + x*y2: coefficients (1, x) never vanish simultaneously
    x, y1, y2 = variables(3)
    phi = y1 + x * y2
    result = base_locus_check(Center("C", (1, 2)), phi, 3)
    assert result.dimension is None and result.vacuous
    assert result.verdict.status is Status.SMOOTH


def test_base_locus_negative_expected_dimension_with_points():
    # two equations on a line: expected dimension 2*1 - 3 = -1, locus nonempty
    x, y1, y2 = variables(3)
    phi = x * y1 + x * y2
    result = base_locus_check(Center("C", (1, 2)), phi, 3)
    assert result.expected_dimension == -1
    assert result.verdict.status is Status.SINGULAR


# ----- singular locus containment --------------------------------------------------


def test_pairing_singularities_sit_in_either_center():
    for kind in ("subspace", "origin"):
        scene = pairing_scene(2, kind)
        assert singular_locus_in_centers(scene).status is Status.SMOOTH


def test_node_without_centers_fails():
    x, y = variables(2)
    scene = Scene(2, ("x", "y"), x**2 - y**2, ())
    verdict = singular_locus_in_centers(scene)
    assert verdict.status is Status.SINGULAR and verdict.witness is not None


def test_containment_refuses_an_unvalidated_two_center_scene():
    scene = _pairing_with_centers(Center("A", (2, 3)), Center("B", (0, 1)))
    with pytest.raises(ValueError):
        singular_locus_in_centers(scene)


def test_smooth_hypersurface_without_centers_passes():
    x, y = variables(2)
    scene = Scene(2, ("x", "y"), x, ())
    assert singular_locus_in_centers(scene).status is Status.SMOOTH


# ----- charts ----------------------------------------------------------------------


def test_chart_strict_transforms():
    x, y = variables(2)
    sc = scene2(x * y, ("x", "y"), ("x", "y"), "O")
    (chs,) = Analysis(sc).charts
    by_var = {ch.variable: ch for ch in chs}
    u = Polynomial.variable(1, 2)
    assert by_var[0].strict_transform == u           # x-chart: f~ = u
    assert by_var[0].exceptional_exponent == 2

    x1, x2, y1, y2 = variables(4)
    f = x1 * y1 + x2 * y2
    sc = scene2(f, ("x1", "x2", "y1", "y2"), ("y1", "y2"), "X")
    (chs,) = Analysis(sc).charts
    by_var = {ch.variable: ch for ch in chs}
    u2 = Polynomial.variable(3, 4)
    assert by_var[2].strict_transform == x1 + x2 * u2
    assert by_var[2].exceptional_exponent == 1

    sc = scene2(y1, ("x1", "x2", "y1", "y2"), ("y1", "y2"), "X")
    (chs,) = Analysis(sc).charts
    by_var = {ch.variable: ch for ch in chs}
    assert by_var[2].strict_transform == Polynomial.constant(1, 4)


def chart_images(scene, ch):
    """The chart's coordinate change as polynomials, built with ring
    operations: y_j -> t and y_l -> t*u_l, with t the variable j and u_l the
    variable l."""
    n, fld = scene.nvars, scene.field
    t = Polynomial.variable(ch.variable, n, fld)
    return {
        l: t if l == ch.variable else t * Polynomial.variable(l, n, fld)
        for l in ch.center.vanishing
    }


def _assert_chart_invariants(scene):
    center = scene.centers[0]
    k = multiplicity(scene.f, center)
    chart_list = charts(scene, center)
    assert len(chart_list) == center.codimension
    hit_exact = False
    for ch in chart_list:
        pullback = naive_substitute(scene.f, chart_images(scene, ch))
        assert ch.exceptional_exponent >= k
        t = Polynomial.variable(ch.variable, scene.nvars, scene.field)
        assert pullback == (t ** ch.exceptional_exponent) * ch.strict_transform
        assert min(
            m.exps[ch.variable] for m in ch.strict_transform.monomials()
        ) == 0
        if ch.exceptional_exponent == k:
            hit_exact = True
    assert hit_exact


def test_chart_valuation_invariants_on_fixtures():
    for fixture in FIXTURES:
        scene = fixture.build()
        if scene.centers:
            _assert_chart_invariants(scene)


def test_chart_valuation_invariants_on_random_scenes():
    """random_scene draws with their integer coefficients read in each field."""
    for seed, field in ((321, QQ), (322, PrimeField(7)), (323, PrimeField(32003))):
        rng = random.Random(seed)
        for _ in range(20):
            scene = random_scene(rng)
            f = Polynomial(scene.nvars, field, {
                m: field.from_int(c.numerator) for m, c in scene.f.terms()
            })
            if not f.is_zero:
                _assert_chart_invariants(Scene(scene.nvars, scene.names, f, scene.centers))


def _report_substitution_orders(scene):
    """Check the report's chart substitutions against `chart_images` rendered
    in the chart names; returns the (chart variable, l) index pairs seen."""
    analysis = analyze(scene)
    chart_list = [ch for center_charts in analysis.charts for ch in center_charts]
    orders = set()
    for ch, entry in zip(chart_list, build_report(analysis, "charts")["charts"], strict=True):
        images = chart_images(scene, ch)
        assert entry["substitution"] == {
            scene.names[l]: image.render(ch.names) for l, image in images.items()
        }
        orders.update((ch.variable, l) for l in images)
    return orders


def test_report_substitutions_on_fixtures():
    for fixture in FIXTURES:
        _report_substitution_orders(fixture.build())


def test_report_substitutions_with_names_that_clash_with_chart_names():
    """Scene names drawn from `t`, `u_<name>` and their underscored forms,
    so `fresh_names` renames chart coordinates, in charts whose variable
    stands before and after the other normal variables."""
    pool = ("t", "_t", "a", "u_a", "_u_a", "b", "u_b", "u_t")
    rng = random.Random(331)
    orders, renamed = set(), False
    for _ in range(40):
        scene = random_scene(rng)
        names = tuple(rng.sample(pool, scene.nvars))
        scene = Scene(scene.nvars, names, scene.f, scene.centers)
        orders |= _report_substitution_orders(scene)
        renamed = renamed or any(
            name.startswith("_") and name not in names
            for ch in Analysis(scene).charts[0]
            for name in ch.names
        )
    assert renamed
    assert any(j < l for j, l in orders) and any(j > l for j, l in orders)


# ----- chart oracle -----------------------------------------------------------------


def test_oracle_pairing_smooth():
    for kind in ("subspace", "origin"):
        verdict = Analysis(pairing_scene(2, kind)).oracle
        assert verdict.status is Status.SMOOTH


def test_oracle_cusp_resolves():
    x, y = variables(2)
    sc = scene2(x**2 - y**3, ("x", "y"), ("x", "y"), "O")
    assert Analysis(sc).oracle.status is Status.SMOOTH


def test_oracle_double_cone_stays_singular():
    x, y, z = variables(3)
    sc = scene2(x**2 - y**2 * z**2, ("x", "y", "z"), ("x", "y", "z"), "O")
    verdict = Analysis(sc).oracle
    assert verdict.status is Status.SINGULAR
    assert verdict.chart is not None and verdict.witness is not None


def test_oracle_detects_cusp_that_needs_more_blowups():
    x, y = variables(2)
    sc = scene2(x**2 - y**5, ("x", "y"), ("x", "y"), "O")
    verdict = Analysis(sc).oracle
    assert verdict.status is Status.SINGULAR
    assert verdict.chart == ("O", 1)


# the A3 surface x^2 + y^2 + z^4 at the origin, and its two permutations that
# move the quartic to x and to y: smooth away from the center, and the blow-up
# leaves an A1 point on the exceptional divisor, in the chart of the quartic
# variable only
EXCEPTIONAL_ONLY = (("x^2 + y^2 + z^4", 2), ("x^4 + y^2 + z^2", 0), ("x^2 + y^4 + z^2", 1))


@pytest.mark.parametrize(
    "field", [QQ, PrimeField(7), PrimeField(32003)], ids=["QQ", "GF7", "GF32003"]
)
@pytest.mark.parametrize(
    "text, chart", EXCEPTIONAL_ONLY, ids=["quartic-z", "quartic-x", "quartic-y"]
)
def test_oracle_finds_singularities_only_on_the_exceptional_divisor(field, text, chart):
    names = ("x", "y", "z")
    analysis = analyze(scene2(parse_expression(text, names, field), names, names, "O"))
    assert analysis.singular_containment.status is Status.SMOOTH
    assert analysis.section_route.status is Status.INCONCLUSIVE
    assert analysis.oracle.status is Status.SINGULAR
    assert analysis.oracle.chart == ("O", chart)
    assert analysis.consistent


# ----- scene validation ----------------------------------------------------------


def test_scene_rejects_overlapping_centers():
    x1, x2, y1, y2 = variables(4)
    f = x1 * y1 + x2 * y2
    scene = Scene(
        4,
        ("x1", "x2", "y1", "y2"),
        f,
        (Center("A", (2, 3)), Center("B", (0, 2, 3))),
    )
    with pytest.raises(SceneError, match="'A'.*'B'|'B'.*'A'"):
        scene.validate()


def test_scene_rejects_three_centers_naming_the_first_two():
    scene = _pairing_with_centers(
        Center("A", (2, 3)), Center("B", (0, 2, 3)), Center("C", (1, 2, 3))
    )
    with pytest.raises(SceneError, match=r"^centers 'A' and 'B' are not disjoint$"):
        scene.validate()


def test_scene_duplicate_center_name_wins_over_overlap():
    scene = _pairing_with_centers(Center("A", (2, 3)), Center("A", (0, 2, 3)))
    with pytest.raises(SceneError, match=r"^duplicate center name 'A'$"):
        scene.validate()


def test_scene_second_center_containment_wins_over_overlap():
    scene = _pairing_with_centers(Center("A", (2, 3)), Center("B", (3,)))
    with pytest.raises(
        SceneError, match=r"^center 'B' is not contained in the hypersurface$"
    ):
        scene.validate()


@pytest.mark.parametrize("vanishing", [(-1,), (-1, 0), (2,), (0, 5)])
def test_scene_rejects_center_index_outside_ambient_space(vanishing):
    x, y = variables(2)
    scene = Scene(2, ("x", "y"), x * y, (Center("C", vanishing),))
    with pytest.raises(SceneError, match="names a variable outside the ambient space"):
        scene.validate()


def test_scene_rejects_center_not_in_hypersurface():
    x, y = variables(2)
    scene = Scene(2, ("x", "y"), x + 1, (Center("C", (1,)),))
    with pytest.raises(SceneError, match="not contained"):
        scene.validate()


def test_scene_rejects_constant_and_zero():
    with pytest.raises(SceneError):
        Scene(2, ("x", "y"), Polynomial.constant(3, 2), ()).validate()
    with pytest.raises(SceneError):
        Scene(2, ("x", "y"), Polynomial.zero(2), ()).validate()


# ----- analyze ---------------------------------------------------------------------


def test_analyze_pairing_case_one():
    analysis = analyze(pairing_scene(2, "subspace"))
    a = analysis.centers[0]
    assert a.multiplicity == 1
    assert analysis.section_route.status is Status.SMOOTH
    assert analysis.base_locus_route.status is Status.SMOOTH
    assert analysis.oracle.status is Status.SMOOTH
    assert analysis.consistent
    assert analysis.ledger["strict_transform"] == {"pullback:Y": 1, "E:X": -1}


def test_analyze_pairing_case_two():
    analysis = analyze(pairing_scene(2, "origin"))
    a = analysis.centers[0]
    assert a.multiplicity == 2
    assert analysis.section_route.status is Status.SMOOTH
    assert analysis.base_locus_route is None
    assert analysis.oracle.status is Status.SMOOTH
    assert analysis.ledger["strict_transform"] == {"pullback:Y": 1, "E:O": -2}


def test_analyze_cusp_sufficiency_only():
    x, y = variables(2)
    sc = scene2(x**2 - y**3, ("x", "y"), ("x", "y"), "O")
    analysis = analyze(sc)
    assert analysis.section_route.status is Status.INCONCLUSIVE
    assert analysis.oracle.status is Status.SMOOTH
    assert analysis.consistent
    assert any("sufficient only" in note for note in analysis.notes)


def test_analyze_never_returns_singular_on_hypothesis_route():
    rng = random.Random(6)
    for _ in range(15):
        scene = random_scene(rng)
        try:
            scene.validate()
        except SceneError:
            continue
        analysis = analyze(scene)
        assert analysis.section_route.status in (Status.SMOOTH, Status.INCONCLUSIVE)
        assert analysis.oracle.status in (Status.SMOOTH, Status.SINGULAR)


def test_analyze_prime_characteristic_warning():
    F2 = PrimeField(2)
    x, y = (Polynomial.variable(i, 2, F2) for i in range(2))
    scene = Scene(2, ("x", "y"), x * y, (Center("O", (0, 1)),))
    analysis = analyze(scene)
    assert analysis.warnings and "characteristic 2" in analysis.warnings[0]


def test_analyze_fixture_corpus():
    for fixture in FIXTURES:
        analysis = analyze(fixture.build())
        if fixture.multiplicity is not None:
            assert analysis.centers[0].multiplicity == fixture.multiplicity, fixture.name
        assert analysis.section_route.status is fixture.section_route, fixture.name
        assert analysis.oracle.status is fixture.oracle, fixture.name
        assert analysis.consistent, fixture.name


# ----- adjunction ledger -------------------------------------------------------------


def test_discrepancy_examples():
    analysis = analyze(pairing_scene(2, "origin"))
    record = analysis.ledger["per_center"][0]
    assert record["codimension"] == 4 and record["multiplicity"] == 2
    assert record["discrepancy_formula"] == 1 == record["discrepancy_lattice"]

    for n in (1, 2, 3):
        analysis = analyze(pairing_scene(n, "subspace"))
        record = analysis.ledger["per_center"][0]
        assert record["discrepancy_formula"] == n - 2 == record["discrepancy_lattice"]
        assert record["crepant"] == (n == 2)


def test_crepant_case_d2_k1_has_class_identity():
    analysis = analyze(pairing_scene(1, "subspace"))
    record = analysis.ledger["per_center"][0]
    assert record["codimension"] == 1  # d = 1: no identity
    assert record["class_identity"] is None

    analysis = analyze(pairing_scene(2, "subspace"))
    record = analysis.ledger["per_center"][0]
    assert record["codimension"] == 2 and record["multiplicity"] == 1
    assert record["crepant"]
    assert record["class_identity"] is not None
    assert record["class_identity"]["rhs"] == {
        "pullback:det_conormal": 1,
        "pullback:Y": 1,
        "E:X": 1,
    }


def test_divisor_class_lattice_arithmetic():
    # crepant: the zero E:X coefficient is dropped from the canonical class
    ledger = analyze(pairing_scene(2, "subspace")).ledger
    assert ledger["assumes_normal"] is True
    assert ledger["strict_transform"] == {"E:X": -1, "pullback:Y": 1}
    assert ledger["canonical"] == {"pullback:K_Y": 1}
    ledger = analyze(pairing_scene(2, "origin")).ledger
    assert ledger["canonical"] == {"E:O": 1, "pullback:K_Y": 1}
    for fixture in FIXTURES:
        ledger = analyze(fixture.build()).ledger
        for key in ("strict_transform", "canonical"):
            cls = ledger[key]
            assert list(cls) == sorted(cls), (fixture.name, key)
            assert all(isinstance(c, int) and c != 0 for c in cls.values())


def test_adjunction_ledger_raises_when_routes_disagree(monkeypatch):
    scene = pairing_scene(2, "origin")  # discrepancy 1
    analyses = Analysis(scene).centers
    real = geometry._divisor_class
    # a lattice sum that drops every summand but the first loses the E:O terms
    monkeypatch.setattr(geometry, "_divisor_class", lambda *summands: real(summands[0]))
    with pytest.raises(InternalCheckError, match="1 by formula, 0 by lattice"):
        adjunction_ledger(analyses)


def test_discrepancy_routes_agree_on_random_scenes():
    rng = random.Random(77)
    for _ in range(15):
        scene = random_scene(rng)
        try:
            scene.validate()
        except SceneError:
            continue
        ledger = adjunction_ledger(Analysis(scene).centers)
        for record in ledger["per_center"]:
            assert record["discrepancy_formula"] == record["discrepancy_lattice"]
            assert record["agree"] is True


def test_center_entries_read_the_ledgers():
    scenes = [fixture.build() for fixture in FIXTURES]
    rng = random.Random(31)
    while len(scenes) < len(FIXTURES) + 20:
        scene = random_scene(rng)
        try:
            scene.validate()
        except SceneError:
            continue
        scenes.append(scene)
    for scene in scenes:
        report = build_report(analyze(scene))
        entries = zip(report["centers"], report["divisor_classes"]["per_center"],
                      report["lefschetz"])
        for center, divisor, block in entries:
            d, k = center["codimension"], center["multiplicity"]
            assert center["discrepancy"] == divisor["discrepancy_formula"] == d - k - 1
            assert center["lefschetz_applicable"] == block["applicable"] == (k < d)
        assert len(report["centers"]) == len(scene.centers)


# ----- the two big property suites (trimmed versions; full runs in acceptance) ------


def test_route_agreement_sample():
    hits = 0
    for _, scene, analysis in route_agreement_suite(30, seed=5):
        if analysis.section_route.status is Status.SMOOTH:
            hits += 1
            assert analysis.oracle.status is Status.SMOOTH, scene.f
    assert hits > 0


def test_equivalence_sample():
    for _, scene, section, base in equivalence_suite(20, seed=9):
        left = base.verdict.status is Status.SMOOTH
        right = section.status is Status.SMOOTH
        assert left == right, scene.f


def test_equivalence_suite_runs_the_center_stages():
    # the stages composed by hand on the same seeded draws
    rng = random.Random(9)
    expected = []
    while len(expected) < 20:
        scene = random_scene(rng, force_k1=True)
        center = scene.centers[0]
        k = multiplicity(scene.f, center)
        if k != 1:
            continue
        phi = leading_form(scene.f, center, k)
        base = base_locus_check(center, phi, scene.nvars)
        expected.append((scene, section_smoothness(center, phi), base))
    got = list(equivalence_suite(20, seed=9))
    assert [idx for idx, *_ in got] == list(range(20))
    for (_, scene, section, base), (want_scene, want_section, want_base) in zip(got, expected):
        assert scene == want_scene and section == want_section
        # the centers stage names the witness's variables; nothing else differs
        assert base == replace(
            want_base, verdict=replace(want_base.verdict, witness_names=base.verdict.witness_names)
        )


@pytest.mark.parametrize("kind, base", [("subspace", ["base_locus_check"]), ("origin", [])],
                         ids=["k=1", "k=2"])
def test_analyze_runs_the_stages_in_pipeline_order(stage_log, kind, base):
    # the kernel sees the same call sequence, so its seed memo and the
    # benchmark's pinned counts hold
    analyze(pairing_scene(2, kind))
    assert stage_log == [
        "validate", "multiplicity", "leading_form", "section_smoothness", *base,
        "singular_locus_in_centers", "charts", "chart_oracle", "adjunction_ledger",
    ]


SELFTEST_SEED_0 = """\
PASS fixture pairing-n1-subspace
PASS fixture pairing-n2-subspace
PASS fixture pairing-n3-subspace
PASS fixture pairing-n1-origin
PASS fixture pairing-n2-origin
PASS fixture pairing-n3-origin
PASS fixture cusp-origin
PASS fixture double-cone
PASS fixture higher-cusp
PASS fixture node-no-center
PASS fixture smooth-line-no-center
PASS fixture double-divisor
PASS fixture reducible-pair
PASS fixture pairing-n2-deformed
PASS fixture linear-center
PASS route-agreement (40 scenes, 29 hypothesis hits)
PASS equivalence (25 scenes)
"""


def test_selftest_output_is_pinned():
    stream = io.StringIO()
    assert run_selftest(0, stream) == (17, 0)
    assert stream.getvalue() == SELFTEST_SEED_0


def test_selftest_reports_a_failing_fixture(monkeypatch):
    wrong = replace(selftest.FIXTURES[3], oracle=Status.SINGULAR)
    monkeypatch.setattr(selftest, "FIXTURES", (wrong,) + selftest.FIXTURES[4:6])
    stream = io.StringIO()
    assert run_selftest(0, stream, route_count=0, equiv_count=0) == (4, 1)
    assert stream.getvalue().splitlines() == [
        "FAIL fixture pairing-n1-origin: oracle smooth != singular",
        "PASS fixture pairing-n2-origin",
        "PASS fixture pairing-n3-origin",
        "PASS route-agreement (0 scenes, 0 hypothesis hits)",
        "PASS equivalence (0 scenes)",
    ]


def test_analyze_is_deterministic():
    from strictsmooth.report import build_report, render_structured

    scene = pairing_scene(2, "subspace")
    first = render_structured(build_report(analyze(scene)))
    second = render_structured(build_report(analyze(scene)))
    assert first == second


def test_editing_a_report_leaves_the_analysis_alone():
    from strictsmooth.report import render_structured

    analysis = analyze(pairing_scene(2, "origin"))
    ledger = render_structured(analysis.ledger)
    first = build_report(analysis)
    text = render_structured(first)
    first["divisor_classes"]["canonical"]["E:O"] = 99
    first["divisor_classes"]["per_center"][0]["agree"] = None
    assert render_structured(analysis.ledger) == ledger
    assert render_structured(build_report(analysis)) == text


def test_threads_sharing_an_analysis_write_the_same_report():
    # a stage that two threads read first may run twice; stages are pure,
    # so every thread still reads the report of one analyze()
    import sys
    import threading

    from strictsmooth.report import render_structured

    want = render_structured(build_report(analyze(pairing_scene(2, "origin"))))
    shared = Analysis(pairing_scene(2, "origin"))
    got = []
    threads = [
        threading.Thread(target=lambda: got.append(render_structured(build_report(shared))))
        for _ in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [want] * len(threads)


def _brute_force_smooth(scene):
    # independent complete decision: the charts cover the whole blow-up, so
    # the strict transform is smooth iff every chart's full Jacobian locus is
    # empty (no exceptional-locus restriction, no containment split)
    from strictsmooth.groebner import is_empty_affine as empty

    if not scene.centers:
        gens = [scene.f] + [
            scene.f.partial(i)
            for i in range(scene.nvars)
            if not scene.f.partial(i).is_zero
        ]
        return empty(Ideal(tuple(gens), scene.nvars, scene.field))
    for center in scene.centers:
        for ch in charts(scene, center):
            gens = [ch.strict_transform]
            for i in range(scene.nvars):
                dp = ch.strict_transform.partial(i)
                if not dp.is_zero:
                    gens.append(dp)
            if not empty(Ideal(tuple(gens), scene.nvars, scene.field)):
                return False
    return True


def test_oracle_agrees_with_brute_force_chart_decision():
    from strictsmooth.selftest import random_pairing_like_scene

    rng = random.Random(987)
    checked = 0
    while checked < 60:
        if checked % 3 == 0:
            scene = random_pairing_like_scene(rng)
        else:
            scene = random_scene(rng)
        try:
            scene.validate()
        except SceneError:
            continue
        mine = Analysis(scene).oracle.status is Status.SMOOTH
        assert mine == _brute_force_smooth(scene), scene.f
        checked += 1
    for fixture in FIXTURES:
        scene = fixture.build()
        mine = Analysis(scene).oracle.status is Status.SMOOTH
        assert mine == _brute_force_smooth(scene), fixture.name
