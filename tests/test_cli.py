import copy
import hashlib
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from conftest import STAGES

from strictsmooth.cli import main
from strictsmooth.errors import SceneError
from strictsmooth.geometry import (
    Status,
    analyze,
    leading_form,
    section_smoothness,
    singular_locus_in_centers,
)
from strictsmooth.parsing import parse_expression
from strictsmooth.report import _section_names, build_report, render_structured
from strictsmooth.scalars import PRIME_BOUND
from strictsmooth.scene_io import load_scene, report_schema, scene_from_document, scene_schema

SCENES = Path(__file__).resolve().parent.parent / "scenes"

# built once: `jsonschema.validate` checks the schema itself on every call
REPORT_VALIDATOR = jsonschema.Draft202012Validator(report_schema())

PAIRING_SCENE = """\
schema: strictsmooth-scene/1
field: {kind: rational}
variables: [x1, x2, y1, y2]
hypersurface: "x1*y1 + x2*y2"
centers:
  - name: X
    vanishing: [y1, y2]
"""

ORIGIN_SCENE = """\
schema: strictsmooth-scene/1
variables: [x1, y1]
hypersurface: "x1*y1"
centers:
  - name: O
    vanishing: [x1, y1]
"""


@pytest.fixture
def pairing_file(tmp_path):
    path = tmp_path / "pairing.yaml"
    path.write_text(PAIRING_SCENE)
    return str(path)


@pytest.fixture
def origin_file(tmp_path):
    path = tmp_path / "origin.yaml"
    path.write_text(ORIGIN_SCENE)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_exit_zero_and_valid_report(capsys, pairing_file):
    code, out, err = run(capsys, ["analyze", pairing_file])
    assert code == 0
    report = json.loads(out)
    REPORT_VALIDATOR.validate(report)
    assert report["verdicts"]["section_criterion"]["status"] == "smooth"
    assert report["verdicts"]["base_locus_criterion"]["status"] == "smooth"
    assert report["verdicts"]["chart_oracle"]["status"] == "smooth"
    assert report["verdicts"]["consistent"] is True
    assert report["divisor_classes"]["strict_transform"] == {"E:X": -1, "pullback:Y": 1}
    assert "k=1" in err


def test_reports_are_byte_identical(capsys, pairing_file):
    _, out1, _ = run(capsys, ["analyze", pairing_file])
    _, out2, _ = run(capsys, ["analyze", pairing_file])
    assert out1 == out2


def test_quiet_suppresses_summary(capsys, pairing_file):
    _, _, err = run(capsys, ["analyze", pairing_file, "--quiet"])
    assert err == ""


def test_plain_format(capsys, pairing_file):
    code, out, _ = run(capsys, ["analyze", pairing_file, "--format", "plain"])
    assert code == 0
    assert "chart oracle: smooth" in out
    assert "x1*y1 + x2*y2" in out


def test_charts_command(capsys, pairing_file):
    code, out, _ = run(capsys, ["charts", pairing_file])
    assert code == 0
    report = json.loads(out)
    REPORT_VALIDATOR.validate(report)
    assert len(report["charts"]) == 2
    first = report["charts"][0]
    assert first["substitution"]["y1"] == "t"
    assert first["substitution"]["y2"] == "t*u_y2"
    assert first["strict_transform"] == "x2*u_y2 + x1"


def test_oracle_command(capsys, pairing_file):
    code, out, _ = run(capsys, ["oracle", pairing_file])
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["chart_oracle"]["status"] == "smooth"
    assert "sod" not in report


def test_sod_command_not_applicable_when_k_equals_d(capsys, origin_file):
    code, out, _ = run(capsys, ["sod", origin_file])
    assert code == 0
    report = json.loads(out)
    REPORT_VALIDATOR.validate(report)
    assert report["sod"]["applicable"] is False
    assert "offenders" in report["sod"]["reason"]
    assert report["lefschetz"][0]["applicable"] is False


def test_sod_command_crepant_case(capsys, pairing_file):
    # d = 2, k = 1: empty twist range, the residual block alone
    code, out, _ = run(capsys, ["sod", pairing_file])
    assert code == 0
    report = json.loads(out)
    REPORT_VALIDATOR.validate(report)
    assert report["sod"]["applicable"] is True
    assert report["sod"]["blocks"] == [{"residual": True, "weakly_crepant": True}]


def test_overlapping_centers_exit_two(capsys, tmp_path):
    scene = tmp_path / "overlap.yaml"
    scene.write_text(
        "schema: strictsmooth-scene/1\n"
        "variables: [x1, x2, y1, y2]\n"
        'hypersurface: "x1*y1 + x2*y2"\n'
        "centers:\n"
        "  - name: A\n"
        "    vanishing: [y1, y2]\n"
        "  - name: B\n"
        "    vanishing: [x1, y1, y2]\n"
    )
    code, out, err = run(capsys, ["analyze", str(scene)])
    assert code == 2
    assert "'A'" in err and "'B'" in err


def test_bad_expression_exit_two(capsys, tmp_path):
    scene = tmp_path / "bad.yaml"
    scene.write_text(
        "schema: strictsmooth-scene/1\n"
        "variables: [x, y]\n"
        'hypersurface: "x^(-1)"\n'
        "centers: []\n"
    )
    code, _, err = run(capsys, ["analyze", str(scene)])
    assert code == 2
    assert "exponent" in err


def test_non_decimal_digit_exit_two(capsys, tmp_path):
    # '²' is a digit to str.isdigit() but not to int()
    scene = tmp_path / "superscript.yaml"
    scene.write_text(
        "schema: strictsmooth-scene/1\n"
        "variables: [x, y]\n"
        'hypersurface: "x^² + y"\n'
        "centers: []\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, ["analyze", str(scene)])
    assert code == 2 and out == ""
    assert err == "error: hypersurface expression: unexpected character '²' (line 1, column 3)\n"


@pytest.mark.parametrize("expression, message, column", [
    ("1/x", "'/' is only allowed between integer literals", 3),
    ("(x", "expected ')'", 3),
    ("x +", "unexpected end of expression", 4),
    ("x + )", "unexpected token ')'", 5),
], ids=["slash-name", "open-paren", "dangling-plus", "stray-paren"])
def test_malformed_expression_exit_two(capsys, tmp_path, expression, message, column):
    scene = tmp_path / "malformed.yaml"
    scene.write_text(
        "schema: strictsmooth-scene/1\n"
        "variables: [x, y]\n"
        f'hypersurface: "{expression}"\n'
        "centers: []\n"
    )
    code, out, err = run(capsys, ["analyze", str(scene)])
    assert code == 2 and out == ""
    assert err == f"error: hypersurface expression: {message} (line 1, column {column})\n"


@pytest.mark.parametrize("text, message", [
    ("[1, 2]\n", "scene file must be a mapping"),
    ("", "scene file must be a mapping"),
    ("hello\n", "scene file must be a mapping"),
    ("a: [1, 2\n", "scene file is not valid YAML: while parsing a flow sequence"),
], ids=["list", "empty", "string", "unclosed-list"])
def test_scene_file_that_is_no_mapping_exit_two(capsys, tmp_path, text, message):
    scene = tmp_path / "shape.yaml"
    scene.write_text(text)
    code, out, err = run(capsys, ["analyze", str(scene)])
    assert code == 2 and out == ""
    assert err.splitlines()[0] == f"error: {message}"


def test_unknown_vanishing_variable_exit_two(capsys, tmp_path):
    scene = tmp_path / "unknown.yaml"
    scene.write_text(
        "schema: strictsmooth-scene/1\n"
        "variables: [x, y]\n"
        'hypersurface: "x*y"\n'
        "centers:\n"
        "  - name: C\n"
        "    vanishing: [w]\n"
    )
    code, _, err = run(capsys, ["analyze", str(scene)])
    assert code == 2 and "w" in err


def test_nonprime_p_exit_two(capsys, tmp_path):
    scene = tmp_path / "nonprime.yaml"
    scene.write_text(
        "schema: strictsmooth-scene/1\n"
        "field: {kind: prime, p: 6}\n"
        "variables: [x, y]\n"
        'hypersurface: "x*y"\n'
        "centers: []\n"
    )
    code, _, err = run(capsys, ["analyze", str(scene)])
    assert code == 2 and "prime" in err


def _prime_scene(tmp_path, p):
    scene = tmp_path / "prime.yaml"
    scene.write_text(PAIRING_SCENE.replace("{kind: rational}", f"{{kind: prime, p: {p}}}"))
    return str(scene)


@pytest.mark.parametrize("p", ["7.0", "2.0"])
def test_float_p_exit_two(capsys, tmp_path, p):
    # JSON Schema's integer type accepts 7.0; the field needs an int
    code, out, err = run(capsys, ["analyze", _prime_scene(tmp_path, p)])
    assert code == 2 and out == ""
    assert err == f"error: the field size must be an integer, not {p}\n"


def test_large_prime_p_loads_quickly(capsys, tmp_path):
    start = time.perf_counter()
    code, out, err = run(capsys, ["analyze", _prime_scene(tmp_path, 2**61 - 1), "--quiet"])
    assert time.perf_counter() - start < 2
    assert code == 0, err
    assert json.loads(out)["input"]["field"] == {"kind": "prime", "p": 2**61 - 1}


def test_p_at_the_primality_bound_exit_two(capsys, tmp_path):
    code, out, err = run(capsys, ["analyze", _prime_scene(tmp_path, PRIME_BOUND)])
    assert code == 2 and out == ""
    assert str(PRIME_BOUND) in err


def test_missing_file_exit_two(capsys):
    code, _, err = run(capsys, ["analyze", "/nonexistent/scene.yaml"])
    assert code == 2
    assert "scene file not found: /nonexistent/scene.yaml" in err


def test_directory_exit_two(capsys, tmp_path):
    code, out, err = run(capsys, ["analyze", str(tmp_path)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read scene file {tmp_path}")


def test_non_utf8_file_exit_two(capsys, tmp_path):
    scene = tmp_path / "latin1.yaml"
    scene.write_bytes(PAIRING_SCENE.replace("x1*y1", "x1*y1\xff").encode("latin-1"))
    code, out, err = run(capsys, ["analyze", str(scene)])
    assert code == 2 and out == ""
    assert "not UTF-8" in err


def test_deeply_nested_file_exit_two(capsys, tmp_path):
    scene = tmp_path / "deep.yaml"
    scene.write_text(ORIGIN_SCENE.split("centers:")[0] + "centers: " + "[" * 3000 + "]" * 3000)
    code, out, err = run(capsys, ["analyze", str(scene)])
    assert code == 2 and out == ""
    assert "nested too deeply" in err


def _alias_scene(depth):
    # each anchor is a list of 9 aliases of the one before: a 441-byte file
    # at depth 6 stands for two lists of 9^6 leaves each
    lines = ["schema: strictsmooth-scene/1", "a0: &a0 [x, x, x, x, x, x, x, x, x]"]
    for i in range(1, depth + 1):
        lines.append(f"a{i}: &a{i} [" + ", ".join([f"*a{i - 1}"] * 9) + "]")
    lines += [f"variables: [*a{depth}, *a{depth}]", 'hypersurface: "x"', "centers: []"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "text",
    [_alias_scene(6), ORIGIN_SCENE.replace("vanishing: [x1, y1]", "vanishing: *v")
     .replace("variables: [x1, y1]", "variables: &v [x1, y1]")],
    ids=["nested-anchors", "plain-alias"],
)
def test_yaml_alias_exit_two(capsys, tmp_path, text):
    scene = tmp_path / "alias.yaml"
    scene.write_text(text)
    start = time.perf_counter()
    code, out, err = run(capsys, ["analyze", str(scene)])
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert err == "error: scene file uses a YAML alias\n"


@pytest.mark.parametrize(
    "expression",
    ["(" * 200 + "x1" + ")" * 200, "-" * 1000 + "x1", "x1 + " + "7" * 5000, "x1*y1 + 3^20000*x1^2"],
    ids=["parentheses", "unary-minus", "long-literal", "long-coefficient"],
)
def test_hostile_expression_exit_two(capsys, tmp_path, expression):
    scene = tmp_path / "hostile.yaml"
    scene.write_text(ORIGIN_SCENE.replace('"x1*y1"', f'"{expression}"'))
    code, out, err = run(capsys, ["analyze", str(scene)])
    assert code == 2 and out == ""
    assert err.startswith("error: hypersurface expression: ")


def test_max_degree_guardrail_exit_two(capsys, pairing_file):
    code, _, err = run(capsys, ["analyze", pairing_file, "--max-degree", "1"])
    assert code == 2
    assert "guardrail" in err


@pytest.mark.parametrize("command", ["charts", "oracle", "analyze", "sod"])
def test_max_degree_guardrail_bounds_summary(capsys, command):
    # k = 2 at the origin: the chart reports stay within degree 2 and their
    # summary reads k off the charts, so --quiet changes only stderr; analyze
    # and sod confirm k with I^3, which the guardrail must stop before
    # anything reaches stdout
    scene = str(SCENES / "pairing-n2-origin.yaml")
    loud = run(capsys, [command, scene, "--max-degree", "2"])
    quiet = run(capsys, [command, scene, "--max-degree", "2", "--quiet"])
    if command in ("charts", "oracle"):
        assert loud[0] == quiet[0] == 0 and loud[1] and loud[1] == quiet[1]
        assert loud[2].startswith("O: k=2 d=4") and quiet[2] == ""
    else:
        for code, out, err in (loud, quiet):
            assert code == 2 and out == ""
            assert "guardrail" in err


def test_max_degree_bounds_parsing(capsys, tmp_path):
    # expanding this power takes minutes; the guard must stop the parser first
    scene = tmp_path / "power.yaml"
    scene.write_text(
        "schema: strictsmooth-scene/1\nvariables: [a, b, c, d, e]\n"
        'hypersurface: "(a+b+c+d+e)^30"\ncenters: []\n'
    )
    start = time.perf_counter()
    code, out, err = run(capsys, ["analyze", str(scene), "--max-degree", "10"])
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert "guardrail" in err


@pytest.mark.parametrize(
    "variables, expression, options",
    [("a, b, c, d, e, f, g, h", "(a+b+c+d+e+f+g+h)^8", ["--max-degree", "8"]),
     ("a, b, c, d, e", "(a+b+c+d+e)^30", [])],
    ids=["eight-variables-under-max-degree", "five-variables"],
)
def test_term_budget_bounds_parsing(capsys, tmp_path, variables, expression, options):
    # the first parsed to 6,435 terms and analyzed for seconds, the second
    # would expand for minutes; both end at a `^` in the parser
    scene = tmp_path / "wide.yaml"
    scene.write_text(
        f"schema: strictsmooth-scene/1\nvariables: [{variables}]\n"
        f'hypersurface: "{expression}"\ncenters: []\n'
    )
    start = time.perf_counter()
    code, out, err = run(capsys, ["analyze", str(scene), *options])
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    column = expression.index("^") + 1
    assert err == (
        "error: hypersurface expression: a product would have more than 10000 terms"
        f" (line 1, column {column})\n"
    )


# a k = 1 scene with dense quadratic coefficients over QQ: 46 s while its
# section's radical tests ran on Rabinowitsch lifts, whose QQ coefficients
# swelled; the total degree grades the section ideal, so they now run on
# its charts y_l = 1
DENSE_QQ_SCENE = Path(__file__).resolve().parent / "scenes" / "dense-qq.yaml"
DENSE_QQ_REPORT_SHA256 = "41c6b8403a83a6ff3776f3f1f2f38c47646cd7e0dd9630c57dd736f6a8d0cdca"


def test_dense_qq_scene_analyzes_in_seconds():
    start = time.perf_counter()
    analysis = analyze(load_scene(DENSE_QQ_SCENE))
    text = render_structured(build_report(analysis))
    assert time.perf_counter() - start < 5
    assert [a.multiplicity for a in analysis.centers] == [1]
    assert analysis.section_route.status is Status.INCONCLUSIVE
    assert analysis.oracle.status is Status.SINGULAR
    assert hashlib.sha256(text.encode()).hexdigest() == DENSE_QQ_REPORT_SHA256


# the same scene with inhomogeneous coefficients: its Jacobians are graded
# by the weight that is 1 on each y_l and 0 on each u_i, not by the total
# degree; on Rabinowitsch lifts it ran past 120 s
DENSE_QQ_SUBSPACE_SCENE = DENSE_QQ_SCENE.with_name("dense-qq-subspace.yaml")


def test_dense_qq_subspace_radical_tests_lift_nothing(monkeypatch):
    kernel = importlib.import_module("strictsmooth.groebner")
    tested = []
    real = kernel.is_empty_affine
    monkeypatch.setattr(kernel, "is_empty_affine", lambda ideal: tested.append(ideal) or real(ideal))
    scene = load_scene(DENSE_QQ_SUBSPACE_SCENE)
    (center,) = scene.centers
    start = time.perf_counter()
    containment = singular_locus_in_centers(scene)
    section = section_smoothness(center, leading_form(scene.f, center, 1))
    assert time.perf_counter() - start < 5
    assert containment.status is section.status is Status.SMOOTH
    # three containment and three section tests, each on a chart y_l = 1 in
    # the scene's 8 variables, none on a lift to a ninth
    assert [ideal.nvars for ideal in tested] == [8] * 6


def test_scene_schema_is_enforced(capsys, tmp_path):
    scene = tmp_path / "badschema.yaml"
    scene.write_text("schema: wrong/1\nvariables: [x]\nhypersurface: x\ncenters: []\n")
    code, _, err = run(capsys, ["analyze", str(scene)])
    assert code == 2 and "scene file invalid" in err


PAIRING_DOCUMENT = {
    "schema": "strictsmooth-scene/1",
    "field": {"kind": "rational"},
    "variables": ["x1", "x2", "y1", "y2"],
    "hypersurface": "x1*y1 + x2*y2",
    "centers": [{"name": "X", "vanishing": ["y1", "y2"]}],
}


def _mutated_documents():
    """Hand-mutated copies of PAIRING_DOCUMENT that break the scene schema."""
    edits = {
        "no schema": lambda d: d.pop("schema"),
        "no variables": lambda d: d.pop("variables"),
        "no hypersurface": lambda d: d.pop("hypersurface"),
        "no centers": lambda d: d.pop("centers"),
        "extra key": lambda d: d.update(extra=1),
        "wrong schema": lambda d: d.update(schema="strictsmooth-scene/2"),
        "variables not a list": lambda d: d.update(variables="x1"),
        "hypersurface not a string": lambda d: d.update(hypersurface=3),
        "empty hypersurface": lambda d: d.update(hypersurface=""),
        "centers not a list": lambda d: d.update(centers={}),
        "center not a mapping": lambda d: d.update(centers=["X"]),
        "center without name": lambda d: d["centers"][0].pop("name"),
        "center name not a string": lambda d: d["centers"][0].update(name=3),
        "center extra key": lambda d: d["centers"][0].update(k=1),
        "vanishing not a list": lambda d: d["centers"][0].update(vanishing="y1"),
        "empty vanishing": lambda d: d["centers"][0].update(vanishing=[]),
        "duplicate vanishing": lambda d: d["centers"][0].update(vanishing=["y1", "y1"]),
        "field not a mapping": lambda d: d.update(field="rational"),
        "unknown field kind": lambda d: d.update(field={"kind": "complex"}),
        "rational field with p": lambda d: d.update(field={"kind": "rational", "p": 7}),
        "prime field without p": lambda d: d.update(field={"kind": "prime"}),
        "p not an integer": lambda d: d.update(field={"kind": "prime", "p": "7"}),
        "p is 1": lambda d: d.update(field={"kind": "prime", "p": 1}),
        "p is 0": lambda d: d.update(field={"kind": "prime", "p": 0}),
        "p negative": lambda d: d.update(field={"kind": "prime", "p": -3}),
        "no variables listed": lambda d: d.update(variables=[]),
        "duplicate variables": lambda d: d.update(variables=["x1", "x1", "y1", "y2"]),
        "variable starts with a digit": lambda d: d.update(variables=["1x", "x2", "y1", "y2"]),
        "variable with a dash": lambda d: d.update(variables=["x-1", "x2", "y1", "y2"]),
        "empty variable name": lambda d: d.update(variables=["", "x2", "y1", "y2"]),
        "variable not a string": lambda d: d.update(variables=[1, "x2", "y1", "y2"]),
    }
    for label, edit in edits.items():
        doc = copy.deepcopy(PAIRING_DOCUMENT)
        edit(doc)
        yield label, doc


@pytest.mark.parametrize(
    "doc", [pytest.param(doc, id=label) for label, doc in _mutated_documents()]
)
def test_scene_check_matches_jsonschema_validate(doc):
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(doc, scene_schema())
    path = "/".join(str(p) for p in expected.value.absolute_path) or "<root>"
    with pytest.raises(SceneError) as got:
        scene_from_document(doc)
    assert str(got.value) == f"scene file invalid at {path}: {expected.value.message}"


def test_scene_check_accepts_the_unmutated_document():
    jsonschema.validate(PAIRING_DOCUMENT, scene_schema())
    assert scene_from_document(copy.deepcopy(PAIRING_DOCUMENT)).names == ("x1", "x2", "y1", "y2")


def test_cli_import_leaves_the_selftest_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, strictsmooth.cli; assert 'strictsmooth.selftest' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_package_loads_the_scene_functions_on_first_use():
    import strictsmooth
    from strictsmooth import load_scene as loaded, scene_io

    assert loaded is strictsmooth.load_scene is scene_io.load_scene
    assert strictsmooth.scene_from_document is scene_io.scene_from_document
    with pytest.raises(AttributeError, match="no attribute 'echo_input'"):
        strictsmooth.echo_input


def test_selftest_runs_clean(capsys):
    code, out, err = run(capsys, ["selftest", "--seed", "1"])
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert "0 failed" in err


def test_selftest_runs_under_the_max_degree_guardrail(capsys):
    # the fixture corpus starts with quadrics, which a bound of 1 stops
    code, _, err = run(capsys, ["selftest", "--max-degree", "1"])
    assert code == 2
    assert err.startswith("error: ") and "degree guardrail (1)" in err
    assert "selftest:" not in err


def test_selftest_has_no_format_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--format", "plain"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format plain" in capsys.readouterr().err


def test_loaded_scene_round_trips_canonical_rendering(pairing_file):
    scene = load_scene(pairing_file)
    assert scene.f.render(scene.names) == "x1*y1 + x2*y2"
    jsonschema.Draft202012Validator.check_schema(scene_schema())
    jsonschema.Draft202012Validator.check_schema(report_schema())


def test_report_serialization_round_trips(capsys, pairing_file):
    from strictsmooth.geometry import analyze
    from strictsmooth.report import build_report, render_structured

    report = build_report(analyze(load_scene(pairing_file)))
    text = render_structured(report)
    assert json.loads(text) == report
    assert render_structured(json.loads(text)) == text


def test_prime_field_scene_end_to_end(capsys, tmp_path):
    scene = tmp_path / "prime.yaml"
    scene.write_text(
        "schema: strictsmooth-scene/1\n"
        "field: {kind: prime, p: 7}\n"
        "variables: [x1, x2, y1, y2]\n"
        'hypersurface: "x1*y1 + x2*y2"\n'
        "centers:\n"
        "  - name: X\n"
        "    vanishing: [y1, y2]\n"
    )
    code, out, _ = run(capsys, ["analyze", str(scene)])
    assert code == 0
    report = json.loads(out)
    assert report["input"]["field"] == {"kind": "prime", "p": 7}
    assert report["verdicts"]["chart_oracle"]["status"] == "smooth"
    assert report["warnings"] == []  # p = 7 > max(k, deg f) = 2


def test_small_characteristic_warning_in_report(capsys, tmp_path):
    scene = tmp_path / "char2.yaml"
    scene.write_text(
        "schema: strictsmooth-scene/1\n"
        "field: {kind: prime, p: 2}\n"
        "variables: [x, y]\n"
        'hypersurface: "x*y"\n'
        "centers:\n"
        "  - name: O\n"
        "    vanishing: [x, y]\n"
    )
    code, out, _ = run(capsys, ["analyze", str(scene)])
    assert code == 0
    report = json.loads(out)
    assert any("characteristic 2" in w for w in report["warnings"])


def test_small_characteristic_warning_in_plain_report(capsys, tmp_path):
    scene = tmp_path / "char2-cusp.yaml"
    scene.write_text(
        "schema: strictsmooth-scene/1\n"
        "field: {kind: prime, p: 2}\n"
        "variables: [x, y]\n"
        'hypersurface: "x^2 + y^3"\n'
        "centers:\n"
        "  - name: O\n"
        "    vanishing: [x, y]\n"
    )
    want = "prime characteristic 2 is at most max(multiplicity, deg f) = 3"
    code, out, _ = run(capsys, ["analyze", "--format", "plain", str(scene)])
    assert code == 0
    (line,) = [line for line in out.splitlines() if line.startswith("warning: ")]
    assert line.startswith("warning: " + want)
    code, out, _ = run(capsys, ["analyze", str(scene)])
    assert code == 0
    assert json.loads(out)["warnings"] == [line.removeprefix("warning: ")]


def test_internal_invariant_violation_exits_three(capsys, pairing_file, monkeypatch):
    from strictsmooth.errors import InternalCheckError
    import strictsmooth.cli as cli_module

    def boom(scene):
        raise InternalCheckError("synthetic failure")

    monkeypatch.setattr(cli_module, "analyze", boom)
    code, _, err = run(capsys, ["analyze", pairing_file])
    assert code == 3 and "synthetic failure" in err


@pytest.mark.parametrize("command", ["analyze", "sod", "charts", "oracle"])
def test_scene_command_validates_once(capsys, pairing_file, monkeypatch, command):
    from strictsmooth.geometry import Scene

    calls = []
    validate = Scene.validate

    def counting(scene):
        calls.append(scene)
        return validate(scene)

    monkeypatch.setattr(Scene, "validate", counting)
    code, _, _ = run(capsys, [command, pairing_file])
    assert code == 0
    assert len(calls) == 1


CHART_STAGES = ["validate", "charts"]


@pytest.mark.parametrize("command, stages", [
    ("charts", CHART_STAGES),
    ("oracle", CHART_STAGES + ["singular_locus_in_centers", "chart_oracle"]),
    # the summary reads k off the charts
    ("sod", ["validate", "multiplicity", "leading_form", "section_smoothness",
             "base_locus_check", "adjunction_ledger", "charts"]),
    ("analyze", ["validate", *STAGES]),
    # --quiet changes only stderr, not the stages run
    ("charts --quiet", CHART_STAGES),
    ("oracle --quiet", CHART_STAGES + ["singular_locus_in_centers", "chart_oracle"]),
], ids=["charts", "oracle", "sod", "analyze", "charts-quiet", "oracle-quiet"])
def test_scene_command_runs_only_its_stages(capsys, pairing_file, stage_log, command, stages):
    # a k = 1 scene, so the sod and analyze sets hold the base-locus check
    code, _, _ = run(capsys, [*command.split(), pairing_file])
    assert code == 0
    assert sorted(stage_log) == sorted(stages)


@pytest.mark.parametrize("stem, summary", [
    ("cusp", "O: k=2 d=2 | section=inconclusive oracle=smooth consistent=yes"),
    ("pairing-n2-origin", "O: k=2 d=4 | section=smooth oracle=smooth consistent=yes"),
    ("pairing-n2-subspace", "X: k=1 d=2 | section=smooth oracle=smooth consistent=yes"),
], ids=["cusp", "pairing-n2-origin", "pairing-n2-subspace"])
def test_summary_lists_the_verdicts_of_the_report(capsys, stem, summary):
    path = str(SCENES / f"{stem}.yaml")
    shape, routes = summary.split(" | ")
    oracle = next(word for word in routes.split() if word.startswith("oracle="))
    for command, want in (("analyze", summary), ("oracle", f"{shape} | {oracle}"),
                          ("charts", shape), ("sod", shape)):
        code, _, err = run(capsys, [command, path])
        assert (code, err) == (0, want + "\n"), command


def test_summary_without_centers_is_not_empty(capsys, tmp_path):
    scene = tmp_path / "line.yaml"
    scene.write_text(
        "schema: strictsmooth-scene/1\n"
        "variables: [x, y]\n"
        'hypersurface: "x"\n'
        "centers: []\n"
    )
    for command, want in (("analyze", "section=smooth oracle=smooth consistent=yes"),
                          ("oracle", "oracle=smooth"), ("charts", "no centers"),
                          ("sod", "no centers")):
        code, _, err = run(capsys, [command, str(scene)])
        assert (code, err) == (0, want + "\n"), command


def test_disagreeing_routes_exit_three_only_under_analyze(capsys, monkeypatch):
    from strictsmooth import geometry

    def singular(scene, containment, center_charts):
        return geometry.Verdict(geometry.Status.SINGULAR, detail="synthetic")

    monkeypatch.setattr(geometry, "chart_oracle", singular)
    path = str(SCENES / "pairing-n2-subspace.yaml")
    code, _, err = run(capsys, ["analyze", path])
    assert code == 3
    assert err == (
        "X: k=1 d=2 | section=smooth oracle=singular consistent=NO\n"
        "internal invariant violation: the smoothness routes disagree\n"
    )
    code, out, err = run(capsys, ["oracle", path])
    assert code == 0
    assert json.loads(out)["verdicts"]["chart_oracle"]["status"] == "singular"
    assert err == "X: k=1 d=2 | oracle=singular\n"


def test_singular_verdict_still_exits_zero(capsys, tmp_path):
    scene = tmp_path / "node.yaml"
    scene.write_text(
        "schema: strictsmooth-scene/1\n"
        "variables: [x, y]\n"
        'hypersurface: "x^2 - y^2"\n'
        "centers: []\n"
    )
    code, out, _ = run(capsys, ["analyze", str(scene)])
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["chart_oracle"]["status"] == "singular"
    assert report["verdicts"]["section_criterion"]["status"] == "inconclusive"
    assert report["verdicts"]["consistent"] is True


REDUCIBLE_PAIR_SCENE = """\
schema: strictsmooth-scene/1
variables: [x1, x2, y1, y2]
hypersurface: "x1*y1 + x1*y2"
centers:
  - name: C
    vanishing: [y1, y2]
"""

# k = 1, the singular locus lies in the center, and the base locus has the
# wrong dimension: the base-locus criterion itself carries the witness
BASE_LOCUS_WITNESS_SCENE = """\
schema: strictsmooth-scene/1
variables: [v1, v2, v3, v4]
hypersurface: "-v1^2 + v1*v2 + 3*v2*v3 - v1*v4"
centers:
  - name: C
    vanishing: [v1, v2, v4]
"""


@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["analyze", "--format", "plain"], ["sod"]],
    ids=["analyze", "analyze-plain", "sod"],
)
def test_base_locus_witness_reports_exit_zero(capsys, tmp_path, argv):
    scene = tmp_path / "reducible-pair.yaml"
    scene.write_text(REDUCIBLE_PAIR_SCENE)
    code, out, err = run(capsys, argv[:1] + [str(scene)] + argv[1:])
    assert code == 0, err
    if "plain" in argv:
        assert "base locus: singular" in out
        return
    report = json.loads(out)
    REPORT_VALIDATOR.validate(report)
    base = report["centers"][0]["base_locus"]
    assert base["tangent_variables"] == ["x1", "x2"]
    assert base["verdict"]["witness"]["variables"] == ["x1", "x2"]


def test_base_locus_criterion_witness_uses_tangent_names(capsys, tmp_path):
    scene = tmp_path / "witness.yaml"
    scene.write_text(BASE_LOCUS_WITNESS_SCENE)
    code, out, err = run(capsys, ["analyze", str(scene)])
    assert code == 0, err
    report = json.loads(out)
    REPORT_VALIDATOR.validate(report)
    criterion = report["verdicts"]["base_locus_criterion"]
    assert criterion["status"] == "inconclusive"
    assert criterion["witness"] == {"variables": ["v3"], "generators": ["3*v3"]}
    per_center = report["centers"][0]["base_locus"]["verdict"]
    assert per_center["witness"] == criterion["witness"]


SECTION_CLASH_SCENE = """\
schema: strictsmooth-scene/1
variables: [x, X, y]
hypersurface: "x*X + y^2"
centers:
  - name: O
    vanishing: [x, y]
"""


def test_section_names_are_distinct_and_parse_back(tmp_path):
    # capitalizing the normal variable x would clash with the tangent X
    path = tmp_path / "clash.yaml"
    path.write_text(SECTION_CLASH_SCENE)
    analysis = analyze(load_scene(str(path)))
    (entry,) = build_report(analysis)["centers"]
    (center,) = analysis.centers
    names = _section_names(analysis.scene, center.center)
    assert names == ("_X", "X", "Y")
    assert entry["section"] == "_X*X"
    assert parse_expression(entry["section"], names, analysis.scene.field) == center.leading_form
