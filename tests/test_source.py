"""Source checks that need no linter, run over the package and the tests,
and the package's public names."""

import ast
import inspect
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "strictsmooth").rglob("*.py")) + sorted(
    (ROOT / "tests").rglob("*.py")
)


def top_level_names(source):
    """Names bound by the module-level `def` and `class` statements, in order."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def test_no_module_binds_a_top_level_name_twice():
    # a second binding silently replaces the first, leaving it dead
    assert top_level_names("def f(): pass\nclass g: pass\nasync def f(): pass\n") == ["f", "g", "f"]
    assert len(MODULES) > 20  # the globs found the package and the tests
    repeated = {}
    for path in MODULES:
        counts = Counter(top_level_names(path.read_text(encoding="utf-8")))
        names = sorted(name for name, n in counts.items() if n > 1)
        if names:
            repeated[str(path.relative_to(ROOT))] = names
    assert repeated == {}


# the public names of `strictsmooth`: a change to the package's API updates
# this list and says so
PUBLIC_API = [
    "Analysis", "BlowupChart", "Center", "CenterAnalysis", "DegreeLimitError", "GroebnerBasis",
    "Ideal", "InternalCheckError", "ModularInt", "Monomial", "ParseError", "Polynomial",
    "PrimeField", "QQ", "RationalField", "Scene", "SceneError", "Status", "StrictSmoothError",
    "StructuralError", "Verdict", "adjunction_ledger", "analyze", "base_locus_check",
    "basis_audit", "build_report", "chart_oracle", "charts", "degree_limit", "determinant",
    "groebner", "ideal_power_membership", "is_empty_affine", "krull_dimension", "leading_form",
    "lefschetz", "minors_ideal", "multiplicity", "normal_form", "parse_expression",
    "power_ideal", "radical_membership", "render_plain", "render_structured",
    "section_smoothness", "serre_vanishing_record", "singular_locus_in_centers", "sod",
]


def test_the_public_api_is_pinned():
    import strictsmooth

    # submodules are bound on import, so they are not part of the list
    names = sorted(
        name
        for name, value in vars(strictsmooth).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert names == PUBLIC_API
    # loaded on first use, outside the package namespace
    for name in ("load_scene", "scene_from_document"):
        assert callable(getattr(strictsmooth, name))
