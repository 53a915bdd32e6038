"""Source checks that need no linter, run over the package and the tests."""

import ast
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
