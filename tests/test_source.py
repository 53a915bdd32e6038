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


def private_definitions(tree):
    """(name, node) of each module-level function, class or assigned
    constant of `tree` whose name starts with `_` (dunders aside)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def loaded_names(node, skip=None):
    """The names `node` reads outside the subtree `skip`: each name and
    attribute loaded, and each name imported."""
    if node is skip:
        return
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr
    elif isinstance(node, ast.ImportFrom):
        yield from (alias.name for alias in node.names)
    for child in ast.iter_child_nodes(node):
        yield from loaded_names(child, skip)


def imported_names(tree):
    """The names the module-level imports of `tree` bind, `from __future__`
    aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def orphaned_private_names(trees):
    """{module: the private names no module of `trees` reads outside their
    own definition, then the names its imports bind that it never reads
    (an `__init__.py` imports to re-export, so its imports are not tested)}."""
    everywhere = {path: set(loaded_names(tree)) for path, tree in trees.items()}
    orphans = {}
    for path, tree in trees.items():
        elsewhere = set().union(*(names for p, names in everywhere.items() if p != path))
        for name, node in private_definitions(tree):
            if name not in elsewhere and name not in set(loaded_names(tree, skip=node)):
                orphans.setdefault(path, []).append(name)
        if Path(path).name != "__init__.py":
            read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            for name in imported_names(tree):
                if name not in read:
                    orphans.setdefault(path, []).append(name)
    return orphans


def test_every_private_helper_of_the_package_is_used():
    # a deletion that leaves a helper or an import behind leaves it dead
    sample = {
        "a": ast.parse(
            "from __future__ import annotations\nimport os.path\nfrom bisect import insort\n"
            "_K = 1\n_J: int = 2\ndef _f(): return _f()\nclass _C: pass\n"
            "def g(): return _K, os.sep, g.insort\n"
        ),
        "b": ast.parse("from a import _C\n\nC = _C\n"),
        "pkg/__init__.py": ast.parse("from a import g\n"),
    }
    assert orphaned_private_names(sample) == {"a": ["_J", "_f", "insort"]}
    trees = {
        str(path.relative_to(ROOT)): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "strictsmooth").glob("*.py"))
    }
    assert len(trees) > 10
    assert orphaned_private_names(trees) == {}


# the module-level ContextVars of the package: state that outlives one call
# and that no caller passes.  A change that adds such state updates this list
# and says why; `radical_membership` keeps none between its tests
CONTEXT_VARS = ["groebner._audit_var", "groebner._degree_limit_var"]


def context_vars(trees):
    """`module.name` of each module-level assignment in `trees` whose value
    is a call of `ContextVar`, sorted."""
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Call):
                func = node.value.func
                if getattr(func, "id", getattr(func, "attr", None)) == "ContextVar":
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    found += [f"{module}.{t.id}" for t in targets if isinstance(t, ast.Name)]
    return sorted(found)


def test_the_module_level_context_vars_are_pinned():
    sample = ast.parse(
        "import contextvars\nfrom contextvars import ContextVar\n"
        "_a: ContextVar[int] = ContextVar('a')\n_b = contextvars.ContextVar('b')\n"
        "def f():\n    _c = ContextVar('c')\n"
    )
    assert context_vars({"m": sample}) == ["m._a", "m._b"]
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "strictsmooth").rglob("*.py"))
    }
    assert context_vars(trees) == CONTEXT_VARS
