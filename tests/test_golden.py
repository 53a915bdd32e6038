"""Golden reports: the output of every scene command, byte for byte, in
both formats.

The corpus is every committed `scenes/*.yaml` file and the prime-field
scenes `tests/scenes/gf-*.yaml` (run through the CLI), and every built-in
fixture (analyzed in process; fixtures have no file),
under `analyze`, `charts`, `oracle` and `sod`.  An `analyze` report is
`<input>.<ext>`, the others `<input>.<command>.<ext>`.  A change that
alters a single byte of any report fails here, and every structured report
is checked against the report schema.  After an intended change
of the report, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from strictsmooth.cli import main
from strictsmooth.geometry import analyze
from strictsmooth.report import build_report, render_plain, render_structured
from strictsmooth.scene_io import report_schema
from strictsmooth.selftest import FIXTURES

# built once: `jsonschema.validate` checks the schema itself on every call
REPORT_VALIDATOR = jsonschema.Draft202012Validator(report_schema())

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
# the slow tests/scenes/dense-qq*.yaml files stay out of the corpus
SCENES = sorted((ROOT / "scenes").glob("*.yaml")) + sorted(
    (ROOT / "tests" / "scenes").glob("gf-*.yaml")
)
FORMATS = {"structured": "json", "plain": "txt"}
COMMANDS = ("analyze", "charts", "oracle", "sod")


def _scene_output(path: Path, command: str, fmt: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, str(path), "--format", fmt, "--quiet"])
    if code != 0:
        raise RuntimeError(f"{command} {path.name} exited {code}")
    return out.getvalue()


def _fixture_output(fixture, command: str, fmt: str) -> str:
    report = build_report(analyze(fixture.build()), command=command)
    return render_structured(report) if fmt == "structured" else render_plain(report)


def _golden_name(stem: str, command: str, fmt: str) -> str:
    infix = "" if command == "analyze" else f".{command}"
    return f"{stem}{infix}.{FORMATS[fmt]}"


def _cases():
    inputs = [(f"scene-{p.stem}", p, _scene_output) for p in SCENES] + [
        (f"fixture-{x.name}", x, _fixture_output) for x in FIXTURES
    ]
    for stem, source, output in inputs:
        for command in COMMANDS:
            for fmt in FORMATS:
                name = _golden_name(stem, command, fmt)
                yield name, lambda s=source, c=command, f=fmt, o=output: o(s, c, f)


CASES = dict(_cases())


def test_golden_corpus_is_complete():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    want = (GOLDEN / name).read_bytes()
    assert CASES[name]().encode("utf-8") == want


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.endswith(".json")))
def test_structured_golden_matches_report_schema(name):
    REPORT_VALIDATOR.validate(json.loads((GOLDEN / name).read_text()))


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.endswith(".json")))
def test_vacuous_base_locus_is_an_empty_one(name):
    # `vacuously_smooth` is read off `dimension`, so the two cannot disagree;
    # an analyze report notes the vacuous pass in both formats exactly then
    doc = json.loads((GOLDEN / name).read_text())
    loci = [c["base_locus"] for c in doc.get("centers", []) if c["base_locus"]["applicable"]]
    for locus in loci:
        assert locus["vacuously_smooth"] is (locus["dimension"] == "empty")
    if doc["command"] == "analyze":
        vacuous = any(locus["vacuously_smooth"] for locus in loci)
        assert any("accepted vacuously" in note for note in doc["notes"]) is vacuous
        plain = (GOLDEN / name.replace(".json", ".txt")).read_text()
        assert ("accepted vacuously" in plain) is vacuous


# Run with PyYAML and jsonschema made unimportable: the fixture reports
# through the package's public names, and the modules that loaded.
WITHOUT_SCENE_STACK = """
import json, sys
sys.modules["yaml"] = sys.modules["jsonschema"] = None
import strictsmooth
from strictsmooth.selftest import FIXTURES
reports = [
    [fixture.name, command, fmt, render(strictsmooth.build_report(analysis, command=command))]
    for fixture in FIXTURES
    for analysis in [strictsmooth.analyze(fixture.build())]
    for command in sys.argv[1:]
    for fmt, render in (("structured", strictsmooth.render_structured),
                        ("plain", strictsmooth.render_plain))
]
loaded = sorted(
    name for name, module in sys.modules.items()
    if (module is not None and name.split(".")[0] in ("yaml", "jsonschema"))
    or name == "strictsmooth.scene_io"
)
json.dump({"reports": reports, "loaded": loaded}, sys.stdout)
"""


def test_fixture_reports_need_no_scene_stack():
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCENE_STACK, *COMMANDS],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["loaded"] == []
    assert len(out["reports"]) == len(FIXTURES) * len(COMMANDS) * len(FORMATS) == 120
    for fixture, command, fmt, text in out["reports"]:
        name = _golden_name(f"fixture-{fixture}", command, fmt)
        assert text.encode("utf-8") == (GOLDEN / name).read_bytes(), name


# ----- the structured writer writes the bytes of json.dumps ------------------


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.endswith(".json")))
def test_structured_writer_rewrites_each_golden(name):
    text = (GOLDEN / name).read_text(encoding="utf-8")
    doc = json.loads(text)
    assert render_structured(doc) == _dumps(doc) == text


def test_structured_writer_matches_json_dumps():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # the value types of a report
    scalars = (
        st.none() | st.booleans() | st.integers() | st.text() | st.integers(-(10**30), 10**30)
    )
    docs = st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=20,
    )

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(docs)
    @hypothesis.example({"\u00e9\n\"": "\ud83d\ude00\x00", "": [[], {}]})
    def check(doc):
        assert render_structured(doc) == _dumps(doc)

    check()


@pytest.mark.parametrize(
    "doc",
    [{1, 2}, b"x", 1j, Fraction(1, 2), object(), {"a": [1, {"b": {2}}]}, {(1, 2): 3},
     {"a": 1, 2: 3}],
    ids=["set", "bytes", "complex", "Fraction", "object", "nested set", "tuple key",
         "mixed keys"],
)
def test_structured_writer_rejects_what_json_rejects(doc):
    with pytest.raises(TypeError):
        _dumps(doc)
    with pytest.raises(TypeError):
        render_structured(doc)


def test_structured_writer_takes_str_keys_only():
    # json would write each of these; a report's keys are all str, and it
    # holds no float and no tuple
    for doc in ({1: 2}, {"a": 1.5}, {"a": float("nan")}, {"a": (1,)}):
        _dumps(doc)
        with pytest.raises(TypeError):
            render_structured(doc)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    names = sys.argv[1:] or sorted(CASES)
    for name in names:
        (GOLDEN / name).write_bytes(CASES[name]().encode("utf-8"))
        print(f"wrote {name}")
