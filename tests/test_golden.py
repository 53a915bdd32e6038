"""Golden reports: `analyze` output, byte for byte, in both formats.

The corpus is every committed `scenes/*.yaml` file (run through the CLI)
and every built-in fixture (analyzed in process; fixtures have no file).
A change that alters a single byte of any report fails here.  After an
intended change of the report, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from strictsmooth.cli import main
from strictsmooth.geometry import analyze
from strictsmooth.report import build_report, render_plain, render_structured
from strictsmooth.selftest import FIXTURES

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENES = sorted((ROOT / "scenes").glob("*.yaml"))
FORMATS = {"structured": "json", "plain": "txt"}


def _scene_output(path: Path, fmt: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["analyze", str(path), "--format", fmt, "--quiet"])
    if code != 0:
        raise RuntimeError(f"analyze {path.name} exited {code}")
    return out.getvalue()


def _fixture_output(fixture, fmt: str) -> str:
    report = build_report(analyze(fixture.build()), command="analyze")
    return render_structured(report) if fmt == "structured" else render_plain(report)


def _cases():
    for path in SCENES:
        for fmt, ext in FORMATS.items():
            yield f"scene-{path.stem}.{ext}", lambda p=path, f=fmt: _scene_output(p, f)
    for fixture in FIXTURES:
        for fmt, ext in FORMATS.items():
            yield f"fixture-{fixture.name}.{ext}", lambda x=fixture, f=fmt: _fixture_output(x, f)


CASES = dict(_cases())


def test_golden_corpus_is_complete():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    want = (GOLDEN / name).read_bytes()
    assert CASES[name]().encode("utf-8") == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    names = sys.argv[1:] or sorted(CASES)
    for name in names:
        (GOLDEN / name).write_bytes(CASES[name]().encode("utf-8"))
        print(f"wrote {name}")
