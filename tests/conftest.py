import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# the stage functions of strictsmooth.geometry, in pipeline order; with
# `Scene.validate` first, these are the stages an analysis runs
STAGES = (
    "multiplicity", "leading_form", "section_smoothness", "base_locus_check",
    "singular_locus_in_centers", "charts", "chart_oracle", "adjunction_ledger",
)


@pytest.fixture
def stage_log(monkeypatch):
    """The names of the pipeline stages called, in call order: `Scene.validate`
    as "validate" and each function of STAGES by its name."""
    from strictsmooth import geometry

    log = []

    def logged(name, fn):
        def wrapper(*args, **kwargs):
            log.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(geometry.Scene, "validate", logged("validate", geometry.Scene.validate))
    for name in STAGES:
        monkeypatch.setattr(geometry, name, logged(name, getattr(geometry, name)))
    return log
