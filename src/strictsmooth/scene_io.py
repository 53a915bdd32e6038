"""Scene-file loading: YAML documents validated against the committed schema.

A scene file names the coefficient field, the ordered variables, the
hypersurface expression and the centers.  JSON is a YAML subset, so both
serializations are accepted by the same loader.  This is the one module
that imports PyYAML and jsonschema: the rest of the package imports
without them, and the package loads this module on first use of
`load_scene` or `scene_from_document`.
"""

from __future__ import annotations

import json
from importlib import resources

import jsonschema
import yaml

from .errors import ParseError, SceneError
from .geometry import Center, Scene
from .parsing import parse_expression
from .scalars import QQ, PrimeField


def _load_schema(name: str) -> dict:
    text = resources.files("strictsmooth").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


# The deepest node a scene file may hold, counting the document as depth 1.
# A scene's deepest nodes, the names in a center's `vanishing` list, are at
# depth 5.  The composer checks the bound as it descends, so a deeper file
# ends in "nested too deeply".  It spends about 3 frames of the recursion
# limit per level, so under a caller with fewer than about 3 * MAX_NESTING
# frames to spare, `load_scene`'s `RecursionError` fallback gives the same
# message below the bound.
MAX_NESTING = 50


class _NestingLoader(yaml.SafeLoader):
    """The safe loader with node depth limited to `MAX_NESTING`, and no aliases.

    The composer builds the node tree with one recursive `compose_node`
    call per node, so the depth it counts is the depth of every later
    recursion over the document.  An alias would share a node, so that a
    short file could stand for a tree too large to check.
    """

    def __init__(self, stream):
        super().__init__(stream)
        self._depth = 0

    def compose_node(self, parent, index):
        if self.check_event(yaml.AliasEvent):
            raise SceneError("scene file uses a YAML alias")
        if self._depth == MAX_NESTING:
            raise SceneError("scene file nested too deeply")
        self._depth += 1
        try:
            return super().compose_node(parent, index)
        finally:
            self._depth -= 1


_SCENE_SCHEMA = _load_schema("scene.schema.json")
# Built once: `jsonschema.validate` would check the schema itself on every call.
_SCENE_VALIDATOR = jsonschema.validators.validator_for(_SCENE_SCHEMA)(_SCENE_SCHEMA)


def report_schema() -> dict:
    """The report schema, read on each call rather than when this module is imported."""
    return _load_schema("report.schema.json")


def scene_schema() -> dict:
    return _SCENE_SCHEMA


def scene_from_document(doc) -> Scene:
    """Build a Scene from a parsed scene document.

    The document is checked against the scene schema and its expression is
    parsed; the scene invariants are left to `Scene.validate`, which
    `analyze` runs first.
    """
    error = jsonschema.exceptions.best_match(_SCENE_VALIDATOR.iter_errors(doc))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise SceneError(f"scene file invalid at {path}: {error.message}")

    field_doc = doc.get("field", {"kind": "rational"})
    if field_doc["kind"] == "rational":
        field = QQ
    else:
        try:
            field = PrimeField(field_doc["p"])
        except ValueError as exc:
            raise SceneError(str(exc)) from None

    names = tuple(doc["variables"])
    index = {name: i for i, name in enumerate(names)}
    try:
        f = parse_expression(doc["hypersurface"], names, field)
    except ParseError as exc:
        raise SceneError(f"hypersurface expression: {exc}") from None

    centers = []
    for entry in doc["centers"]:
        missing = [v for v in entry["vanishing"] if v not in index]
        if missing:
            raise SceneError(
                f"center {entry['name']!r} names unknown variables: {', '.join(missing)}"
            )
        centers.append(
            Center(entry["name"], tuple(index[v] for v in entry["vanishing"]))
        )

    return Scene(len(names), names, f, tuple(centers))


def load_scene(path) -> Scene:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = yaml.load(handle, Loader=_NestingLoader)
    except FileNotFoundError:
        raise SceneError(f"scene file not found: {path}") from None
    except OSError as exc:
        raise SceneError(f"cannot read scene file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise SceneError(f"scene file is not UTF-8 text: {exc}") from None
    except RecursionError:
        raise SceneError("scene file nested too deeply") from None
    except yaml.YAMLError as exc:
        raise SceneError(f"scene file is not valid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise SceneError("scene file must be a mapping")
    return scene_from_document(doc)
