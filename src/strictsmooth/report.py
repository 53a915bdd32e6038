"""Report assembly and serialization.

Reports are plain dictionaries shaped by the committed report schema,
serialized either as canonical JSON (sorted keys, fixed separators, so
identical inputs give byte-identical output) or as a human-readable text
block.  Normal variables of each center are rendered capitalized inside the
projectivized section string to signal their projective-coordinate role
(underscores prepended where that would clash, see `fresh_names`); this is
a display convention only.  The `input` section echoes the scene as
analyzed, the expression rendered canonically, so a report needs no
scene-file code.
"""

from __future__ import annotations

import copy
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .geometry import Analysis, Scene, Verdict, fresh_names
from .sod import lefschetz, serre_vanishing_record, sod

REPORT_SCHEMA_ID = "strictsmooth-report/1"


def echo_input(scene: Scene) -> dict:
    """Canonical echo of the input for reports (expression re-rendered)."""
    fld = scene.field
    if fld.characteristic:
        field_doc = {"kind": "prime", "p": fld.characteristic}
    else:
        field_doc = {"kind": "rational"}
    return {
        "field": field_doc,
        "variables": list(scene.names),
        "hypersurface": scene.f.render(scene.names),
        "centers": [
            {"name": c.name, "vanishing": [scene.names[i] for i in c.vanishing]}
            for c in scene.centers
        ],
    }


def _section_names(scene: Scene, center) -> tuple:
    """Normal variables capitalized, made distinct by `fresh_names`."""
    capitalized = (scene.names[i][:1].upper() + scene.names[i][1:] for i in center.vanishing)
    return fresh_names(scene.names, center, capitalized)


def _verdict_doc(v: Verdict, scene: Scene) -> dict:
    doc = {"status": v.status.value, "detail": v.detail}
    if v.witness is None:
        doc["witness"] = None
    else:
        names = v.witness_names or scene.names
        doc["witness"] = {
            "variables": list(names),
            "generators": [g.render(names) for g in v.witness.generators],
        }
    if v.chart is not None:
        center_name, variable = v.chart
        doc["chart"] = {"center": center_name, "variable": scene.names[variable]}
    else:
        doc["chart"] = None
    return doc


def _ledger_sections(analysis: Analysis) -> dict:
    """The `lefschetz`, `sod` and `serre_vanishing` sections of the report."""
    shapes = [(a.center.name, a.center.codimension, a.multiplicity) for a in analysis.centers]
    return {
        "lefschetz": [lefschetz(*shape) for shape in shapes],
        "sod": sod(shapes),
        "serre_vanishing": [serre_vanishing_record(name, d) for name, d, _ in shapes],
    }


def _center_section(analysis: Analysis, lefschetz_entries) -> list:
    """One entry per center; `lefschetz_entries` is the `lefschetz` section."""
    scene = analysis.scene
    out = []
    divisors = analysis.ledger["per_center"]
    for a, divisor, block in zip(analysis.centers, divisors, lefschetz_entries):
        entry = {
            "name": a.center.name,
            "vanishing": [scene.names[i] for i in a.center.vanishing],
            "codimension": a.center.codimension,
            "multiplicity": a.multiplicity,
            "leading_form": a.leading_form.render(scene.names),
            "section": a.leading_form.render(_section_names(scene, a.center)),
            "section_smooth": _verdict_doc(a.section_verdict, scene),
            "discrepancy": divisor["discrepancy_formula"],
            "lefschetz_applicable": block["applicable"],
        }
        if a.base_locus is None:
            entry["base_locus"] = {
                "applicable": False,
                "reason": f"vanishing order is {a.multiplicity}, not 1",
            }
        else:
            tangent = a.center.tangent(scene.nvars)
            tangent_names = [scene.names[i] for i in tangent]
            entry["base_locus"] = {
                "applicable": True,
                "equations": [eq.render(tangent_names) for eq in a.base_locus.equations],
                "tangent_variables": tangent_names,
                "dimension": "empty" if a.base_locus.dimension is None else a.base_locus.dimension,
                "expected_dimension": a.base_locus.expected_dimension,
                "vacuously_smooth": a.base_locus.vacuous,
                "verdict": _verdict_doc(a.base_locus.verdict, scene),
            }
        out.append(entry)
    return out


def _charts_section(analysis: Analysis) -> list:
    scene = analysis.scene
    out = []
    for chart_list in analysis.charts:
        for ch in chart_list:
            # In the chart of y_j, y_j is t and y_l is t*u_l.  Written in the
            # chart names, y_j maps to its own name and y_l to the names of
            # j and l joined by "*" in index order, the text that rendering
            # the product t*u_l gives.
            j, names = ch.variable, ch.names
            substitution = {
                scene.names[l]: names[l] if l == j else "*".join(names[i] for i in sorted((j, l)))
                for l in ch.center.vanishing
            }
            out.append(
                {
                    "center": ch.center.name,
                    "variable": scene.names[ch.variable],
                    "coordinates": list(ch.names),
                    "substitution": substitution,
                    "strict_transform": ch.strict_transform.render(ch.names),
                    "exceptional_exponent": ch.exceptional_exponent,
                }
            )
    return out


def build_report(analysis: Analysis, command: str = "analyze") -> dict:
    """Assemble the report document for one CLI command: `analyze` has
    every section, `charts` the charts, `oracle` the charts and the oracle
    verdict, `sod` the centers and the three ledger sections."""
    scene = analysis.scene
    report = {
        "schema": REPORT_SCHEMA_ID,
        "tool_version": __version__,
        "command": command,
        "input": echo_input(scene),
        "warnings": list(analysis.warnings),
    }
    if command in ("analyze", "charts", "oracle"):
        report["charts"] = _charts_section(analysis)
    if command in ("analyze", "oracle"):
        report["verdicts"] = {"chart_oracle": _verdict_doc(analysis.oracle, scene)}
    if command in ("analyze", "sod"):
        ledgers = _ledger_sections(analysis)
        report["centers"] = _center_section(analysis, ledgers["lefschetz"])
        report.update(ledgers)
    if command == "analyze":
        if analysis.base_locus_route is not None:
            base_doc = _verdict_doc(analysis.base_locus_route, scene)
        elif analysis.centers:
            base_doc = {"applicable": False, "reason": "some center has vanishing order above 1"}
        else:
            base_doc = {"applicable": False, "reason": "there are no centers"}
        report["verdicts"].update(
            singular_locus_in_centers=_verdict_doc(analysis.singular_containment, scene),
            section_criterion=_verdict_doc(analysis.section_route, scene),
            base_locus_criterion=base_doc,
            consistent=analysis.consistent,
        )
        report["notes"] = list(analysis.notes)
        report["divisor_classes"] = copy.deepcopy(analysis.ledger)
    return report


def render_structured(report: dict) -> str:
    """Canonical JSON: byte-identical for identical inputs and tool version.

    The text is that of `json.dumps(report, sort_keys=True, indent=2,
    separators=(",", ": "))` plus a newline.  `json` falls back to its
    pure-Python encoder when it indents, so `_write_json` writes the same
    bytes with one call per value and C-coded string escapes.  It writes
    the value types of a report only: dicts with str keys, lists, strs,
    ints, bools and None; anything else, a float or a tuple included,
    raises TypeError.
    """
    out = []
    _write_json(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(o, newline, out):
    """Append the JSON text of o to `out`, its inner lines indented two
    spaces past `newline`.  Raises TypeError on a value that is not a
    report value (see `render_structured`)."""
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            out.append(sep + _quote(k) + ": ")  # TypeError unless k is a str
            _write_json(v, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(o, str):
        out.append(_quote(o))
    elif isinstance(o, list):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _write_json(v, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not a report value")


def _plain_verdict(doc) -> str:
    if "applicable" in doc and not doc["applicable"]:
        return f"not applicable ({doc['reason']})"
    text = doc["status"]
    if doc.get("detail"):
        text += f" ({doc['detail']})"
    return text


def render_plain(report: dict) -> str:
    """Human-readable rendering of the same report content."""
    lines = []
    push = lines.append
    push(f"strictsmooth {report['tool_version']} :: {report['command']}")
    inp = report["input"]
    push(f"variables: {', '.join(inp['variables'])}")
    push(f"hypersurface: {inp['hypersurface']}")
    fld = inp["field"]
    push(f"field: {fld['kind']}" + (f" p={fld['p']}" if fld["kind"] == "prime" else ""))
    for warning in report.get("warnings", []):
        push(f"warning: {warning}")
    for center in report.get("centers", []):
        push(f"center {center['name']}: vanishing {{{', '.join(center['vanishing'])}}}"
             f" d={center['codimension']} k={center['multiplicity']}"
             f" a={center['discrepancy']}")
        push(f"  leading form: {center['leading_form']}")
        push(f"  section: {center['section']}")
        push(f"  exceptional divisor: {_plain_verdict(center['section_smooth'])}")
        base = center["base_locus"]
        if base["applicable"]:
            push(
                "  base locus: "
                f"{_plain_verdict(base['verdict'])}, dimension {base['dimension']}"
                f" (expected {base['expected_dimension']})"
            )
        else:
            push(f"  base locus: not applicable ({base['reason']})")
    verdicts = report.get("verdicts")
    if verdicts:
        for key in (
            "singular_locus_in_centers",
            "section_criterion",
            "base_locus_criterion",
            "chart_oracle",
        ):
            if key in verdicts:
                push(f"{key.replace('_', ' ')}: {_plain_verdict(verdicts[key])}")
        if "consistent" in verdicts:
            push(f"routes consistent: {'yes' if verdicts['consistent'] else 'NO'}")
    for note in report.get("notes", []):
        push(f"note: {note}")
    divisors = report.get("divisor_classes")
    if divisors:
        push(f"strict transform class: {divisors['strict_transform']}")
        push(f"canonical class: {divisors['canonical']} (assumes the hypersurface is normal)")
    for chart in report.get("charts", []):
        push(
            f"chart [{chart['center']} / {chart['variable']}]: "
            f"strict transform {chart['strict_transform']} "
            f"(exceptional exponent {chart['exceptional_exponent']})"
        )
    sod_doc = report.get("sod")
    if sod_doc:
        if sod_doc["applicable"]:
            rendered = []
            for b in sod_doc["blocks"]:
                if b.get("residual"):
                    rendered.append("residual (weakly crepant)")
                else:
                    rendered.append(f"({b['center']}, twist {b['twist']})")
            push("sod blocks: " + "; ".join(rendered))
        else:
            push(f"sod: not applicable ({sod_doc['reason']})")
    return "\n".join(lines) + "\n"


def summary_line(analysis: Analysis, command: str) -> str:
    """Each center's k and d, then the verdicts the command's report holds;
    k is read off the charts, whose stage makes no Groebner call."""
    pairs = zip(analysis.scene.centers, analysis.charts)
    parts = ["; ".join(f"{c.name}: k={ch[0].exceptional_exponent} d={c.codimension}"
                       for c, ch in pairs)]
    if command == "analyze":
        parts.append(f"section={analysis.section_route.status.value}"
                     f" oracle={analysis.oracle.status.value}"
                     f" consistent={'yes' if analysis.consistent else 'NO'}")
    elif command == "oracle":
        parts.append(f"oracle={analysis.oracle.status.value}")
    return " | ".join(filter(None, parts)) or "no centers"
