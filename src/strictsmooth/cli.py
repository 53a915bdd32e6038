"""Command-line surface.

Commands: analyze (full pipeline), charts (blow-up chart dump), sod
(derived-category ledger only), oracle (chart route only), selftest
(fixture corpus plus seeded property suites); a scene command runs only
the stages its report reads, and the charts, off which the summary reads
k.  The report goes to stdout, and unless --quiet a summary to stderr:
each center's k and d, then the report's verdicts.

Exit codes: 0 analysis completed (whatever the verdict), 3 internal
invariant violation (InternalCheckError, or under analyze routes that
disagree), 2 any other StrictSmoothError: input or validation errors,
including the --max-degree guardrail.
"""

from __future__ import annotations

import argparse
import sys

from .errors import InternalCheckError, StrictSmoothError
from .geometry import Analysis, analyze
from .groebner import degree_limit
from .report import build_report, render_plain, render_structured, summary_line
from .scene_io import load_scene


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strictsmooth",
        description=(
            "Decide smoothness of the strict transform of a hypersurface blown "
            "up along coordinate-subspace centers, and report the divisor and "
            "derived-category ledgers."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--quiet", action="store_true", help="suppress the summary on stderr"
    )
    common.add_argument(
        "--max-degree",
        type=int,
        default=None,
        metavar="D",
        help=(
            "abort when a product or power in the hypersurface expression, or "
            "a polynomial of a Groebner run, exceeds this total degree (exit 2)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "full pipeline: both smoothness routes, ledgers, SOD"),
        ("charts", "dump the blow-up charts and strict transforms"),
        ("sod", "derived-category block ledger only"),
        ("oracle", "chart-wise Jacobian oracle only"),
    ):
        cmd = sub.add_parser(name, parents=[common], help=help_text)
        cmd.add_argument("scene", help="scene file (YAML)")
        cmd.add_argument(
            "--format",
            choices=("structured", "plain"),
            default="structured",
            help="report format on stdout (default: structured JSON)",
        )
    selftest = sub.add_parser(
        "selftest", parents=[common], help="run the built-in fixture corpus"
    )
    selftest.add_argument(
        "--seed", type=int, default=0, help="seed for the randomized corpora"
    )
    return parser


def _run_scene_command(args) -> int:
    analysis = (analyze if args.command == "analyze" else Analysis)(load_scene(args.scene))
    report = build_report(analysis, command=args.command)  # runs the stages it reads
    # the summary reads k off the charts, so under sod it adds that stage,
    # which makes no Groebner call: --quiet changes nothing but stderr
    summary = None if args.quiet else summary_line(analysis, args.command)
    if args.format == "structured":
        sys.stdout.write(render_structured(report))
    else:
        sys.stdout.write(render_plain(report))
    if summary is not None:
        sys.stderr.write(summary + "\n")
    if args.command == "analyze" and not analysis.consistent:
        sys.stderr.write(
            "internal invariant violation: the smoothness routes disagree\n"
        )
        return 3
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with degree_limit(args.max_degree):
            if args.command != "selftest":
                return _run_scene_command(args)
            from .selftest import run_selftest

            passed, failed = run_selftest(seed=args.seed, stream=sys.stdout)
        if not args.quiet:
            sys.stderr.write(f"selftest: {passed} passed, {failed} failed\n")
        return 0 if failed == 0 else 3
    except InternalCheckError as exc:
        sys.stderr.write(f"internal invariant violation: {exc}\n")
        return 3
    except StrictSmoothError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
