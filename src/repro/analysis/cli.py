"""``repro lint`` — the command-line front end of simlint."""

from __future__ import annotations

import json
import sys

from repro.analysis.engine import analyze_paths, default_config
from repro.analysis.rules import RULES

DEFAULT_PATHS = ("src/repro",)


def add_lint_arguments(parser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        choices=("text", "json", "github"),
        default="text",
        help="report format (github prints ::error workflow annotations)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule finding counts (text/github) or embed them (json)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )


def run_lint(args, stdout=None, stderr=None) -> int:
    out = stdout or sys.stdout
    err = stderr or sys.stderr

    if args.list_rules:
        for code, rule_cls in sorted(RULES.items()):
            print("{}  {}".format(code, rule_cls.title), file=out)
        return 0

    config = default_config()
    violations, errors = analyze_paths(args.paths, config=config)
    for error in errors:
        print("error: {}".format(error), file=err)

    stats = rule_stats(violations) if args.stats else None

    if args.fmt == "json":
        document = {
            "violations": [v.to_dict() for v in violations],
            "errors": errors,
            "ok": not violations and not errors,
        }
        if stats is not None:
            document["stats"] = stats
        print(json.dumps(document, indent=2), file=out)
    else:
        for violation in violations:
            if args.fmt == "github":
                print(github_annotation(violation), file=out)
            else:
                print(violation.render(), file=out)
        if stats is not None:
            for code, count in sorted(stats.items()):
                print("{}  {:>4}".format(code, count), file=out)
        summary = "simlint: {} finding(s)".format(len(violations))
        if errors:
            summary += ", {} file error(s)".format(len(errors))
        print(summary, file=out)

    return 1 if (violations or errors) else 0


def rule_stats(violations) -> dict[str, int]:
    """Finding count per rule code, zero-filled over the whole catalogue."""
    stats = {code: 0 for code in RULES}
    for violation in violations:
        stats[violation.rule] = stats.get(violation.rule, 0) + 1
    return stats


def github_annotation(violation) -> str:
    """One GitHub Actions workflow-command line for a finding.

    The message is the payload after ``::`` and must keep to one line;
    GitHub unescapes %0A, so newlines (never expected here) are stripped
    defensively.
    """
    message = "{} {}".format(violation.rule, violation.message).replace("\n", " ")
    return "::error file={},line={},col={},title=simlint {}::{}".format(
        violation.path, violation.line, violation.col + 1, violation.rule, message
    )
