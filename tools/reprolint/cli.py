"""Command-line interface: ``python -m tools.reprolint src tests benchmarks``.

Also installed as the ``reprolint`` console script (see pyproject.toml).

Exit codes: 0 clean, 1 findings (after baseline filtering), 2 usage or
I/O errors (unknown rule code, missing path, unreadable baseline).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from tools.reprolint.engine import (
    LintRunner,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from tools.reprolint.reporters import (
    JsonReporter,
    SarifReporter,
    TextReporter,
    render_rule_list,
)
from tools.reprolint.rules import (
    ALL_CHECKERS,
    ALL_PROJECT_CHECKERS,
    checker_by_code,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="Domain-aware static analysis for the Citadel reproduction.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src tests benchmarks)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write the report to this file instead of stdout",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="root for relative paths and rule path scoping (default: cwd)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline file; recorded findings are filtered (ratchet)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record current findings into --baseline and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _build_checkers(select: Optional[str]) -> Optional[List[object]]:
    if not select:
        return [cls() for cls in (*ALL_CHECKERS, *ALL_PROJECT_CHECKERS)]
    checkers: List[object] = []
    for code in (c.strip() for c in select.split(",")):
        cls = checker_by_code(code)
        if cls is None:
            print(f"reprolint: unknown rule code {code!r}", file=sys.stderr)
            return None
        checkers.append(cls())
    return checkers


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for line in render_rule_list((*ALL_CHECKERS, *ALL_PROJECT_CHECKERS)):
            print(line)
        return 0

    checkers = _build_checkers(args.select)
    if checkers is None:
        return 2

    paths: List[Path] = list(args.paths) or [
        Path("src"),
        Path("tests"),
        Path("benchmarks"),
    ]
    runner = LintRunner(checkers, root=args.root)  # type: ignore[arg-type]

    try:
        findings = runner.run(paths)
    except FileNotFoundError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        if args.baseline is None:
            print(
                "reprolint: --write-baseline requires --baseline PATH",
                file=sys.stderr,
            )
            return 2
        write_baseline(args.baseline, findings)
        print(
            f"reprolint: wrote baseline with {len(findings)} finding(s) "
            f"to {args.baseline}"
        )
        return 0

    if args.baseline is not None:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"reprolint: cannot read baseline: {exc}", file=sys.stderr)
            return 2
        findings = apply_baseline(findings, baseline)

    stream = (
        args.output.open("w", encoding="utf-8")
        if args.output is not None
        else sys.stdout
    )
    try:
        if args.format == "json":
            reporter = JsonReporter(stream)
        elif args.format == "sarif":
            reporter = SarifReporter(stream, checkers)  # type: ignore[arg-type]
        else:
            reporter = TextReporter(stream)
        reporter.report(findings)
    finally:
        if args.output is not None:
            stream.close()
    return 1 if findings else 0


def run() -> None:
    """Console-script entry point (``reprolint`` on $PATH)."""
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
