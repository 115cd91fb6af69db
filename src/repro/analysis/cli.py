"""``python -m repro.analysis`` — check invariants from the command line.

Usage::

    python -m repro.analysis [paths...] [--format text|json]
                             [--select RT001,TS003] [--strict]
                             [--list-rules] [--flow]

Paths may be files or directories.  ``.py`` files go through the AST
linter; scenario files (``.scn``/``.scenario``/``.tasks``, or any
non-Python file named explicitly) go through the task-system validator.
With no paths, ``src/repro`` is checked when it exists, else the
current directory.

``--flow`` adds the whole-program pass (RT1xx: cross-module taint,
time-type escapes, rng process escapes, hot-path purity — see
:mod:`repro.analysis.flow`).  A finding is accepted only by an inline
``# noqa: RTxxx`` on its line; there is no accepted-findings file.
The repository gate is::

    python -m repro.analysis src/repro benchmarks examples --flow --strict

Exit status: 0 when clean or warnings only, 1 when any error-severity
diagnostic was produced (or with ``--strict``, any diagnostic at all),
2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    render_json,
    render_text,
    sort_key,
)
from repro.analysis.lint import PARSE_ERROR_CODE, all_rules, lint_file
from repro.analysis.taskset import SCENARIO_SUFFIXES, TS_CODES, validate_scenario_file

__all__ = ["main", "check_paths", "discover_targets"]


def discover_targets(
    paths: Sequence[str | Path],
) -> tuple[list[Path], list[Path]]:
    """Split *paths* into ``(python_files, scenario_files)``.

    One discovery pass for both checkers so explicitly named files and
    directory walks behave identically: directories contribute their
    ``.py`` files and their ``SCENARIO_SUFFIXES`` files; an explicit
    ``.py`` path goes to the linter; any other explicit file goes to
    the scenario validator regardless of suffix.  Paths named twice
    (or covered by both a directory and an explicit entry) are checked
    once.
    """
    py_files: list[Path] = []
    scenario_files: list[Path] = []
    seen: set[Path] = set()

    def add(target: list[Path], f: Path) -> None:
        key = f.resolve()
        if key not in seen:
            seen.add(key)
            target.append(f)

    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for f in sorted(p.rglob("*")):
                if f.suffix == ".py":
                    add(py_files, f)
                elif f.suffix in SCENARIO_SUFFIXES:
                    add(scenario_files, f)
        elif p.suffix == ".py":
            add(py_files, p)
        else:
            add(scenario_files, p)
    return py_files, scenario_files


def check_paths(
    paths: Sequence[str | Path], *, codes: Sequence[str] | None = None
) -> list[Diagnostic]:
    """Run the linter and the task-system validator over *paths*.

    *codes* restricts the report to the given diagnostic codes — the
    filter applies identically to lint (``RT``) and scenario (``TS``)
    findings, whether the file was named explicitly or found by a
    directory walk.
    """
    out: list[Diagnostic] = []
    py_files, scenario_files = discover_targets(paths)
    for py in py_files:
        out.extend(lint_file(py, codes=codes))
    for scn in scenario_files:
        out.extend(validate_scenario_file(scn))
    if codes is not None:
        wanted = {c.upper() for c in codes}
        out = [d for d in out if d.code in wanted]
    return out


def _list_rules() -> str:
    from repro.analysis.flow.rules import FLOW_RULES

    lines = ["code   severity  name"]
    for rule in (*all_rules(), *FLOW_RULES):
        lines.append(f"{rule.code}  {rule.severity.value:8}  {rule.name}")
        lines.append(f"       {rule.description}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static invariant checker: integer-nanosecond time "
        "discipline, determinism, and task-system consistency.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to check (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated diagnostic codes to enable (e.g. RT003,TS003)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on warnings too",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table (per-file and whole-program) and exit",
    )
    parser.add_argument(
        "--flow",
        action="store_true",
        help="also run the whole-program RT1xx rules (repro.analysis.flow)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    paths = args.paths
    if not paths:
        default = Path("src/repro")
        paths = [str(default)] if default.is_dir() else ["."]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    codes = None
    if args.select:
        from repro.analysis.flow.rules import flow_rule_codes

        codes = [c.strip().upper() for c in args.select.split(",") if c.strip()]
        known = (
            {r.code for r in all_rules()}
            | TS_CODES
            | {PARSE_ERROR_CODE}
            | flow_rule_codes()
        )
        unknown = sorted(set(codes) - known)
        if unknown:
            print(
                f"error: unknown diagnostic code(s): {', '.join(unknown)} "
                f"(see --list-rules)",
                file=sys.stderr,
            )
            return 2

    diagnostics = check_paths(paths, codes=codes)

    if args.flow:
        from repro.analysis.flow import analyze

        flow_diags, _model = analyze(paths, codes=codes)
        diagnostics = sorted([*diagnostics, *flow_diags], key=sort_key)

    if args.format == "json":
        print(render_json(diagnostics))
    elif diagnostics:
        print(render_text(diagnostics))
    else:
        print("clean: no diagnostics")

    if any(d.severity is Severity.ERROR for d in diagnostics):
        return 1
    if diagnostics and args.strict:
        return 1
    return 0
