"""Whole-program flow analysis (DESIGN.md §3.7).

The per-file linter (:mod:`repro.analysis.lint`) sees one AST at a
time, so any discipline violation that crosses a call into another
module is invisible to it.  This package adds the missing layer:

* :mod:`~repro.analysis.flow.model` — parse the project once into
  per-module summaries plus import/call graphs;
* :mod:`~repro.analysis.flow.taint` — a three-kind taint lattice
  (volatile / integer-ns / rng) with an interprocedural fixpoint;
* :mod:`~repro.analysis.flow.rules` — the RT1xx cross-module rules.

A finding is accepted only by an inline code-specific ``# noqa: RTxxx``
on its line; there is no accepted-findings file.  :func:`analyze` is
the one-call entry the CLI and tests use.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.flow.model import ProjectModel, build_model
from repro.analysis.flow.rules import FLOW_RULES, flow_rule_codes, run_flow_rules
from repro.analysis.flow.taint import TaintState, propagate

__all__ = [
    "analyze",
    "build_model",
    "ProjectModel",
    "propagate",
    "TaintState",
    "run_flow_rules",
    "FLOW_RULES",
    "flow_rule_codes",
]


def analyze(
    paths: Sequence[str | Path],
    *,
    codes: Iterable[str] | None = None,
    hot_roots: Sequence[str] | None = None,
) -> tuple[list[Diagnostic], ProjectModel]:
    """Build the project model for *paths* and run the whole-program
    rules."""
    model = build_model(paths)
    diagnostics = run_flow_rules(model, codes=codes, hot_roots=hot_roots)
    return diagnostics, model
