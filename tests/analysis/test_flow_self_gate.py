"""Whole-program self-analysis gate.

The flow layer runs over the repository's own code on every test run,
the same trees and rules as the CI command
``python -m repro.analysis src/repro benchmarks examples --flow --strict``.
There is no accepted-findings file: any finding fails here, and the only
way to accept one is an inline ``# noqa: RTxxx`` on its line.
"""

from pathlib import Path

from repro.analysis.flow import analyze

REPO = Path(__file__).resolve().parents[2]


def test_source_tree_has_no_new_flow_findings():
    roots = [REPO / "src" / "repro", REPO / "benchmarks", REPO / "examples"]
    diagnostics, model = analyze(roots)
    # Sanity: this really is the whole program, not a partial parse.
    assert len(model.modules) > 50
    assert all(s.parse_error is None for s in model.modules.values())

    assert diagnostics == [], [str(d) for d in diagnostics]
