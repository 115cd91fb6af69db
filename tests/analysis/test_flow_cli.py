"""The flow-layer CLI surface: --flow, plus the unified discovery /
--strict satellites."""

import json

import pytest

from repro.analysis import main
from repro.analysis.cli import discover_targets


RT102_FILES = {
    "mint.py": """
        from repro.units import ms


        def grant():
            return ms(5)
    """,
    "consume.py": """
        from pkg.mint import grant


        def bad_mean(n):
            return grant() / n
    """,
}

WARNING_ONLY = "import time\n\nx = 1  # noqa: RT001\n"


class TestFlowFlag:
    def test_flow_finds_cross_module_violation(self, write_package, capsys):
        root = write_package(RT102_FILES)
        assert main([str(root), "--flow"]) == 1
        out = capsys.readouterr().out
        assert "RT102" in out and "bad_mean" in out

    def test_without_flow_the_same_tree_is_clean(self, write_package, capsys):
        root = write_package(RT102_FILES)
        assert main([str(root)]) == 0

    def test_select_flow_code(self, write_package, capsys):
        root = write_package(RT102_FILES)
        assert main([str(root), "--flow", "--select", "RT104"]) == 0
        assert main([str(root), "--flow", "--select", "RT102"]) == 1

    def test_list_rules_includes_flow_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RT101", "RT102", "RT103", "RT104", "RT099"):
            assert code in out


class TestDiscoveryUnification:
    def test_explicit_file_and_directory_dedupe(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        (tmp_path / "sys.scn").write_text("@unit ms\n")
        py, scn = discover_targets(
            [tmp_path, tmp_path / "mod.py", tmp_path / "sys.scn"]
        )
        assert len(py) == 1 and len(scn) == 1

    def test_explicit_non_python_file_goes_to_validator(self, tmp_path):
        odd = tmp_path / "system.conf"
        odd.write_text("@unit ms\n")
        py, scn = discover_targets([odd])
        assert py == [] and scn == [odd]

    def test_directory_walk_only_picks_known_suffixes(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("hello\n")
        py, scn = discover_targets([tmp_path])
        assert [p.name for p in py] == ["mod.py"]
        assert scn == []

    def test_select_behaves_identically_for_file_and_dir(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import random\n\n\ndef f(period):\n"
            "    return period * 0.5 + random.random()\n"
        )

        def codes(args):
            assert main(args + ["--format", "json"]) in (0, 1)
            payload = json.loads(capsys.readouterr().out)
            return sorted({d["code"] for d in payload["diagnostics"]})

        via_file = codes([str(bad), "--select", "RT003"])
        via_dir = codes([str(tmp_path), "--select", "RT003"])
        assert via_file == via_dir == ["RT003"]


class TestStrictExitCodes:
    @pytest.mark.parametrize(
        "extra,expected",
        [([], 0), (["--strict"], 1)],
    )
    def test_warning_only_run(self, tmp_path, capsys, extra, expected):
        p = tmp_path / "warny.py"
        # A stale suppression is warning-severity RT099.
        p.write_text(WARNING_ONLY)
        assert main([str(p)] + extra) == expected

    def test_strict_with_clean_tree_still_zero(self, tmp_path):
        p = tmp_path / "clean.py"
        p.write_text("def f(x):\n    return x\n")
        assert main([str(p), "--strict"]) == 0
