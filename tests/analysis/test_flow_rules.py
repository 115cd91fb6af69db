"""RT1xx whole-program rules: positives, suppression, cross-module-only.

Every positive fixture here is *invisible* to the per-file linter —
each test asserts that too, because that is the entire point of the
flow layer: the violation only exists once the call graph connects two
modules.
"""

from repro.analysis.flow import analyze, build_model, run_flow_rules
from repro.analysis.lint import lint_source


def flow(write_package, files, **kwargs):
    root = write_package(files)
    model = build_model([root])
    return run_flow_rules(model, **kwargs)


def assert_per_file_silent(files, *names):
    """The per-file linter must see nothing in the named fixtures."""
    import textwrap

    for name in names:
        source = textwrap.dedent(files[name])
        diags = [d for d in lint_source(source, name) if d.code != "RT099"]
        assert diags == [], (name, diags)


# ---------------------------------------------------------------------------
# RT101 — determinism taint into fingerprint/cache-key sinks
# ---------------------------------------------------------------------------

RT101_FILES = {
    "sources.py": """
        import os
        import time


        def run_tag():
            return f"{os.getenv('USER')}-{time.time_ns()}"


        def stable_tag():
            return "fixed"


        def blessed_seed():
            from repro.rng import derive_rng

            return derive_rng(0, os.getpid())
    """,
    "sinks.py": """
        from repro.exec.cache import ResultCache

        from pkg.sources import run_tag, stable_tag


        def bad_key(cache: ResultCache):
            return cache.key("exp", run_tag())


        def good_key(cache: ResultCache):
            return cache.key("exp", stable_tag())
    """,
}


class TestRT101:
    def test_cross_module_volatile_reaches_sink(self, write_package):
        diags = flow(write_package, RT101_FILES, codes=["RT101"])
        assert [d.code for d in diags] == ["RT101"]
        assert "bad_key" in diags[0].message
        assert diags[0].path.endswith("sinks.py")

    def test_per_file_linter_cannot_see_it(self):
        assert_per_file_silent(RT101_FILES, "sinks.py")

    def test_noqa_suppresses(self, write_package):
        files = dict(RT101_FILES)
        files["sinks.py"] = files["sinks.py"].replace(
            'cache.key("exp", run_tag())',
            'cache.key("exp", run_tag())  # noqa: RT101',
        )
        assert flow(write_package, files, codes=["RT101"]) == []

    def test_sanitized_flow_is_clean(self, write_package):
        files = dict(RT101_FILES)
        files["sinks.py"] = files["sinks.py"].replace(
            "run_tag()", "blessed()"
        ).replace(
            "from pkg.sources import run_tag, stable_tag",
            "from pkg.sources import blessed_seed as blessed, stable_tag",
        )
        assert flow(write_package, files, codes=["RT101"]) == []


# ---------------------------------------------------------------------------
# RT102 — integer-ns escaping into float arithmetic cross-module
# ---------------------------------------------------------------------------

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


        def good_share(n):
            return grant() // n


        def good_ratio():
            return grant() / grant()
    """,
}


class TestRT102:
    def test_cross_module_float_escape(self, write_package):
        diags = flow(write_package, RT102_FILES, codes=["RT102"])
        assert [d.code for d in diags] == ["RT102"]
        assert "bad_mean" in diags[0].message
        assert diags[0].path.endswith("consume.py")

    def test_per_file_linter_cannot_see_it(self):
        # 'grant' carries no time-word, so RT001 has nothing to anchor on.
        assert_per_file_silent(RT102_FILES, "consume.py")

    def test_noqa_suppresses(self, write_package):
        files = dict(RT102_FILES)
        files["consume.py"] = files["consume.py"].replace(
            "return grant() / n", "return grant() / n  # noqa: RT102"
        )
        assert flow(write_package, files, codes=["RT102"]) == []

    def test_same_module_is_rt001_territory(self, write_package):
        # The same float division with the mint in the SAME module is
        # the per-file rule's job; the flow layer must stay silent.
        files = {
            "local.py": """
                from repro.units import ms


                def local_mean(n):
                    duration = ms(5)
                    return duration / n
            """
        }
        assert flow(write_package, files, codes=["RT102"]) == []


# ---------------------------------------------------------------------------
# RT103 — rng objects / rng-capturing closures crossing process boundaries
# ---------------------------------------------------------------------------

RT103_FILES = {
    "work.py": """
        def work(rng, n):
            return rng.random() * n
    """,
    "driver.py": """
        import random
        from functools import partial

        from repro.exec.executor import make_executor

        from pkg.work import work


        def bad_direct(items):
            rng = random.Random(7)
            ex = make_executor()
            return ex.run(work, [(rng, i) for i in items])


        def bad_closure(items):
            rng = random.Random(7)
            ex = make_executor()
            return ex.run(partial(work, rng), items)


        def good_seed_plumbing(items):
            ex = make_executor()
            return ex.run(work, items)
    """,
}


class TestRT103:
    def test_direct_and_closure_escapes(self, write_package):
        diags = flow(write_package, RT103_FILES, codes=["RT103"])
        messages = [d.message for d in diags]
        assert len(diags) == 2
        assert any("closure capturing rng state" in m for m in messages)
        assert all("bad_" in m for m in messages)

    def test_per_file_linter_cannot_see_it(self):
        assert_per_file_silent(RT103_FILES, "driver.py")

    def test_noqa_suppresses(self, write_package):
        files = dict(RT103_FILES)
        files["driver.py"] = files["driver.py"].replace(
            "return ex.run(work, [(rng, i) for i in items])",
            "return ex.run(work, [(rng, i) for i in items])  # noqa: RT103",
        ).replace(
            "return ex.run(partial(work, rng), items)",
            "return ex.run(partial(work, rng), items)  # noqa: RT103",
        )
        assert flow(write_package, files, codes=["RT103"]) == []


# ---------------------------------------------------------------------------
# RT104 — hot-path-reachable mutation of shared task/system state
# ---------------------------------------------------------------------------

RT104_FILES = {
    "engine.py": """
        from pkg.mutate import tick


        class Engine:
            def run(self, system):
                return tick(system)
    """,
    "mutate.py": """
        def tick(system):
            system.tasks.append("late-admitted")
            return len(system.tasks)


        def rebuild(system):
            # Not reachable from the engine loop: allowed.
            system.tasks.clear()
    """,
}


class TestRT104:
    def test_reachable_mutation_flagged(self, write_package):
        diags = flow(
            write_package,
            RT104_FILES,
            codes=["RT104"],
            hot_roots=["*.engine.Engine.run"],
        )
        assert [d.code for d in diags] == ["RT104"]
        assert "tick" in diags[0].message
        assert diags[0].severity.value == "warning"

    def test_unreachable_mutation_not_flagged(self, write_package):
        diags = flow(
            write_package,
            RT104_FILES,
            codes=["RT104"],
            hot_roots=["*.engine.Engine.run"],
        )
        assert all("rebuild" not in d.message for d in diags)

    def test_noqa_suppresses(self, write_package):
        files = dict(RT104_FILES)
        files["mutate.py"] = files["mutate.py"].replace(
            'system.tasks.append("late-admitted")',
            'system.tasks.append("late-admitted")  # noqa: RT104',
        )
        diags = flow(
            write_package,
            files,
            codes=["RT104"],
            hot_roots=["*.engine.Engine.run"],
        )
        assert diags == []

    def test_own_slot_rebinding_is_exempt(self, write_package):
        files = {
            "engine.py": """
                class Engine:
                    def __init__(self, taskset):
                        self.taskset = taskset

                    def run(self):
                        return self.prepare()

                    def prepare(self):
                        self._tasks = list(self.taskset)
                        return self._tasks
            """
        }
        diags = flow(
            write_package, files, codes=["RT104"], hot_roots=["*.Engine.run"]
        )
        assert diags == []


# ---------------------------------------------------------------------------
# Driver-level behaviour
# ---------------------------------------------------------------------------


class TestDriver:
    def test_all_four_rules_fire_in_one_run(self, write_package):
        files = {**RT101_FILES, **RT102_FILES, **RT103_FILES, **RT104_FILES}
        root = write_package(files)
        diags, _ = analyze(
            [root], hot_roots=["pkg.engine.Engine.run"]
        )
        assert {d.code for d in diags} == {"RT101", "RT102", "RT103", "RT104"}

    def test_parse_error_surfaces_as_rt000(self, write_package):
        root = write_package({"broken.py": "def broken(:\n    pass\n"})
        diags, _ = analyze([root])
        assert [d.code for d in diags] == ["RT000"]

    def test_diagnostics_are_sorted(self, write_package):
        files = {**RT101_FILES, **RT103_FILES}
        root = write_package(files)
        diags, _ = analyze([root])
        keys = [(d.path, d.line, d.column, d.code) for d in diags]
        assert keys == sorted(keys)
