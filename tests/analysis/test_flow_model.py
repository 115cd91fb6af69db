"""Project model extraction: bindings, call graph, reachability."""

from repro.analysis.flow import build_model


FIXTURE = {
    "core.py": """
        class Engine:
            def run(self):
                return self.step()

            def step(self):
                return helper(1)


        def helper(x):
            return leaf(x)


        def leaf(x):
            return x + 1


        def orphan():
            return 0
    """,
    "client.py": """
        from pkg.core import Engine, helper


        def entry():
            e = Engine()
            return e.run() + helper(2)


        def untracked(e):
            return e.run()
    """,
}


class TestCallGraph:
    def test_golden_edges(self, write_package):
        root = write_package(FIXTURE)
        model = build_model([root])
        graph = model.call_graph()
        assert graph["pkg.core.Engine.run"] == ("pkg.core.Engine.step",)
        assert graph["pkg.core.Engine.step"] == ("pkg.core.helper",)
        assert graph["pkg.core.helper"] == ("pkg.core.leaf",)
        assert graph["pkg.core.leaf"] == ()
        # Cross-module: ctor-typed local + from-imported function.
        assert graph["pkg.client.entry"] == (
            "pkg.core.Engine.run",
            "pkg.core.helper",
        )
        # No type for the parameter: no edge, not a wrong edge.
        assert graph["pkg.client.untracked"] == ()

    def test_reachability_is_transitive_and_pattern_rooted(self, write_package):
        root = write_package(FIXTURE)
        model = build_model([root])
        reached = model.reachable_from(["*.core.Engine.run"])
        assert reached == {
            "pkg.core.Engine.run",
            "pkg.core.Engine.step",
            "pkg.core.helper",
            "pkg.core.leaf",
        }
        assert "pkg.core.orphan" not in reached

    def test_module_inventory(self, write_package):
        root = write_package(FIXTURE)
        model = build_model([root])
        assert set(model.modules) == {"pkg", "pkg.core", "pkg.client"}
        summary = model.modules["pkg.client"]
        assert summary.bindings["Engine"] == "pkg.core.Engine"
        assert summary.bindings["helper"] == "pkg.core.helper"


class TestAnnotationTyping:
    def test_param_annotation_resolves_method_calls(self, write_package):
        root = write_package(
            {
                "core.py": FIXTURE["core.py"],
                "typed.py": """
                    from pkg.core import Engine


                    def drive(e: Engine):
                        return e.run()


                    def drive_opt(e: Engine | None):
                        return e.run()


                    def drive_str(e: "Engine"):
                        return e.run()
                """,
            }
        )
        graph = build_model([root]).call_graph()
        for fqn in ("pkg.typed.drive", "pkg.typed.drive_opt", "pkg.typed.drive_str"):
            assert graph[fqn] == ("pkg.core.Engine.run",), fqn


class TestRobustness:
    def test_parse_error_is_recorded_not_raised(self, write_package):
        root = write_package({"broken.py": "def broken(:\n    pass\n"})
        model = build_model([root])
        assert model.modules["pkg.broken"].parse_error is not None
