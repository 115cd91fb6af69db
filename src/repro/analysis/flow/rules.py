"""RT1xx — cross-module flow rules.

Each rule consumes the :class:`~repro.analysis.flow.model.ProjectModel`
plus the propagated :class:`~repro.analysis.flow.taint.TaintState` and
emits ordinary :class:`~repro.analysis.diagnostics.Diagnostic` records,
so the text/JSON renderers and ``# noqa`` suppression treat per-file
and whole-program findings uniformly.

=========  ==========================================================
``RT101``  determinism taint: a volatile value (wall clock, env var,
           host identity, salted ``hash``, global-RNG draw) reaches a
           fingerprint/cache-key sink (``ExperimentSpec``/
           ``spec_hash``, ``build_manifest``/``manifest_fingerprint``,
           ``ResultCache`` keys) without passing through
           ``repro.rng.derive_rng`` or ``strip_volatile``
``RT102``  time-type escape: an integer-ns quantity minted by
           :mod:`repro.units` flows — through a call that leaves its
           module — into float arithmetic that RT001's per-file name
           heuristic cannot see
``RT103``  RNG escape: an rng object, or a closure capturing one, is
           submitted across a process boundary (``PoolExecutor.run``,
           ``multiprocessing.Pool.map`` …), forking the stream state
``RT104``  hot-path purity (warning): a function reachable from the
           engine run loop or the warm-start analysis context mutates
           shared task/system state in place
=========  ==========================================================

Soundness: resolution is name-based (DESIGN.md §3.7) — calls on values
of unknown type do not create graph edges, so RT104's reachable set is
an under-approximation, while taint joins are over-approximations.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Type

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.flow.model import FunctionInfo, ProjectModel
from repro.analysis.flow.taint import RNG, TIME_NS, VOLATILE, TaintState, propagate

__all__ = [
    "FlowRule",
    "FLOW_RULES",
    "flow_rule_codes",
    "run_flow_rules",
    "DeterminismTaint",
    "TimeTypeEscape",
    "RngProcessEscape",
    "HotPathMutation",
]


class FlowRule:
    """Base class: one whole-program rule, one stable ``RT1xx`` code."""

    code: str = ""
    name: str = ""
    description: str = ""
    severity: Severity = Severity.ERROR

    def __init__(self, model: ProjectModel, state: TaintState):
        self.model = model
        self.state = state
        self.diagnostics: list[Diagnostic] = []

    def run(self) -> list[Diagnostic]:
        raise NotImplementedError

    def report(
        self, func: FunctionInfo, key: tuple[int, int], message: str, *, hint: str = ""
    ) -> None:
        summary = self.model.modules.get(func.module)
        line, column = key
        if self.model.suppressed(func.module, line, self.code):
            return
        self.diagnostics.append(
            Diagnostic(
                code=self.code,
                severity=self.severity,
                message=message,
                path=summary.path if summary is not None else func.module,
                line=line,
                column=column + 1,
                hint=hint,
            )
        )


_VOLATILE_HINT = (
    "derive stable inputs via repro.rng.derive_rng / stable keys, or drop "
    "volatile fields with repro.exec.manifest.strip_volatile before hashing"
)

#: Fingerprint / cache-key sinks (dotted-suffix matched).
FINGERPRINT_SINKS = (
    "manifest_fingerprint",
    "build_manifest",
    "ExperimentSpec",
    "ResultCache.key",
    "ResultCache.get",
    "ResultCache.put",
)

#: Method names that are sinks even when the receiver type is unknown.
FINGERPRINT_SINK_ATTRS = frozenset({"spec_hash"})


class DeterminismTaint(FlowRule):
    """RT101: volatile values reaching fingerprint/cache-key sinks."""

    code = "RT101"
    name = "determinism-taint"
    description = (
        "A value derived from wall clocks, environment variables, host "
        "identity, salted hash() or global-RNG draws reaches an "
        "ExperimentSpec / manifest fingerprint / ResultCache key without "
        "passing through repro.rng.derive_rng or strip_volatile — the "
        "same spec then hashes differently on every run."
    )

    def run(self) -> list[Diagnostic]:
        for func in self.model.functions.values():
            for site in func.calls:
                if not (
                    site.matches(FINGERPRINT_SINKS)
                    or site.attr in FINGERPRINT_SINK_ATTRS
                ):
                    continue
                for tv in site.all_args():
                    kinds = self.state.kinds_of(self.model, func, tv)
                    if VOLATILE in kinds:
                        self.report(
                            func,
                            site.key,
                            f"volatile value reaches determinism sink "
                            f"{site.display}() in {func.fqn}()",
                            hint=_VOLATILE_HINT,
                        )
                        break
        return self.diagnostics


class TimeTypeEscape(FlowRule):
    """RT102: integer-ns values escaping into float math cross-module."""

    code = "RT102"
    name = "time-type-escape"
    description = (
        "An integer-nanosecond quantity minted by repro.units flows "
        "through a call into another module and lands in float "
        "arithmetic there — outside the reach of RT001's per-file "
        "time-word heuristic, so the rounding drift would ship silently."
    )

    def run(self) -> list[Diagnostic]:
        for func in self.model.functions.values():
            for site in func.float_ops:
                if site.local_time_valued:
                    continue  # RT001 territory: visible per-file
                kinds = self.state.nonlocal_kinds(self.model, func, site.operand)
                if TIME_NS not in kinds:
                    continue
                if site.op == "div" and site.other is not None:
                    other = self.state.kinds_of(self.model, func, site.other)
                    if TIME_NS in other:
                        continue  # time/time — a dimensionless ratio
                self.report(
                    func,
                    site.key,
                    f"integer-ns value from another module floats in "
                    f"{site.display!r} ({func.fqn})",
                    hint="keep cross-module durations integral (// or "
                    "repro.units helpers); convert only at the "
                    "presentation boundary",
                )
        return self.diagnostics


#: Process-boundary submission sinks (dotted-suffix matched).
SUBMIT_SINKS = (
    "PoolExecutor.run",
    "Pool.map",
    "Pool.imap",
    "Pool.imap_unordered",
    "Pool.starmap",
    "Pool.apply",
    "Pool.apply_async",
    "ProcessPoolExecutor.submit",
    "ProcessPoolExecutor.map",
)


class RngProcessEscape(FlowRule):
    """RT103: rng state captured by work crossing a process boundary."""

    code = "RT103"
    name = "rng-process-escape"
    description = (
        "An rng object — or a closure/partial capturing one — is "
        "submitted to a process pool; the worker pickles the generator "
        "state, the parent and child streams silently fork, and replay "
        "depends on scheduling."
    )

    def run(self) -> list[Diagnostic]:
        for func in self.model.functions.values():
            for site in func.calls:
                if not site.matches(SUBMIT_SINKS):
                    continue
                for tv in site.all_args():
                    direct = self.state.kinds_of(self.model, func, tv)
                    captured = self.state.closure_kinds(self.model, func, tv)
                    if RNG in direct:
                        what = "rng object"
                    elif RNG in captured:
                        what = "closure capturing rng state"
                    else:
                        continue
                    self.report(
                        func,
                        site.key,
                        f"{what} submitted across a process boundary via "
                        f"{site.display}() in {func.fqn}()",
                        hint="send the seed (int) instead and rebuild the "
                        "stream in the worker with repro.rng.derive_rng",
                    )
                    break
        return self.diagnostics


#: Default hot roots: the fused engine run loop and the warm-start
#: analysis recurrences — code whose correctness proofs assume the
#: task/system model is immutable while they run.
HOT_ROOT_PATTERNS = (
    "*.sim.engine.Engine.run",
    "*.sim.engine.Engine.step",
    "*.core.context.AnalysisContext.*",
    "*.core.context.AnalysisView.*",
)

#: Vocabulary naming shared task/system model state.
_SHARED_WORDS = frozenset({"task", "tasks", "taskset", "system", "systems"})


class HotPathMutation(FlowRule):
    """RT104: reachable-from-hot-path mutation of task/system state."""

    code = "RT104"
    name = "hot-path-mutation"
    description = (
        "A function reachable from the engine run loop or the "
        "warm-start analysis context mutates shared task/system state "
        "in place; the warm-start equivalence proof and the fused event "
        "loop both assume that model is frozen while they run."
    )
    severity = Severity.WARNING

    def __init__(
        self,
        model: ProjectModel,
        state: TaintState,
        *,
        hot_roots: Sequence[str] | None = None,
    ):
        super().__init__(model, state)
        self.hot_roots = tuple(hot_roots) if hot_roots is not None else HOT_ROOT_PATTERNS

    def run(self) -> list[Diagnostic]:
        reachable = self.model.reachable_from(self.hot_roots)
        for fqn in sorted(reachable):
            func = self.model.functions[fqn]
            for mut in func.mutations:
                if (
                    mut.root == "self"
                    and mut.kind == "assign"
                    and mut.target.count(".") == 1
                ):
                    # Rebinding an own slot (``self.x = ...`` in __init__
                    # or a lazy cache) — not a shared-object mutation.
                    continue
                words = set(mut.target.lower().replace(".", "_").split("_"))
                if not (words & _SHARED_WORDS):
                    continue
                self.report(
                    func,
                    mut.key,
                    f"{func.fqn}() is hot-path reachable and mutates "
                    f"shared state via {mut.target!r} ({mut.kind})",
                    hint="snapshot or rebuild instead of mutating; route "
                    "sanctioned moves through the partition/admission "
                    "APIs",
                )
        return self.diagnostics


FLOW_RULES: tuple[Type[FlowRule], ...] = (
    DeterminismTaint,
    TimeTypeEscape,
    RngProcessEscape,
    HotPathMutation,
)


def flow_rule_codes() -> frozenset[str]:
    return frozenset(rule.code for rule in FLOW_RULES)


def run_flow_rules(
    model: ProjectModel,
    *,
    codes: Iterable[str] | None = None,
    hot_roots: Sequence[str] | None = None,
    state: TaintState | None = None,
) -> list[Diagnostic]:
    """Propagate taint over *model* and run the RT1xx rules.

    Unparseable modules surface as RT000 diagnostics (same code the
    per-file linter uses) rather than being silently skipped.
    """
    from repro.analysis.diagnostics import sort_key
    from repro.analysis.lint import PARSE_ERROR_CODE

    wanted = {c.upper() for c in codes} if codes is not None else None
    out: list[Diagnostic] = []
    for summary in model.modules.values():
        if summary.parse_error is not None:
            out.append(
                Diagnostic(
                    code=PARSE_ERROR_CODE,
                    severity=Severity.ERROR,
                    message=summary.parse_error,
                    path=summary.path,
                )
            )
    if state is None:
        state = propagate(model)
    for rule_cls in FLOW_RULES:
        if wanted is not None and rule_cls.code not in wanted:
            continue
        if rule_cls is HotPathMutation:
            rule: FlowRule = HotPathMutation(model, state, hot_roots=hot_roots)
        else:
            rule = rule_cls(model, state)
        out.extend(rule.run())
    if wanted is not None:
        out = [d for d in out if d.code in wanted]
    return sorted(out, key=sort_key)
