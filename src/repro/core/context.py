"""Warm-started analysis fast path — :class:`AnalysisContext`.

The paper's treatments all reduce to *repeated* fixed-point
response-time analysis: every allowance / sensitivity value is a binary
search whose predicate re-runs the Lehoczky recurrence of Figure 2 over
a cost-perturbed copy of the task set.  Running each probe cold is the
dominant cost of the analysis layer (see
``benchmarks/bench_analysis_fastpath.py``).  An :class:`AnalysisContext`
owns one task set and makes those probes incremental, **bit-for-bit
exact** with the cold path in :mod:`repro.core.feasibility`:

* **warm-started recurrences** — the interference recurrence
  ``R = base + sum_j ceil(R / T_j) * C_j`` has a right-hand side that is
  monotone non-decreasing in ``R`` *and* in every cost, so its least
  fixed point is non-decreasing in costs and iterating from any value at
  or below it converges to exactly it (DESIGN.md §3.5).  The fixed point
  of a *lower-cost* probe is therefore a valid starting iterate for any
  *higher-cost* probe.  Better: alongside each fixed point ``R`` the
  context stores the interference multiplicities ``k_j = ceil(R/T_j)``,
  their level job count ``S = (q+1) + sum_j k_j`` and the nearest
  ceiling boundary ``m = min_j k_j*T_j``.  One evaluation of the
  recurrence at ``R`` is then pure arithmetic on stored integers —
  ``f'(R) = R + S*delta`` for a uniform inflation ``delta`` — and
  whenever that lands at or below ``m`` no ``ceil`` changed, so it *is*
  the new least fixed point: the whole probe costs O(1) per job, no
  divisions;
* **early-exit verdicts** — a feasibility probe only needs a boolean.
  Iterates grow monotonically toward the fixed point, so the moment an
  iterate exceeds ``q*T_i + D_i`` the task provably misses its deadline
  and the probe is infeasible; tasks are checked most-fragile-first
  (smallest base slack) so infeasible probes abort almost immediately;
* **an exact-input memo** — worst-case response times are keyed by the
  mathematical inputs that determine them (the task's cost/period and
  its interferers' costs/periods), so membership changes — the repeated
  ``addToFeasibility`` calls of the RTSJ layer and the admission
  controller — recompute only the priority levels the change can affect.

Views come in *cost-monotone families*: within one family, a larger
parameter must mean pointwise larger-or-equal costs (that is what makes
the warm start valid across binary-search probes).  The two families
used by the paper's searches are built in —
:meth:`AnalysisContext.with_inflated_costs` (equitable allowance,
uniform ``+delta``) and :meth:`AnalysisContext.with_task_cost` (solo
allowance, one task's cost replaced); :meth:`AnalysisContext.monotone_view`
admits caller-defined families (the sensitivity layer's multiplicative
scaling).
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Mapping

from repro.core.feasibility import (
    MAX_JOBS_PER_BUSY_PERIOD,
    FeasibilityReport,
    TaskReport,
    WeaklyHardReport,
    WeaklyHardTaskReport,
    load_test,
    wc_response_time,
    weakly_hard_response_time,
)
from repro.core.task import Task, TaskSet

__all__ = ["AnalysisContext", "AnalysisView"]

#: Verdict-mode marker: the task provably misses its deadline; the exact
#: WCRT was not computed (the iteration aborted early).
_ABORTED = object()
_MISSING = object()

# Cost-delta classifications for the O(1) warm path (see _delta_info).
_D_ZERO = 0  # identical costs: stored fixed points are the answer
_D_UNIFORM = 1  # every cost larger by the same delta (inflate family)
_D_SINGLE = 2  # exactly one cost differs (solo-overrun family)
_D_GENERAL = 3  # arbitrary pointwise-larger costs (user families)


class AnalysisContext:
    """Incremental analysis over one task set and its cost perturbations.

    The context caches three things, all exact:

    * per-view worst-case response times and feasibility verdicts;
    * converged per-job fixed-point records ``(R, S, m, K)``, indexed by
      (family, parameter), used to warm-start — usually in O(1) — any
      higher-parameter probe of the same family;
    * a memo of WCRTs keyed by their exact mathematical inputs, shared
      by :meth:`analyze_set` across membership changes.

    Structure (names, periods, deadlines, priorities) is fixed; only
    costs vary across views.
    """

    def __init__(self, taskset: TaskSet, *, memo: dict | None = None):
        self.taskset = taskset
        tasks = taskset.tasks
        self._n = len(tasks)
        self._names = tuple(t.name for t in tasks)
        self._rank_of = {t.name: i for i, t in enumerate(tasks)}
        self._periods = tuple(t.period for t in tasks)
        self._deadlines = tuple(t.deadline for t in tasks)
        self._base_costs = tuple(t.cost for t in tasks)
        # Tasks are sorted by decreasing priority, so the level-i set
        # (priority >= P_i) is the prefix ending at i's priority group.
        level_end: list[int] = []
        prios = [t.priority for t in tasks]
        i = 0
        while i < self._n:
            j = i
            while j + 1 < self._n and prios[j + 1] == prios[i]:
                j += 1
            level_end.extend([j] * (j - i + 1))
            i = j + 1
        self._level_end = tuple(level_end)
        self._interferers = tuple(
            tuple(j for j in range(level_end[i] + 1) if j != i)
            for i in range(self._n)
        )
        self._interferer_periods = tuple(
            tuple(self._periods[j] for j in idx) for idx in self._interferers
        )
        #: (family, param) -> (costs, {rank: [(R, S, m, K) per job]})
        self._fixpoints: dict[tuple, tuple[tuple[int, ...], dict[int, list]]] = {}
        #: family -> sorted params that have stored fixed points
        self._family_params: dict[tuple, list[int]] = {}
        #: family -> largest param whose level loads are all proven <= 1
        #: (level load is pointwise monotone in costs, hence in param)
        self._levels_ok: dict[tuple, int] = {}
        self._views: dict[tuple, "AnalysisView"] = {}
        #: exact-input memo: (C, T, ((C_j, T_j), ...)) -> wcrt | None
        self._memo: dict[tuple, int | None] = memo if memo is not None else {}
        self._order: tuple[int, ...] | None = None
        #: rank -> (nb, db, nh, dh): base interferer utilization nb/db
        #: and ceiling-density sum(1/T_j) = nh/dh, both gcd-reduced
        self._iutil_base: dict[int, tuple[int, int, int, int]] = {}

    # -- views -----------------------------------------------------------------
    def base(self) -> "AnalysisView":
        """The unperturbed task set (warm-start floor for every family)."""
        return self._view(("base",), 0, self._base_costs)

    def with_inflated_costs(self, delta: int) -> "AnalysisView":
        """Every cost inflated by *delta* ns — the §4.2 search family."""
        if delta < 0:
            raise ValueError("delta must be >= 0")
        return self._view(
            ("inflate",), delta, tuple(c + delta for c in self._base_costs)
        )

    def with_task_cost(self, name: str, cost: int) -> "AnalysisView":
        """One task's cost replaced — the §4.3 solo-overrun family."""
        rank = self._rank_of[name]
        if cost <= 0:
            raise ValueError(f"{name}: cost must be > 0, got {cost}")
        costs = list(self._base_costs)
        costs[rank] = cost
        return self._view(("cost", name), cost, tuple(costs))

    def monotone_view(
        self, family: str, param: int, costs: Mapping[str, int]
    ) -> "AnalysisView":
        """A caller-defined cost-monotone family.

        Contract: within one *family* string, ``p1 <= p2`` must imply
        ``costs(p1) <= costs(p2)`` pointwise — that is what makes
        warm-starting a higher-parameter probe from a lower one valid.
        Tasks absent from *costs* keep their base cost.
        """
        vec = tuple(
            costs.get(self._names[i], self._base_costs[i]) for i in range(self._n)
        )
        return self._view(("user", family), param, vec)

    def _view(self, family: tuple, param: int, costs: tuple[int, ...]) -> "AnalysisView":
        key = (family, param)
        view = self._views.get(key)
        if view is not None and view.costs == costs:
            return view
        for i, c in enumerate(costs):
            if c <= 0:
                raise ValueError(f"{self._names[i]}: cost must be > 0, got {c}")
            if c > self._deadlines[i] and c > self._periods[i]:
                # Mirror Task.__post_init__: such a probe could never be
                # constructed cold either.
                raise ValueError(
                    f"{self._names[i]}: cost {c} exceeds both deadline and period"
                )
        view = AnalysisView(self, family, param, costs)
        self._views[key] = view
        return view

    # -- context-level conveniences -----------------------------------------------
    def analyze(self) -> FeasibilityReport:
        """Full report for the owned set (cold-path identical)."""
        return self.base().analyze()

    def is_feasible(self) -> bool:
        return self.base().feasible

    def wcrt(self, name: str) -> int | None:
        return self.base().wcrt(name)

    # -- threshold searches (the §4 allowance searches) ---------------------------
    def max_inflation(self, hi: int) -> int:
        """Largest ``a`` in ``[0, hi]`` with every cost inflated by ``a``
        still feasible — the §4.2 search.

        ``hi`` is first capped where some level load would exceed 1.
        Each rank's WCRT is monotone in ``a``, so the answer is the
        minimum of per-rank thresholds: ranks are visited most fragile
        first, a rank that passes at the running minimum costs one
        single-rank probe, and a rank that fails there is bisected with
        single-rank probes on warm-started views
        (:meth:`_threshold_sweep`).  The base set must be feasible.
        """
        return self._threshold_sweep(("inflate",), None, 0, hi)

    def max_task_cost_delta(self, name: str, hi: int) -> int:
        """Largest ``x`` in ``[0, hi]`` with the named task's cost
        raised by ``x`` still feasible — the §4.3 solo-overrun search,
        the same per-rank bisection as :meth:`max_inflation` (ranks the
        task never interferes with are skipped)."""
        rank = self._rank_of[name]
        return self._threshold_sweep(("cost", name), rank, self._base_costs[rank], hi)

    def _level_cap(self, target: int | None) -> int:
        """Largest parameter delta keeping every level load <= 1.

        Level loads are prefix sums, so the full-set load dominates: the
        cap solves ``L0 + delta*H <= 1`` exactly (uniform inflation,
        ``H = sum 1/T_j``) or ``L0 + x/T_target <= 1`` (solo overrun).
        """
        num0, den0 = self.base()._levels()[self._n - 1]
        if num0 >= den0:
            return 0
        if target is not None:
            return (den0 - num0) * self._periods[target] // den0
        num_h, den_h = 0, 1
        for t in self._periods:
            num_h = num_h * t + den_h
            den_h *= t
        g = gcd(num_h, den_h)
        return (den0 - num0) * (den_h // g) // (den0 * (num_h // g))

    def _threshold_sweep(
        self, family: tuple, target: int | None, base_param: int, hi: int
    ) -> int:
        """Shared search core: largest delta in ``[0, hi]`` keeping the
        family's view feasible.  Precondition: feasible at delta 0.

        Feasibility decomposes per rank — each rank's WCRT is monotone
        in the family parameter, so the global threshold is the minimum
        of per-rank thresholds.  Ranks are visited most-fragile-first
        with a running minimum *best*: a rank whose verdict at *best*
        already passes costs exactly one single-rank probe; only ranks
        that lower the minimum pay a bisection of single-rank probes.
        This replaces n-rank probes per global search step with
        one-rank probes, and the warm-started recurrences make each of
        those nearly free.
        """
        if hi <= 0:
            return 0
        cap = self._level_cap(target)
        if hi > cap:
            hi = cap  # beyond the cap some level load exceeds 1
            if hi <= 0:
                return 0
        # Every parameter visited stays at or below the cap, so level
        # loads never need recomputing anywhere in this family.
        if base_param + hi > self._levels_ok.get(family, -1):
            self._levels_ok[family] = base_param + hi
        level_end = self._level_end
        best = hi
        for rank in self._probe_order():
            if target is not None and target != rank and target > level_end[rank]:
                continue  # the perturbed task never interferes here
            if self._rank_ok_at(family, target, base_param, best, rank):
                continue
            lo, hi_open = 0, best  # rank passes at lo, fails at hi_open
            while lo + 1 < hi_open:
                mid = (lo + hi_open) // 2
                if self._rank_ok_at(family, target, base_param, mid, rank):
                    lo = mid
                else:
                    hi_open = mid
            best = lo
            if best == 0:
                break
        return best

    def _view_at(
        self, family: tuple, target: int | None, base_param: int, delta: int
    ) -> "AnalysisView":
        if target is None:
            return self.with_inflated_costs(delta)
        return self.with_task_cost(self._names[target], base_param + delta)

    def _rank_ok_at(
        self, family: tuple, target: int | None, base_param: int, delta: int, rank: int
    ) -> bool:
        """Does *rank* meet its deadline at this family parameter?"""
        view = self._view_at(family, target, base_param, delta)
        res = view._results.get(rank, _MISSING)
        if res is _MISSING:
            res = view._compute_rank(rank, bounded=True)
            view._results[rank] = res
        return not (
            res is _ABORTED or res is None or res > self._deadlines[rank]  # type: ignore[operator]
        )

    # -- exact-input memo (membership-change fast path) ----------------------------
    def wcrt_of(self, task: Task, taskset: TaskSet) -> int | None:
        """Memoized :func:`~repro.core.feasibility.wc_response_time`.

        Keyed by the exact inputs that determine the WCRT — the task's
        (cost, period) and its interferers' (cost, period) pairs — so
        repeated analyses of overlapping sets (``addToFeasibility`` /
        admission-control trials) recompute only what changed.
        """
        hp = taskset.higher_or_equal_priority(task)
        key = (task.cost, task.period, tuple((t.cost, t.period) for t in hp))
        hit = self._memo.get(key, _MISSING)
        if hit is not _MISSING:
            return hit  # type: ignore[return-value]
        value = wc_response_time(task, taskset)
        self._memo[key] = value
        return value

    def analyze_set(self, taskset: TaskSet) -> FeasibilityReport:
        """Cold-identical :func:`~repro.core.feasibility.analyze`, with
        per-task results served from the exact-input memo."""
        per_task = {t.name: TaskReport(t, self.wcrt_of(t, taskset)) for t in taskset}
        return FeasibilityReport(
            taskset=taskset, load=load_test(taskset), per_task=per_task
        )

    def is_feasible_set(self, taskset: TaskSet) -> bool:
        return self.analyze_set(taskset).feasible

    # -- weakly-hard (m, K) analysis (memoized, warm-context compatible) -----
    def weakly_hard_wcrt_of(
        self,
        task: Task,
        taskset: TaskSet,
        degraded: Mapping[str, int] | None = None,
    ) -> int | None:
        """Memoized :func:`~repro.core.feasibility.weakly_hard_response_time`.

        Same exact-input discipline as :meth:`wcrt_of`, with the (m, K)
        constraints and degraded costs joining the key — the hard and
        weakly-hard memo entries of one level never collide because the
        key shapes differ.
        """
        hp = taskset.higher_or_equal_priority(task)

        def cell(t: Task) -> tuple:
            mk = t.mk
            cd = 0 if degraded is None else degraded.get(t.name, 0)
            return (t.cost, t.period, None if mk is None else (mk.m, mk.k), cd)

        key = ("mk", cell(task), tuple(cell(t) for t in hp))
        hit = self._memo.get(key, _MISSING)
        if hit is not _MISSING:
            return hit  # type: ignore[return-value]
        value = weakly_hard_response_time(task, taskset, degraded=degraded)
        self._memo[key] = value
        return value

    def weakly_hard_analyze_set(
        self,
        taskset: TaskSet,
        degraded: Mapping[str, int] | None = None,
    ) -> WeaklyHardReport:
        """Cold-identical :func:`~repro.core.feasibility.weakly_hard_analyze`,
        with per-task results served from the exact-input memo."""
        per_task = {
            t.name: WeaklyHardTaskReport(
                t, self.weakly_hard_wcrt_of(t, taskset, degraded)
            )
            for t in taskset
        }
        return WeaklyHardReport(taskset=taskset, per_task=per_task, degraded=degraded)

    # -- internals -----------------------------------------------------------------
    def _iutil_base_rank(self, rank: int) -> tuple[int, int, int, int]:
        """Base-cost interferer utilization ``sum C_j/T_j = nb/db`` and
        ceiling density ``sum 1/T_j = nh/dh`` at *rank*, gcd-reduced.

        Computed once per rank and shared by every view: a view's exact
        interferer utilization is this plus a closed-form family delta
        (``+ delta*nh/dh`` for uniform inflation, ``+ x/T_target`` for a
        solo overrun), so probe views never pay a level-fraction pass.
        """
        cached = self._iutil_base.get(rank)
        if cached is None:
            nb, db, nh, dh = 0, 1, 0, 1
            base_costs = self._base_costs
            periods = self._periods
            for j in self._interferers[rank]:
                t = periods[j]
                nb = nb * t + base_costs[j] * db
                db *= t
                g = gcd(nb, db)
                nb //= g
                db //= g
                nh = nh * t + dh
                dh *= t
                g = gcd(nh, dh)
                nh //= g
                dh //= g
            self._iutil_base[rank] = cached = (nb, db, nh, dh)
        return cached

    def _probe_order(self) -> tuple[int, ...]:
        """Ranks ordered most-fragile-first (smallest base slack), so
        verdict probes fail fast.  Any order yields the same verdict."""
        if self._order is None:
            base = self.base()
            base.feasible  # noqa: B018 - populates base._results
            deadlines = self._deadlines

            def key(i: int) -> tuple[int, int, int]:
                res = base._results.get(i, _MISSING)
                if res is _ABORTED or res is None:
                    return (0, 0, i)
                if res is _MISSING:
                    return (2, 0, i)
                return (1, deadlines[i] - res, i)

            self._order = tuple(sorted(range(self._n), key=key))
        return self._order

    def _register_param(self, family: tuple, param: int) -> None:
        params = self._family_params.setdefault(family, [])
        if param not in params:
            params.append(param)
            params.sort()

    def _warm_sources(
        self, family: tuple, param: int, costs: tuple[int, ...]
    ) -> list[tuple[dict[int, list], tuple]]:
        """Warm-start candidates, best first: the largest already-solved
        probe of the same family at a parameter <= *param*, then the
        base table whenever base costs are pointwise <= *costs*.

        Each candidate is ``(rank table, delta info)`` where the delta
        info classifies ``costs - source costs`` for the O(1) fast path
        (see :meth:`AnalysisView._compute_rank`).
        """
        out: list[tuple[dict[int, list], tuple]] = []
        params = self._family_params.get(family)
        if params:
            best = None
            for p in params:  # ascending, typically short
                if p <= param:
                    best = p
                else:
                    break
            if best is not None:
                entry = self._fixpoints.get((family, best))
                if entry is not None:
                    out.append((entry[1], _delta_info(entry[0], costs)))
        if family != ("base",):
            entry = self._fixpoints.get((("base",), 0))
            if entry is not None:
                base_costs = self._base_costs
                if all(base_costs[i] <= costs[i] for i in range(self._n)):
                    out.append((entry[1], _delta_info(base_costs, costs)))
        return out


def _delta_info(src: tuple[int, ...], dst: tuple[int, ...]) -> tuple:
    """Classify the pointwise cost increase ``dst - src``."""
    if src == dst:
        return (_D_ZERO,)
    d = [dst[i] - src[i] for i in range(len(src))]
    nonzero = [i for i, v in enumerate(d) if v]
    first = d[nonzero[0]]
    if len(nonzero) == len(d) and all(v == first for v in d):
        return (_D_UNIFORM, first)
    if len(nonzero) == 1:
        return (_D_SINGLE, nonzero[0], first)
    return (_D_GENERAL, tuple(d), tuple(nonzero))


class AnalysisView:
    """One cost assignment over the context's task structure.

    ``feasible`` is the early-exit boolean used by search predicates;
    :meth:`analyze` / :meth:`wcrt` are the full, cold-identical results.
    Create views through the :class:`AnalysisContext` factory methods —
    they register the view with its warm-start family.
    """

    __slots__ = (
        "_ctx",
        "family",
        "param",
        "costs",
        "_results",
        "_feasible",
        "_report",
        "_taskset",
        "_level_fracs",
        "_warm",
        "_iutil",
    )

    def __init__(
        self, ctx: AnalysisContext, family: tuple, param: int, costs: tuple[int, ...]
    ):
        self._ctx = ctx
        self.family = family
        self.param = param
        self.costs = costs
        #: rank -> exact wcrt (int) | None (unbounded) | _ABORTED marker
        self._results: dict[int, object] = {}
        self._feasible: bool | None = None
        self._report: FeasibilityReport | None = None
        self._taskset: TaskSet | None = None
        self._level_fracs: tuple[tuple[int, int], ...] | None = None
        #: warm-start candidates, resolved lazily on first use
        self._warm: list[tuple[dict[int, list], tuple]] | None = None
        #: rank -> (dI, dI - nI) for the utilization lower bound, where
        #: nI/dI is this view's exact interferer utilization at the rank
        self._iutil: dict[int, tuple[int, int]] = {}

    # -- public results ------------------------------------------------------------
    @property
    def feasible(self) -> bool:
        """Exactly ``analyze().feasible``, computed with early exits."""
        if self._feasible is None:
            self._feasible = self._compute_feasible()
        return self._feasible

    def wcrt(self, name: str) -> int | None:
        """Exact WCRT of the named task under this view's costs."""
        return self._wcrt_rank(self._ctx._rank_of[name])

    def analyze(self) -> FeasibilityReport:
        """Full report — identical to cold ``analyze(self.to_taskset())``."""
        if self._report is None:
            ts = self.to_taskset()
            per_task = {
                t.name: TaskReport(t, self._wcrt_rank(i))
                for i, t in enumerate(ts.tasks)
            }
            self._report = FeasibilityReport(
                taskset=ts, load=load_test(ts), per_task=per_task
            )
        return self._report

    def to_taskset(self) -> TaskSet:
        """The concrete task set this view analyses (built lazily)."""
        if self._taskset is None:
            ctx = self._ctx
            if self.costs == ctx._base_costs:
                self._taskset = ctx.taskset
            else:
                self._taskset = ctx.taskset.with_costs(
                    dict(zip(ctx._names, self.costs))
                )
        return self._taskset

    # -- internals -----------------------------------------------------------------
    def _compute_feasible(self) -> bool:
        ctx = self._ctx
        deadlines = ctx._deadlines
        periods = ctx._periods
        order = (
            range(ctx._n) if self.family == ("base",) else ctx._probe_order()
        )
        results = self._results
        if self._warm is None:
            self._warm = ctx._warm_sources(self.family, self.param, self.costs)
        warm = self._warm
        # The whole-view level gate: one dict probe when a same-family
        # probe at a >= parameter already proved every level load <= 1.
        levels_ok = ctx._levels_ok.get(self.family, -1) >= self.param
        if not levels_ok and all(n <= d for n, d in self._levels()):
            ctx._levels_ok[self.family] = max(
                ctx._levels_ok.get(self.family, -1), self.param
            )
            levels_ok = True
        store = None
        for rank in order:
            res = results.get(rank, _MISSING)
            if res is not _MISSING:
                if res is _ABORTED or res is None or res > deadlines[rank]:  # type: ignore[operator]
                    return False
                continue
            if levels_ok and warm:
                # Inline single-job fast verdict: most tasks converge in
                # one job, and when no ceiling boundary is crossed the
                # new fixed point is stored-R plus pure arithmetic (see
                # _compute_rank).  This keeps the common per-rank cost
                # to a few integer ops, no function call.
                recs = None
                for table, dinfo in warm:
                    recs = table.get(rank)
                    if recs is not None:
                        break
                if recs is not None:
                    R, S, m, K = recs[0]
                    kind = dinfo[0]
                    if kind == _D_UNIFORM:
                        r1 = R + S * dinfo[1]
                    elif kind == _D_ZERO:
                        r1 = R
                    elif kind == _D_SINGLE:
                        t_idx = dinfo[1]
                        if t_idx == rank:
                            r1 = R + dinfo[2]
                        elif t_idx <= ctx._level_end[rank]:
                            r1 = R + K[t_idx - (t_idx > rank)] * dinfo[2]
                        else:
                            r1 = R
                    else:
                        r1 = None  # general delta: take the full path
                    if r1 is not None and (m == 0 or r1 <= m):
                        # r1 is the exact least fixed point of job 0.
                        if r1 > deadlines[rank]:
                            results[rank] = _ABORTED
                            return False
                        if r1 <= periods[rank]:  # busy period closes
                            results[rank] = r1
                            if store is None:
                                store = self._store_table()
                            if rank not in store:
                                store[rank] = [
                                    recs[0] if r1 == R else (r1, S, m, K)
                                ]
                            continue
            res = self._compute_rank(rank, bounded=True)
            results[rank] = res
            if res is _ABORTED or res is None or res > deadlines[rank]:  # type: ignore[operator]
                return False
        return True

    def _store_table(self) -> dict[int, list]:
        """This view's fixed-point table, created on first store."""
        ctx = self._ctx
        key = (self.family, self.param)
        entry = ctx._fixpoints.get(key)
        if entry is None:
            entry = (self.costs, {})
            ctx._fixpoints[key] = entry
            ctx._register_param(self.family, self.param)
        return entry[1]

    def _wcrt_rank(self, rank: int) -> int | None:
        res = self._results.get(rank, _MISSING)
        if res is _MISSING or res is _ABORTED:
            res = self._compute_rank(rank, bounded=False)
            self._results[rank] = res
        return res  # type: ignore[return-value]

    def _levels(self) -> tuple[tuple[int, int], ...]:
        """Per-rank exact level-load fractions (gcd-reduced)."""
        if self._level_fracs is None:
            ctx = self._ctx
            periods = ctx._periods
            costs = self.costs
            prefix: list[tuple[int, int]] = []
            num, den = 0, 1
            for i in range(ctx._n):
                num = num * periods[i] + costs[i] * den
                den *= periods[i]
                g = gcd(num, den)
                num //= g
                den //= g
                prefix.append((num, den))
            self._level_fracs = tuple(
                prefix[ctx._level_end[i]] for i in range(ctx._n)
            )
        return self._level_fracs

    def _level_gate(self, rank: int) -> bool:
        """True when this rank's exact level load is <= 1 (the Figure 2
        precondition for the busy period to close).  Skipped wholesale
        when a same-or-higher parameter of this family already proved
        every level load <= 1 — load is pointwise monotone in costs."""
        ctx = self._ctx
        ok_upto = ctx._levels_ok.get(self.family, -1)
        if self.param <= ok_upto:
            return True
        levels = self._levels()
        if all(n <= d for n, d in levels):
            if self.param > ok_upto:
                ctx._levels_ok[self.family] = self.param
            return True
        lnum, lden = levels[rank]
        return lnum <= lden

    def _compute_rank(self, rank: int, *, bounded: bool):
        """WCRT of ``tasks[rank]`` under ``self.costs`` — the Figure 2
        busy-period iteration, warm-started.

        Returns the exact WCRT (int), ``None`` for an unbounded task, or
        — only when *bounded* — the ``_ABORTED`` marker as soon as the
        task provably misses its deadline (iterates grow monotonically
        toward the fixed point, so an iterate past ``q*T + D`` is
        proof).

        For every converged job the record ``(R, S, m, K)`` is stored
        for later probes: ``K[j] = ceil(R/T_j)`` per interferer,
        ``S = (q+1) + sum(K)``, ``m = min_j K[j]*T_j`` (0 when there are
        no interferers).  Evaluating the recurrence of a higher-cost
        probe at ``R`` is then pure arithmetic — ``f'(R) = R + add``
        with ``add`` built from ``S``/``K`` and the cost delta — and if
        ``f'(R) <= m`` no ceiling moved, so ``f'(R)`` is already the new
        least fixed point: O(1) per job, no divisions.
        """
        ctx = self._ctx
        costs = self.costs
        if not self._level_gate(rank):
            return None  # level load > 1: busy period never closes
        T = ctx._periods[rank]
        C = costs[rank]
        D = ctx._deadlines[rank]
        idx = ctx._interferers[rank]
        iperiods = ctx._interferer_periods[rank]
        lend = ctx._level_end[rank]
        key: tuple | None = None
        if not bounded:
            # The exact-input memo only pays off for full results shared
            # across membership changes; search probes (bounded mode)
            # have distinct cost vectors and skip the key entirely.
            key = (C, T, tuple((costs[j], t) for j, t in zip(idx, iperiods)))
            memo_hit = ctx._memo.get(key, _MISSING)
            if memo_hit is not _MISSING:
                return memo_hit
        if self._warm is None:
            self._warm = ctx._warm_sources(self.family, self.param, costs)
        recs = None
        dinfo: tuple = ()
        for table, info in self._warm:
            rl = table.get(rank)
            if rl is not None:
                recs = rl
                dinfo = info
                break
        n_recs = len(recs) if recs is not None else 0
        out: list[tuple] = []
        icosts: list[int] | None = None
        r_max = 0
        r_prev = 0
        try:
            # No divergence guard is needed: level load <= 1 makes the
            # interferer utilization strictly < 1 (the task's own C/T is
            # positive), so every job's least fixed point is finite and
            # the monotone iteration below reaches it in finitely many
            # strictly-increasing integer steps — exactly where the cold
            # path's bounded iteration lands.
            for q in range(MAX_JOBS_PER_BUSY_PERIOD):
                base = C * (q + 1)
                bound = q * T + D if bounded else None
                rec = None
                start = base if base > r_prev else r_prev
                if q < n_recs:
                    R, S, m, K = recs[q]  # type: ignore[index]
                    kind = dinfo[0]
                    if kind == _D_UNIFORM:
                        add = S * dinfo[1]
                    elif kind == _D_ZERO:
                        add = 0
                    elif kind == _D_SINGLE:
                        t_idx = dinfo[1]
                        if t_idx == rank:
                            add = (q + 1) * dinfo[2]
                        elif t_idx <= lend:
                            add = K[t_idx - (t_idx > rank)] * dinfo[2]
                        else:
                            add = 0
                    else:  # _D_GENERAL
                        dvec, nonzero = dinfo[1], dinfo[2]
                        add = (q + 1) * dvec[rank]
                        for j in nonzero:
                            if j != rank and j <= lend:
                                add += K[j - (j > rank)] * dvec[j]
                    # One recurrence step from the stored fixed point,
                    # computed symbolically: f'(R) = R + add.
                    r1 = R + add
                    if bound is not None and r1 > bound:
                        return _ABORTED  # r1 <= new fixed point: proof
                    if m == 0 or r1 <= m:
                        # No ceiling boundary crossed: r1 is the exact
                        # new least fixed point and K, S, m still hold.
                        r = r1
                        rec = (r1, S, m, K) if add else recs[q]  # type: ignore[index]
                    else:
                        start = r1  # still <= the new fixed point
                if rec is None:
                    if icosts is None:
                        icosts = [costs[j] for j in idx]
                    if idx:
                        ut = self._iutil.get(rank)
                        if ut is None:
                            # Exact interferer utilization nI/dI: base
                            # fractions cached on the context plus this
                            # view's closed-form family delta.  The
                            # level gate ensured level load <= 1, and
                            # nI/dI = level - C/T, so dI - nI > 0.
                            fam = self.family[0]
                            if fam == "inflate" or fam == "base":
                                nb, db, nh, dh = ctx._iutil_base_rank(rank)
                                d = self.param  # 0 for the base view
                                num = nb * dh + d * nh * db
                                den = db * dh
                            elif fam == "cost":
                                nb, db, nh, dh = ctx._iutil_base_rank(rank)
                                t_idx = ctx._rank_of[self.family[1]]
                                if t_idx != rank and t_idx <= lend:
                                    x = self.param - ctx._base_costs[t_idx]
                                    t_t = ctx._periods[t_idx]
                                    num = nb * t_t + x * db
                                    den = db * t_t
                                else:
                                    num, den = nb, db
                            else:  # user families: derive from levels
                                lnum, lden = self._levels()[rank]
                                num = lnum * T - C * lden
                                den = lden * T
                            ut = (den, den - num)
                            self._iutil[rank] = ut
                        # lfp >= base + nI/dI * lfp, hence the exact
                        # integer lower bound below is a sound start:
                        # iterating from any value <= the least fixed
                        # point converges to it (DESIGN.md §3.5).
                        dI, diff = ut
                        lb = -(-base * dI // diff)
                        if lb > start:
                            start = lb
                    r = start
                    while True:
                        K = [-(-r // t) for t in iperiods]
                        demand = base + sum(map(mul, K, icosts))
                        if demand == r:
                            break
                        r = demand
                        if bound is not None and r > bound:
                            return _ABORTED
                    S = q + 1 + sum(K)
                    m = min(map(mul, K, iperiods)) if K else 0
                    rec = (r, S, m, tuple(K))
                out.append(rec)
                resp = r - q * T
                if resp > r_max:
                    r_max = resp
                if bound is not None and resp > D:
                    return _ABORTED
                if r <= (q + 1) * T:
                    if key is not None:
                        ctx._memo[key] = r_max
                    return r_max
                r_prev = r
            return None  # analysis budget exhausted: conservative, like cold
        finally:
            if out:
                table = self._store_table()
                prev = table.get(rank)
                if prev is None or len(out) > len(prev):
                    table[rank] = out
