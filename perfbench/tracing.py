"""Per-layer tracing of isogame from outside the package.

The tracer replaces functions at the name their callers look up (a module
global such as ``isogame.solver.marked_set``, or a class attribute such as
``Solver.value``) with a wrapper that counts calls and times them, and puts
the originals back when uninstalled. Nothing inside ``src/isogame`` knows
about it. A target that no longer exists is recorded as absent, and the
metrics that depend only on absent targets are left out of the result.

Fine-grained calls (millions per run) are aggregated in memory per target:
call count, inclusive time of outermost calls, and self time, that is the
time not covered by a wrapped callee. Coarse calls (operations, CLI
invocations, report writes, simulations) are also kept as individual spans
with their parent span. Both are written out when the run ends.
"""

from __future__ import annotations

import importlib
import statistics
import time
import weakref

# (stat name, module, attribute path). Several targets may feed one stat.
TARGETS = (
    ("cli.main", "isogame.cli", "main"),
    ("graph6.parse", "isogame.lab", "parse_graph6"),
    ("graph6.parse", "isogame.cli", "parse_graph6"),
    ("bounds.facts", "isogame.lab", "GraphFacts.of"),
    ("bounds.check", "isogame.lab", "check_all"),
    ("engine.marked_set", "isogame.engine", "marked_set"),
    ("solver.marked_set", "isogame.solver", "marked_set"),
    ("solver.value", "isogame.solver", "Solver.value"),
    ("solver.info", "isogame.solver", "StateCache.info"),
    ("lab.report_write", "isogame.cli", "write_json_report"),
    ("strategies.forced", "isogame.strategies", "ForcedGameSolver.value_from"),
    ("strategies.mark_gain", "isogame.solver", "StateCache.mark_gain"),
    ("strategies.simulate", "isogame.strategies", "simulate"),
)
COARSE = {"cli.main", "lab.report_write", "strategies.simulate"}

# Per-layer metric -> (unit, stats it is computed from).
METRICS = {
    "graph6.parse_s": ("s", ("graph6.parse",)),
    "graph6.lines": ("count", ("graph6.parse",)),
    "bounds.facts_s": ("s", ("bounds.facts",)),
    "bounds.check_s": ("s", ("bounds.check",)),
    "bounds.checks": ("count", ("bounds.check",)),
    "engine.marked_set_calls": ("count", ("engine.marked_set", "solver.marked_set")),
    "engine.marked_set_s": ("s", ("engine.marked_set", "solver.marked_set")),
    "solver.nodes": ("count", ("solver.value",)),
    "solver.states": ("count", ("solver.value", "solver.stats")),
    "solver.memo_hits": ("count", ("solver.value", "solver.stats")),
    "solver.memo_hit_ratio": ("ratio", ("solver.value", "solver.stats")),
    "solver.cache_info_calls": ("count", ("solver.info",)),
    "solver.cache_info_s": ("s", ("solver.info",)),
    "solver.mark_cache_hit_ratio": ("ratio", ("solver.info", "solver.marked_set")),
    "solver.search_self_s": ("s", ("solver.value",)),
    "solver.graph_p50_ms": ("ms", ("solver.value",)),
    "solver.graph_p99_ms": ("ms", ("solver.value",)),
    "lab.report_write_s": ("s", ("lab.report_write",)),
    "lab.report_bytes": ("bytes", ("lab.report_write",)),
    "strategies.forced_nodes": ("count", ("strategies.forced",)),
    "strategies.choose_calls": ("count", ("strategies.choose",)),
    "strategies.choose_s": ("s", ("strategies.choose",)),
    "strategies.mark_gain_calls": ("count", ("strategies.mark_gain",)),
    "strategies.simulate_s": ("s", ("strategies.simulate",)),
    "strategies.moves": ("count", ("strategies.simulate",)),
    "cli.self_s": ("s", ("cli.main",)),
    "trace.overhead_s": ("s", ()),
}
# Metrics whose sources must all be present; the rest need any one of them.
NEED_ALL = {"solver.states", "solver.memo_hits", "solver.memo_hit_ratio",
            "solver.mark_cache_hit_ratio"}

CALLS, INCLUSIVE, SELF, DEPTH = range(4)


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counters = {"bounds.checks": 0, "strategies.moves": 0,
                         "lab.report_bytes": 0}
        self.absent: set[str] = set()
        self.spans: list[dict] = []
        self._stack: list[list[float]] = []
        self._span_stack: list[int] = []
        self._saved: list[tuple] = []
        self._solvers: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._finalizers: list[weakref.finalize] = []
        self.solver_totals = [0, 0]  # states, memo hits of retired solvers
        self.graph_ms: list[float] = []

    # -- installing ------------------------------------------------------

    def _targets(self):
        yield from TARGETS
        try:
            strategies = importlib.import_module("isogame.strategies")
            base = strategies.Strategy
        except (ImportError, AttributeError):
            self.absent.add("strategies.choose")
            return
        for name, obj in sorted(vars(strategies).items()):
            if isinstance(obj, type) and issubclass(obj, base) and "choose" in vars(obj):
                yield ("strategies.choose", "isogame.strategies", f"{name}.choose")

    def install(self) -> None:
        failed, present = set(), set()
        for stat, module_name, path in self._targets():
            self.stats.setdefault(stat, [0, 0.0, 0.0, 0])
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError, TypeError):
                failed.add(stat)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(stat, raw.__func__))
            else:
                wrapped = self._wrap(stat, raw)
            setattr(owner, attr, wrapped)
            self._saved.append((owner, attr, raw))
            present.add(stat)
        # A stat fed by several targets is present when any of them resolved.
        self.absent |= failed - present

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, stat_name: str, fn):
        stat = self.stats[stat_name]
        stack = self._stack
        clock = time.perf_counter
        on_exit = {"bounds.check": self._count_checks,
                   "strategies.simulate": self._count_moves,
                   "solver.value": self._solver_exit}.get(stat_name)
        coarse = stat_name in COARSE

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stat[DEPTH] += 1
            if coarse:
                span = self.open_span(stat_name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[DEPTH] -= 1
                stat[CALLS] += 1
                stat[SELF] += elapsed - frame[0]
                if stat[DEPTH] == 0:
                    stat[INCLUSIVE] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if coarse:
                    self.close_span(span)
            if on_exit is not None:
                on_exit(args, result, elapsed, stat[DEPTH] == 0)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters fed from results ---------------------------------------

    def _count_checks(self, args, result, elapsed, outermost):
        self.counters["bounds.checks"] += len(result)

    def _count_moves(self, args, result, elapsed, outermost):
        self.counters["strategies.moves"] += len(result.moves)

    def _solver_exit(self, args, result, elapsed, outermost):
        """Per solver instance: outermost search time and table statistics.

        Read at the end of each outermost ``value`` call and collected when
        the solver is freed, so the tracer keeps no solver alive.
        """
        if not outermost:
            return
        solver = args[0]
        cell = self._solvers.get(solver)
        if cell is None:
            cell = self._solvers[solver] = [0.0, 0, 0]
            self._finalizers.append(weakref.finalize(solver, self._retire, cell))
        cell[0] += elapsed
        stats = getattr(solver, "stats", None)
        if stats is None:
            self.absent.add("solver.stats")
        else:
            cell[1], cell[2] = stats.states, stats.hits

    def _retire(self, cell) -> None:
        self.graph_ms.append(cell[0] * 1000.0)
        self.solver_totals[0] += cell[1]
        self.solver_totals[1] += cell[2]

    def flush(self) -> None:
        """Retire every solver still alive."""
        for finalizer in self._finalizers:
            finalizer()
        self._finalizers.clear()

    # -- coarse spans ----------------------------------------------------

    def open_span(self, name: str) -> int:
        parent = self._span_stack[-1] if self._span_stack else None
        self.spans.append({"name": name, "start": time.perf_counter(),
                           "end": None, "parent": parent})
        self._span_stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close_span(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._span_stack.pop()

    # -- results ---------------------------------------------------------

    def metrics(self, ops: int, overhead_s: float) -> tuple[dict, list[str]]:
        """Per-layer metrics per traced operation, and the names left out."""
        self.flush()
        stat = self.stats

        def calls(*names):
            return sum(stat.get(name, [0])[CALLS] for name in names)

        def inclusive(*names):
            return sum(stat.get(name, [0, 0.0])[INCLUSIVE] for name in names)

        def ratio(num, den):
            return num / den if den else 0.0

        nodes = calls("solver.value")
        states, hits = self.solver_totals
        raw = {
            "graph6.parse_s": inclusive("graph6.parse") / ops,
            "graph6.lines": calls("graph6.parse") / ops,
            "bounds.facts_s": inclusive("bounds.facts") / ops,
            "bounds.check_s": inclusive("bounds.check") / ops,
            "bounds.checks": self.counters["bounds.checks"] / ops,
            "engine.marked_set_calls": calls("engine.marked_set", "solver.marked_set") / ops,
            "engine.marked_set_s": inclusive("engine.marked_set", "solver.marked_set") / ops,
            "solver.nodes": nodes / ops,
            "solver.states": states / ops,
            "solver.memo_hits": hits / ops,
            "solver.memo_hit_ratio": ratio(hits, nodes),
            "solver.cache_info_calls": calls("solver.info") / ops,
            "solver.cache_info_s": inclusive("solver.info") / ops,
            "solver.mark_cache_hit_ratio": (1.0 - ratio(calls("solver.marked_set"),
                                                        calls("solver.info"))
                                            if calls("solver.info") else 0.0),
            "solver.search_self_s": stat.get("solver.value", [0, 0.0, 0.0])[SELF] / ops,
            "solver.graph_p50_ms": _percentile(self.graph_ms, 50),
            "solver.graph_p99_ms": _percentile(self.graph_ms, 99),
            "lab.report_write_s": inclusive("lab.report_write") / ops,
            "lab.report_bytes": self.counters["lab.report_bytes"] / ops,
            "strategies.forced_nodes": calls("strategies.forced") / ops,
            "strategies.choose_calls": calls("strategies.choose") / ops,
            "strategies.choose_s": inclusive("strategies.choose") / ops,
            "strategies.mark_gain_calls": calls("strategies.mark_gain") / ops,
            "strategies.simulate_s": inclusive("strategies.simulate") / ops,
            "strategies.moves": self.counters["strategies.moves"] / ops,
            "cli.self_s": stat.get("cli.main", [0, 0.0, 0.0])[SELF] / ops,
            "trace.overhead_s": overhead_s,
        }
        out, left_out = {}, []
        for name, (unit, sources) in METRICS.items():
            missing = [s for s in sources if s in self.absent]
            if missing and (name in NEED_ALL or len(missing) == len(sources)):
                left_out.append(name)
                continue
            out[name] = {"value": raw[name], "unit": unit}
        return out, left_out

    def dump(self) -> dict:
        """Everything recorded, as plain data; ``merge`` adds it to another tracer."""
        self.flush()
        return {
            "stats": {name: s[:DEPTH] for name, s in self.stats.items()},
            "counters": dict(self.counters),
            "absent": sorted(self.absent),
            "solver_totals": list(self.solver_totals),
            "graph_ms": self.graph_ms,
            "spans": self.spans,
        }

    def merge(self, dump: dict) -> None:
        for name, values in dump["stats"].items():
            stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
            for field, value in enumerate(values):
                stat[field] += value
        for name, value in dump["counters"].items():
            self.counters[name] += value
        self.absent.update(dump["absent"])
        self.solver_totals[0] += dump["solver_totals"][0]
        self.solver_totals[1] += dump["solver_totals"][1]
        self.graph_ms.extend(dump["graph_ms"])
        offset = len(self.spans)
        for span in dump["spans"]:
            parent = span["parent"]
            self.spans.append(dict(span, parent=None if parent is None else parent + offset))
