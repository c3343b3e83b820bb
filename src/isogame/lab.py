"""Corpus verification lab: solve graphs in bulk and check every bound.

Corpora are graph6 files, one graph per line, streamed one graph at a time
so memory follows the largest graph, not the corpus. A line that fails to
parse or a graph that ``check_solvable`` rejects is skipped with its reason,
never aborting a run; the exit-code contract cares only about bound
violations and conjecture counterexamples. Reports keep input order
regardless of workers.
"""

from __future__ import annotations

import csv
import itertools
import json
import multiprocessing
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

from .bounds import (BoundCheck, GraphFacts, bounds_by_name, check_all,
                     largest_satisfying)
from .engine import Player
from .errors import GraphDomainError, GraphFormatError, SolverCapError
from .families import random_graph
from .graph import Graph
from .graph6 import iter_graph6_lines, parse_graph6
from .solver import (Solver, check_solvable, cp_gap, solve_both,
                     solver_cap_from_env)

REPORT_SCHEMA = 1
CSV_COLUMNS = ["id", "n", "m", "delta", "Delta", "diam", "igt", "igtS",
               "cp_gap", "bound", "value_num", "value_den", "strict", "pass"]


@dataclass(frozen=True)
class CorpusEntry:
    gid: str
    graph: Graph | None
    error: str | None = None


def load_graph6_corpus(lines: Iterable[str], source: str = "corpus") -> Iterator[CorpusEntry]:
    """Lazily parse a graph6 stream, one entry per line; parse errors become
    skippable entries."""
    for lineno, line in iter_graph6_lines(lines):
        gid = f"{source}:{lineno}"
        try:
            yield CorpusEntry(gid=gid, graph=parse_graph6(line))
        except GraphFormatError as exc:
            yield CorpusEntry(gid=gid, graph=None, error=str(exc))


def _solvable(entries: Iterable[CorpusEntry],
              skipped: list[tuple[str, str]]) -> Iterator[tuple[str, Graph]]:
    """Yield ``(gid, graph)`` for each entry that ``check_solvable`` accepts;
    append ``(gid, reason)`` to ``skipped`` for every other one."""
    # A malformed cap setting is a usage error, not one skip per graph, so
    # it raises before the first entry (on an empty corpus too).
    solver_cap_from_env()
    for entry in entries:
        if entry.graph is None:
            skipped.append((entry.gid, entry.error))
            continue
        try:
            check_solvable(entry.graph)
        except (GraphDomainError, SolverCapError) as exc:
            skipped.append((entry.gid, str(exc)))
            continue
        yield entry.gid, entry.graph


@dataclass(frozen=True)
class BoundReport:
    """Solved values and bound evaluations for a single graph."""
    gid: str
    n: int
    m: int
    min_degree: int
    max_degree: int
    diameter: float
    igt: int
    igts: int
    checks: tuple[BoundCheck, ...]

    @property
    def cp_gap(self) -> int:
        return self.igts - self.igt

    @property
    def failed(self) -> bool:
        return any(c.applicable and not c.passed for c in self.checks)


def evaluate_graph(gid: str, g: Graph,
                   bound_names: tuple[str, ...] | None = None) -> BoundReport:
    igt, igts = solve_both(g)
    facts = GraphFacts.of(g)
    checks = check_all(facts, igt, igts, bounds_by_name(bound_names))
    return BoundReport(gid=gid, n=g.n, m=g.m, min_degree=g.min_degree,
                       max_degree=g.max_degree, diameter=g.diameter,
                       igt=igt, igts=igts, checks=checks)


def _verify_worker(args) -> BoundReport:
    return evaluate_graph(*args)


@dataclass
class VerifyResult:
    reports: list[BoundReport]
    skipped: list[tuple[str, str]]

    @property
    def failures(self) -> int:
        return sum(1 for report in self.reports if report.failed)

    @property
    def exit_code(self) -> int:
        return 1 if self.failures else 0


def verify(entries: Iterable[CorpusEntry], bound_names: tuple[str, ...] | None = None,
           jobs: int = 1) -> VerifyResult:
    """Evaluate every parsed graph against the (filtered) bound set.

    Entries are consumed one at a time; work is sharded across ``jobs``
    processes, and reports come back in input order either way.
    """
    bounds_by_name(bound_names)  # fail fast on unknown names
    skipped: list[tuple[str, str]] = []
    work = ((gid, g, bound_names) for gid, g in _solvable(entries, skipped))
    # The first graph is evaluated here, and a pool opens only once a second
    # one exists, so an error on the first graph, or a corpus with fewer than
    # two graphs to solve, never forks workers. No graph is bound to a name
    # on the serial path, so it holds one parsed graph at a time.
    try:
        reports = [_verify_worker(next(work))]
    except StopIteration:
        return VerifyResult(reports=[], skipped=skipped)
    second = next(work, None) if jobs > 1 else None
    if second is None:
        reports.extend(map(_verify_worker, work))
    else:
        with multiprocessing.Pool(jobs) as pool:
            reports.extend(pool.imap(_verify_worker, itertools.chain((second,), work),
                                     chunksize=64))
    return VerifyResult(reports=reports, skipped=skipped)


@dataclass
class ConjectureScan:
    """Search for graphs beating two thirds of their order in the D-game."""
    counterexamples: list[tuple[str, int, int]]  # (gid, n, igt)
    checked: int
    skipped: list[tuple[str, str]]

    @property
    def exit_code(self) -> int:
        return 1 if self.counterexamples else 0


def scan_conjecture(entries: Iterable[CorpusEntry]) -> ConjectureScan:
    """Flag every graph with igt > 2n/3 among solvable graphs whose
    components all have order at least 3 (others are skipped).

    The verdict is one null-window probe at ``floor(2n/3)``; the exact value
    is searched, on the same table, only for a counterexample."""
    counterexamples = []
    skipped: list[tuple[str, str]] = []
    checked = 0
    for gid, g in _solvable(entries, skipped):
        if any(comp.bit_count() < 3 for comp in g.components):
            skipped.append((gid, "has a component of order < 3"))
            continue
        solver = Solver(g)
        checked += 1
        if not solver.at_most(Player.DOMINATOR, 2 * g.n // 3):
            counterexamples.append((gid, g.n, solver.value(0, Player.DOMINATOR)))
    return ConjectureScan(counterexamples=counterexamples, checked=checked,
                          skipped=skipped)


@dataclass
class GapScan:
    histogram: dict[int, int]
    witnesses: list[tuple[str, int]]  # graphs attaining the max |gap|
    skipped: list[tuple[str, str]]

    @property
    def max_abs_gap(self) -> int:
        return max((abs(gap) for gap in self.histogram), default=0)

    @property
    def total(self) -> int:
        return sum(self.histogram.values())


def cp_scan(entries: Iterable[CorpusEntry]) -> GapScan:
    """Histogram of Staller-start minus Dominator-start values."""
    histogram: dict[int, int] = {}
    witnesses: list[tuple[str, int]] = []  # in input order, at the peak so far
    skipped: list[tuple[str, str]] = []
    for gid, g in _solvable(entries, skipped):
        gap = cp_gap(g)
        histogram[gap] = histogram.get(gap, 0) + 1
        peak = abs(witnesses[0][1]) if witnesses else 0
        if abs(gap) > peak:
            witnesses.clear()
        if abs(gap) >= peak:
            witnesses.append((gid, gap))
    return GapScan(histogram=histogram, witnesses=witnesses, skipped=skipped)


@dataclass
class Diameter2Summary:
    trials: int
    diameter2_count: int
    connected_count: int
    checked: int
    violations: list[str]

    @property
    def fraction_diameter2(self) -> float:
        return self.diameter2_count / self.trials if self.trials else 0.0

    @property
    def exit_code(self) -> int:
        return 1 if self.violations else 0


def diam2_sample(n: int, p: float, trials: int, seed: int) -> Diameter2Summary:
    """Sample G(n, p); check both game values of every sample that T36 (2n/3)
    applies to. Reports the diameter-2 fraction; over the solver cap it
    raises.

    Each start is checked by one null-window probe at the largest value T36
    allows; both exact values are searched only for a violation."""
    (t36,) = bounds_by_name(("T36",))
    rng = random.Random(seed)
    diameter2 = connected = checked = 0
    violations = []
    for trial in range(trials):
        g = random_graph(n, p, rng)
        if not g.is_connected():
            continue
        connected += 1
        facts = GraphFacts.of(g)
        if facts.diameter == 2:
            diameter2 += 1
        if not t36.applies(facts):
            continue
        k = largest_satisfying(t36.value(facts), t36.strict(facts))
        solver = Solver(g)
        checked += 1
        if not (solver.at_most(Player.DOMINATOR, k)
                and solver.at_most(Player.STALLER, k)):
            igt = solver.value(0, Player.DOMINATOR)
            igts = solver.value(0, Player.STALLER)
            violations.append(
                f"trial {trial}: n={g.n} igt={igt} igtS={igts} exceeds 2n/3")
    return Diameter2Summary(trials=trials, diameter2_count=diameter2,
                            connected_count=connected, checked=checked,
                            violations=violations)


# -- report serialization ----------------------------------------------------

def _diam_field(diameter: float):
    return int(diameter) if diameter != float("inf") else None


def report_to_dict(report: BoundReport) -> dict:
    return {
        "id": report.gid,
        "n": report.n,
        "m": report.m,
        "delta": report.min_degree,
        "Delta": report.max_degree,
        "diam": _diam_field(report.diameter),
        "igt": report.igt,
        "igtS": report.igts,
        "cp_gap": report.cp_gap,
        "bounds": [
            {
                "name": check.name,
                "target": check.target,
                "applicable": check.applicable,
                "value": None if check.value is None else
                         {"num": check.value.numerator, "den": check.value.denominator},
                "strict": check.strict,
                "pass": check.passed,
                "slack": None if check.slack is None else
                         {"num": check.slack.numerator, "den": check.slack.denominator},
            }
            for check in report.checks
        ],
    }


def write_json_report(result: VerifyResult, stream: TextIO) -> None:
    payload = {
        "schema": REPORT_SCHEMA,
        "reports": [report_to_dict(report) for report in result.reports],
        "skipped": [{"id": gid, "reason": reason} for gid, reason in result.skipped],
        "summary": {"graphs": len(result.reports), "failures": result.failures},
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def write_csv_report(result: VerifyResult, stream: TextIO) -> None:
    """One row per applicable bound check, fixed column set."""
    writer = csv.writer(stream)
    writer.writerow(CSV_COLUMNS)
    for report in result.reports:
        diam = _diam_field(report.diameter)
        for check in report.checks:
            if not check.applicable:
                continue
            writer.writerow([
                report.gid, report.n, report.m, report.min_degree,
                report.max_degree, "inf" if diam is None else diam,
                report.igt, report.igts, report.cp_gap, check.name,
                check.value.numerator, check.value.denominator,
                int(check.strict), int(check.passed),
            ])
