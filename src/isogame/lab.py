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
import os
import random
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, TextIO

from .bounds import (BoundCheck, GraphFacts, bounds_by_name, check_all,
                     check_key, largest_satisfying)
from .engine import Player
from .errors import GraphDomainError, GraphFormatError, SolverCapError
from .families import random_graph
from .graph import Graph
from .graph6 import parse_graph6
from .solver import Solver, _check_solvable, solver_cap_from_env

REPORT_SCHEMA = 1
CSV_COLUMNS = ["id", "n", "m", "delta", "Delta", "diam", "igt", "igtS",
               "cp_gap", "bound", "value_num", "value_den", "strict", "pass"]


class CorpusEntry(NamedTuple):
    gid: str
    graph: Graph | None
    error: str | None = None


def load_graph6_corpus(lines: Iterable[str], source: str = "corpus") -> Iterator[CorpusEntry]:
    """Lazily parse a graph6 stream, one entry per non-blank line, numbered
    by its 1-based line; parse errors become skippable entries."""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        gid = f"{source}:{lineno}"
        try:
            yield CorpusEntry(gid, parse_graph6(line))
        except GraphFormatError as exc:
            yield CorpusEntry(gid, None, str(exc))


def _solvable(entries: Iterable[CorpusEntry],
              skipped: list[tuple[str, str]]) -> Iterator[tuple[str, Graph]]:
    """Yield ``(gid, graph)`` for each entry that ``check_solvable`` accepts;
    append ``(gid, reason)`` to ``skipped`` for every other one."""
    # A malformed cap setting is a usage error, not one skip per graph, so
    # it raises before the first entry (on an empty corpus too).
    cap = solver_cap_from_env()
    for entry in entries:
        if entry.graph is None:
            skipped.append((entry.gid, entry.error))
            continue
        try:
            _check_solvable(entry.graph, cap)
        except (GraphDomainError, SolverCapError) as exc:
            skipped.append((entry.gid, str(exc)))
            continue
        yield entry.gid, entry.graph


class BoundReport(NamedTuple):
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


def _solve_graph(item: tuple[str, Graph]) -> tuple[str, GraphFacts, int, int]:
    """Both game values and the bound inputs of one graph: the work a
    ``verify`` worker does."""
    gid, g = item
    solver = Solver._of_solvable(g)
    igt = solver.value(0, Player.DOMINATOR)
    return gid, GraphFacts.of(g), igt, solver.value(0, Player.STALLER)


class VerifyResult(NamedTuple):
    """The reports of a ``verify`` run in input order, its skipped entries
    as ``(gid, reason)``, and the number of reports with a failed check."""
    reports: list[BoundReport]
    skipped: list[tuple[str, str]]
    failures: int

    @property
    def exit_code(self) -> int:
        return 1 if self.failures else 0


def verify(entries: Iterable[CorpusEntry], bound_names: tuple[str, ...] | None = None,
           jobs: int = 1) -> VerifyResult:
    """Evaluate every parsed graph against the (filtered) bound set.

    Entries are consumed one at a time; solving is sharded across ``jobs``
    processes, at most the CPU count (so one CPU takes the serial path),
    and reports come back in input order either way. The bounds
    are evaluated once per distinct ``bounds.check_key`` in a run: reports
    with the same key share one ``checks`` tuple.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    specs = bounds_by_name(bound_names)  # fails fast on unknown names
    memo: dict[tuple, tuple[BoundCheck, ...]] = {}

    def report(solved: tuple[str, GraphFacts, int, int]) -> BoundReport:
        gid, facts, igt, igts = solved
        key = check_key(facts, igt, igts)
        checks = memo.get(key)
        if checks is None:
            checks = memo[key] = check_all(facts, igt, igts, specs)
        return BoundReport(gid=gid, n=facts.n, m=facts.m,
                           min_degree=facts.min_degree,
                           max_degree=facts.max_degree, diameter=facts.diameter,
                           igt=igt, igts=igts, checks=checks)

    skipped: list[tuple[str, str]] = []
    work = _solvable(entries, skipped)
    # The first graph is solved here, and a pool opens only once a second
    # one exists, so an error on the first graph, or a corpus with fewer than
    # two graphs to solve, never forks workers. No graph is bound to a name
    # on the serial path, so it holds one parsed graph at a time.
    try:
        reports = [report(_solve_graph(next(work)))]
    except StopIteration:
        return VerifyResult(reports=[], skipped=skipped, failures=0)
    second = next(work, None) if jobs > 1 else None
    if second is None:
        reports.extend(map(report, map(_solve_graph, work)))
    else:
        import multiprocessing  # here, so that a serial run never loads it
        with multiprocessing.Pool(jobs) as pool:
            reports.extend(map(report, pool.imap(
                _solve_graph, itertools.chain((second,), work), chunksize=64)))
    return VerifyResult(reports=reports, skipped=skipped,
                        failures=sum(r.failed for r in reports))


class ConjectureScan(NamedTuple):
    """Search for graphs beating two thirds of their order in the D-game."""
    counterexamples: list[tuple[str, int, int]]  # (gid, n, igt)
    checked: int
    skipped: list[tuple[str, str]]

    @property
    def exit_code(self) -> int:
        return 1 if self.counterexamples else 0


def _has_edge_component(g: Graph) -> bool:
    """Whether a graph with no isolated vertex has a component of order < 3.

    Such a component is a single edge: a vertex of degree 1 whose one
    neighbor has it as its one neighbor. The stored degrees and masks
    decide it, so a graph of minimum degree 2 or more costs one comparison."""
    if g.min_degree > 1:
        return False
    adj = g.adj
    for v, d in enumerate(g.degrees):
        if d == 1 and adj[adj[v].bit_length() - 1] == 1 << v:
            return True
    return False


def scan_conjecture(entries: Iterable[CorpusEntry]) -> ConjectureScan:
    """Flag every graph with igt > 2n/3 among solvable graphs whose
    components all have order at least 3 (others are skipped).

    The verdict is one null-window probe at ``floor(2n/3)``; the exact value
    is searched, on the same table, only for a counterexample."""
    counterexamples = []
    skipped: list[tuple[str, str]] = []
    checked = 0
    for gid, g in _solvable(entries, skipped):
        if _has_edge_component(g):
            skipped.append((gid, "has a component of order < 3"))
            continue
        solver = Solver._of_solvable(g)
        checked += 1
        if not solver.at_most(Player.DOMINATOR, 2 * g.n // 3):
            counterexamples.append((gid, g.n, solver.value(0, Player.DOMINATOR)))
    return ConjectureScan(counterexamples=counterexamples, checked=checked,
                          skipped=skipped)


class GapScan(NamedTuple):
    histogram: dict[int, int]
    witnesses: list[tuple[str, int]]  # the first ten attaining the max |gap|
    skipped: list[tuple[str, str]]

    @property
    def max_abs_gap(self) -> int:
        return max((abs(gap) for gap in self.histogram), default=0)

    @property
    def total(self) -> int:
        return sum(self.histogram.values())


def cp_scan(entries: Iterable[CorpusEntry]) -> GapScan:
    """Histogram of Staller-start minus Dominator-start values, and the first
    ten graphs in input order that attain the largest |gap|."""
    histogram: dict[int, int] = {}
    witnesses: list[tuple[str, int]] = []  # the first ten at the peak so far
    skipped: list[tuple[str, str]] = []
    for gid, g in _solvable(entries, skipped):
        solver = Solver._of_solvable(g)
        igt = solver.value(0, Player.DOMINATOR)
        gap = solver.value(0, Player.STALLER) - igt
        histogram[gap] = histogram.get(gap, 0) + 1
        peak = abs(witnesses[0][1]) if witnesses else 0
        if abs(gap) > peak:
            witnesses.clear()
        if abs(gap) >= peak and len(witnesses) < 10:
            witnesses.append((gid, gap))
    return GapScan(histogram=histogram, witnesses=witnesses, skipped=skipped)


class Diameter2Summary(NamedTuple):
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
        facts = GraphFacts.of(g)
        if not facts.connected:
            continue
        connected += 1
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


# A report object, one of its bound checks, a check's fraction and a skipped
# entry, as json.dump(..., indent=2) lays them out in the file.
_REPORT_TEMPLATE = """    {
      "id": %s,
      "n": %d,
      "m": %d,
      "delta": %d,
      "Delta": %d,
      "diam": %s,
      "igt": %d,
      "igtS": %d,
      "cp_gap": %d,
      "bounds": %s
    }"""
_CHECK_TEMPLATE = """        {
          "name": %s,
          "target": %s,
          "applicable": %s,
          "value": %s,
          "strict": %s,
          "pass": %s,
          "slack": %s
        }"""
_FRACTION_TEMPLATE = """{
            "num": %d,
            "den": %d
          }"""
_SKIPPED_TEMPLATE = """    {
      "id": %s,
      "reason": %s
    }"""
_LITERALS = {None: "null", True: "true", False: "false"}


def _fraction(value: Fraction | None) -> str:
    if value is None:
        return "null"
    return _FRACTION_TEMPLATE % (value.numerator, value.denominator)


def _encode_checks(checks: tuple[BoundCheck, ...]) -> str:
    """A report's ``"bounds"`` array as ``_REPORT_TEMPLATE`` places it."""
    if not checks:
        return "[]"
    return "[\n%s\n      ]" % ",\n".join([
        _CHECK_TEMPLATE % (json.dumps(check.name), json.dumps(check.target),
                           _LITERALS[check.applicable], _fraction(check.value),
                           _LITERALS[check.strict], _LITERALS[check.passed],
                           _fraction(check.slack))
        for check in checks])


def _write_array(stream: TextIO, items: Iterable[str]) -> None:
    """Write a top-level member's JSON array from its encoded items."""
    separator = "[\n"
    for item in items:
        stream.write(separator + item)
        separator = ",\n"
    stream.write("[]" if separator == "[\n" else "\n  ]")


def write_json_report(result: VerifyResult, stream: TextIO) -> None:
    """Write ``{"schema", "reports", "skipped", "summary"}`` with one object
    per report, its fields and ``"bounds"`` array as ``_REPORT_TEMPLATE``
    lays them out.

    The bytes equal ``json.dump(payload, stream, indent=2)`` followed by a
    newline. Each report is written as one string from templates; each
    distinct ``checks`` tuple's ``"bounds"`` array is encoded once per call,
    and strings go through ``json.dumps``, so non-ASCII text is escaped as
    ``json.dump`` escapes it.
    """
    bounds: dict[int, str] = {}  # id of a checks tuple -> its encoded array

    def encode(report: BoundReport) -> str:
        array = bounds.get(id(report.checks))
        if array is None:
            array = bounds[id(report.checks)] = _encode_checks(report.checks)
        diam = _diam_field(report.diameter)
        return _REPORT_TEMPLATE % (
            json.dumps(report.gid), report.n, report.m, report.min_degree,
            report.max_degree, "null" if diam is None else diam, report.igt,
            report.igts, report.cp_gap, array)

    stream.write('{\n  "schema": %d,\n  "reports": ' % REPORT_SCHEMA)
    _write_array(stream, map(encode, result.reports))
    stream.write(',\n  "skipped": ')
    _write_array(stream, (_SKIPPED_TEMPLATE % (json.dumps(gid), json.dumps(reason))
                          for gid, reason in result.skipped))
    stream.write(',\n  "summary": {\n    "graphs": %d,\n    "failures": %d\n  }\n}\n'
                 % (len(result.reports), result.failures))


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
