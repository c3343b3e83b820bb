"""Corpus verification, conjecture/gap scans, sampling, report formats."""

import csv
import io
import json
import multiprocessing
import os
import random
from fractions import Fraction

import pytest

from isogame.bounds import (BoundCheck, GraphFacts, bounds_by_name, check_all,
                            check_key)
from isogame.engine import Player
from isogame.errors import SolverCapError
from isogame.families import complete, cycle, disjoint_union, path
from isogame.graph import Graph
from isogame.graph6 import emit_graph6
from isogame.lab import (CSV_COLUMNS, BoundReport, CorpusEntry, VerifyResult,
                         _has_edge_component, cp_scan, diam2_sample,
                         load_graph6_corpus, scan_conjecture, verify,
                         write_csv_report, write_json_report)
from isogame.solver import Solver, solve, solve_both


def _corpus_text(graphs):
    return "".join(emit_graph6(g) + "\n" for g in graphs)


def test_load_corpus_skips_malformed_lines():
    text = _corpus_text([path(5), cycle(4)]) + "not graph6!!\n" \
        + _corpus_text([complete(4)])
    entries = list(load_graph6_corpus(io.StringIO(text), source="t"))
    assert len(entries) == 4
    assert [e.graph is None for e in entries] == [False, False, True, False]
    assert entries[2].error


def test_verify_small_batch():
    entries = list(load_graph6_corpus(
        io.StringIO(_corpus_text([path(5), cycle(4), cycle(5), complete(4)]))))
    result = verify(entries)
    assert result.failures == 0
    assert result.exit_code == 0
    assert [r.gid for r in result.reports] == [e.gid for e in entries]
    p5 = result.reports[0]
    assert (p5.igt, p5.igts, p5.cp_gap) == (2, 4, 2)


def test_corpus_runs_read_the_cap_once_and_check_each_graph_once(monkeypatch):
    """A corpus run reads the solver cap once and builds each accepted
    graph's solver without a second check; ``Solver(g)`` still reads the cap
    itself and refuses an over-cap graph with the same message."""
    import isogame.lab
    import isogame.solver
    real, calls = isogame.solver.solver_cap_from_env, []

    def counting():
        calls.append(None)
        return real()

    monkeypatch.setattr(isogame.lab, "solver_cap_from_env", counting)
    monkeypatch.setattr(isogame.solver, "solver_cap_from_env", counting)
    monkeypatch.setenv("ISOGAME_SOLVER_CAP", "6")
    text = _corpus_text([path(5), cycle(4), cycle(5), complete(4), path(7)])
    over_cap = ("corpus:5", "n=7 exceeds the solver cap 6; "
                "set ISOGAME_SOLVER_CAP to solve it anyway")
    for run in (verify, scan_conjecture, cp_scan):
        calls.clear()
        result = run(load_graph6_corpus(io.StringIO(text)))
        assert len(calls) == 1, run
        assert result.skipped == [over_cap]
    calls.clear()
    with pytest.raises(SolverCapError) as refused:
        Solver(path(7))
    assert (len(calls), str(refused.value)) == (1, over_cap[1])


def test_verify_malformed_lines_do_not_fail_the_run():
    text = _corpus_text([path(5)]) + "zz@@@\n"
    result = verify(load_graph6_corpus(io.StringIO(text)))
    assert len(result.reports) == 1
    assert len(result.skipped) == 1
    assert result.exit_code == 0


def test_verify_empty_corpus():
    result = verify([])
    assert result.reports == [] and result.exit_code == 0


def test_verify_parallel_matches_serial(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    graphs = [path(5), cycle(4), cycle(5), cycle(6), complete(4), complete(5),
              path(6), path(7), cycle(7), complete(6)]
    entries = list(load_graph6_corpus(io.StringIO(_corpus_text(graphs))))
    serial = verify(entries)
    parallel = verify(entries, jobs=2)
    assert [r.gid for r in serial.reports] == [e.gid for e in entries]
    assert parallel.reports == serial.reports


def test_verify_builds_no_pool_before_its_first_graph(monkeypatch):
    """A malformed cap, an empty corpus, a corpus with nothing solvable and
    a corpus with one solvable graph all finish before ``--jobs 2`` would
    fork its workers; a second solvable graph opens the pool."""
    class NoPool(Exception):
        pass

    def no_pool(*args, **kwargs):
        raise NoPool

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    unsolvable = CorpusEntry(gid="bad", graph=None, error="not graph6")
    assert verify([], jobs=2).reports == []
    result = verify([unsolvable], jobs=2)
    assert (result.reports, result.skipped) == ([], [("bad", "not graph6")])
    monkeypatch.setenv("ISOGAME_SOLVER_CAP", "many")
    with pytest.raises(SolverCapError, match="must be an integer"):
        verify([CorpusEntry(gid="c5", graph=cycle(5))], jobs=2)
    monkeypatch.delenv("ISOGAME_SOLVER_CAP")
    result = verify([CorpusEntry(gid="c5", graph=cycle(5)), unsolvable], jobs=2)
    assert [report.gid for report in result.reports] == ["c5"]
    assert result.skipped == [("bad", "not graph6")]
    with pytest.raises(NoPool):  # the patch is what a second graph reaches
        verify([CorpusEntry(gid="c5", graph=cycle(5)),
                CorpusEntry(gid="c6", graph=cycle(6))], jobs=2)


@pytest.mark.parametrize("cpus, jobs, opened", [
    (3, 5000, [3]), (3, 2, [2]), (2, 2, [2]), (1, 5000, []), (None, 2, []),
])
def test_verify_caps_jobs_at_the_cpu_count(monkeypatch, cpus, jobs, opened):
    """``jobs`` is capped at ``os.cpu_count() or 1``, and a cap of 1 takes
    the serial path. The pool is a fake that records its process count and
    maps in this process, so no worker is started."""
    recorded = []

    class FakePool:
        def __init__(self, processes):
            recorded.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, iterable, chunksize=1):
            return map(func, iterable)

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    entries = [CorpusEntry(gid=f"c{k}", graph=cycle(k)) for k in (4, 5, 6)]
    result = verify(entries, jobs=jobs)
    assert recorded == opened
    assert result.reports == verify(entries).reports
    assert [report.gid for report in result.reports] == ["c4", "c5", "c6"]


def test_verify_respects_cap(monkeypatch):
    monkeypatch.setenv("ISOGAME_SOLVER_CAP", "8")
    entries = load_graph6_corpus(io.StringIO(_corpus_text([path(9), path(5)])))
    result = verify(entries)
    assert len(result.reports) == 1
    assert len(result.skipped) == 1


def test_verify_skips_unsolvable_graphs():
    # a 1-vertex graph and a graph with an isolated vertex have no game value
    text = _corpus_text([path(1), Graph(3, [(0, 1)]), path(5)])
    result = verify(load_graph6_corpus(io.StringIO(text)))
    assert len(result.reports) == 1
    assert len(result.skipped) == 2
    assert result.exit_code == 0


def test_verify_bound_filter():
    entries = list(load_graph6_corpus(io.StringIO(_corpus_text([cycle(5)]))))
    result = verify(entries, bound_names=("T41",))
    assert [c.name for c in result.reports[0].checks] == ["T41"]
    assert verify(entries, bound_names=()).reports[0].checks == ()


def test_corpus_commands_skip_each_entry_with_the_same_reason(monkeypatch):
    monkeypatch.setenv("ISOGAME_SOLVER_CAP", "8")
    text = "zz@@@\n" + _corpus_text([path(1), Graph(3, [(0, 1)]), path(9),
                                     path(5)])
    entries = list(load_graph6_corpus(io.StringIO(text), source="t"))
    skipped = verify(entries).skipped
    assert [gid for gid, _ in skipped] == ["t:1", "t:2", "t:3", "t:4"]
    assert skipped[0][1] == entries[0].error
    assert "at least 2 vertices" in skipped[1][1]
    assert "isolate-free" in skipped[2][1]
    assert "solver cap 8" in skipped[3][1]
    assert scan_conjecture(entries).skipped == skipped
    assert cp_scan(entries).skipped == skipped


def test_scan_conjecture_extremal_families_not_counterexamples():
    g1 = disjoint_union([path(3), cycle(3)])
    g2 = disjoint_union([path(6), cycle(6)])
    scan = scan_conjecture([CorpusEntry("a", g1), CorpusEntry("b", g2)])
    assert scan.counterexamples == []
    assert scan.checked == 2


def test_scan_conjecture_skips_small_components():
    g = disjoint_union([complete(2), cycle(4)])
    scan = scan_conjecture([CorpusEntry("k2c4", g)])
    assert scan.checked == 0
    assert scan.skipped and "order < 3" in scan.skipped[0][1]


def _star(leaves):
    return Graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def _has_small_component(g):
    return any(comp.bit_count() < 3 for comp in g.components)


def test_edge_component_test_matches_the_components(corpus_graphs):
    """The degree test for a component of order < 3 agrees with the
    components on every corpus graph and on relabelled isolate-free unions
    of K2, P3, stars and cycles."""
    for g in corpus_graphs:
        assert _has_edge_component(g) is _has_small_component(g)
    rng = random.Random(47)
    parts = [complete(2), path(3), _star(3), _star(4), cycle(3), cycle(5), path(4)]
    seen = set()
    for _ in range(500):
        g = disjoint_union([rng.choice(parts) for _ in range(rng.randint(1, 4))])
        order = list(range(g.n))
        rng.shuffle(order)
        g = Graph(g.n, [(order[u], order[v]) for u, v in g.edges])
        assert _has_edge_component(g) is _has_small_component(g)
        seen.add(_has_edge_component(g))
    assert seen == {False, True}


def test_scan_conjecture_reports_the_exact_value_of_a_counterexample(monkeypatch):
    """No corpus graph fails the probe, so a probe forced to fail stands in
    for one: the scan still records the exact Dominator-start value."""
    monkeypatch.setattr(Solver, "at_most", lambda self, mover, k: False)
    graphs = [("p5", path(5)), ("c6", cycle(6)),
              ("p3c3", disjoint_union([path(3), cycle(3)]))]
    scan = scan_conjecture([CorpusEntry(gid, g) for gid, g in graphs])
    assert scan.counterexamples == [(gid, g.n, solve(g).total_moves)
                                    for gid, g in graphs]
    assert scan.checked == 3 and scan.exit_code == 1


def test_cp_scan_histogram():
    graphs = [("p5", path(5)), ("k3", complete(3)), ("k5", complete(5)),
              ("c5", cycle(5))]
    scan = cp_scan([CorpusEntry(gid, g) for gid, g in graphs])
    assert scan.total == 4
    assert scan.histogram[2] == 1    # the path
    assert scan.histogram[0] == 2    # the complete graphs
    assert scan.histogram[-1] == 1   # the 5-cycle
    assert scan.max_abs_gap == 2
    assert [gid for gid, _ in scan.witnesses] == ["p5"]


def test_cp_scan_witnesses_follow_a_growing_peak_in_input_order():
    # |gap| runs 0, 1, 1, 2, 0, 2: the peak grows twice mid-corpus
    graphs = [("k3", complete(3)), ("c5", cycle(5)), ("c5b", cycle(5)),
              ("p5", path(5)), ("k4", complete(4)), ("p5b", path(5))]
    scan = cp_scan(CorpusEntry(gid, g) for gid, g in graphs)
    assert scan.witnesses == [("p5", 2), ("p5b", 2)]
    flat = cp_scan([CorpusEntry("k3", complete(3)), CorpusEntry("k4", complete(4))])
    assert flat.witnesses == [("k3", 0), ("k4", 0)]


def test_cp_scan_keeps_the_first_ten_witnesses_at_the_peak():
    # Twelve graphs reach |gap| 1, then twelve more reach 2 between graphs
    # of gap 0: the list restarts at the new peak and stops at ten.
    graphs = [(f"c5-{k}", cycle(5)) for k in range(12)]
    for k in range(12):
        graphs += [(f"k3-{k}", complete(3)), (f"p5-{k}", path(5))]
    scan = cp_scan(CorpusEntry(gid, g) for gid, g in graphs)
    assert scan.histogram == {-1: 12, 0: 12, 2: 12}
    assert scan.witnesses == [(f"p5-{k}", 2) for k in range(10)]
    assert cp_scan(CorpusEntry(gid, g) for gid, g in graphs[:12]).witnesses \
        == [(f"c5-{k}", -1) for k in range(10)]


def test_load_corpus_reads_one_line_per_entry():
    read = []

    def lines():
        for text in (emit_graph6(path(5)), "bad", emit_graph6(cycle(5))):
            read.append(text)
            yield text + "\n"

    entries = load_graph6_corpus(lines(), source="t")
    assert read == []
    assert next(entries).gid == "t:1" and len(read) == 1
    assert next(entries).error and len(read) == 2


def test_diam2_sampling_checks_the_two_thirds_bound():
    summary = diam2_sample(n=10, p=0.5, trials=200, seed=1)
    assert summary.violations == []
    assert 0.0 <= summary.fraction_diameter2 <= 1.0
    assert summary.checked > 0
    assert summary.exit_code == 0


@pytest.mark.parametrize("failing", [set(Player), {Player.STALLER}])
def test_diam2_violation_carries_both_exact_values(monkeypatch, failing):
    """A probe forced to fail for either start makes a violation whose line
    carries both exact values; the samples are the ones the probe saw."""
    probed = []

    def at_most(self, mover, k):
        if mover is Player.DOMINATOR:
            probed.append(self.graph)
        return mover not in failing

    monkeypatch.setattr(Solver, "at_most", at_most)
    summary = diam2_sample(n=8, p=0.5, trials=30, seed=3)
    assert summary.checked == len(probed) > 0
    assert summary.exit_code == 1
    expected = []
    for g in probed:
        igt, igts = solve_both(g)
        expected.append(f"n={g.n} igt={igt} igtS={igts} exceeds 2n/3")
    assert [line.split(": ", 1)[1] for line in summary.violations] == expected


def test_diam2_sampling_near_complete():
    summary = diam2_sample(n=5, p=0.99, trials=20, seed=2)
    assert summary.violations == []
    assert 0.0 <= summary.fraction_diameter2 <= 1.0


def test_json_report_schema():
    entries = load_graph6_corpus(io.StringIO(_corpus_text([cycle(5)])))
    result = verify(entries)
    stream = io.StringIO()
    write_json_report(result, stream)
    payload = json.loads(stream.getvalue())
    assert payload["schema"] == 1
    assert payload["summary"] == {"graphs": 1, "failures": 0}
    row = payload["reports"][0]
    assert row["igt"] == 3 and row["igtS"] == 2 and row["cp_gap"] == -1
    t31 = next(b for b in row["bounds"] if b["name"] == "T31")
    assert t31["value"] == {"num": 15, "den": 4} and t31["pass"] is True


def test_csv_report_columns():
    entries = load_graph6_corpus(io.StringIO(_corpus_text([cycle(5), path(5)])))
    result = verify(entries)
    stream = io.StringIO()
    write_csv_report(result, stream)
    rows = list(csv.reader(io.StringIO(stream.getvalue())))
    assert rows[0] == CSV_COLUMNS
    body = rows[1:]
    assert all(len(row) == len(CSV_COLUMNS) for row in body)
    # the path has min degree 1: only T41/T42 apply to it
    p5_rows = [row for row in body if row[0].endswith(":2")]
    assert sorted(row[9] for row in p5_rows) == ["T41", "T42"]


@pytest.fixture(scope="module")
def corpus_slice(corpus_entries):
    """A seeded sample of corpus entries, in corpus order."""
    picked = sorted(random.Random(14).sample(range(len(corpus_entries)), 300))
    return [corpus_entries[i] for i in picked]


def _fraction_to_dict(value):
    return None if value is None else {"num": value.numerator, "den": value.denominator}


def report_to_dict(report):
    """A report as a plain object, the reference for the JSON writer's bytes."""
    return {
        "id": report.gid,
        "n": report.n,
        "m": report.m,
        "delta": report.min_degree,
        "Delta": report.max_degree,
        "diam": None if report.diameter == float("inf") else int(report.diameter),
        "igt": report.igt,
        "igtS": report.igts,
        "cp_gap": report.cp_gap,
        "bounds": [
            {
                "name": check.name,
                "target": check.target,
                "applicable": check.applicable,
                "value": _fraction_to_dict(check.value),
                "strict": check.strict,
                "pass": check.passed,
                "slack": _fraction_to_dict(check.slack),
            }
            for check in report.checks
        ],
    }


def _reference_json(result):
    payload = {
        "schema": 1,
        "reports": [report_to_dict(report) for report in result.reports],
        "skipped": [{"id": gid, "reason": reason} for gid, reason in result.skipped],
        "summary": {"graphs": len(result.reports), "failures": result.failures},
    }
    return json.dumps(payload, indent=2) + "\n"


def _written(writer, result):
    stream = io.StringIO()
    writer(result, stream)
    return stream.getvalue()


def _unmemoized(result, entries, bound_names=None):
    """The reports of ``result`` with every ``checks`` evaluated afresh."""
    specs = bounds_by_name(bound_names)
    graphs = {entry.gid: entry.graph for entry in entries}
    return [report._replace(checks=check_all(
                GraphFacts.of(graphs[report.gid]), report.igt, report.igts, specs))
            for report in result.reports]


def _result(reports, skipped):
    """A hand-built ``VerifyResult`` that counts its failures as ``verify`` does."""
    return VerifyResult(reports=reports, skipped=skipped,
                        failures=sum(report.failed for report in reports))


def _failing_report():
    failing = BoundCheck(name="T41", target="igt", applicable=True,
                         value=Fraction(5, 2), strict=True, passed=False,
                         slack=Fraction(-1, 2))
    return BoundReport(gid="hand\u00e9", n=3, m=2, min_degree=1, max_degree=2,
                       diameter=2.0, igt=3, igts=2, checks=(failing,))


def test_json_report_bytes_match_json_dump(corpus_slice):
    odd = _corpus_text([path(5), disjoint_union([path(3), cycle(3)]),
                        disjoint_union([cycle(4), cycle(4)])]) \
        + "zz@@@\n\ufffd\ufffd\n@\n"
    odd_result = verify(load_graph6_corpus(io.StringIO(odd), source="odd\u00e9"))
    assert [r["diam"] for r in map(report_to_dict, odd_result.reports)] \
        == [4, None, None]
    assert any("\ufffd" in reason for _, reason in odd_result.skipped)
    results = [
        verify(corpus_slice),
        verify(corpus_slice, bound_names=("T41", "T42")),
        verify(corpus_slice[:5], bound_names=()),
        _result([], []),
        odd_result,
        _result(odd_result.reports[:1] + [_failing_report()], odd_result.skipped),
    ]
    assert results[-1].failures == 1
    for result in results:
        text = _written(write_json_report, result)
        assert text == _reference_json(result)
        assert text.isascii()


def test_csv_report_is_unchanged_by_the_check_memo(corpus_slice):
    for names in (None, ("T41", "T42")):
        result = verify(corpus_slice, bound_names=names)
        fresh = _result(_unmemoized(result, corpus_slice, names), result.skipped)
        assert _written(write_csv_report, result) == _written(write_csv_report, fresh)


def test_verify_checks_equal_unmemoized_checks_under_each_filter(corpus_slice):
    """Two runs with different filters in one process: a memo that outlived
    a run or ignored its filter would hand one run the other's checks."""
    graphs = {entry.gid: entry.graph for entry in corpus_slice}
    for names in (None, ("T41", "T42"), ("T36",), None):
        result = verify(corpus_slice, bound_names=names)
        assert [r.checks for r in result.reports] \
            == [r.checks for r in _unmemoized(result, corpus_slice, names)]
        keys = {check_key(GraphFacts.of(graphs[r.gid]), r.igt, r.igts)
                for r in result.reports}
        assert len({id(r.checks) for r in result.reports}) == len(keys) < len(result.reports)
