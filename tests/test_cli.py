"""CLI surface: subcommands, graph inputs, exit codes."""

import argparse
import gc
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from isogame import cli
from isogame.cli import main
from isogame.families import complete, cycle, path
from isogame.graph6 import emit_graph6


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_family_shorthand(capsys):
    code, out, _ = run(capsys, "solve", "P5")
    assert code == 0
    assert out.strip() == "igt=2 pv=[v3,v2]"


def test_solve_staller_start(capsys):
    code, out, _ = run(capsys, "solve", "P5", "--staller-start")
    assert code == 0
    assert out.startswith("igtS=4")


def test_gen_pipe_solve(capsys):
    code, out, _ = run(capsys, "gen", "C6", "--graph6")
    assert code == 0
    line = out.strip()
    code, out, _ = run(capsys, "solve", "--g6", line)
    assert code == 0
    assert out.startswith("igt=4")


def test_solve_g6_stdin(capsys, monkeypatch):
    data = emit_graph6(cycle(6)).encode() + b"\n"
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    code, out, _ = run(capsys, "solve", "--g6", "-")
    assert code == 0
    assert out.startswith("igt=4")


def test_solve_g6_stdin_non_ascii_is_format_error(capsys, monkeypatch):
    """``--g6 -`` decodes stdin as the corpus commands do, whatever the
    interpreter's own stdin encoding: an undecodable byte becomes U+FFFD,
    which the graph6 parser rejects."""
    monkeypatch.setattr("sys.stdin",
                        io.TextIOWrapper(io.BytesIO(b"\xff\n"), encoding="utf-8"))
    code, out, err = run(capsys, "solve", "--g6", "-")
    assert (code, out) == (2, "")
    assert err == "error: illegal size byte '\ufffd' (byte 0)\n"


def test_solve_edge_list_file(capsys, tmp_path):
    target = tmp_path / "p5.txt"
    target.write_text("5\n0 1\n1 2\n2 3\n3 4\n")
    code, out, _ = run(capsys, "solve", "--edge-list", str(target))
    assert code == 0
    assert out.startswith("igt=2")


@pytest.mark.parametrize("command", [("solve",),
                                     ("simulate", "--dom", "greedy",
                                      "--staller", "random")])
def test_non_ascii_edge_list_is_format_error(capsys, tmp_path, command):
    target = tmp_path / "bad.txt"
    target.write_bytes(b"3\n0 1\n1 \xc3\xa92\n")
    code, out, err = run(capsys, *command, "--edge-list", str(target))
    assert code == 2
    assert out == ""
    assert "error: line 3: non-integer endpoint" in err


def test_solve_requires_exactly_one_input(capsys):
    code, _, err = run(capsys, "solve")
    assert code == 2
    assert "exactly one graph input" in err


def test_unknown_family_is_usage_error(capsys):
    code, _, err = run(capsys, "solve", "Q7")
    assert code == 2
    assert "family" in err


def test_simulate_reports_trace(capsys):
    code, out, _ = run(capsys, "simulate", "C6", "--dom", "greedy",
                       "--staller", "extremal")
    assert code == 0
    assert out.strip().endswith("t=4")
    assert "stage" in out


def _pinned_simulations():
    """(argv, stdout, stderr, exit code) per block of the pinned traces, each
    captured before the forced search keyed on the unmarked set: a
    ``$ isogame`` line, its stdout, stderr lines prefixed ``! ``, ``exit N``."""
    blocks = []
    text = (Path(__file__).parent / "data" / "simulate_traces.txt").read_text()
    for block in text.split("$ isogame ")[1:]:
        command, *lines = block.splitlines()
        *output, code = lines
        out = "".join(line + "\n" for line in output if not line.startswith("! "))
        err = "".join(line[2:] + "\n" for line in output if line.startswith("! "))
        blocks.append(pytest.param(command.split(), out, err,
                                   int(code.removeprefix("exit ")), id=command))
    return blocks


@pytest.mark.parametrize("argv, out, err, code", _pinned_simulations())
def test_simulate_traces_are_pinned(capsys, argv, out, err, code):
    """Greedy, modified greedy, random (seed rule) and optimal Dominators
    against Staller's best response, greedy and random against the
    extremal Staller (fallback notes), and Dominator's best response
    against the extremal and random Stallers print byte-identical traces."""
    assert run(capsys, *argv) == (code, out, err)


def test_simulate_unknown_strategy_lists_names(capsys):
    code, _, err = run(capsys, "simulate", "C6", "--dom", "nope",
                       "--staller", "extremal")
    assert code == 2
    assert "greedy" in err and "extremal" in err


def test_simulate_double_best_response_rejected(capsys):
    code, _, err = run(capsys, "simulate", "C6", "--dom", "best-response",
                       "--staller", "best-response")
    assert code == 2
    assert "best-response" in err


def test_verify_corpus_file(capsys, tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_text("".join(emit_graph6(g) + "\n"
                              for g in (path(5), cycle(5), cycle(6))))
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", str(corpus), "--out", str(out_file))
    assert code == 0
    assert "0 failures" in out
    payload = json.loads(out_file.read_text())
    assert payload["schema"] == 1
    assert len(payload["reports"]) == 3


def test_verify_reports_a_failed_bound(capsys, tmp_path, monkeypatch):
    """A bound ``X`` of 1 on the Staller-start game fails on every connected
    graph with n >= 3, whose value is at least 2, and does not apply to the
    disconnected P3+C6, so three of the four graphs fail."""
    import isogame.bounds
    from fractions import Fraction
    from isogame.families import disjoint_union
    from isogame.lab import load_graph6_corpus, verify
    bounds = isogame.bounds.BOUNDS
    monkeypatch.setattr(isogame.bounds, "BOUNDS", bounds + (
        bounds[-1]._replace(name="X", value=lambda f: Fraction(1)),))
    corpus = tmp_path / "c.g6"
    corpus.write_text("".join(emit_graph6(g) + "\n" for g in (
        path(5), disjoint_union([path(3), cycle(6)]), cycle(5), complete(4))))
    expected = [f"{corpus}:1 n=5 igt=2 igtS=4 FAIL X",
                f"{corpus}:2 n=9 igt=6 igtS=6 ok",
                f"{corpus}:3 n=5 igt=3 igtS=2 FAIL X",
                f"{corpus}:4 n=4 igt=2 igtS=2 FAIL X",
                "verified 4 graphs, 3 failures, 0 skipped"]
    json_file, csv_file = tmp_path / "r.json", tmp_path / "r.csv"
    for out_file in (json_file, csv_file):
        code, out, err = run(capsys, "verify", str(corpus), "--out", str(out_file))
        assert (code, out.splitlines(), err) == (1, expected, ""), out_file
    failed = [(f"{corpus}:{k}", "X") for k in (1, 3, 4)]
    payload = json.loads(json_file.read_text())
    assert payload["summary"] == {"graphs": 4, "failures": 3}
    assert [(r["id"], c["name"]) for r in payload["reports"] for c in r["bounds"]
            if c["applicable"] and not c["pass"]] == failed
    rows = [line.split(",") for line in csv_file.read_text().splitlines()[1:]]
    assert [(row[0], row[9]) for row in rows if row[-1] == "0"] == failed
    assert {row[-1] for row in rows} == {"0", "1"}
    with open(corpus) as lines:
        result = verify(load_graph6_corpus(lines))
    assert result.failures == sum(
        any(c.applicable and not c.passed for c in report.checks)
        for report in result.reports) == 3
    assert result.exit_code == 1


def test_verify_malformed_line_warns_but_passes(capsys, tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_text(emit_graph6(path(5)) + "\n@@@bad@@@\n")
    code, out, err = run(capsys, "verify", str(corpus))
    assert code == 0
    assert "skipped" in err or "skipped" in out


def test_verify_non_ascii_line_warns_but_passes(capsys, tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_bytes(emit_graph6(path(5)).encode() + b"\n\xc3\xa9\xff\n")
    for command in ("verify", "scan-conjecture", "cp-scan"):
        code, _, err = run(capsys, command, str(corpus))
        assert code == 0, command
        assert f"skipped {corpus}:2:" in err, command


def test_corpus_commands_print_the_same_skip_lines(capsys, tmp_path, monkeypatch):
    from isogame.graph import Graph
    monkeypatch.setenv("ISOGAME_SOLVER_CAP", "8")
    corpus = tmp_path / "c.g6"
    corpus.write_text("zz@@@\n" + "".join(
        emit_graph6(g) + "\n"
        for g in (path(1), Graph(3, [(0, 1)]), path(9), cycle(5))))
    errs = []
    for command in ("verify", "scan-conjecture", "cp-scan"):
        code, _, err = run(capsys, command, str(corpus))
        assert code == 0, command
        errs.append(err)
    lines = errs[0].splitlines()
    assert len(lines) == 4
    for k, line in enumerate(lines, start=1):
        assert line.startswith(f"warning: skipped {corpus}:{k}: ")
    assert errs == [errs[0]] * 3


def test_verify_stdin_non_ascii_line_warns_but_passes(capsys, monkeypatch):
    data = emit_graph6(path(5)).encode() + b"\n\xff\n"
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    code, out, err = run(capsys, "verify", "-")
    assert code == 0
    assert "verified 1 graphs" in out
    assert "skipped stdin:2:" in err


def test_verify_unknown_bound_is_usage_error(capsys, tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_text(emit_graph6(path(5)) + "\n")
    code, _, err = run(capsys, "verify", str(corpus), "--bounds", "T99")
    assert code == 2
    assert "error: unknown bound(s) T99;" in err


@pytest.mark.parametrize("argv", [
    ("diam2", "--n", "8", "--p", "0.5", "--trials", "-4"),
    ("diam2", "--n", "8", "--p", "1.7", "--trials", "3"),
    ("diam2", "--n", "8", "--p", "-0.1", "--trials", "3"),
    ("verify", "unused.g6", "--jobs", "0"),
    ("verify", "unused.g6", "--jobs", "-3"),
    ("diam2", "--n", "8", "--p", "0.5", "--trials", "0"),
    ("diam2", "--n", "0", "--p", "0.5", "--trials", "3"),
])
def test_out_of_range_arguments_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must" in err


def test_verify_csv_output(capsys, tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_text(emit_graph6(cycle(5)) + "\n")
    out_file = tmp_path / "report.csv"
    code, _, _ = run(capsys, "verify", str(corpus), "--out", str(out_file))
    assert code == 0
    header = out_file.read_text().splitlines()[0]
    assert header == "id,n,m,delta,Delta,diam,igt,igtS,cp_gap,bound,value_num,value_den,strict,pass"
    # A bound named twice is reported once, in CSV and in JSON.
    for suffix in ("csv", "json"):
        once, twice = tmp_path / f"once.{suffix}", tmp_path / f"twice.{suffix}"
        for names, target in ((["T36"], once), (["T36", "T36"], twice)):
            code, _, _ = run(capsys, "verify", str(corpus), "--bounds", *names,
                             "--out", str(target))
            assert code == 0
        assert twice.read_text() == once.read_text()
    assert len((tmp_path / "once.csv").read_text().splitlines()) == 2


def test_reports_accept_a_non_ascii_corpus_path(capsys, tmp_path):
    corpus = tmp_path / "c\u00e9.g6"
    corpus.write_text(emit_graph6(cycle(5)) + "\n")
    csv_file, json_file = tmp_path / "r.csv", tmp_path / "r.json"
    for out_file in (csv_file, json_file):
        code, _, _ = run(capsys, "verify", str(corpus), "--out", str(out_file))
        assert code == 0, out_file
    assert f"{corpus}:1," in csv_file.read_text(encoding="utf-8")
    assert json_file.read_bytes().isascii()
    assert json.loads(json_file.read_text())["reports"][0]["id"] == f"{corpus}:1"


def test_verify_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/corpus.g6")
    assert code == 2
    assert "error" in err
    assert run(capsys, "verify", "/nonexistent/corpus.g6", "--jobs", "2") \
        == (2, "", err)


def test_verify_opens_the_report_before_solving(capsys, tmp_path):
    """An unusable ``--out`` path fails before any graph is solved or any
    report line printed; a missing corpus still fails first, and creates no
    report file. A report written over its own corpus is written after the
    whole corpus is read, as before."""
    corpus = tmp_path / "c.g6"
    corpus.write_text("".join(emit_graph6(g) + "\n" for g in (path(5), cycle(5))))
    target = tmp_path / "missing" / "r.json"
    code, out, err = run(capsys, "verify", str(corpus), "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"
    report = tmp_path / "r.json"
    code, out, err = run(capsys, "verify", "/nonexistent/corpus.g6", "--out", str(report))
    assert (code, out) == (2, "")
    assert err == "error: [Errno 2] No such file or directory: '/nonexistent/corpus.g6'\n"
    assert not report.exists()
    code, out, _ = run(capsys, "verify", str(corpus), "--out", str(corpus))
    assert (code, out.splitlines()[-1]) == (0, "verified 2 graphs, 0 failures, 0 skipped")
    assert json.loads(corpus.read_text())["summary"]["graphs"] == 2


def test_verify_writes_a_report_to_a_pipe(tmp_path):
    """A report target that cannot seek, such as a pipe, is written as is."""
    import isogame
    corpus = tmp_path / "c.g6"
    corpus.write_text(emit_graph6(path(5)) + "\n")
    env = dict(os.environ, PYTHONPATH=str(Path(isogame.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "isogame.cli", "verify", str(corpus), "--out", "/dev/stdout"],
        env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert '"summary": {\n    "graphs": 1,' in done.stdout


def test_verify_writes_a_report_to_a_device(capsys, tmp_path):
    """A report target that is not a regular file, such as ``os.devnull``,
    is written without being emptied, and the run ends with its summary."""
    corpus = tmp_path / "c.g6"
    corpus.write_text("".join(emit_graph6(g) + "\n" for g in (path(5), cycle(5))))
    code, out, err = run(capsys, "verify", str(corpus), "--out", os.devnull)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "verified 2 graphs, 0 failures, 0 skipped"


@pytest.mark.parametrize("argv, cap, message", [
    (("K100000",), None, "n=100000 exceeds the solver cap 20; "
     "set ISOGAME_SOLVER_CAP to solve it anyway"),
    (("P3+K100000",), None, "n=100003 exceeds the solver cap 20; "
     "set ISOGAME_SOLVER_CAP to solve it anyway"),
    (("--edge-list", "{big}"), None, "n=99999999999 exceeds the solver cap 20; "
     "set ISOGAME_SOLVER_CAP to solve it anyway"),
    (("K100000",), "1000000000", "n=100000 exceeds 500, half of Python's "
     "recursion limit 1000; the search recurses once per move"),
], ids=["shorthand", "union", "edge-list", "raised-cap"])
def test_solve_refuses_an_order_over_the_cap_before_building(tmp_path, argv, cap,
                                                             message):
    """``solve`` compares the shorthand's or edge list's order with the cap
    before building the graph, so in a child process limited to 512 MiB of
    address space it exits 2 with the cap's message, not out of memory."""
    import isogame
    big = tmp_path / "big.txt"
    big.write_text("99999999999\n")
    env = dict(os.environ, PYTHONPATH=str(Path(isogame.__file__).parents[1]))
    if cap is not None:
        env["ISOGAME_SOLVER_CAP"] = cap
    probe = ("import resource, sys; "
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29)); "
             "from isogame.cli import main; sys.exit(main(sys.argv[1:]))")
    done = subprocess.run(
        [sys.executable, "-c", probe, "solve", *(a.format(big=big) for a in argv)],
        env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("simulate", "K100000", "--dom", "greedy", "--staller", "random"),
     "n=100000 exceeds the order limit 1024"),
    (("simulate", "--edge-list", "{big}", "--dom", "greedy", "--staller", "random"),
     "vertex count 99999999999 exceeds the order limit 1024"),
    (("gen", "K100000"), "n=100000 exceeds the order limit 1024"),
    (("gen", "P3+K100000", "--graph6"), "n=100003 exceeds the order limit 1024"),
    (("gen", "random", "--n", "100000"), "n=100000 exceeds the order limit 1024"),
    (("diam2", "--n", "100000", "--p", "0.5", "--trials", "1"),
     "n=100000 exceeds the order limit 1024"),
], ids=["simulate", "simulate-edge-list", "gen", "gen-union", "gen-random", "diam2"])
def test_commands_refuse_an_order_over_the_limit_before_building(tmp_path, argv,
                                                                 message):
    """Every command that builds a graph from a shorthand, an edge list's
    header or a random order checks ``ORDER_LIMIT`` first, so in a child
    process limited to 512 MiB of address space it exits 2 with the limit's
    message, not out of memory."""
    import isogame
    big = tmp_path / "big.txt"
    big.write_text("99999999999\n")
    env = dict(os.environ, PYTHONPATH=str(Path(isogame.__file__).parents[1]))
    probe = ("import resource, sys; "
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29)); "
             "from isogame.cli import main; sys.exit(main(sys.argv[1:]))")
    done = subprocess.run(
        [sys.executable, "-c", probe, *(a.format(big=big) for a in argv)],
        env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: {message}\n"


def test_the_order_limit_admits_its_own_order_and_no_more(capsys, tmp_path):
    from isogame.graph import ORDER_LIMIT
    code, out, _ = run(capsys, "gen", f"P{ORDER_LIMIT - 3}+C3")
    assert code == 0 and out.startswith(f"{ORDER_LIMIT}\n")
    edges = tmp_path / "e.txt"
    edges.write_text(f"{ORDER_LIMIT}\n0 1\n")
    code, _, err = run(capsys, "simulate", "--edge-list", str(edges),
                       "--dom", "greedy", "--staller", "random")
    assert (code, err) == (2, "error: the game is defined on isolate-free graphs only\n")
    code, out, _ = run(capsys, "gen", f"P{ORDER_LIMIT + 1}")
    assert code == 2 and out == ""
    # More digits than int() converts by default.
    code, _, err = run(capsys, "solve", "P3+K" + "9" * 5000)
    assert (code, err) == (2, "error: a term's order of 5000 digits exceeds "
                              f"the order limit {ORDER_LIMIT}\n")


@pytest.mark.parametrize("command", ["verify", "scan-conjecture", "cp-scan"])
def test_corpus_commands_hold_one_parsed_graph_at_a_time(capsys, tmp_path,
                                                         monkeypatch, command):
    import isogame.lab as lab_module
    graphs = [path(5), cycle(5), complete(4), cycle(6), path(6), complete(5)]
    corpus = tmp_path / "c.g6"
    corpus.write_text("".join(emit_graph6(g) + "\n" for g in graphs))
    parse = lab_module.parse_graph6
    parsed, alive = [], []

    def tracked_parse(line):
        gc.collect()
        alive.append(sum(ref() is not None for ref in parsed))
        g = parse(line)
        parsed.append(weakref.ref(g))
        return g

    monkeypatch.setattr(lab_module, "parse_graph6", tracked_parse)
    code, _, _ = run(capsys, command, str(corpus))
    assert code == 0
    assert len(alive) == len(graphs)
    assert max(alive) <= 1, alive


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    import isogame.cli as cli_module

    def broken(name):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(cli_module, "from_shorthand", broken)
    code, out, err = run(capsys, "solve", "P5")
    assert (code, out) == (2, "")
    assert err == "error: internal error: ZeroDivisionError: boom\n"


def test_graph_deeper_than_the_recursion_limit_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("ISOGAME_SOLVER_CAP", "5000")
    code, out, err = run(capsys, "solve", "P1200")
    assert (code, out) == (2, "")
    assert err.startswith("error: n=1200 ")
    assert "recursion limit" in err and "internal error" not in err


def test_scan_conjecture_clean_corpus(capsys, tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_text("".join(emit_graph6(g) + "\n" for g in (cycle(5), path(5))))
    code, out, _ = run(capsys, "scan-conjecture", str(corpus))
    assert code == 0
    assert "no counterexample" in out


def test_scan_conjecture_flags_findings_loudly(capsys, tmp_path, monkeypatch):
    """A hit must exit 1 with an unmissable banner, not fail silently."""
    import isogame.cli as cli_module
    from isogame.lab import ConjectureScan

    fake = ConjectureScan(counterexamples=[("x:1", 9, 7)], checked=1, skipped=[])
    monkeypatch.setattr(cli_module, "scan_conjecture",
                        lambda entries: fake)
    corpus = tmp_path / "c.g6"
    corpus.write_text(emit_graph6(cycle(5)) + "\n")
    code, out, _ = run(capsys, "scan-conjecture", str(corpus))
    assert code == 1
    assert "COUNTEREXAMPLE" in out
    assert "x:1" in out


def test_verify_jobs_flag(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    corpus = tmp_path / "c.g6"
    corpus.write_text("".join(emit_graph6(g) + "\n"
                              for g in (path(5), cycle(5), cycle(6), path(7))))
    code, out, _ = run(capsys, "verify", str(corpus), "--jobs", "2")
    assert code == 0
    assert "0 failures" in out


def test_cp_scan_shows_histogram(capsys, tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_text((emit_graph6(cycle(5)) + "\n" + emit_graph6(path(5)) + "\n") * 12)
    code, out, _ = run(capsys, "cp-scan", str(corpus))
    assert code == 0
    assert "gap +2: 12 graphs" in out
    # The first ten graphs at the peak, all of those that cp_scan keeps.
    assert out.splitlines()[-1] == "max |igtS - igt| = 2; witnesses: " \
        + ", ".join(f"{corpus}:{line}" for line in range(2, 21, 2))


def test_diam2_subcommand(capsys):
    code, out, _ = run(capsys, "diam2", "--n", "8", "--p", "0.6",
                       "--trials", "30", "--seed", "1")
    assert code == 0
    assert "fraction=" in out


def test_diam2_over_the_cap_is_usage_error(capsys):
    code, out, err = run(capsys, "diam2", "--n", "25", "--p", "0.9",
                         "--trials", "3")
    assert code == 2
    assert out == ""
    assert err == ("error: n=25 exceeds the solver cap 20; "
                   "set ISOGAME_SOLVER_CAP to solve it anyway\n")


@pytest.mark.parametrize("argv", [("--n", "25", "--p", "0.05", "--trials", "3"),
                                  ("--n", "10", "--p", "0", "--trials", "5")])
def test_diam2_that_checks_nothing_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "diam2", *argv)
    assert code == 2
    assert out.endswith(" checked=0\n")
    assert err.startswith("error: no sample met T36's hypotheses")
    assert "nothing was checked" in err


def test_gen_edge_list_default(capsys):
    code, out, _ = run(capsys, "gen", "P3")
    assert code == 0
    assert out.splitlines()[0] == "3"


def test_gen_random(capsys):
    code, out, _ = run(capsys, "gen", "random", "--n", "8", "--p", "0.5",
                       "--min-degree", "2", "--seed", "7", "--graph6")
    assert code == 0
    from isogame.graph6 import parse_graph6
    g = parse_graph6(out.strip())
    assert g.n == 8 and g.min_degree >= 2


def test_env_cap_small_turns_solve_into_capacity_error(capsys, monkeypatch):
    monkeypatch.setenv("ISOGAME_SOLVER_CAP", "3")
    code, _, err = run(capsys, "solve", "P5")
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("value", ["many", "0"])
@pytest.mark.parametrize("argv", [
    ("solve", "P5"),
    ("verify", "{corpus}"),
    ("verify", "{empty}"),
    ("verify", "{corpus}", "--jobs", "2"),
    ("scan-conjecture", "{corpus}"),
    ("cp-scan", "{corpus}"),
    ("diam2", "--n", "8", "--p", "0.6", "--trials", "30", "--seed", "1"),
])
def test_malformed_cap_is_usage_error(capsys, tmp_path, monkeypatch, argv, value):
    """A cap that is not an integer of at least 2 stops the command before
    any output; it is never turned into one skip per graph."""
    corpus, empty = tmp_path / "c.g6", tmp_path / "empty.g6"
    corpus.write_text(emit_graph6(cycle(5)) + "\n")
    empty.write_text("")
    monkeypatch.setenv("ISOGAME_SOLVER_CAP", value)
    code, out, err = run(capsys, *(arg.format(corpus=corpus, empty=empty)
                                   for arg in argv))
    assert (code, out) == (2, "")
    assert err == (f"error: ISOGAME_SOLVER_CAP must be an integer of at least "
                   f"2, got {value!r}\n")


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2


def _commands_of(parser):
    (sub,) = [action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)]
    return sub.choices


_COMMAND_NAMES = ("solve", "simulate", "verify", "scan-conjecture", "cp-scan",
                  "diam2", "gen")
_SIMULATE = ["simulate", "C3", "--dom", "greedy", "--staller", "random"]
_DIAM2 = ["diam2", "--n", "3", "--p", "0.5", "--trials", "1"]
# Per command: a missing argument, an unrecognized one and, where the
# command has a typed option, a value its ``type=`` rejects.
_USAGE_ERRORS = {
    "solve": (["solve", "--g6"], ["solve", "C3", "--bogus"]),
    "simulate": (["simulate", "C3", "--dom", "greedy"], _SIMULATE + ["--bogus"],
                 _SIMULATE + ["--seed", "x"]),
    "verify": (["verify"], ["verify", "c.g6", "--bogus"],
               ["verify", "c.g6", "--jobs", "0"]),
    "scan-conjecture": (["scan-conjecture"], ["scan-conjecture", "c.g6", "x"]),
    "cp-scan": (["cp-scan"], ["cp-scan", "c.g6", "--bogus"]),
    "diam2": (["diam2", "--n", "3"], _DIAM2 + ["--bogus"],
              _DIAM2[:-1] + ["x"]),
    "gen": (["gen"], ["gen", "P3", "--bogus"], ["gen", "random", "--p", "x"]),
}


def test_the_command_table_names_every_command():
    assert tuple(cli._COMMANDS) == _COMMAND_NAMES == tuple(_USAGE_ERRORS)
    assert tuple(_commands_of(cli.build_parser())) == _COMMAND_NAMES


@pytest.mark.parametrize("name", _COMMAND_NAMES)
def test_one_command_parser_prints_what_the_full_parser_prints(name):
    """A parser built for one command gives the full parser's help and usage,
    for the command and at the top level."""
    full, lone = cli.build_parser(), cli._parser([name])
    assert list(_commands_of(lone)) == [name]
    assert lone.format_usage() == full.format_usage()
    command, reference = _commands_of(lone)[name], _commands_of(full)[name]
    assert command.format_help() == reference.format_help()
    assert command.format_usage() == reference.format_usage()


@pytest.mark.parametrize("argv", [argv for errors in _USAGE_ERRORS.values()
                                  for argv in errors]
                         + [[], ["bogus"], ["solv"], ["--bogus", "solve"]])
def test_main_reports_usage_errors_as_the_full_parser_does(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        cli.build_parser().parse_args(argv)
    expected = (exited.value.code, *capsys.readouterr())
    assert expected[0] == 2 and expected[2]
    assert (main(argv), *capsys.readouterr()) == expected


def test_no_command_is_a_usage_error_naming_the_command_argument(capsys):
    code, out, err = run(capsys)
    assert (code, out) == (2, "")
    assert err.endswith(
        "isogame: error: the following arguments are required: command\n")


def test_main_builds_only_the_named_commands_parser(capsys, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def recording(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording)
    assert main(["solve", "C3"]) == 0
    assert built == ["solve"]
    built.clear()
    assert main(["bogus"]) == 2
    assert tuple(built) == _COMMAND_NAMES
    capsys.readouterr()


def test_verify_62_vertex_line_is_skipped_at_the_cap(capsys, monkeypatch):
    """The longest short-form line decodes, and verify skips it by the cap."""
    code, line, _ = run(capsys, "gen", "random", "--n", "62", "--p", "0.1",
                        "--seed", "1", "--graph6")
    assert code == 0 and len(line.strip()) == 1 + (62 * 61 // 2 + 5) // 6
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(line.encode())))
    code, out, err = run(capsys, "verify", "-")
    assert code == 0
    assert out == "verified 0 graphs, 0 failures, 1 skipped\n"
    assert err == ("warning: skipped stdin:1: n=62 exceeds the solver cap 20; "
                   "set ISOGAME_SOLVER_CAP to solve it anyway\n")


def test_importing_the_cli_does_not_load_multiprocessing():
    """Only a verify run with a pool imports multiprocessing."""
    import isogame
    env = dict(os.environ, PYTHONPATH=str(Path(isogame.__file__).parents[1]))
    probe = ("import sys, isogame.cli; "
             "print('multiprocessing' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def _fuzz_shorthand(rng):
    """A family shorthand of small order, or a malformed one."""
    if rng.random() < 0.3:
        return rng.choice(["", " ", "+", "P", "P3+", "+C4", "P3++C4", "Q3", "P-1",
                           "C2", "K0", "P0", "P1", "p 3 + c\t4", "K2+C4", "P٣",
                           "C1e1", "3P", "P3,C4", "P3+C6+X", "K" + "9" * 5000])
    terms = [rng.choice("PCKpck") + str(rng.randint(0, 5))
             for _ in range(rng.randint(1, 2))]
    return "+".join(terms)


def _fuzz_probability(rng):
    return rng.choice(["nan", "inf", "-inf", "-0.1", "0", "1", "1.5", "0.5",
                       "0.3", "1e-300", "abc", ""])


def _fuzz_corpus_line(rng, lines):
    line = bytearray(rng.choice(lines))
    mutation = rng.randrange(6)
    if mutation == 0 and line:
        line[rng.randrange(len(line))] = rng.randrange(256)
    elif mutation == 1 and line:
        del line[rng.randrange(len(line))]
    elif mutation == 2:
        line.insert(rng.randrange(len(line) + 1), rng.randrange(32, 128))
    elif mutation == 3:
        line = bytearray(rng.randrange(256) for _ in range(rng.randint(0, 6)))
    elif mutation == 4:
        line = line[:1]
    return bytes(line).replace(b"\n", b"")


def _fuzz_argv(rng, tmp_path, lines, case):
    command = rng.choice(["solve", "simulate", "gen", "diam2", "solve-g6",
                          "verify", "scan-conjecture", "cp-scan"])
    if command == "solve":
        argv = ["solve", _fuzz_shorthand(rng)]
    elif command == "solve-g6":
        if rng.random() < 0.5:
            text = _fuzz_corpus_line(rng, lines).decode("latin-1")
        else:
            text = "".join(chr(rng.randrange(33, 127)) for _ in range(rng.randint(0, 8)))
        argv = ["solve", f"--g6={text}"]
    elif command == "simulate":
        names = ["greedy", "modified-greedy", "optimal", "random", "extremal",
                 "best-response", "nobody"]
        argv = ["simulate", _fuzz_shorthand(rng), "--dom", rng.choice(names),
                "--staller", rng.choice(names), "--seed", str(rng.randint(-2, 9))]
    elif command == "gen":
        if rng.random() < 0.5:
            argv = ["gen", _fuzz_shorthand(rng)]
        else:
            argv = ["gen", "random", "--n", str(rng.randint(-2, 8)),
                    "--p", _fuzz_probability(rng),
                    "--min-degree", str(rng.randint(-1, 2)),
                    "--seed", str(rng.randint(0, 9))]
    elif command == "diam2":
        argv = ["diam2", "--n", str(rng.randint(-1, 8)), "--p", _fuzz_probability(rng),
                "--trials", str(rng.randint(-1, 3)), "--seed", str(rng.randint(0, 9))]
    else:
        corpus = tmp_path / f"c{case}.g6"
        corpus.write_bytes(b"\n".join(_fuzz_corpus_line(rng, lines)
                                      for _ in range(rng.randint(0, 4))))
        argv = [command, str(corpus)]
        if command == "verify":
            if rng.random() < 0.3:
                argv += ["--bounds", rng.choice(["T36", "T41", "X1", "C32"])]
            if rng.random() < 0.3:
                argv += ["--out", str(tmp_path / rng.choice(["r.json", "r.csv"]))]
    if command in ("solve", "simulate", "solve-g6") and rng.random() < 0.3:
        argv.append("--staller-start")
    return argv


def test_fuzzed_invocations_keep_the_exit_code_contract(capsys, tmp_path):
    """Every strategy pair, then seeded random invocations of every command,
    on small orders, with malformed shorthands, probabilities and graph6
    bytes, and corpus lines mutated byte by byte: each exits 0, 1 or 2, and
    none reports an internal error (the message for an exception no handler
    expected)."""
    import itertools
    import random
    from isogame.cli import STRATEGY_NAMES
    rng = random.Random(20261020)
    lines = (Path(__file__).parent / "data" / "connected_3_8.g6").read_bytes().split()[:400]
    cases = [["simulate", _fuzz_shorthand(rng), "--dom", dom, "--staller", staller]
             for dom, staller in itertools.product(STRATEGY_NAMES, repeat=2)]
    cases += [_fuzz_argv(rng, tmp_path, lines, case) for case in range(300)]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2) and "internal error" not in err, (argv, code, err)
