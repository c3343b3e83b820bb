"""CLI surface: subcommands, graph inputs, exit codes."""

import gc
import io
import json
import weakref
from pathlib import Path

import pytest

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
    monkeypatch.setattr("sys.stdin", io.StringIO(emit_graph6(cycle(6)) + "\n"))
    code, out, _ = run(capsys, "solve", "--g6", "-")
    assert code == 0
    assert out.startswith("igt=4")


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


def test_verify_jobs_flag(capsys, tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_text("".join(emit_graph6(g) + "\n"
                              for g in (path(5), cycle(5), cycle(6), path(7))))
    code, out, _ = run(capsys, "verify", str(corpus), "--jobs", "2")
    assert code == 0
    assert "0 failures" in out


def test_cp_scan_shows_histogram(capsys, tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_text(emit_graph6(path(5)) + "\n")
    code, out, _ = run(capsys, "cp-scan", str(corpus))
    assert code == 0
    assert "gap +2: 1 graphs" in out
    assert "max |igtS - igt| = 2" in out


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
