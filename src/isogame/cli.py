"""Command-line laboratory for the total isolation game.

Exit codes: 0 all checks passed, 1 a bound failed or a conjecture
counterexample surfaced, 2 usage or I/O error. The solver cap can be
raised with the ISOGAME_SOLVER_CAP environment variable.
"""

from __future__ import annotations

import argparse
import io
import os
import stat
import sys
from contextlib import contextmanager, nullcontext
from typing import Sequence

from .bounds import bound_names
from .engine import Player
from .errors import IsogameError
from .families import from_shorthand, random_connected, shorthand_order
from .graph import Graph
from .graph6 import (edge_list_order, emit_edge_list, emit_graph6,
                     parse_edge_list, parse_graph6)
from .lab import (cp_scan, diam2_sample, load_graph6_corpus, scan_conjecture,
                  verify, write_csv_report, write_json_report)
from .solver import check_order, solve, solver_cap_from_env
from .strategies import (BestResponseStrategy, ExtremalStaller,
                         GreedyDominator, ModifiedGreedyDominator,
                         OptimalStrategy, RandomStrategy, simulate)

STRATEGY_NAMES = ("greedy", "modified-greedy", "optimal", "random",
                  "extremal", "best-response")
USAGE_ERROR = 2


def _load_graph(args, cap: int | None = None) -> Graph:
    """The one graph the arguments name. Under a solver ``cap``, an order
    the solver would refuse is refused before the graph is built."""
    sources = [bool(args.family), args.g6 is not None, args.edge_list is not None]
    if sum(sources) != 1:
        raise IsogameError(
            "give exactly one graph input: a family shorthand (e.g. P5, "
            "P3+C6), --g6 <string|->, or --edge-list <file>")
    if args.family:
        if cap is not None:
            check_order(shorthand_order(args.family), cap)
        return from_shorthand(args.family)
    if args.g6 == "-":
        with _ascii_stdin() as stdin:
            return parse_graph6(stdin.readline().strip())
    if args.g6 is not None:
        return parse_graph6(args.g6.strip())
    # As for corpora: undecodable bytes become U+FFFD, a GraphFormatError.
    with open(args.edge_list, encoding="ascii", errors="replace") as handle:
        text = handle.read()
    if cap is not None:
        check_order(edge_list_order(text), cap)
    return parse_edge_list(text)


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("family", nargs="?", default=None,
                        help="family shorthand like P5, C6, K4, P3+C6")
    parser.add_argument("--g6", metavar="STRING",
                        help="graph6 string, or - to read one line from stdin")
    parser.add_argument("--edge-list", metavar="FILE",
                        help="edge-list file: n, then one 'u v' pair per line")


@contextmanager
def _ascii_stdin():
    """Standard input decoded as ASCII, undecodable bytes as U+FFFD, which the
    graph6 parser rejects; detached on exit, so ``sys.stdin`` stays open."""
    stdin = io.TextIOWrapper(sys.stdin.buffer, encoding="ascii", errors="replace")
    try:
        yield stdin
    finally:
        stdin.detach()


@contextmanager
def _corpus_entries(path: str):
    # A line with undecodable bytes is skipped with a warning like any other
    # malformed line. The stream opens on entry, so a missing corpus fails
    # before any output, and stays open while the lab consumes the entries.
    if path == "-":
        with _ascii_stdin() as stdin:
            yield load_graph6_corpus(stdin, source="stdin")
        return
    with open(path, encoding="ascii", errors="replace") as handle:
        yield load_graph6_corpus(handle, source=path)


def _warn_skipped(skipped: Sequence[tuple[str, str]]) -> None:
    for gid, reason in skipped:
        print(f"warning: skipped {gid}: {reason}", file=sys.stderr)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _probability(text: str) -> float:
    value = float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {value}")
    return value


def _build_strategy(name: str, role: Player, seed: int,
                    opponent_name: str | None):
    if name == "greedy":
        return GreedyDominator()
    if name == "modified-greedy":
        return ModifiedGreedyDominator()
    if name == "optimal":
        return OptimalStrategy()
    if name == "random":
        return RandomStrategy(seed)
    if name == "extremal":
        if role is not Player.STALLER:
            raise IsogameError("the extremal strategy plays Staller only")
        return ExtremalStaller()
    if name == "best-response":
        if opponent_name in (None, "best-response"):
            raise IsogameError(
                "best-response needs a concrete opponent strategy on the "
                "other side (use `solve` for optimal-vs-optimal)")
        opponent = _build_strategy(opponent_name, role.other, seed, None)
        return BestResponseStrategy(opponent, role)
    raise IsogameError(
        f"unknown strategy {name!r}; valid: {', '.join(STRATEGY_NAMES)}")


def _pv_text(g: Graph, variation: Sequence[int]) -> str:
    return "[" + ",".join(g.label(v) for v in variation) + "]"


def _cmd_solve(args) -> int:
    g = _load_graph(args, solver_cap_from_env())
    first = Player.STALLER if args.staller_start else Player.DOMINATOR
    value = solve(g, first)
    label = "igtS" if args.staller_start else "igt"
    print(f"{label}={value.total_moves} pv={_pv_text(g, value.principal_variation)}")
    return 0


def _cmd_simulate(args) -> int:
    g = _load_graph(args)
    dominator = _build_strategy(args.dom, Player.DOMINATOR, args.seed,
                                opponent_name=args.staller)
    staller = _build_strategy(args.staller, Player.STALLER, args.seed,
                              opponent_name=args.dom)
    first = Player.STALLER if args.staller_start else Player.DOMINATOR
    trace = simulate(g, dominator, staller, first)
    for i, record in enumerate(trace.moves, start=1):
        note = f"  [{record.note}]" if record.note else ""
        print(f"{i}. {record.mover} plays {g.label(record.vertex)} "
              f"(marks {record.new_marks}, stage {record.stage}){note}")
    print(f"t={trace.t}")
    return 0


def _cmd_verify(args) -> int:
    names = tuple(args.bounds) if args.bounds else None
    # The report opens before the first graph is solved, so an unusable
    # path fails before any work or output. It opens for appending, and a
    # regular file is emptied once the corpus is read: it may be the corpus.
    with (_corpus_entries(args.corpus) as entries,
          (open(args.out, "a", encoding="utf-8", newline="")
           if args.out else nullcontext()) as out):
        result = verify(entries, bound_names=names, jobs=args.jobs)
        for report in result.reports:
            bad = [c.name for c in report.checks if c.applicable and not c.passed]
            status = "FAIL " + ",".join(bad) if bad else "ok"
            print(f"{report.gid} n={report.n} igt={report.igt} igtS={report.igts} {status}")
        _warn_skipped(result.skipped)
        if args.out:
            if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                out.truncate(0)
            if args.out.endswith(".csv"):
                write_csv_report(result, out)
            else:
                write_json_report(result, out)
    print(f"verified {len(result.reports)} graphs, "
          f"{result.failures} failures, {len(result.skipped)} skipped")
    return result.exit_code


def _cmd_scan_conjecture(args) -> int:
    with _corpus_entries(args.corpus) as entries:
        scan = scan_conjecture(entries)
    _warn_skipped(scan.skipped)
    if scan.counterexamples:
        print("!" * 72)
        print("COUNTEREXAMPLE(S) TO THE 2/3 BOUND FOUND - this is a new result,")
        print("double-check the graphs below by hand before celebrating:")
        for gid, n, igt in scan.counterexamples:
            print(f"  {gid}: n={n} igt={igt} > 2n/3")
        print("!" * 72)
    else:
        print(f"scanned {scan.checked} graphs: no counterexample "
              f"(igt <= 2n/3 throughout)")
    return scan.exit_code


def _cmd_cp_scan(args) -> int:
    with _corpus_entries(args.corpus) as entries:
        scan = cp_scan(entries)
    _warn_skipped(scan.skipped)
    for gap in sorted(scan.histogram):
        print(f"gap {gap:+d}: {scan.histogram[gap]} graphs")
    print(f"max |igtS - igt| = {scan.max_abs_gap}; witnesses: "
          + ", ".join(gid for gid, _ in scan.witnesses))
    return 0


def _cmd_diam2(args) -> int:
    summary = diam2_sample(args.n, args.p, args.trials, args.seed)
    print(f"trials={summary.trials} connected={summary.connected_count} "
          f"diameter2={summary.diameter2_count} "
          f"fraction={summary.fraction_diameter2:.3f} checked={summary.checked}")
    for line in summary.violations:
        print(f"VIOLATION: {line}")
    if not summary.checked:
        print("error: no sample met T36's hypotheses (connected, n >= 3, "
              "diameter <= 2), so nothing was checked", file=sys.stderr)
        return USAGE_ERROR
    return summary.exit_code


def _cmd_gen(args) -> int:
    if args.family == "random":
        g = random_connected(args.n, args.p, args.min_degree, args.seed)
    else:
        g = from_shorthand(args.family)
    if args.graph6:
        print(emit_graph6(g))
    else:
        sys.stdout.write(emit_edge_list(g))
    return 0


def _solve_arguments(p: argparse.ArgumentParser) -> None:
    _add_graph_arguments(p)
    p.add_argument("--staller-start", action="store_true",
                   help="solve the Staller-start game instead")


def _simulate_arguments(p: argparse.ArgumentParser) -> None:
    _add_graph_arguments(p)
    p.add_argument("--dom", required=True, metavar="STRATEGY",
                   help=f"Dominator strategy: {', '.join(STRATEGY_NAMES)}")
    p.add_argument("--staller", required=True, metavar="STRATEGY",
                   help="Staller strategy (same names)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--staller-start", action="store_true")


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("corpus", help="graph6 file, one graph per line, or -")
    p.add_argument("--bounds", nargs="+", metavar="NAME",
                   help=f"subset of bounds: {', '.join(bound_names())}")
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument("--out", metavar="FILE",
                   help="write a report (.json or .csv by extension)")


def _corpus_argument(p: argparse.ArgumentParser) -> None:
    p.add_argument("corpus")


def _diam2_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--p", type=_probability, required=True)
    p.add_argument("--trials", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=int, default=0)


def _gen_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", help="shorthand like P5 or P3+C6, or 'random'")
    p.add_argument("--graph6", action="store_true",
                   help="emit graph6 instead of an edge list")
    p.add_argument("--n", type=int, default=10, help="random: vertex count")
    p.add_argument("--p", type=float, default=0.5, help="random: edge probability")
    p.add_argument("--min-degree", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)


# Each command's help line, the routine adding its arguments, and its handler.
_COMMANDS = {
    "solve": ("exact game value and principal variation", _solve_arguments,
              _cmd_solve),
    "simulate": ("play two strategies against each other", _simulate_arguments,
                 _cmd_simulate),
    "verify": ("check every bound over a graph6 corpus", _verify_arguments,
               _cmd_verify),
    "scan-conjecture": ("search a corpus for igt > 2n/3", _corpus_argument,
                        _cmd_scan_conjecture),
    "cp-scan": ("histogram of igtS - igt over a corpus", _corpus_argument,
                _cmd_cp_scan),
    "diam2": ("random-graph sampling of the diameter-2 bound", _diam2_arguments,
              _cmd_diam2),
    "gen": ("emit a graph from a family", _gen_arguments, _cmd_gen),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command."""
    return _parser(_COMMANDS)


def _parser(names) -> argparse.ArgumentParser:
    """The top-level parser with only the commands ``names``. With fewer than
    all, the metavar lists every name, so usage lines and errors are the full
    parser's, whose missing-command error keeps calling it ``command``."""
    parser = argparse.ArgumentParser(
        prog="isogame",
        description="exact solver and verification lab for the total "
                    "isolation game on graphs")
    metavar = None if len(names) == len(_COMMANDS) else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_arguments, handler = _COMMANDS[name]
        command = sub.add_parser(name, help=help_text)
        add_arguments(command)
        command.set_defaults(handler=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # No command, -h or an unknown name builds every command's parser.
    parser = _parser([argv[0]] if argv and argv[0] in _COMMANDS else _COMMANDS)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return USAGE_ERROR if exc.code not in (0,) else 0
    try:
        return args.handler(args)
    except (IsogameError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except Exception as exc:  # exit 1 is reserved for bound failures
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
