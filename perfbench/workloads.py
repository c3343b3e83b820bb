"""Inputs, operations and output checks of the isogame benchmark workloads.

Every workload is a list of operations that the runner cycles through until
its time is up. An operation is one call into the program on a slice of the
workload's input; each one builds fresh ``Graph`` objects, so no
per-graph cache of one operation survives into the next. Operations return
their raw output from ``run`` (the timed part) and are checked afterwards
by ``check``, which counts the items (graphs or solves) whose output is
wrong.

Expected values live in ``perfbench/expected/`` and are pinned by the
sha256 digests below. A table whose digest does not match is untrusted, and
every item checked against it counts as failed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import re
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CORPUS = ROOT / "tests" / "data" / "connected_3_8.g6"
EXPECTED_DIR = BENCH_DIR / "expected"
WORK_DIR = BENCH_DIR / ".work"

WORKLOADS = ("corpus-verify", "corpus-scan", "solve-cycle", "solve-random",
             "strategy-bounds")

# Corpus workloads cut the corpus into this many chunks of similar cost, so
# that one operation takes about a second and a run holds a few dozen.
CHUNKS = 24
CYCLE_ORDER = 18
SMALL_CYCLE_ORDER = 10
SMALL_CORPUS_LINES = 240
UNION_PARTS = {"C3": 3, "C6": 6, "P3": 3, "P6": 6}
UNION_MAX_N = 18
SPOT_CHECKS = 8
SPOT_MAX_N = 7

PINNED_SHA256 = {
    "corpus.txt": "0981ad1b2532f9a38e881f10819202c6cd9edbe22fc001c082bc56c5cf9fc0cb",
    "unions.txt": "775218eeac14ac889ffa1a9573c9c6cb700311b652a5ffd92ba144e06d64a94b",
    "cycles.txt": "684b0dadb9efe420618c63ed0d09cb080a78906bbaf90cfdedc5a3da1d86cff8",
    "random.txt": "73a00e9eaffbd83808e3cd488b5a85706b7aea246ef66dcd3e47c5e15148a51f",
}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Outcome:
    """Items attempted and failed in one operation, with a few reasons."""
    attempted: int
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def fail(self, count: int, reason: str) -> None:
        self.failed = min(self.attempted, self.failed + count)
        if len(self.reasons) < 5:
            self.reasons.append(reason)


@dataclass
class Expected:
    """The pinned tables, and whether each one matched its digest."""
    corpus: dict[int, tuple]
    unions: dict[str, tuple[int, int]]
    cycles: dict[str, tuple[int, int]]
    random: dict[int, tuple[str, int, int]]
    trusted: dict[str, bool]


def _rows(name: str) -> list[list[str]]:
    text = (EXPECTED_DIR / name).read_text(encoding="ascii")
    return [line.split() for line in text.splitlines() if line.strip()]


def load_expected() -> Expected:
    trusted = {name: sha256_file(EXPECTED_DIR / name) == digest
               for name, digest in PINNED_SHA256.items()}
    corpus = {}
    for row in _rows("corpus.txt"):
        index, igt, igts, greedy, mod_d, mod_s = row
        corpus[int(index)] = (int(igt), int(igts),
                              None if greedy == "-" else int(greedy),
                              int(mod_d), int(mod_s))
    unions = {row[0]: (int(row[1]), int(row[2])) for row in _rows("unions.txt")}
    cycles = {row[0]: (int(row[1]), int(row[2])) for row in _rows("cycles.txt")}
    pool = {int(row[0]): (row[1], int(row[2]), int(row[3]))
            for row in _rows("random.txt")}
    return Expected(corpus, unions, cycles, pool, trusted)


def read_corpus(limit: int | None = None) -> list[tuple[int, str]]:
    """(1-based line number, graph6 text) for every corpus line."""
    out = []
    with open(CORPUS, encoding="ascii") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if text:
                out.append((lineno, text))
    return out[:limit] if limit else out


def graph6_order(text: str) -> int:
    return ord(text[0]) - 63


def graph6_edges(text: str) -> int:
    return sum(bin(ord(ch) - 63).count("1") for ch in text[1:])


def deal(items: list, chunks: int, key, rng: random.Random) -> list[list]:
    """Split items into chunks of similar total cost.

    Items are sorted by descending ``key`` and dealt in strata of ``chunks``
    consecutive items, one item of each stratum to each chunk in a seeded
    order. The last, partial stratum holds the cheapest items.
    """
    ordered = sorted(items, key=key, reverse=True)
    out: list[list] = [[] for _ in range(chunks)]
    for start in range(0, len(ordered), chunks):
        targets = list(range(chunks))
        rng.shuffle(targets)
        for item, target in zip(ordered[start:start + chunks], targets):
            out[target].append(item)
    return [chunk for chunk in out if chunk]


def union_names(max_n: int = UNION_MAX_N) -> list[str]:
    names = []
    for count in range(1, max_n // 3 + 1):
        for combo in combinations_with_replacement(sorted(UNION_PARTS), count):
            if sum(UNION_PARTS[part] for part in combo) <= max_n:
                names.append("+".join(combo))
    return names


def union_cost_key(name: str) -> tuple[int, int, str]:
    parts = name.split("+")
    return (sum(UNION_PARTS[p] for p in parts),
            sum(1 for p in parts if p.startswith("C")), name)


# -- checking helpers --------------------------------------------------------

def replay_error(g, moves, value: int | None = None) -> str | None:
    """Why a move sequence is not a complete legal game, or None if it is.

    Legality comes from :func:`isogame.oracles.legal_moves`, which shares
    no code with the engine the program uses.
    """
    from isogame import oracles
    played: set[int] = set()
    for step, v in enumerate(moves, start=1):
        if v not in oracles.legal_moves(g, played):
            return f"move {step} ({g.label(v)}) is illegal"
        played.add(v)
    if oracles.legal_moves(g, played):
        return "game not finished after the last move"
    if value is not None and len(moves) != value:
        return f"{len(moves)} moves but value {value}"
    return None


def run_cli(argv: list[str]):
    """Call ``isogame.cli.main`` in-process with stdout and stderr captured.

    Returns (exit code, stdout, stderr); an exception becomes the exit code
    slot as its traceback text, so a crash counts as a failure, not a stop.
    """
    import isogame.cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = isogame.cli.main(argv)
        except Exception:
            code = traceback.format_exc(limit=3)
    return code, out.getvalue(), err.getvalue()


_VERIFY_LINE = re.compile(r"^(\S+):(\d+) n=(\d+) igt=(\d+) igtS=(\d+) (.+)$")
_SOLVE_LINE = re.compile(r"^(igt|igtS)=(\d+) pv=\[([^\]]*)\]$")


# -- operations ----------------------------------------------------------------

class VerifyOp:
    """``isogame verify <chunk> --out <chunk>.json`` on one corpus chunk."""

    def __init__(self, chunk: list[tuple[int, str]], path: Path, expected: Expected):
        self.chunk = chunk
        self.path = path
        self.report = path.with_suffix(".json")
        self.expected = expected
        self.items = len(chunk)
        self.reported: dict[int, tuple[int, int]] = {}

    def run(self):
        return run_cli(["verify", str(self.path), "--out", str(self.report)])

    def check(self, raw) -> Outcome:
        code, out, _ = raw
        outcome = Outcome(self.items)
        if code != 0:
            outcome.fail(self.items, f"verify exit code {code!r}")
            return outcome
        if not self.expected.trusted["corpus.txt"]:
            outcome.fail(self.items, "corpus.txt does not match its pinned digest")
            return outcome
        lines = out.splitlines()
        summary = f"verified {self.items} graphs, 0 failures, 0 skipped"
        if not lines or lines[-1] != summary:
            outcome.fail(self.items, f"bad summary {lines[-1:]!r}")
            return outcome
        printed = {}
        for line in lines[:-1]:
            match = _VERIFY_LINE.match(line)
            if match is None or match.group(6) != "ok":
                continue
            printed[int(match.group(2))] = (int(match.group(4)), int(match.group(5)))
        try:
            with open(self.report, encoding="ascii") as handle:
                report = json.load(handle)
            written = {int(r["id"].rsplit(":", 1)[1]): (r["igt"], r["igtS"])
                       for r in report["reports"]
                       if all(b["pass"] is not False for b in r["bounds"])}
            if report["summary"] != {"graphs": self.items, "failures": 0}:
                written = {}
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            outcome.fail(self.items, f"unreadable report: {exc}")
            return outcome
        for position, (index, _) in enumerate(self.chunk, start=1):
            want = self.expected.corpus[index][:2]
            got = printed.get(position)
            if got != want or written.get(position) != want:
                outcome.fail(1, f"line {index}: printed {got}, report "
                                f"{written.get(position)}, expected {want}")
            elif got is not None:
                self.reported[index] = got
        return outcome


class ScanOp:
    """``isogame scan-conjecture <chunk>`` on one corpus chunk."""

    def __init__(self, chunk: list[tuple[int, str]], path: Path, expected: Expected):
        self.chunk = chunk
        self.path = path
        self.expected = expected
        self.items = len(chunk)

    def run(self):
        return run_cli(["scan-conjecture", str(self.path)])

    def check(self, raw) -> Outcome:
        code, out, _ = raw
        outcome = Outcome(self.items)
        if not self.expected.trusted["corpus.txt"]:
            outcome.fail(self.items, "corpus.txt does not match its pinned digest")
            return outcome
        # The pinned values have igt <= 2n/3 on every corpus graph.
        verdict = f"scanned {self.items} graphs: no counterexample (igt <= 2n/3 throughout)"
        if code != 0 or out.strip() != verdict:
            outcome.fail(self.items, f"scan exit code {code!r}, output {out[-200:]!r}")
        return outcome


class SolveOp:
    """``isogame solve`` of one graph from one side."""

    def __init__(self, argv: list[str], graph, value: int | None, label: str):
        self.argv = argv
        self.graph = graph
        self.value = value
        self.label = label
        self.items = 1

    def run(self):
        return run_cli(self.argv)

    def check(self, raw) -> Outcome:
        code, out, _ = raw
        outcome = Outcome(1)
        match = _SOLVE_LINE.match(out.strip())
        if code != 0 or match is None:
            outcome.fail(1, f"{self.label}: exit code {code!r}, output {out[-200:]!r}")
            return outcome
        value = int(match.group(2))
        names = {self.graph.label(v): v for v in range(self.graph.n)}
        try:
            moves = [names[name] for name in match.group(3).split(",") if name]
        except KeyError as exc:
            outcome.fail(1, f"{self.label}: unknown vertex {exc}")
            return outcome
        if self.value is None:
            outcome.fail(1, f"{self.label}: no trusted expected value")
        elif value != self.value:
            outcome.fail(1, f"{self.label}: value {value}, expected {self.value}")
        else:
            error = replay_error(self.graph, moves, value)
            if error:
                outcome.fail(1, f"{self.label}: principal variation: {error}")
        return outcome


class StrategyOp:
    """Strategy-level bounds on one corpus chunk and a few unions.

    On every graph, the value of the game with Dominator forced to greedy
    (when the minimum degree is at least 2) and to modified greedy from
    both starts, each against an optimal opponent; on every union of P3,
    C3, P6 and C6, a greedy Dominator against the extremal Staller and
    against Staller's best response.
    """

    def __init__(self, chunk: list[tuple[int, str]], unions: list[str],
                 expected: Expected):
        self.chunk = chunk
        self.unions = unions
        self.expected = expected
        self.items = len(chunk) + 2 * len(unions)

    def run(self):
        from isogame import families, lab, strategies
        from isogame.engine import Player
        dom, stal = Player.DOMINATOR, Player.STALLER
        try:
            entries = lab.load_graph6_corpus([text for _, text in self.chunk])
            greedy = strategies.GreedyDominator()
            modified = strategies.ModifiedGreedyDominator()
            values = []
            for entry in entries:
                g = entry.graph
                forced = (strategies.best_response_value(g, greedy, dom, dom)
                          if g.min_degree >= 2 else None)
                values.append((g, forced,
                               strategies.best_response_value(g, modified, dom, dom),
                               strategies.best_response_value(g, modified, dom, stal)))
            games = []
            for name in self.unions:
                g = families.from_shorthand(name)
                extremal = strategies.simulate(
                    g, strategies.GreedyDominator(), strategies.ExtremalStaller())
                best = strategies.simulate(
                    g, strategies.GreedyDominator(),
                    strategies.BestResponseStrategy(strategies.GreedyDominator(), stal))
                games.append((name, g, extremal, best))
        except Exception:
            return traceback.format_exc(limit=3)
        return values, games

    def check(self, raw) -> Outcome:
        outcome = Outcome(self.items)
        if isinstance(raw, str):
            outcome.fail(self.items, raw)
            return outcome
        values, games = raw
        if not (self.expected.trusted["corpus.txt"] and self.expected.trusted["unions.txt"]):
            outcome.fail(self.items, "an expected table does not match its digest")
            return outcome
        if len(values) != len(self.chunk):
            outcome.fail(self.items, f"{len(values)} graphs parsed of {len(self.chunk)}")
            return outcome
        for (index, _), (g, forced, mod_d, mod_s) in zip(self.chunk, values):
            want = self.expected.corpus[index][2:]
            n, d, big = g.n, g.min_degree, g.max_degree
            # The paper's strategy-level bounds, as in acceptance criterion 7.
            in_bounds = (6 * mod_d < 5 * n and 6 * mod_s <= 5 * n and
                         (forced is None or
                          forced * (3 * d - 2) <= (2 * d - 1) * n - (big - 2)))
            if (forced, mod_d, mod_s) != want or not in_bounds:
                outcome.fail(1, f"line {index}: forced values {(forced, mod_d, mod_s)}, "
                                f"expected {want}")
        for name, g, extremal, best in games:
            for trace, want in zip((extremal, best), self.expected.unions[name]):
                moves = [record.vertex for record in trace.moves]
                error = replay_error(g, moves)
                if trace.t != want or error:
                    outcome.fail(1, f"{name} {trace.staller_strategy}: t={trace.t}, "
                                    f"expected {want} {error or ''}")
        return outcome


# -- workload plans ----------------------------------------------------------------

@dataclass
class Plan:
    ops: list
    expected: Expected
    graph_text: dict[int, str] = field(default_factory=dict)


def _write_chunk(path: Path, chunk: list[tuple[int, str]]) -> None:
    path.write_text("".join(text + "\n" for _, text in chunk), encoding="ascii")


def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges) of a short-form graph6 line, decoded without the program."""
    n = ord(text[0]) - 63
    bits = "".join(format(ord(ch) - 63, "06b") for ch in text[1:])
    pairs = [(row, col) for col in range(1, n) for row in range(col)]
    return n, [pair for pair, bit in zip(pairs, bits) if bit == "1"]


def encode_graph6(n: int, edges: list[tuple[int, int]]) -> str:
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = "".join("1" if (row, col) in present else "0"
                   for col in range(1, n) for row in range(col))
    bits += "0" * (-len(bits) % 6)
    return chr(n + 63) + "".join(chr(int(bits[i:i + 6], 2) + 63)
                                 for i in range(0, len(bits), 6))


def relabel(text: str, rng: random.Random) -> str:
    """graph6 of an isomorphic copy under a seeded vertex permutation."""
    n, edges = decode_graph6(text)
    perm = list(range(n))
    rng.shuffle(perm)
    return encode_graph6(n, [(perm[u], perm[v]) for u, v in edges])


def graph_of(text: str):
    """The program's ``Graph`` for a graph6 line, for replaying moves."""
    from isogame.graph import Graph
    return Graph(*decode_graph6(text))


def prepare(workload: str, seed: int, work_dir: Path, small: bool = False) -> Plan:
    """Import the program and build the workload's inputs from ``seed``.

    ``small`` swaps in reduced inputs (a corpus prefix, unions of order at
    most 12, C10) for the harness self-test.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    import isogame.cli  # noqa: F401  the CLI and everything it loads
    from isogame.graph import Graph

    rng = random.Random(seed)
    expected = load_expected()
    work_dir.mkdir(parents=True, exist_ok=True)
    plan = Plan([], expected)

    if workload in ("corpus-verify", "corpus-scan", "strategy-bounds"):
        corpus = read_corpus(SMALL_CORPUS_LINES if small else None)
        plan.graph_text = dict(corpus)
        chunks = deal(corpus, CHUNKS, lambda item: (graph6_order(item[1]),
                                                    graph6_edges(item[1]), item[0]), rng)
        chunks = [sorted(chunk) for chunk in chunks]
        if workload == "strategy-bounds":
            unions = union_names(12 if small else UNION_MAX_N)
            dealt = deal(unions, len(chunks), union_cost_key, rng)
            dealt += [[]] * (len(chunks) - len(dealt))
            plan.ops = [StrategyOp(chunk, names, expected)
                        for chunk, names in zip(chunks, dealt)]
        else:
            op_class = VerifyOp if workload == "corpus-verify" else ScanOp
            for number, chunk in enumerate(chunks):
                path = work_dir / f"chunk{number:02d}.g6"
                _write_chunk(path, chunk)
                plan.ops.append(op_class(chunk, path, expected))
    elif workload == "solve-cycle":
        order = SMALL_CYCLE_ORDER if small else CYCLE_ORDER
        name = f"C{order}"
        g = Graph(order, [(v, (v + 1) % order) for v in range(order)])
        want = expected.cycles.get(name) if expected.trusted["cycles.txt"] else None
        for side, flag in ((0, []), (1, ["--staller-start"])):
            plan.ops.append(SolveOp(["solve", name] + flag, g,
                                    None if want is None else want[side],
                                    f"{name} {'igtS' if side else 'igt'}"))
    else:
        for base, (pinned, *values) in sorted(expected.random.items()):
            text = relabel(pinned, rng)
            g = graph_of(text)
            want = values if expected.trusted["random.txt"] else None
            for side, flag in ((0, []), (1, ["--staller-start"])):
                plan.ops.append(SolveOp(["solve", "--g6", text] + flag, g,
                                        None if want is None else want[side],
                                        f"random seed {base} {'igtS' if side else 'igt'}"))
    rng.shuffle(plan.ops)
    return plan


def spot_check(plan: Plan, indices: set[int], reported: dict[int, tuple[int, int]],
               rng: random.Random) -> Outcome:
    """Brute-force game values of a seeded sample of small corpus graphs.

    Compares :func:`isogame.oracles.brute_solve` with the values the
    program printed when it printed them, and with the pinned table when
    it did not (``scan-conjecture`` prints verdicts only).
    """
    from isogame import oracles
    from isogame.engine import Player
    small = sorted(i for i in indices if graph6_order(plan.graph_text[i]) <= SPOT_MAX_N)
    sample = rng.sample(small, min(SPOT_CHECKS, len(small)))
    outcome = Outcome(len(sample))
    for index in sample:
        g = graph_of(plan.graph_text[index])
        brute = (oracles.brute_solve(g, Player.DOMINATOR),
                 oracles.brute_solve(g, Player.STALLER))
        got = reported.get(index, plan.expected.corpus[index][:2])
        if brute != got:
            outcome.fail(1, f"line {index}: brute force {brute}, program {got}")
    return outcome


def source_digest() -> str:
    """sha256 over the package sources, which identifies the program measured
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "isogame").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_revision() -> str:
    """HEAD's commit id read from ``.git`` without running git, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, trace: int, seconds: float) -> dict:
    return {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "git_revision": git_revision(), "source_sha256": source_digest(),
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "corpus_sha256": sha256_file(CORPUS),
    }
