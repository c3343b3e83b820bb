#!/usr/bin/env python3
"""Regenerate the benchmark's expected values from the current program.

    python3 perfbench/pin.py

writes ``perfbench/expected/*.txt`` and prints their sha256 digests, which
go into ``PINNED_SHA256`` in ``perfbench/workloads.py``. Pin only from a
commit whose values are trusted (the test suite passes): the benchmark
counts every later difference from these tables as a failure. Takes about
a minute.

Tables:
  corpus.txt  line igt igtS greedy mod_d mod_s, per corpus line; greedy is
              the game value with Dominator forced to greedy ("-" when the
              minimum degree is below 2), mod_d / mod_s with Dominator
              forced to modified greedy, from each start
  unions.txt  name t_extremal t_best_response: a greedy Dominator against
              the extremal Staller and against Staller's best response
  cycles.txt  name igt igtS
  random.txt  base_seed graph6 igt igtS for random_connected(18, 0.2, 2)
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from isogame import strategies  # noqa: E402
from isogame.engine import Player  # noqa: E402
from isogame.families import cycle, from_shorthand, random_connected  # noqa: E402
from isogame.graph6 import emit_graph6, parse_graph6  # noqa: E402
from isogame.solver import solve_both  # noqa: E402

import workloads  # noqa: E402

RANDOM_POOL = (1, 2, 3, 4)
CYCLES = (10, 18)


def corpus_rows():
    dom, stal = Player.DOMINATOR, Player.STALLER
    greedy = strategies.GreedyDominator()
    modified = strategies.ModifiedGreedyDominator()
    for index, text in workloads.read_corpus():
        g = parse_graph6(text)
        igt, igts = solve_both(g)
        forced = (strategies.best_response_value(g, greedy, dom, dom)
                  if g.min_degree >= 2 else "-")
        mod_d = strategies.best_response_value(g, modified, dom, dom)
        mod_s = strategies.best_response_value(g, modified, dom, stal)
        yield f"{index} {igt} {igts} {forced} {mod_d} {mod_s}"


def union_rows():
    for name in workloads.union_names():
        g = from_shorthand(name)
        extremal = strategies.simulate(g, strategies.GreedyDominator(),
                                       strategies.ExtremalStaller())
        best = strategies.simulate(
            g, strategies.GreedyDominator(),
            strategies.BestResponseStrategy(strategies.GreedyDominator(), Player.STALLER))
        yield f"{name} {extremal.t} {best.t}"


def cycle_rows():
    for k in CYCLES:
        yield f"C{k} {' '.join(map(str, solve_both(cycle(k))))}"


def random_rows():
    for base in RANDOM_POOL:
        g = random_connected(18, 0.2, min_degree=2, seed=base)
        yield f"{base} {emit_graph6(g)} {' '.join(map(str, solve_both(g)))}"


def main() -> int:
    workloads.EXPECTED_DIR.mkdir(exist_ok=True)
    for name, rows in (("corpus.txt", corpus_rows), ("unions.txt", union_rows),
                       ("cycles.txt", cycle_rows), ("random.txt", random_rows)):
        path = workloads.EXPECTED_DIR / name
        path.write_text("".join(row + "\n" for row in rows()), encoding="ascii")
        print(f'    "{name}": "{workloads.sha256_file(path)}",')
    return 0


if __name__ == "__main__":
    sys.exit(main())
