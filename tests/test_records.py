"""The library's value records are NamedTuples with pinned fields."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from isogame.bounds import BoundCheck, BoundSpec, GraphFacts
from isogame.engine import GameState, Player
from isogame.families import cycle
from isogame.lab import (BoundReport, ConjectureScan, Diameter2Summary, GapScan,
                         VerifyResult)
from isogame.solver import GameValue, TableStats
from isogame.strategies import GameTrace, MoveRecord, StageSnapshot


def _applies(facts):
    return facts.connected


def _half(facts):
    return Fraction(facts.n, 2)


def _strict(facts):
    return False


_GRAPH = cycle(6)
_MOVE = MoveRecord(vertex=2, mover=Player.STALLER, new_marks=3, stage=1, note="n")
_CHECK = BoundCheck(name="T41", target="igt", applicable=True, value=Fraction(5, 2),
                    strict=True, passed=False, slack=Fraction(-1, 2))

_REPORT = BoundReport(gid="x:1", n=3, m=2, min_degree=1, max_degree=2,
                      diameter=2.0, igt=3, igts=2, checks=(_CHECK,))

# Each record type, its field order, and one value per field.
RECORDS = [
    (GameValue, {"total_moves": 4, "principal_variation": (0, 3, 1, 2)}),
    (TableStats, {"states": 12, "hits": 3}),
    (GameState, {"graph": _GRAPH, "played": 1, "first_mover": Player.DOMINATOR}),
    (MoveRecord, {"vertex": 2, "mover": Player.STALLER, "new_marks": 3,
                  "stage": 1, "note": "n"}),
    (GameTrace, {"graph": _GRAPH, "first_mover": Player.DOMINATOR, "moves": (_MOVE,),
                 "dominator_strategy": "greedy", "staller_strategy": "random"}),
    (StageSnapshot, {"played": 1, "stage1_dominator_moves": 1, "unmarked": 12,
                     "unmarked_neighbors": 30, "remote": 0, "leaf_unmarked": 0,
                     "nonleaf_unmarked": 12, "boundary_index": 2, "total_moves": 4}),
    (GraphFacts, {"n": 6, "m": 6, "min_degree": 2, "max_degree": 2, "diameter": 3,
                  "connected": True}),
    (BoundSpec, {"name": "H", "description": "n/2", "target": "igt",
                 "applies": _applies, "value": _half, "strict": _strict}),
    (BoundCheck, {"name": "T41", "target": "igt", "applicable": True,
                  "value": Fraction(5, 2), "strict": True, "passed": False,
                  "slack": Fraction(-1, 2)}),
    (BoundReport, {"gid": "x:1", "n": 3, "m": 2, "min_degree": 1, "max_degree": 2,
                   "diameter": 2.0, "igt": 3, "igts": 2, "checks": (_CHECK,)}),
    (VerifyResult, {"reports": [_REPORT], "skipped": [("x:2", "r")],
                    "failures": 1}),
    (ConjectureScan, {"counterexamples": [("x:1", 9, 7)], "checked": 1,
                      "skipped": [("x:2", "r")]}),
    (GapScan, {"histogram": {0: 2, 1: 1}, "witnesses": [("x:3", 1)],
               "skipped": []}),
    (Diameter2Summary, {"trials": 3, "diameter2_count": 1, "connected_count": 2,
                        "checked": 1, "violations": ["v"]}),
]


@pytest.mark.parametrize("cls, values", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_contract(cls, values):
    """Pinned field order; keyword and positional construction agree;
    attributes cannot be assigned; a pickle round trip gives an equal
    record (graphs, which compare by identity, by their adjacency)."""
    assert cls._fields == tuple(values)
    record = cls(**values)
    assert record == cls(*values.values())
    assert [getattr(record, name) for name in cls._fields] == list(values.values())
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, values[name])
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is cls
    if "graph" in values:
        assert back.graph.adj == record.graph.adj
        back = back._replace(graph=record.graph)
    assert back == record


def test_move_record_note_defaults_to_none():
    assert MoveRecord(1, Player.DOMINATOR, 2, 1).note is None


def test_graph_facts_of_is_a_classmethod():
    """The benchmark's tracer wraps ``GraphFacts.of`` through the class dict."""
    assert isinstance(vars(GraphFacts)["of"], classmethod)
    assert GraphFacts.of(_GRAPH) == GraphFacts(6, 6, 2, 2, 3, True)


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    import isogame
    env = dict(os.environ, PYTHONPATH=str(Path(isogame.__file__).parents[1]))
    probe = ("import sys, isogame.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
