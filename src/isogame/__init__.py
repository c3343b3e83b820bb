"""Exact solver, strategy simulator, and verification lab for the total
isolation game on graphs."""

from .engine import (GameState, MarkPartition, Player, is_isolating_set,
                     is_total_isolating_set, marked_set, new_game,
                     playable_set, replay)
from .errors import (GameStateError, GenerationError, GraphDomainError,
                     GraphFormatError, IllegalMoveError, IsogameError,
                     ProtocolViolationError, SnapshotDomainError,
                     SolverCapError, StrategyDomainError, UnknownBoundError)
from .families import (complete, cycle, disjoint_union, from_shorthand, path,
                       random_connected)
from .graph import (INFINITE_DIAMETER, Graph, closed_neighborhood,
                    induced_subgraph, is_independent, is_packing, iter_bits,
                    open_neighborhood, vertex_set, vertices_of)
from .graph6 import emit_edge_list, emit_graph6, parse_edge_list, parse_graph6
from .solver import (DEFAULT_SOLVER_CAP, GameValue, Solver, cp_gap, solve,
                     solve_both)
from .strategies import (BestResponseStrategy, ExtremalStaller, GameTrace,
                         GreedyDominator, ModifiedGreedyDominator, MoveRecord,
                         OptimalStrategy, RandomStrategy, StageSnapshot,
                         Strategy, best_response_value, greedy_move,
                         modified_greedy_move, simulate, stage_snapshot)

__version__ = "0.1.0"
