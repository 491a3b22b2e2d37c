"""Workbench for determinacy of regular path queries.

Evaluate queries over labeled graphs, compile grid-tiling instances into
view/query inputs, play the constraint-chase game, search for
counterexamples, and verify them.
"""

from .symbols import (Alphabet, Color, FormatError, Symbol, SymbolError, Word,
                      WorkbenchError, format_word, sym)
from .automata import (Class, Concat, Empty, Epsilon, Lit, Nfa, Plus,
                       ProductDfa, Regex, RegexSyntaxError, Star, Union,
                       accepts, compile_nfa, concat_all, iter_words,
                       parse_regex, parse_word, recolor_nfa, render_regex,
                       shortest_word, union_all)
from .graphs import (Edge, EndpointedGraph, LabeledGraph, UnknownVertexError,
                     chain_graph, chain_word, endpointed_from_json,
                     endpointed_to_json, graph_from_json, graph_to_json,
                     graph_union, strip_shades)
from .rpq import evaluate, find_witness, holds
from .constraints import (ConstraintError, ConstraintSet, RegularConstraint,
                          Request, WitnessRejectedError, apply_add,
                          fresh_names, make_arrow_set, make_arrows,
                          recolor_regex, requests, satisfied)
from .escape import (Caps, ExploreContext, GuidanceError, PlayOutcome,
                     PlayResult, PlayTrace, ScriptExhaustedError, Verdict,
                     VerdictKind, explore, initial_position, run_play,
                     scripted_from_trace, strategy_guided,
                     strategy_interactive, strategy_scripted,
                     strategy_shortest, trace_from_jsonl, trace_to_jsonl)
from .ogtp import (GridTiling, OgtpError, OgtpInstance, ReductionOutput,
                   SearchSpaceError, TilingError, Views, all_black_tiling,
                   check_tiling, compile_reduction, instance_from_json,
                   instance_to_json, reduction_from_json, reduction_to_json,
                   solve_bruteforce, tiling_from_json, tiling_to_json)
from .gadget import (CounterexampleReport, GadgetError, build_grid,
                     check_counterexample, decorate, find_homomorphism,
                     iso_shadeless)

__version__ = "0.1.0"
