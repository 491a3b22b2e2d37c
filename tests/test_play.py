"""run_play on its live position against run_play_immutable, which asks
holds() and requests() afresh on every position and grafts with
apply_add: the same results, the same trace bytes, the same errors and
the same strategy calls."""

import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import random_graph, random_regex, run_play_immutable
from rpqdet.automata import (Concat, Lit, compile_nfa, iter_words,
                             parse_regex, parse_word)
from rpqdet import escape
from rpqdet.constraints import RegularConstraint, make_arrow_set
from rpqdet.escape import (PlayOutcome, initial_position, run_play,
                           scripted_from_trace, strategy_guided,
                           strategy_scripted, strategy_shortest,
                           trace_from_jsonl, trace_to_jsonl)
from rpqdet.gadget import build_grid, decorate, find_homomorphism
from rpqdet.graphs import EndpointedGraph, LabeledGraph
from rpqdet.ogtp import all_black_tiling
from rpqdet.rpq import LivePairs
from rpqdet.symbols import Alphabet, WorkbenchError, sym

SPECIALS = Alphabet(["alpha", "beta", "omega"])


def _outcome(play, make_strategy):
    """(result, trace JSONL, strategy) of one play, or the type and message
    of the error it raised."""
    strategy = make_strategy()
    try:
        result, trace = play(strategy)
    except (WorkbenchError, ValueError) as e:
        return type(e), str(e)
    return result, trace_to_jsonl(trace), strategy


def _same_play(q0, cs, make_strategy, init, max_rounds):
    got = _outcome(lambda s: run_play(q0, cs, s, init, max_rounds),
                   make_strategy)
    want = _outcome(lambda s: run_play_immutable(q0, cs, s, init, max_rounds),
                    make_strategy)
    assert got[:2] == want[:2]
    return got, want


class Watching:
    """A strategy that records every (round_no, index, request) it is
    asked, and defers to an inner strategy."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def __call__(self, round_no, index, req):
        self.calls.append((round_no, index, req))
        return self.inner(round_no, index, req)


def _random_play(seed):
    """A random view set over the specials, a q0, and a start position:
    a random colored graph, or the green chain of a word of q0 or of a
    view, which opens a request from a to b.  Two rounds at most: the
    requests of a third can run into the thousands."""
    rng = random.Random(seed)
    labels = list(SPECIALS.symbols)
    views = [Concat(Lit(rng.choice(labels)), random_regex(rng, labels, 3))
             for _ in range(rng.randint(1, 3))]
    cs = make_arrow_set(views, SPECIALS)
    q0 = compile_nfa(random_regex(rng, labels, 3), SPECIALS)
    starts = [w for n in (q0, compile_nfa(rng.choice(views), SPECIALS))
              for w in iter_words(n, 4) if w]
    if not starts or rng.random() < 0.3:
        g = random_graph(rng, list(SPECIALS.colored().symbols),
                         max_vertices=6, max_edges=9)
        vs = sorted(g.vertices)
        init = EndpointedGraph(g, rng.choice(vs), rng.choice(vs))
    else:
        init = initial_position(rng.choice(starts))
    # Words for a script: rhs words, a word of base symbols, which no rhs
    # reads, and the empty word, so that replays also fail mid-round.
    pool = [w for rc in cs for w in iter_words(rc.rhs_nfa, 2) if w]
    pool += [(), tuple(SPECIALS.symbols)]
    script = [rng.choice(pool) for _ in range(rng.randint(0, 12))]
    return q0, cs, init, script, rng.randint(1, 2)


@given(st.integers(0, 2 ** 32 - 1))
def test_run_play_matches_the_immutable_play_on_random_instances(seed):
    q0, cs, init, script, max_rounds = _random_play(seed)
    _same_play(q0, cs, strategy_shortest, init, max_rounds)
    _same_play(q0, cs, lambda: strategy_scripted(script), init, max_rounds)
    # Both plays ask the strategy the same requests in the same order,
    # with the same round and index, up to the same failure.
    watches = []

    def watching():
        watches.append(Watching(strategy_scripted(script)))
        return watches[-1]

    _same_play(q0, cs, watching, init, max_rounds)
    got, want = watches
    assert got.calls == want.calls


def _start_chain(m):
    return initial_position(parse_word(
        "alpha " + "A-H-C-black B-V-C-black " * m + "omega",
        Alphabet(["alpha", "omega", "A-H-C-black", "B-V-C-black"])))


def _guided(model, init):
    h0 = find_homomorphism(init.graph, model)
    assert h0 is not None
    return lambda: strategy_guided(model, h0)


@pytest.mark.parametrize("m", range(2, 9))
@pytest.mark.parametrize("name", ["black", "two_shade"])
def test_guided_play_to_the_doubled_grid_matches_the_immutable_play(
        name, m, request):
    out = request.getfixturevalue(f"{name}_reduction")
    cs = out.constraint_set()
    model = decorate(build_grid(m), all_black_tiling(m)).graph
    init = _start_chain(m)
    got, want = _same_play(out.q0_nfa, cs, _guided(model, init), init, 20)
    result = got[0]
    assert (result.outcome, result.round) == (PlayOutcome.WON_FIXPOINT,
                                              m + 1)
    assert got[2].mapping == want[2].mapping


def test_each_outcome_matches_the_immutable_play(black_reduction):
    q0, cs = black_reduction.q0_nfa, black_reduction.constraint_set()
    model = decorate(build_grid(2), all_black_tiling(2)).graph
    init = _start_chain(2)
    lost = initial_position(
        parse_word("alpha A-H-W-black omega", black_reduction.alphabet))
    cases = [(strategy_shortest, lost, 10, PlayOutcome.LOST),
             (_guided(model, init), init, 2, PlayOutcome.EXHAUSTED),
             (_guided(model, init), init, 10, PlayOutcome.WON_FIXPOINT)]
    for make_strategy, start, max_rounds, outcome in cases:
        got, _ = _same_play(q0, cs, make_strategy, start, max_rounds)
        assert got[0].outcome is outcome


def _edited(trace, round_no, index, choice):
    """The trace with one choice of one round replaced, in JSONL form."""
    lines = trace_to_jsonl(trace).splitlines()
    rec = json.loads(lines[round_no])
    rec["choices"][index] = choice
    lines[round_no] = json.dumps(rec)
    return trace_from_jsonl("\n".join(lines) + "\n")


def test_mid_round_failures_match_the_immutable_play(black_reduction):
    q0, cs = black_reduction.q0_nfa, black_reduction.constraint_set()
    model = decorate(build_grid(2), all_black_tiling(2)).graph
    init = _start_chain(2)
    _, trace = run_play(q0, cs, _guided(model, init)(), init, 20)
    short = list(trace.rounds[0].choices) + list(trace.rounds[1].choices[:3])
    failing = {
        "script ran out": lambda: strategy_scripted(short),
        "not in the rhs language":
            lambda: scripted_from_trace(_edited(trace, 2, 1, "R:alpha")),
        "witness word is empty":
            lambda: scripted_from_trace(_edited(trace, 2, 1, "")),
    }
    for needle, make_strategy in failing.items():
        got, _ = _same_play(q0, cs, make_strategy, init, 20)
        assert needle in got[1]


def _colored_constraint(cid, lhs, rhs):
    colored = SPECIALS.colored()
    lhs, rhs = (parse_regex(x, colored) for x in (lhs, rhs))
    return RegularConstraint(lhs, rhs, cid, colored, compile_nfa(lhs, colored),
                             compile_nfa(rhs, colored))


def test_a_loss_closed_from_a_vertex_the_red_walk_reached_a_round_before():
    # Round 1 grafts a -R:beta-> n1_0_1 -R:alpha-> c, so the red walk of
    # beta beta from a has reached n1_0_1 after one beta.  That path opens
    # a request from n1_0_1 to b, and round 2 grafts n1_0_1 -R:beta-> b:
    # the loss test must go on with the walk from a over the new edge.
    cs = (_colored_constraint(0, "G:alpha", "R:beta R:alpha"),
          _colored_constraint(1, "R:alpha G:omega", "R:beta"))
    q0 = compile_nfa(parse_regex("beta beta", SPECIALS), SPECIALS)
    g = LabeledGraph.build(["a", "c", "b"], [("a", sym("G:alpha"), "c"),
                                             ("c", sym("G:omega"), "b")])
    init = EndpointedGraph(g, "a", "b")
    got, _ = _same_play(q0, cs, strategy_shortest, init, 5)
    result, trace = got[0], trace_from_jsonl(got[1])
    assert (result.outcome, result.round) == (PlayOutcome.LOST, 2)
    assert [rec.requests for rec in trace.rounds] == [
        (("a", "c", 0),), (("n1_0_1", "b", 1),)]


def test_a_play_from_a_graph_that_is_no_chain_records_no_initial_word():
    # b -R:beta-> a leaves a single a-to-b path, but the chain of its word
    # lacks that edge, so a trace that named the word would not replay.
    cs = (_colored_constraint(0, "G:alpha", "R:omega"),)
    q0 = compile_nfa(parse_regex("beta beta", SPECIALS), SPECIALS)
    g = LabeledGraph.build(["a", "b"], [("a", sym("G:alpha"), "b"),
                                        ("b", sym("R:beta"), "a")])
    init = EndpointedGraph(g, "a", "b")
    for result, jsonl, _ in _same_play(q0, cs, strategy_shortest, init, 3):
        assert (result.outcome, result.round) == (PlayOutcome.WON_FIXPOINT, 1)
        assert json.loads(jsonl.splitlines()[0]) == {"initial": None}


@pytest.mark.parametrize("edges, rounds", [
    ([], 0), ([("a", sym("G:alpha"), "a")], 1)])
def test_a_play_from_one_vertex_records_no_initial_word_and_replays(edges,
                                                                   rounds):
    # With a = b there is no chain to name: the header reads null, where
    # the empty word would not replay, and the trace reads back to the
    # same trace and the same bytes.
    cs = (_colored_constraint(0, "G:alpha", "R:omega"),)
    q0 = compile_nfa(parse_regex("beta beta", SPECIALS), SPECIALS)
    init = EndpointedGraph(LabeledGraph.build(["a"], edges), "a", "a")
    for result, jsonl, _ in _same_play(q0, cs, strategy_shortest, init, 3):
        assert (result.outcome, result.round) == (PlayOutcome.WON_FIXPOINT,
                                                  rounds)
        assert jsonl.splitlines()[0] == '{"initial":null}'
        trace = trace_from_jsonl(jsonl)
        assert trace.initial_word is None
        assert trace_to_jsonl(trace) == jsonl
        replay, again = run_play(q0, cs, scripted_from_trace(trace), init, 3)
        assert replay == result
        assert trace_to_jsonl(again) == jsonl


def test_the_loss_index_of_a_play_walks_from_a_alone(monkeypatch):
    # Once round 1 has grafted a red twin of every edge of the chain, red
    # alpha^+ omega holds from every chain vertex but b; the loss test
    # reads only (a, b), so its index keeps the walk from a alone.
    made = []

    class Recorded(LivePairs):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(escape, "LivePairs", Recorded)
    q0 = compile_nfa(parse_regex("alpha^+ omega", SPECIALS), SPECIALS)
    cs = make_arrow_set([parse_regex(x, SPECIALS) for x in ("alpha", "omega")],
                        SPECIALS)
    model = LabeledGraph.build(["u", "v", "z"], [
        (src, sym(f"{c}:{label}"), dst)
        for src, label, dst in (("u", "alpha", "v"), ("v", "alpha", "v"),
                                ("v", "omega", "z"))
        for c in "GR"])
    init = initial_position(parse_word("alpha alpha alpha omega", SPECIALS))
    result, _ = run_play(q0, cs, _guided(model, init)(), init, 5)
    assert (result.outcome, result.round) == (PlayOutcome.LOST, 1)
    [loss] = made
    assert (init.a, init.b) in loss.pairs
    assert {x for x, _ in loss.pairs} == {init.a}
