import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (eval_algebraic, eval_walks, random_batches, random_graph,
                     random_regex)
from rpqdet.automata import (Epsilon, Lit, Nfa, Union, accepts, compile_nfa,
                             parse_regex)
from rpqdet import rpq
from rpqdet.gadget import build_grid
from rpqdet.graphs import LabeledGraph, UnknownVertexError, chain_graph
from rpqdet.rpq import (LivePairs, edges_by_label, evaluate, find_witness,
                        holds)
from rpqdet.symbols import Alphabet, sym

LABELS = [sym(n) for n in ("alpha", "beta", "omega", "A-H-C-black")]
ALPH = Alphabet(LABELS)


def nfa(text):
    return compile_nfa(parse_regex(text, ALPH), ALPH)


def test_chain_matches_its_own_word():
    w = tuple(sym(t) for t in ["G:alpha", "G:A-H-C-black", "G:omega"])
    g = chain_graph(w, "a", "b")
    colored = Alphabet(sorted({s for _, s, _ in g.edges}))
    q = compile_nfa(parse_regex("G:alpha G:A-H-C-black G:omega", colored), colored)
    assert ("a", "b") in evaluate(q, g)
    assert holds(q, g, "a", "b")
    assert find_witness(q, g, "a", "b")[0] == w


def test_green_end_marker_on_grid():
    grid = build_grid(2).graph
    labels = Alphabet(sorted(grid.labels()))
    q = compile_nfa(Lit(sym("G:omega")), labels)
    assert evaluate(q, grid) == frozenset({("v_2_2", "b")})
    assert find_witness(q, grid, "v_2_2", "b")[0] == (sym("G:omega"),)


def test_no_path_between_disconnected_vertices():
    g = LabeledGraph.build(["a", "b", "c"], [("a", sym("alpha"), "b")])
    q = nfa("alpha")
    assert not holds(q, g, "c", "a")
    assert find_witness(q, g, "c", "a") is None


def test_self_pair_needs_a_cycle_when_epsilon_free():
    g = LabeledGraph.build(["a", "b"], [("a", sym("alpha"), "b")])
    assert not holds(nfa("alpha*  alpha"), g, "a", "a")
    loop = LabeledGraph.build(["a"], [("a", sym("alpha"), "a")])
    assert holds(nfa("alpha alpha"), loop, "a", "a")


def test_epsilon_query_relates_every_vertex_to_itself():
    g = LabeledGraph.build(["a", "b"], [("a", sym("alpha"), "b")])
    q = compile_nfa(Epsilon(), ALPH)
    assert evaluate(q, g) == frozenset({("a", "a"), ("b", "b")})


def test_unknown_vertex_is_an_error():
    g = LabeledGraph.build(["a"], [])
    with pytest.raises(UnknownVertexError):
        holds(nfa("alpha"), g, "a", "zzz")
    with pytest.raises(UnknownVertexError):
        find_witness(nfa("alpha"), g, "zzz", "a")


def test_cyclic_graph_terminates_and_matches_star():
    g = LabeledGraph.build(
        ["a", "b"], [("a", sym("alpha"), "b"), ("b", sym("alpha"), "a")])
    q = nfa("alpha alpha alpha")
    assert holds(q, g, "a", "b")
    assert evaluate(nfa("alpha*"), g) == frozenset(
        {("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")})


def test_find_path_returns_shortlex_least_witness():
    g = LabeledGraph.build(
        ["a", "b"],
        [("a", sym("omega"), "b"), ("a", sym("alpha"), "b")])
    q = nfa("alpha + omega")
    assert find_witness(q, g, "a", "b")[0] == (sym("alpha"),)


def test_find_path_word_is_accepted_and_walkable():
    rng = random.Random(5)
    for _ in range(80):
        g = random_graph(rng, LABELS, max_vertices=6, max_edges=10)
        r = random_regex(rng, LABELS, depth=3)
        q = compile_nfa(r, ALPH)
        for x in sorted(g.vertices):
            for y in sorted(g.vertices):
                hit = find_witness(q, g, x, y)
                if hit is not None:
                    w, path = hit
                    assert accepts(q, w)
                    assert (path[0], path[-1]) == (x, y)
                    assert set(zip(path, w, path[1:])) <= g.edges


def test_eval_holds_find_path_agree():
    rng = random.Random(9)
    for _ in range(60):
        g = random_graph(rng, LABELS, max_vertices=6, max_edges=10)
        r = random_regex(rng, LABELS, depth=3)
        q = compile_nfa(r, ALPH)
        pairs = evaluate(q, g)
        for x in sorted(g.vertices):
            for y in sorted(g.vertices):
                inside = (x, y) in pairs
                assert holds(q, g, x, y) == inside
                assert (find_witness(q, g, x, y) is not None) == inside


@given(st.integers(0, 2 ** 32 - 1))
def test_holds_agrees_with_evaluate_on_random_instances(seed):
    """holds stops once it reaches its goal; every pair, x == y included,
    and a query that accepts the empty word must still agree."""
    rng = random.Random(seed)
    g = random_graph(rng, LABELS, max_vertices=6, max_edges=10)
    r = random_regex(rng, LABELS, depth=3)
    for q in (compile_nfa(r, ALPH), compile_nfa(Union(Epsilon(), r), ALPH)):
        pairs = evaluate(q, g)
        for x in sorted(g.vertices):
            for y in sorted(g.vertices):
                assert holds(q, g, x, y) == ((x, y) in pairs)


def test_eval_agrees_with_relation_algebra():
    rng = random.Random(13)
    for _ in range(120):
        g = random_graph(rng, LABELS)
        r = random_regex(rng, LABELS, depth=4)
        assert evaluate(compile_nfa(r, ALPH), g) == eval_algebraic(r, g)


def test_eval_agrees_with_literal_walks_at_small_caps():
    rng = random.Random(17)
    for _ in range(25):
        g = random_graph(rng, LABELS, max_vertices=5, max_edges=7)
        r = random_regex(rng, LABELS, depth=3)
        # Walk enumeration is truncated at length 5, so it can only miss
        # pairs, never invent them.
        assert eval_walks(r, g, 5) <= eval_algebraic(r, g)
    # On acyclic inputs length-capped enumeration is complete.
    w = tuple(sym(t) for t in ["G:alpha", "G:omega"])
    chain = chain_graph(w, "a", "b")
    colored = Alphabet(sorted({s for _, s, _ in chain.edges}))
    r = parse_regex("G:alpha G:omega", colored)
    assert eval_walks(r, chain, 4) == eval_algebraic(r, chain)


def test_monotone_under_edge_addition():
    rng = random.Random(19)
    for _ in range(40):
        g = random_graph(rng, LABELS, max_vertices=5, max_edges=6)
        r = random_regex(rng, LABELS, depth=3)
        q = compile_nfa(r, ALPH)
        before = evaluate(q, g)
        grown = LabeledGraph.build(
            g.vertices | {"extra"},
            set(g.edges) | {(sorted(g.vertices)[0], LABELS[0], "extra")})
        assert before <= evaluate(q, grown)


@given(st.integers(0, 2 ** 32 - 1))
def test_eval_matches_oracle_on_random_instances(seed):
    rng = random.Random(seed)
    g = random_graph(rng, LABELS, max_vertices=6, max_edges=9)
    r = random_regex(rng, LABELS, depth=3)
    assert evaluate(compile_nfa(r, ALPH), g) == eval_algebraic(r, g)


@given(st.integers(0, 2 ** 32 - 1))
def test_eval_matches_oracle_on_graphs_missing_labels(seed):
    """Graphs over a random part of the labels, so that a query often
    accepts no word over the graph's labels and evaluate and holds skip
    the walk."""
    rng = random.Random(seed)
    used = rng.sample(LABELS, rng.randint(1, len(LABELS)))
    g = random_graph(rng, used, max_vertices=6, max_edges=9)
    r = random_regex(rng, LABELS, depth=3)
    q, want = compile_nfa(r, ALPH), eval_algebraic(r, g)
    assert evaluate(q, g) == want
    assert {(x, y) for x in g.vertices for y in g.vertices
            if holds(q, g, x, y)} == want


def test_a_union_over_missing_labels_walks_nothing(monkeypatch):
    """alpha beta + beta alpha has no label that every word holds, yet on
    a graph of alpha edges alone it accepts no walk: evaluate and holds
    answer without entering _walk."""
    walks = []
    monkeypatch.setattr(rpq, "_walk",
                        lambda *args: walks.append(args) or set())
    a = sym("alpha")
    g = LabeledGraph.build({"x", "y", "z"}, {("x", a, "y"), ("y", a, "z"),
                                             ("z", a, "x")})
    q = nfa("alpha beta + beta alpha")
    assert evaluate(q, g) == frozenset()
    assert not holds(q, g, "x", "z")
    assert walks == []


def _hand_built(start_accepts: bool) -> Nfa:
    """alpha (beta alpha)* omega?, with state 0 re-entered on beta; when
    start_accepts, state 0 also accepts, which the Glushkov automata of
    compile_nfa never combine with re-entry."""
    a, b, o = (sym(n) for n in ("alpha", "beta", "omega"))
    return Nfa(ALPH, 3, {0: {a: frozenset({1})},
                         1: {b: frozenset({0}), o: frozenset({2})}}, 0,
               frozenset({0, 1, 2} if start_accepts else {1, 2}))


@given(st.integers(0, 2 ** 32 - 1))
def test_live_pairs_match_evaluate_after_every_batch(seed):
    rng = random.Random(seed)
    queries = [compile_nfa(random_regex(rng, LABELS, depth=3), ALPH),
               nfa("alpha*"), _hand_built(True), _hand_built(False)]
    g = random_graph(rng, LABELS, max_vertices=7, max_edges=16)
    out: dict = {}
    live = [LivePairs(q, out) for q in queries]
    edges: list = []
    for new_vertices, new_edges in random_batches(rng, g):
        for v in new_vertices:
            out[v] = []
        for src, s, dst in new_edges:
            out[src].append((s, dst))
        edges += new_edges
        now = LabeledGraph.build(out, edges)
        by_label = edges_by_label(new_edges)
        for pairs in live:
            pairs.extend(new_vertices, by_label)
            assert pairs.pairs == evaluate(pairs.q, now)


@given(st.integers(0, 2 ** 32 - 1))
def test_live_pairs_from_one_source_match_evaluate_after_every_batch(seed):
    rng = random.Random(seed)
    queries = [compile_nfa(random_regex(rng, LABELS, depth=3), ALPH),
               nfa("alpha*"), _hand_built(True), _hand_built(False)]
    g = random_graph(rng, LABELS, max_vertices=7, max_edges=16)
    source = rng.choice(sorted(g.vertices))
    # The indexes are built on the rows of the first batch, which walk
    # them at once; the source may come in a later batch.
    out: dict = {}
    edges: list = []
    live = None
    for new_vertices, new_edges in random_batches(rng, g):
        for v in new_vertices:
            out[v] = []
        for src, s, dst in new_edges:
            out[src].append((s, dst))
        edges += new_edges
        if live is None:
            live = [LivePairs(q, out, source) for q in queries]
        else:
            by_label = edges_by_label(new_edges)
            for pairs in live:
                pairs.extend(new_vertices, by_label)
        now = LabeledGraph.build(out, edges)
        for pairs in live:
            assert pairs.pairs == {(x, y) for x, y in evaluate(pairs.q, now)
                                   if x == source}


def test_live_pairs_take_batches_over_labels_no_state_reads():
    """alpha beta reads neither omega nor A-H-C-black: a batch over those
    changes no pair, unless the query accepts the empty word, when each
    new vertex pairs with itself.  The rows the batch added are still
    walked once a later edge leads into them."""
    alpha, beta, omega, black = LABELS
    text = "alpha beta"
    eps_or = Union(Epsilon(), parse_regex(text, ALPH))
    queries = [nfa(text), compile_nfa(eps_or, ALPH)]
    out = {"u0": [(alpha, "u1")], "u1": [(beta, "u2")], "u2": []}
    edges = [("u0", alpha, "u1"), ("u1", beta, "u2")]
    live = [LivePairs(q, out) for q in queries]
    before = [set(pairs.pairs) for pairs in live]
    for new_vertices, new_edges in (
            (["u3"], [("u2", omega, "u3"), ("u3", black, "u0")]),
            ([], [("u3", alpha, "u1")])):
        for v in new_vertices:
            out[v] = []
        for src, s, dst in new_edges:
            out[src].append((s, dst))
        edges += new_edges
        now = LabeledGraph.build(out, edges)
        by_label = edges_by_label(new_edges)
        for pairs in live:
            pairs.extend(new_vertices, by_label)
            assert pairs.pairs == evaluate(pairs.q, now)
        if new_vertices:
            assert live[0].pairs == before[0] == {("u0", "u2")}
            assert live[1].pairs == before[1] | {("u3", "u3")}
    assert ("u3", "u2") in live[0].pairs
