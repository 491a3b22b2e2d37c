import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import random_graph
from rpqdet.graphs import (
    EndpointedGraph,
    LabeledGraph,
    chain_graph,
    chain_word,
    endpointed_from_json,
    endpointed_to_json,
    graph_from_json,
    graph_to_json,
    graph_union,
    strip_shades,
)
from rpqdet.symbols import sym


def g_of(*edges, extra=()):
    vertices = set(extra)
    for s, _, d in edges:
        vertices |= {s, d}
    return LabeledGraph.build(vertices, [(s, sym(l), d) for s, l, d in edges])


def test_single_letter_chain():
    g = chain_graph((sym("G:alpha"),), "a", "b")
    assert g.vertices == frozenset({"a", "b"})
    assert g.edges == frozenset({("a", sym("G:alpha"), "b")})


def test_two_letter_chain_has_three_vertices():
    g = chain_graph((sym("G:alpha"), sym("G:omega")), "a", "b")
    assert len(g.vertices) == 3
    assert len(g.edges) == 2
    assert "x1" in g.vertices


def test_chain_vertex_count_tracks_word_length():
    w = tuple(sym(t) for t in
              ["G:alpha", "G:A-H-C-black", "G:B-V-C-black", "G:omega"])
    g = chain_graph(w, "a", "b")
    assert len(g.vertices) == len(w) + 1
    assert len(g.edges) == len(w)


def test_chain_rejects_empty_word():
    with pytest.raises(ValueError):
        chain_graph((), "a", "b")


def test_chain_rejects_equal_endpoints_and_colliding_names():
    w = (sym("G:alpha"), sym("G:omega"))
    with pytest.raises(ValueError, match="endpoints must differ"):
        chain_graph(w, "a", "a")
    with pytest.raises(ValueError, match="names collide"):
        chain_graph(w, "a", "x1")


def test_chain_word_reads_back_the_unique_path():
    w = tuple(sym(t) for t in ["G:alpha", "G:A-H-W-black", "G:omega"])
    g = chain_graph(w, "a", "b")
    assert chain_word(g, "a", "b") == w
    assert chain_word(g, "b", "a") is None


def test_chain_word_rejects_branching():
    g = g_of(("a", "G:alpha", "b"), ("a", "G:beta", "b"))
    assert chain_word(g, "a", "b") is None


@pytest.mark.parametrize("back", [("b", "R:beta", "a"), ("b", "R:beta", "b")])
def test_chain_word_rejects_an_out_edge_at_the_end(back):
    g = g_of(("a", "G:alpha", "b"), back)
    assert chain_word(g, "a", "b") is None


def test_chain_word_rejects_a_walk_that_comes_back():
    # a -> c -> a never reaches b: the walk stops where it revisits a.
    g = g_of(("a", "G:alpha", "c"), ("c", "G:beta", "a"), extra=["b"])
    assert chain_word(g, "a", "b") is None


def test_chain_word_from_a_vertex_to_itself_is_none():
    # chain_graph refuses equal endpoints, so no word replays such a path;
    # the empty word would not even start a play.
    assert chain_word(g_of(extra=["a"]), "a", "a") is None
    assert chain_word(g_of(("a", "G:alpha", "a")), "a", "a") is None


def test_edge_endpoints_validated():
    with pytest.raises(Exception):
        LabeledGraph.build(["a"], [("a", sym("G:alpha"), "missing")])


def test_endpointed_requires_member_vertices():
    g = g_of(("a", "G:alpha", "b"))
    with pytest.raises(Exception):
        EndpointedGraph(g, "a", "zzz")


def test_union_idempotent_commutative():
    g1 = g_of(("a", "G:alpha", "b"))
    g2 = g_of(("b", "G:omega", "c"))
    assert graph_union([g1, g1]) == g1
    assert graph_union([g1, g2]) == graph_union([g2, g1])


def test_union_of_disjoint_graphs_adds_sizes():
    g1 = g_of(("a", "G:alpha", "b"))
    g2 = g_of(("c", "G:omega", "d"))
    u = graph_union([g1, g2])
    assert len(u.vertices) == 4
    assert len(u.edges) == 2


def test_duplicate_edges_collapse():
    g = g_of(("a", "G:alpha", "b"), ("a", "G:alpha", "b"))
    assert len(g.edges) == 1


def test_parallel_edges_with_distinct_labels_survive():
    g = g_of(("a", "G:A-H-C-black", "b"), ("a", "R:A-H-W-black", "b"))
    assert len(g.edges) == 2


def test_strip_shades_on_grid_and_special_labels():
    g = g_of(("a", "R:A-H-W-black", "b"), ("b", "G:alpha", "c"))
    out = strip_shades(g)
    assert ("a", sym("R:A-H-W"), "b") in out.edges
    assert ("b", sym("G:alpha"), "c") in out.edges


def test_strip_shades_idempotent_and_collapsing():
    g1 = g_of(("a", "G:A-V-C-black", "b"))
    g2 = g_of(("a", "G:A-V-C-grey", "b"))
    assert strip_shades(g1) == strip_shades(g2)
    assert strip_shades(strip_shades(g1)) == strip_shades(g1)


def test_out_adjacency_is_sorted_and_complete():
    g = g_of(("a", "G:omega", "b"), ("a", "G:alpha", "c"), extra=("z",))
    labels = [s.name for s, _ in g.out_adj["a"]]
    assert labels == sorted(labels)
    assert g.out_adj["z"] == ()


def test_graph_json_round_trip():
    g = g_of(("a", "G:alpha", "x1"), ("x1", "G:omega", "b"))
    assert graph_from_json(graph_to_json(g)) == g


def test_endpointed_json_round_trip_and_overrides():
    eg = EndpointedGraph(g_of(("a", "G:alpha", "b")), "a", "b")
    text = endpointed_to_json(eg)
    back = endpointed_from_json(text)
    assert back == eg
    flipped = endpointed_from_json(text, a="b", b="a")
    assert (flipped.a, flipped.b) == ("b", "a")


@given(st.lists(st.sampled_from(["G:alpha", "G:A-H-C-black", "R:B-V-W-grey",
                                 "G:omega"]), min_size=1, max_size=6))
def test_chain_graph_path_is_unique(names):
    w = tuple(sym(n) for n in names)
    g = chain_graph(w, "a", "b")
    assert chain_word(g, "a", "b") == w
    assert len(g.edges) == len(w)


@given(st.integers(0, 2 ** 32 - 1))
def test_sources_by_label_matches_an_edge_scan(seed):
    rng = random.Random(seed)
    labels = [sym(n) for n in ("G:alpha", "R:alpha", "G:omega", "beta")]
    g = random_graph(rng, labels, max_edges=rng.choice([0, 3, 14]))
    want: dict = {}
    for src, s, _ in g.edges:
        want.setdefault(s, set()).add(src)
    got = g.sources_by_label
    assert {s: set(row) for s, row in got.items()} == want
    assert all(len(row) == len(set(row)) for row in got.values())
    assert g.labels() == want.keys()
    # A vertex without out-edges, isolated or not, is in no row.
    quiet = g.vertices - {src for src, _, _ in g.edges}
    assert all(quiet.isdisjoint(row) for row in got.values())
