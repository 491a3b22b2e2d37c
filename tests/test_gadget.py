import random
import time
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (build_grid_per_edge, check_counterexample_per_constraint,
                     decorate_per_edge, homomorphism_exists, is_homomorphism,
                     isomorphic, random_graph)
from rpqdet.automata import iter_words, parse_word
from rpqdet.constraints import make_arrow_set, requests, satisfied
from rpqdet.escape import (PlayOutcome, initial_position, run_play,
                           strategy_guided)
from rpqdet.gadget import (
    GadgetError,
    build_grid,
    check_counterexample,
    decorate,
    find_homomorphism,
    grid_size,
    grid_vertex,
    iso_shadeless,
    verify_homomorphism,
)
from rpqdet.graphs import (EndpointedGraph, LabeledGraph, UnknownVertexError,
                           chain_graph, endpointed_from_json,
                           endpointed_to_json, graph_from_json, graph_to_json,
                           strip_shades)
from rpqdet.ogtp import (GridTiling, OgtpInstance, all_black_tiling,
                         check_tiling, compile_reduction, h_cells,
                         solve_bruteforce, v_cells)
from rpqdet.symbols import Color, sym


def decorated(m):
    return decorate(build_grid(m), all_black_tiling(m))


# --------------------------------------------------------------------------
# The doubled grid


@pytest.mark.parametrize("m", [1, 2, 3])
def test_grid_counts(m):
    g = build_grid(m).graph
    assert len(g.vertices) == (m + 1) ** 2 + 2
    assert len(g.edges) == 4 * m * (m + 1) + 4
    assert len({lab for _, lab, _ in g.edges}) == 12


def test_grid_boundary_edges():
    eg = build_grid(2)
    g = eg.graph
    assert (eg.a, eg.b) == ("a", "b")
    assert ("a", sym("G:alpha"), "v_0_0") in g.edges
    assert ("a", sym("R:beta"), "v_0_0") in g.edges
    assert ("v_2_2", sym("G:omega"), "b") in g.edges
    assert ("v_2_2", sym("R:omega"), "b") in g.edges


def test_grid_pairs_every_neighbor_with_green_cold_and_red_warm():
    g = build_grid(2).graph
    for src, lab, dst in g.edges:
        if not lab.is_sigma0:
            continue
        if lab.color is Color.GREEN:
            assert lab.temperature == "C"
            twin = sym(f"R:{lab.tag}-{lab.direction}-W")
            assert (src, twin, dst) in g.edges
        else:
            assert lab.temperature == "W"


def test_grid_tags_follow_source_parity():
    g = build_grid(3).graph
    for src, lab, dst in g.edges:
        if lab.is_sigma0:
            i, j = map(int, src.split("_")[1:])
            assert lab.tag == ("A" if (i + j) % 2 == 0 else "B")


def test_grid_vertex_helpers():
    assert grid_vertex(1, 2) == "v_1_2"
    assert grid_size(build_grid(2).graph) == 2
    with pytest.raises(ValueError):
        build_grid(0)


# --------------------------------------------------------------------------
# Decoration


def test_decorate_all_black_suffixes_every_grid_label():
    g = decorated(2).graph
    for _, lab, _ in g.edges:
        if lab.is_sigma0:
            assert lab.shade == "black"


def test_decorate_then_strip_recovers_the_bare_grid():
    eg = build_grid(2)
    assert strip_shades(decorated(2).graph) == eg.graph


def test_decorate_copies_each_cell_to_both_twins():
    t = GridTiling(1, {c: "grey" for c in h_cells(1)},
                   {c: "black" for c in v_cells(1)})
    t.h[(0, 1)] = "black"  # keep the top-right horizontal edge black
    g = decorate(build_grid(1), t).graph
    for src, lab, dst in g.edges:
        if lab.is_sigma0:
            expected = t.h[_cell(src)] if lab.direction == "H" else t.v[_cell(src)]
            assert lab.shade == expected


def _cell(vertex):
    i, j = map(int, vertex.split("_")[1:])
    return (i, j)


def test_decorate_rejects_size_mismatch():
    with pytest.raises(GadgetError):
        decorate(build_grid(2), all_black_tiling(1))


def test_decorate_rejects_non_grid_graphs():
    g = LabeledGraph.build(["a", "b"], [("a", sym("G:A-H-C"), "b")])
    with pytest.raises(GadgetError):
        decorate(EndpointedGraph(g, "a", "b"), all_black_tiling(1))


def test_decorate_rejects_a_four_field_edge_off_the_grid():
    eg = build_grid(1)
    g = LabeledGraph(eg.graph.vertices, eg.graph.edges | {
        ("a", sym("G:A-H-C"), grid_vertex(0, 0))})
    with pytest.raises(GadgetError, match="leaves non-grid vertex 'a'"):
        decorate(EndpointedGraph(g, "a", "b"), all_black_tiling(1))


def test_grid_names_are_only_those_grid_vertex_writes():
    """A leading zero or a non-ASCII digit makes a name off the grid, even
    when its digits read as a grid cell."""
    eg = build_grid(1)
    for name in ("v_01_0", "v_\u0661_0"):
        g = LabeledGraph(eg.graph.vertices | {name}, eg.graph.edges | {
            (name, sym("G:A-H-C"), grid_vertex(1, 1))})
        assert grid_size(g) == 1
        with pytest.raises(GadgetError,
                           match=f"four-field edge leaves non-grid vertex "
                                 f"{name!r}"):
            decorate(EndpointedGraph(g, "a", "b"), all_black_tiling(1))
    lookalikes = LabeledGraph.build(
        ["a", "b", "v_01_0", "v_\u0661_0", "v_0_00"],
        [("a", sym("G:alpha"), "v_01_0")])
    with pytest.raises(GadgetError, match="graph has no grid vertices"):
        grid_size(lookalikes)
    with pytest.raises(GadgetError, match="graph has no grid vertices"):
        decorate(EndpointedGraph(lookalikes, "a", "b"), all_black_tiling(1))


def _two_shade_tiling(rng, m):
    return GridTiling(m, {c: rng.choice(("black", "grey")) for c in h_cells(m)},
                      {c: rng.choice(("black", "grey")) for c in v_cells(m)})


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_grid_and_decoration_match_the_per_edge_reference(m):
    rng = random.Random(m)
    grid = build_grid(m)
    assert grid == build_grid_per_edge(m)
    assert endpointed_to_json(grid) == endpointed_to_json(
        build_grid_per_edge(m))
    for _ in range(3):
        t = _two_shade_tiling(rng, m)
        got, want = decorate(grid, t), decorate_per_edge(grid, t)
        assert got == want
        assert endpointed_to_json(got) == endpointed_to_json(want)


def _without_cell(m, cell):
    t = all_black_tiling(m)
    del t.v[cell]
    return build_grid(m), t


def _with_off_grid_edge():
    eg = build_grid(1)
    g = LabeledGraph(eg.graph.vertices, eg.graph.edges | {
        ("a", sym("G:A-H-C"), grid_vertex(0, 0))})
    return EndpointedGraph(g, "a", "b"), all_black_tiling(1)


@pytest.mark.parametrize("case,message", [
    (lambda: (build_grid(2), all_black_tiling(1)),
     "tiling size 1 does not match grid size 2"),
    (lambda: (EndpointedGraph(LabeledGraph.build(
        ["a", "b"], [("a", sym("G:A-H-C"), "b")]), "a", "b"),
              all_black_tiling(1)),
     "graph has no grid vertices"),
    (_with_off_grid_edge, "four-field edge leaves non-grid vertex 'a'"),
    (lambda: _without_cell(2, (1, 1)), "tiling has no shade for cell (1, 1)"),
])
def test_decorate_errors_match_the_per_edge_reference(case, message):
    for fn in (decorate, decorate_per_edge):
        with pytest.raises(GadgetError) as err:
            fn(*case())
        assert str(err.value) == message


def _assert_names_shared(g):
    canon = {v: v for v in g.vertices}
    for src, _, dst in g.edges:
        assert src is canon[src] and dst is canon[dst]
    for v, row in g.out_adj.items():
        assert v is canon[v]
        for _, w in row:
            assert w is canon[w]


def test_graph_builders_give_each_vertex_name_one_string():
    """Every edge endpoint is the vertex-set member it names, so lookups
    keyed by vertex compare by identity, not by characters."""
    grid = build_grid(3)
    model = decorate(grid, _two_shade_tiling(random.Random(3), 3))
    word = tuple(sym(s) for s in ("G:alpha", "G:A-H-C-black", "G:omega"))
    for g in (grid.graph, model.graph,
              graph_from_json(graph_to_json(model.graph)),
              endpointed_from_json(endpointed_to_json(model)).graph,
              chain_graph(word, "a", "b")):
        _assert_names_shared(g)


# --------------------------------------------------------------------------
# Counterexample checking


def test_decorated_grid_is_a_counterexample(black_reduction):
    eg = decorated(2)
    report = check_counterexample(
        eg.graph, black_reduction.views.all_languages(),
        black_reduction.q0_nfa, eg.a, eg.b)
    assert report.ok
    assert report.failures == ()


def test_missing_green_end_marker_fails_the_second_condition(black_reduction):
    eg = decorated(2)
    g = LabeledGraph.build(
        eg.graph.vertices,
        [e for e in eg.graph.edges if e[1] is not sym("G:omega")])
    report = check_counterexample(
        g, black_reduction.views.all_languages(),
        black_reduction.q0_nfa, "a", "b")
    assert not report.ok
    assert any("G(Q0) fails" in f for f in report.failures)


def test_forbidden_pair_instance_sees_a_red_escape_path(two_shade_reduction):
    # All-black decoration of the unit grid: its warm subgraph walks
    # H then V in black, exactly the pair this instance forbids... but the
    # forbidden pair here is (H, black) -> (V, grey), so build a decoration
    # that uses grey on a vertical edge after a black horizontal one.
    t = all_black_tiling(1)
    t.v[(1, 0)] = "grey"
    eg = decorate(build_grid(1), t)
    report = check_counterexample(
        eg.graph, two_shade_reduction.views.all_languages(),
        two_shade_reduction.q0_nfa, eg.a, eg.b)
    assert not report.ok
    assert any("R(Q0) fails" in f for f in report.failures)


def test_counterexample_checker_validates_endpoints(black_reduction):
    eg = decorated(1)
    with pytest.raises(UnknownVertexError):
        check_counterexample(eg.graph, black_reduction.views.all_languages(),
                             black_reduction.q0_nfa, "a", "zzz")


def test_counterexample_failures_match_the_per_constraint_loop(
        two_shade_reduction):
    """Every single-grey-cell tiling of the doubled grid, m = 2..4: the
    failures read off requests() are the per-constraint satisfied()
    failures, in the same order and words."""
    views = two_shade_reduction.views.all_languages()
    q0 = two_shade_reduction.q0_nfa
    failed = 0
    for m in (2, 3, 4):
        grid = build_grid(m)
        for field, cells in (("h", h_cells(m)), ("v", v_cells(m))):
            for cell in cells:
                t = all_black_tiling(m)
                getattr(t, field)[cell] = "grey"
                eg = decorate(grid, t)
                got = check_counterexample(eg.graph, views, q0, eg.a, eg.b)
                assert got == check_counterexample_per_constraint(
                    eg.graph, views, q0, eg.a, eg.b)
                failed += not got.ok
    assert failed


def _agreements(inst, tilings):
    """Per tiling, whether the decorated grid passes check_counterexample,
    asserting that it does exactly when the tiling is a solution."""
    red = compile_reduction(inst)
    views = red.views.all_languages()
    got = []
    for t in tilings:
        eg = decorate(build_grid(t.n), t)
        ok = check_counterexample(eg.graph, views, red.q0_nfa, eg.a, eg.b).ok
        assert ok == check_tiling(inst, t), (inst, t)
        got.append(ok)
    return got


def test_counterexample_check_agrees_with_the_tiling_check():
    """The reduction's claim on grids: a decorated grid is a
    counterexample exactly when its shading solves the instance.  Every
    forbidden set on {black} at n = 1 and 2, and seeded forbidden sets on
    {black, grey} with random shadings; most of these grids lack a shade,
    so evaluate skips views there."""
    pairs = [((d1, "black"), (d2, "black")) for d1 in "HV" for d2 in "HV"]
    got = []
    for k in range(len(pairs) + 1):
        for forbidden in combinations(pairs, k):
            inst = OgtpInstance(("black",), frozenset(forbidden))
            got += _agreements(inst, [all_black_tiling(n) for n in (1, 2)])
    rng = random.Random(25)
    shades = ("black", "grey")
    pairs = [((d1, s1), (d2, s2)) for d1 in "HV" for s1 in shades
             for d2 in "HV" for s2 in shades]
    for _ in range(8):
        inst = OgtpInstance(shades, frozenset(rng.sample(pairs,
                                                         rng.randint(0, 6))))
        got += _agreements(inst, [
            GridTiling(n, {c: rng.choice(shades) for c in h_cells(n)},
                       {c: rng.choice(shades) for c in v_cells(n)})
            for _ in range(5) for n in (1, 2)])
    assert len(got) == 112
    assert 0 < sum(got) < len(got)


def test_grid_satisfies_the_good_views_with_no_open_requests(black_reduction):
    cs = make_arrow_set(black_reduction.views.good, black_reduction.alphabet)
    for m in (1, 2):
        g = decorated(m).graph
        assert all(satisfied(rc, g) for rc in cs)
        assert requests(cs, g) == ()


def test_grid_satisfies_the_ugly_views_too(black_reduction):
    cs = make_arrow_set(black_reduction.views.ugly, black_reduction.alphabet)
    g = decorated(2).graph
    assert all(satisfied(rc, g) for rc in cs)


# --------------------------------------------------------------------------
# Homomorphisms


def test_identity_homomorphism_found():
    g = decorated(1).graph
    h = find_homomorphism(g, g)
    assert h is not None
    assert verify_homomorphism(g, g, h)


def test_diagonal_chain_embeds_into_the_grid(black_reduction):
    word = parse_word(
        "alpha A-H-C-black B-V-C-black A-H-C-black B-V-C-black omega",
        black_reduction.alphabet)
    d = initial_position(word).graph
    model = decorated(2).graph
    h = find_homomorphism(d, model)
    assert h is not None
    assert verify_homomorphism(d, model, h)
    assert is_homomorphism(d, model, h)
    assert h["a"] == "a" and h["b"] == "b" and h["x1"] == "v_0_0"


def test_disjoint_label_sets_have_no_homomorphism():
    d = LabeledGraph.build(["a", "b"], [("a", sym("G:alpha"), "b")])
    m = LabeledGraph.build(["c", "d"], [("c", sym("G:omega"), "d")])
    assert find_homomorphism(d, m) is None


def test_verify_homomorphism_requires_total_coverage():
    g = decorated(1).graph
    h = find_homomorphism(g, g)
    partial = dict(h)
    partial.pop("v_0_0")
    assert not verify_homomorphism(g, g, partial)
    wrong = dict(h)
    wrong["v_0_0"] = "b"
    assert not verify_homomorphism(g, g, wrong)
    # An edgeless vertex sent off the model fails on the image alone.
    lone = LabeledGraph.build(["p"], [])
    assert not verify_homomorphism(lone, g, {"p": "nowhere"})


# --------------------------------------------------------------------------
# Shade-blind isomorphism


def test_decoration_is_invisible_to_the_shade_blind():
    assert iso_shadeless(build_grid(2).graph, decorated(2).graph)


def test_different_grid_sizes_are_not_isomorphic():
    assert not iso_shadeless(build_grid(1).graph, build_grid(2).graph)


def test_vertex_renaming_preserves_shadeless_isomorphism():
    g = build_grid(2).graph
    renamed = LabeledGraph.build(
        {f"w{v}" for v in g.vertices},
        {(f"w{s}", lab, f"w{d}") for s, lab, d in g.edges})
    assert iso_shadeless(g, renamed)


def test_missing_edge_breaks_isomorphism():
    g = build_grid(1).graph
    pruned = LabeledGraph.build(
        g.vertices, [e for e in g.edges if e[1] is not sym("R:omega")])
    assert not iso_shadeless(g, pruned)


# --------------------------------------------------------------------------
# The shared backtracker against brute force


HOM_LABELS = [sym("G:alpha"), sym("G:A-H-C-black")]
SHADED = {"G:A-H-C": [sym("G:A-H-C-black"), sym("G:A-H-C-grey")],
          "R:B-V-W": [sym("R:B-V-W-black"), sym("R:B-V-W-grey")]}
ISO_LABELS = [sym("G:alpha"), *SHADED["G:A-H-C"], *SHADED["R:B-V-W"]]


@given(st.integers(0, 2 ** 32 - 1))
def test_find_homomorphism_matches_brute_force(seed):
    rng = random.Random(seed)
    d = random_graph(rng, HOM_LABELS, max_vertices=4, max_edges=5)
    m = random_graph(rng, HOM_LABELS, max_vertices=5, max_edges=9)
    h = find_homomorphism(d, m)
    assert (h is not None) == homomorphism_exists(d, m)
    if h is not None:
        assert is_homomorphism(d, m, h)


def test_a_self_loop_maps_only_onto_a_self_loop():
    s = sym("G:alpha")
    d = LabeledGraph.build(["x"], [("x", s, "x")])
    two_cycle = LabeledGraph.build(["p", "q"], [("p", s, "q"), ("q", s, "p")])
    assert find_homomorphism(d, two_cycle) is None
    looped = LabeledGraph.build(["p", "q"], [("p", s, "q"), ("q", s, "q")])
    assert find_homomorphism(d, looped) == {"x": "q"}


def _reshaded_copy(rng, g):
    """g with its vertices renamed by a random permutation and every shaded
    label given a random shade."""
    names = sorted(g.vertices)
    rename = dict(zip(names, rng.sample([f"w{i}" for i in names], len(names))))
    edges = {(rename[x], rng.choice(SHADED.get(lab.stripped().name, [lab])),
              rename[y]) for x, lab, y in g.edges}
    return LabeledGraph.build(rename.values(), edges)


@given(st.integers(0, 2 ** 32 - 1))
def test_iso_shadeless_matches_brute_force(seed):
    rng = random.Random(seed)
    d = random_graph(rng, ISO_LABELS, max_vertices=5, max_edges=7)
    roll = rng.random()
    if roll < 0.8:
        e = _reshaded_copy(rng, d)
        if roll < 0.4 and e.edges:
            x, lab, y = rng.choice(sorted(e.edges, key=repr))
            moved = (x, lab, rng.choice(sorted(e.vertices)))
            e = LabeledGraph.build(e.vertices,
                                   set(e.edges) - {(x, lab, y)} | {moved})
    else:
        e = random_graph(rng, ISO_LABELS, max_vertices=5, max_edges=7)
    assert iso_shadeless(d, e) == isomorphic(strip_shades(d), strip_shades(e))


@pytest.mark.parametrize("m", [7, 9, 17])
def test_start_chain_embeds_into_odd_grids_within_budget(black_reduction, m):
    """Odd sizes once sent the name-ordered search into exponential
    backtracking; the connectivity-first order walks the chain."""
    word = parse_word("alpha " + "A-H-C-black B-V-C-black " * m + "omega",
                      black_reduction.alphabet)
    d = initial_position(word).graph
    model = decorated(m).graph
    t0 = time.perf_counter()
    h = find_homomorphism(d, model)
    assert time.perf_counter() - t0 < 2.0
    assert h is not None
    assert verify_homomorphism(d, model, h)


def _game_instances():
    """All 16 forbidden sets on {black}, 8 seeded sets on {black, grey},
    and S1, whose smallest tiling is at n = 2."""
    pairs = [((d1, "black"), (d2, "black")) for d1 in "HV" for d2 in "HV"]
    insts = [OgtpInstance(("black",), frozenset(forbidden))
             for k in range(len(pairs) + 1)
             for forbidden in combinations(pairs, k)]
    rng = random.Random(4)
    shades = ("black", "grey")
    pairs = [((d1, s1), (d2, s2)) for d1 in "HV" for s1 in shades
             for d2 in "HV" for s2 in shades]
    insts += [OgtpInstance(shades, frozenset(rng.sample(pairs,
                                                        rng.randint(0, 6))))
              for _ in range(8)]
    insts.append(OgtpInstance(shades, frozenset({
        (("H", "black"), ("V", "black")), (("V", "black"), ("H", "black")),
        (("V", "grey"), ("H", "grey"))})))
    return insts


def test_guided_play_into_each_tiling_reaches_fixpoint():
    """The game half of the reduction's claim: a tiling's decorated grid
    guides a play to fixpoint.  The play starts from the first q0 word
    whose chain maps into the grid; a chain with a label the grid lacks
    maps nowhere, so those words are skipped before the search."""
    rounds = []
    for inst in _game_instances():
        t = solve_bruteforce(inst, 2)
        if t is None:
            continue
        red = compile_reduction(inst)
        model = decorate(build_grid(t.n), t).graph
        for word in iter_words(red.q0_nfa, 8):
            init = initial_position(word)
            if init.graph.labels() <= model.labels():
                h0 = find_homomorphism(init.graph, model)
                if h0 is not None:
                    break
        else:
            pytest.fail(f"no q0 word maps into the grid of {inst}")
        result, _ = run_play(red.q0_nfa, red.constraint_set(),
                             strategy_guided(model, h0), init, 20)
        assert result.outcome is PlayOutcome.WON_FIXPOINT, inst
        rounds.append((t.n, result.round))
    assert rounds.count((1, 2)) == len(rounds) - 1
    assert rounds[-1] == (2, 3)
