import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (random_batches, random_graph, random_regex,
                     requests_per_constraint)
from rpqdet.automata import Empty, Epsilon, Lit, Star, accepts, compile_nfa, concat_all, iter_words, literals_used, parse_regex, parse_word
from rpqdet.constraints import (
    ConstraintError,
    LiveRequests,
    Request,
    WitnessRejectedError,
    apply_add,
    fresh_names,
    make_arrow_set,
    make_arrows,
    recolor_nfa,
    recolor_regex,
    requests,
    satisfied,
)
from rpqdet.escape import initial_position
from rpqdet.graphs import LabeledGraph, chain_graph
from rpqdet.ogtp import reduction_alphabet
from rpqdet.rpq import edges_by_label, holds
from rpqdet.symbols import Alphabet, Color, sym

SPECIALS = Alphabet(["alpha", "beta", "omega"])
BLACK = reduction_alphabet(("black",))


def chain_m1():
    w = parse_word("alpha A-H-C-black B-V-C-black omega", BLACK)
    return initial_position(w).graph


def test_recolor_regex_relabels_literals_and_classes():
    r = parse_regex("alpha [A,H,C,*]*", BLACK)
    red = recolor_regex(r, Color.RED)
    n = compile_nfa(red, BLACK.colored())
    assert accepts(n, parse_word("R:alpha R:A-H-C-black", BLACK.colored()))


def test_recolor_regex_repaints_random_trees():
    rng = random.Random(11)
    labels = list(SPECIALS.symbols)
    colored = SPECIALS.colored()
    for _ in range(200):
        r = random_regex(rng, labels, depth=4)
        for color in (Color.GREEN, Color.RED):
            painted = recolor_regex(r, color)
            assert literals_used(painted) == {s.colored(color)
                                              for s in literals_used(r)}
            assert list(iter_words(compile_nfa(painted, colored), 3)) == [
                tuple(s.colored(color) for s in w)
                for w in iter_words(compile_nfa(r, SPECIALS), 3)]


def test_recolor_regex_and_literals_used_walk_long_flat_words():
    flat = concat_all([Lit(sym("alpha")), Lit(sym("beta"))] * 5000)
    red = recolor_regex(flat, Color.RED)
    assert literals_used(red) == {sym("R:alpha"), sym("R:beta")}
    fwd, back = make_arrows(flat, SPECIALS)
    green = {sym("G:alpha"), sym("G:beta")}
    assert literals_used(fwd.lhs) == literals_used(back.rhs) == green


def test_recolor_nfa_preserves_language_shape():
    n = compile_nfa(parse_regex("alpha + beta omega", SPECIALS), SPECIALS)
    red = recolor_nfa(n, Color.RED)
    assert list(iter_words(red, 2)) == [
        (sym("R:alpha"),),
        (sym("R:beta"), sym("R:omega")),
    ]


@given(st.integers(0, 2 ** 32 - 1))
def test_recolored_automaton_is_the_automaton_of_the_recolored_regex(seed):
    rng = random.Random(seed)
    r = random_regex(rng, list(BLACK.symbols), depth=4,
                     product_classes=rng.random() < 0.5)
    n = compile_nfa(r, BLACK)
    for color in (Color.GREEN, Color.RED):
        assert recolor_nfa(n, color) == compile_nfa(recolor_regex(r, color),
                                                    BLACK.colored())
    if not accepts(n, ()):
        fwd, back = make_arrows(r, BLACK)
        assert back.lhs_nfa is fwd.rhs_nfa and back.rhs_nfa is fwd.lhs_nfa
        assert fwd.lhs_nfa == compile_nfa(fwd.lhs, fwd.alphabet)
        assert fwd.rhs_nfa == compile_nfa(fwd.rhs, fwd.alphabet)


def test_reduction_arrows_share_their_automata(black_reduction,
                                               blocked_reduction,
                                               two_shade_reduction):
    for reduction in (black_reduction, blocked_reduction,
                      two_shade_reduction):
        cs = reduction.constraint_set()
        colored = reduction.alphabet.colored()
        assert all(cs[rc.cid] is rc for rc in cs)
        for fwd, back in zip(cs[::2], cs[1::2]):
            assert back.lhs_nfa is fwd.rhs_nfa and back.rhs_nfa is fwd.lhs_nfa
            assert fwd.lhs_nfa == compile_nfa(fwd.lhs, colored)
            assert fwd.rhs_nfa == compile_nfa(fwd.rhs, colored)


def test_make_arrows_returns_both_directions():
    fwd, back = make_arrows(Lit(sym("omega")), SPECIALS, first_id=4)
    assert (fwd.cid, back.cid) == (4, 5)
    assert fwd.describe() == "G:omega -> R:omega"
    assert back.describe() == "R:omega -> G:omega"


def test_make_arrows_rejects_nullable_languages():
    with pytest.raises(ConstraintError):
        make_arrows(Star(Lit(sym("alpha"))), SPECIALS)
    with pytest.raises(ConstraintError):
        make_arrows(Epsilon(), SPECIALS)


def test_make_arrows_rejects_colored_input():
    with pytest.raises(ConstraintError):
        make_arrows(Lit(sym("G:omega")), SPECIALS)


def test_make_arrows_rejects_a_foreign_symbol():
    with pytest.raises(ConstraintError, match="foreign symbol 'omega'"):
        make_arrows(Lit(sym("omega")), Alphabet(["alpha"]))


def test_empty_language_is_admitted_and_vacuous():
    # An empty view can arise from wildcard unions over a single shade;
    # both its arrows are unsatisfiable-lhs constraints, so they hold
    # everywhere and never generate requests.
    fwd, back = make_arrows(Empty(), SPECIALS)
    g = chain_m1()
    assert satisfied(fwd, g) and satisfied(back, g)


def test_arrow_set_counts_and_ids():
    langs = [Lit(sym("alpha")), Lit(sym("beta")), Lit(sym("omega"))]
    cs = make_arrow_set(langs, SPECIALS)
    assert len(cs) == 6
    assert [rc.cid for rc in cs] == list(range(6))
    assert cs[2].describe() == "G:beta -> R:beta"


def test_reduction_constraint_counts(black_reduction, two_shade_reduction,
                                     blocked_reduction):
    assert len(black_reduction.constraint_set()) == 24
    assert len(two_shade_reduction.constraint_set()) == 26
    assert len(blocked_reduction.constraint_set()) == 32


def test_every_constraint_holds_on_the_empty_graph(black_reduction):
    empty = LabeledGraph.build([], [])
    assert all(satisfied(rc, empty) for rc in black_reduction.constraint_set())


def test_initial_chain_violates_the_boundary_view(black_reduction):
    cs = black_reduction.constraint_set()
    g = chain_m1()
    # cid 2 is the green-to-red arrow of the two-letter start/end language.
    assert cs[2].describe().startswith("G:alpha + G:beta")
    assert not satisfied(cs[2], g)


def test_request_set_on_the_short_diagonal_chain(black_reduction):
    cs = black_reduction.constraint_set()
    got = [(r.x, r.y, r.cid) for r in requests(cs, chain_m1())]
    assert got == [
        ("a", "x1", 2),
        ("x1", "x2", 14),
        ("x1", "x3", 6),
        ("x2", "x3", 8),
        ("x3", "b", 0),
    ]


def test_requests_empty_iff_all_satisfied(black_reduction):
    cs = black_reduction.constraint_set()
    g = chain_m1()
    assert requests(cs, g)
    empty = LabeledGraph.build([], [])
    assert requests(cs, empty) == ()


@pytest.fixture(scope="module")
def arrow_sets(black_reduction, two_shade_reduction):
    """Per reduction, its colored alphabet, its arrow set, and the same
    arrows with each side compiled on its own, so no automaton is shared."""
    out = {}
    for name, reduction in (("black", black_reduction),
                            ("two_shade", two_shade_reduction)):
        colored = reduction.alphabet.colored()
        cs = reduction.constraint_set()
        unshared = tuple(replace(rc, lhs_nfa=compile_nfa(rc.lhs, colored),
                                 rhs_nfa=compile_nfa(rc.rhs, colored))
                         for rc in cs)
        out[name] = (colored, cs, unshared)
    return out


@pytest.mark.parametrize("name", ["black", "two_shade"])
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_requests_match_the_per_constraint_loop(name, seed, arrow_sets):
    """requests evaluates each shared automaton once; the same arrows
    with unshared automata must give the same requests."""
    colored, cs, unshared = arrow_sets[name]
    g = random_graph(random.Random(seed), list(colored.symbols),
                     max_vertices=6, max_edges=20)
    want = requests_per_constraint(cs, g)
    assert [(r.x, r.y, r.cid) for r in requests(cs, g)] == want
    assert [(r.x, r.y, r.cid) for r in requests(unshared, g)] == want


@pytest.mark.parametrize("name", ["black", "two_shade"])
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_live_requests_match_requests_after_every_batch(name, seed,
                                                        arrow_sets):
    colored, cs, _ = arrow_sets[name]
    rng = random.Random(seed)
    g = random_graph(rng, list(colored.symbols), max_vertices=6,
                     max_edges=20)
    batches = random_batches(rng, g)
    # The tracker walks the rows it is given at once, then each batch.
    out: dict = {}
    edges: list = []
    tracker = None
    for new_vertices, new_edges in batches:
        for v in new_vertices:
            out[v] = []
        for src, s, dst in new_edges:
            out[src].append((s, dst))
        edges += new_edges
        if tracker is None:
            tracker = LiveRequests(cs, out)
        else:
            tracker.extend(new_vertices, edges_by_label(new_edges))
        assert tracker.requests() == requests(cs, LabeledGraph.build(out,
                                                                     edges))


def test_request_invariant_holds_at_creation(black_reduction):
    cs = black_reduction.constraint_set()
    g = chain_m1()
    for r in requests(cs, g):
        assert holds(r.constraint.lhs_nfa, g, r.x, r.y)
        assert not holds(r.constraint.rhs_nfa, g, r.x, r.y)


def test_fresh_name_scheme():
    assert fresh_names(3, 0, 2) == ["n3_0_1", "n3_0_2"]
    assert fresh_names(1, 4, 0) == []


def test_apply_add_single_letter_adds_one_edge():
    fwd, _ = make_arrows(Lit(sym("omega")), SPECIALS)
    g = chain_graph((sym("G:omega"),), "a", "b")
    r = Request("a", "b", fwd)
    out = apply_add(g, r, (sym("R:omega"),), round_no=1, req_index=0)
    assert out.vertices == g.vertices
    assert ("a", sym("R:omega"), "b") in out.edges
    assert g.edges < out.edges


def test_apply_add_longer_witness_adds_fresh_path():
    base = reduction_alphabet(("black",))
    lang = parse_regex("omega + alpha [A,H,W,*] omega", base)
    fwd, _ = make_arrows(lang, base)
    g = chain_graph((sym("G:omega"),), "a", "b")
    r = Request("a", "b", fwd)
    w = parse_word("R:alpha R:A-H-W-black R:omega", base.colored())
    out = apply_add(g, r, w, round_no=2, req_index=1)
    assert out.vertices - g.vertices == {"n2_1_1", "n2_1_2"}
    assert ("a", sym("R:alpha"), "n2_1_1") in out.edges
    assert ("n2_1_2", sym("R:omega"), "b") in out.edges
    assert holds(r.constraint.rhs_nfa, out, "a", "b")


def test_apply_add_rejects_words_outside_the_rhs():
    fwd, _ = make_arrows(Lit(sym("omega")), SPECIALS)
    g = chain_graph((sym("G:omega"),), "a", "b")
    r = Request("a", "b", fwd)
    with pytest.raises(WitnessRejectedError):
        apply_add(g, r, (sym("R:alpha"),), round_no=1, req_index=0)


def test_apply_add_discharges_the_request(black_reduction):
    cs = black_reduction.constraint_set()
    g = chain_m1()
    first = requests(cs, g)[0]
    w = (sym("R:alpha"),)
    out = apply_add(g, first, w, round_no=1, req_index=0)
    remaining = {(r.x, r.y, r.cid) for r in requests(cs, out)}
    assert (first.x, first.y, first.cid) not in remaining


def test_apply_add_monotone_growth_fuzz():
    rng = random.Random(37)
    labels = [sym(n) for n in ("alpha", "beta", "omega")]
    fwd, _ = make_arrows(Lit(sym("beta")), SPECIALS)
    for i in range(30):
        g = random_graph(rng, [s.colored(Color.GREEN) for s in labels],
                         max_vertices=5, max_edges=8)
        if len(g.vertices) < 2:
            continue
        x, y = sorted(g.vertices)[:2]
        out = apply_add(g, Request(x, y, fwd), (sym("R:beta"),),
                        round_no=1, req_index=i)
        assert g.vertices <= out.vertices
        assert g.edges <= out.edges
