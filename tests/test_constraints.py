import random

import pytest

from oracles import random_graph, random_regex
from rpqdet.automata import Empty, Epsilon, Lit, Star, accepts, compile_nfa, concat_all, enumerate_words, literals_used, parse_regex, parse_word
from rpqdet.constraints import (
    ConstraintError,
    Request,
    WitnessRejectedError,
    apply_add,
    constraint_set_from_json,
    constraint_set_to_json,
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
from rpqdet.rpq import holds
from rpqdet.symbols import Alphabet, Color, FormatError, sym

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
            assert enumerate_words(compile_nfa(painted, colored), 3) == [
                tuple(s.colored(color) for s in w)
                for w in enumerate_words(compile_nfa(r, SPECIALS), 3)]


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
    assert enumerate_words(red, 2) == [
        (sym("R:alpha"),),
        (sym("R:beta"), sym("R:omega")),
    ]


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
    assert cs.by_id(2).describe() == "G:beta -> R:beta"


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
    assert cs.by_id(2).describe().startswith("G:alpha + G:beta")
    assert not satisfied(cs.by_id(2), g)


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


def test_constraint_set_json_round_trip(black_reduction):
    cs = black_reduction.constraint_set()
    text = constraint_set_to_json(cs)
    back = constraint_set_from_json(text, black_reduction.alphabet)
    assert len(back) == len(cs)
    assert [rc.describe() for rc in back] == [rc.describe() for rc in cs]


@pytest.mark.parametrize("text", [
    '[1]',
    '{}',
    '{"constraints": [1]}',
    '{"constraints": [{"lhs": 1, "rhs": "R:alpha"}]}',
])
def test_constraint_set_json_of_the_wrong_shape_is_a_format_error(text):
    with pytest.raises(FormatError):
        constraint_set_from_json(text, Alphabet(["alpha"]))
