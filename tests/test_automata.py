import random
import sys
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (ProductDfaPerSymbol, eval_algebraic, lang_empty,
                     lang_upto, match_regex, random_regex)
from rpqdet.automata import (
    Class,
    Concat,
    Empty,
    Epsilon,
    ForeignSymbolError,
    Lit,
    Nfa,
    Plus,
    ProductDfa,
    RegexSyntaxError,
    Star,
    Union,
    UnknownSymbolError,
    accepts,
    compile_nfa,
    concat_all,
    iter_words,
    parse_regex,
    parse_word,
    post_order,
    recolor_nfa,
    render_regex,
    shortest_word,
    union_all,
)
from rpqdet.graphs import LabeledGraph
from rpqdet.ogtp import reduction_alphabet
from rpqdet.symbols import Alphabet, Color, SymbolError, sym

SPECIALS = Alphabet(["alpha", "beta", "omega"])
BLACK = reduction_alphabet(("black",))
TWO = reduction_alphabet(("black", "grey"))

START_TEXT = "alpha ( [A,H,C,*] [B,V,C,*] )^+ omega"


def words(texts, alphabet=BLACK):
    return [parse_word(t, alphabet) for t in texts]


# --------------------------------------------------------------------------
# Parsing


def test_parse_union_of_literals():
    assert parse_regex("alpha + beta", SPECIALS) == Union(
        Lit(sym("alpha")), Lit(sym("beta")))


def test_parse_single_literal():
    assert parse_regex("alpha", SPECIALS) == Lit(sym("alpha"))


def test_parse_class_product_union_has_two_words():
    r = parse_regex("[B,H,W,*] [A,V,W,*] + [B,V,C,*] [A,H,C,*]", BLACK)
    n = compile_nfa(r, BLACK)
    assert list(iter_words(n, 2)) == words(
        ["B-H-W-black A-V-W-black", "B-V-C-black A-H-C-black"])


def test_parse_wildcards_expand_over_the_ambient_alphabet():
    r = parse_regex("[A,V,W,*]", TWO)
    assert r == Class(frozenset({sym("A-V-W-black"), sym("A-V-W-grey")}))


def test_parse_s0_token():
    r = parse_regex("S0", BLACK)
    assert r == Class(frozenset(BLACK.sigma0()))


def test_parse_colored_class_and_literal():
    doubled = BLACK.colored()
    r = parse_regex("R:beta R:S0*", doubled)
    assert isinstance(r, Concat)
    assert r.left == Lit(sym("R:beta"))
    assert r.right.inner.symbols == frozenset(
        s for s in doubled.sigma0() if s.name.startswith("R:"))


def test_parse_colored_class_literal_round_trips():
    doubled = BLACK.colored()
    r = parse_regex("G:[A,H,C,*]", doubled)
    assert r == Class(frozenset({sym("G:A-H-C-black")}))
    assert parse_regex(render_regex(r, doubled), doubled) == r


def test_parse_postfix_binds_tighter_than_concat():
    r = parse_regex("alpha beta*", SPECIALS)
    assert r == Concat(Lit(sym("alpha")), Star(Lit(sym("beta"))))


def test_parse_plus_postfix():
    r = parse_regex("( alpha beta )^+", SPECIALS)
    assert r == Plus(Concat(Lit(sym("alpha")), Lit(sym("beta"))))


def test_parse_empty_and_epsilon_tokens():
    assert parse_regex("EMPTY", SPECIALS) == Empty()
    assert parse_regex("EPS", SPECIALS) == Epsilon()


def test_syntax_error_reports_position():
    with pytest.raises(RegexSyntaxError) as err:
        parse_regex("alpha + + beta", SPECIALS)
    assert "position" in str(err.value)


def test_unknown_symbol_named_in_error():
    with pytest.raises(UnknownSymbolError) as err:
        parse_regex("alpha + omega", Alphabet(["alpha"]))
    assert "omega" in str(err.value)


def test_unbalanced_parenthesis_rejected():
    with pytest.raises(RegexSyntaxError):
        parse_regex("( alpha", SPECIALS)


def test_parse_word_checks_alphabet():
    assert parse_word("alpha omega", SPECIALS) == (sym("alpha"), sym("omega"))
    with pytest.raises(ForeignSymbolError):
        parse_word("alpha A-H-C-black", SPECIALS)


@pytest.mark.parametrize("text, message", [
    ("alpha ^ beta", "expected '+' after '^'"),
    ("alpha [A,H,C,*", "unclosed class literal"),
    ("alpha )", "trailing input"),
    ("alpha %", "unexpected character '%'"),
    ("alpha [A,X,C,*]", "bad class field 'X'"),
    ("alpha A-X-C", "unknown symbol 'A-X-C'"),
    ("alpha G:[A,H,C,*", "unclosed class literal"),
])
def test_malformed_regex_names_its_fault_and_position(text, message):
    with pytest.raises(RegexSyntaxError) as err:
        parse_regex(text, BLACK)
    assert str(err.value) == f"{message} (at position 6)"
    assert err.value.position == 6


def test_s0_needs_four_field_symbols():
    with pytest.raises(RegexSyntaxError, match="no four-field symbols"):
        parse_regex("alpha S0", SPECIALS)


def test_parse_word_rejects_a_bad_token():
    with pytest.raises(SymbolError, match="bad symbol token in word"):
        parse_word("alpha A-X-C", SPECIALS)


def test_post_order_puts_children_first_left_to_right():
    a, b, c = (Lit(sym(t)) for t in ("alpha", "beta", "omega"))
    r = Union(Concat(a, Star(b)), c)
    assert list(post_order(r)) == [a, b, Star(b), Concat(a, Star(b)), c, r]
    with pytest.raises(TypeError, match="not a regex"):
        list(post_order(Concat(a, "beta")))


# --------------------------------------------------------------------------
# Rendering


def test_render_reparses_to_equal_tree():
    for text in [
        "alpha + beta",
        START_TEXT,
        "[B,H,W,*] [A,V,W,*] + [B,V,C,*] [A,H,C,*]",
        "S0* [A,*,W,*]^+ EMPTY + EPS",
    ]:
        r = parse_regex(text, BLACK)
        assert parse_regex(render_regex(r, BLACK), BLACK) == r


def test_render_irregular_class_is_language_equal():
    odd = Class(frozenset({sym("A-H-C-black"), sym("B-V-W-grey")}))
    back = parse_regex(render_regex(odd, TWO), TWO)
    assert lang_upto(back, 2) == lang_upto(odd, 2)


def test_render_random_trees_round_trip():
    rng = random.Random(7)
    labels = list(TWO.symbols)
    for _ in range(300):
        r = random_regex(rng, labels, depth=4, product_classes=True)
        assert parse_regex(render_regex(r, TWO), TWO) == r


def test_render_walks_a_long_flat_word():
    # Trees are compared through their renderings and automata: the
    # dataclass __eq__ recurses once per tree level.
    flat = concat_all([Lit(sym("alpha")), Lit(sym("beta"))] * 5000)
    text = render_regex(flat, SPECIALS)
    assert text == " ".join(["alpha beta"] * 5000)
    back = parse_regex(text, SPECIALS)
    assert render_regex(back, SPECIALS) == text
    assert compile_nfa(back, SPECIALS) == compile_nfa(flat, SPECIALS)


# --------------------------------------------------------------------------
# Compilation and membership


def test_single_letter_language():
    n = compile_nfa(Lit(sym("omega")), SPECIALS)
    assert accepts(n, (sym("omega"),))
    assert not accepts(n, ())
    assert not accepts(n, (sym("omega"), sym("omega")))


def test_empty_language_nfa():
    n = compile_nfa(Empty(), SPECIALS)
    assert list(iter_words(n, 5)) == []
    assert shortest_word(n) is None


def test_an_automaton_without_states_has_no_words():
    # The subset automaton starts from the empty set, whose distance to
    # acceptance is infinite, so the walk places no letter.
    n = Nfa(SPECIALS, 0, {}, 0, frozenset())
    assert list(iter_words(n, 5)) == []
    assert shortest_word(n) is None
    assert not accepts(n, ())
    assert n.min_dist == ()


@given(st.integers(0, 2 ** 32 - 1))
def test_recolored_rows_are_the_base_rows_repainted(seed):
    """recolor_nfa colors every symbol of every row and keeps the base
    automaton's target sets themselves, not copies of them."""
    rng = random.Random(seed)
    n = compile_nfa(random_regex(rng, list(BLACK.symbols), depth=4,
                                 product_classes=rng.random() < 0.5), BLACK)
    for color in (Color.GREEN, Color.RED):
        painted = recolor_nfa(n, color)
        assert painted.alphabet == BLACK.colored()
        assert (painted.n_states, painted.start, painted.accepting) == (
            n.n_states, n.start, n.accepting)
        assert painted.delta.keys() == n.delta.keys()
        for q, row in n.delta.items():
            got = painted.delta[q]
            assert got.keys() == {s.colored(color) for s in row}
            assert all(got[s.colored(color)] is ts for s, ts in row.items())


def test_start_pattern_shortest_word_has_length_four():
    n = compile_nfa(parse_regex(START_TEXT, BLACK), BLACK)
    w = shortest_word(n)
    assert w == parse_word("alpha A-H-C-black B-V-C-black omega", BLACK)
    assert [len(x) for x in iter_words(n, 5)] == [4]


def test_accepts_start_pattern_word():
    n = compile_nfa(parse_regex(START_TEXT, BLACK), BLACK)
    assert accepts(n, parse_word("alpha A-H-C-black B-V-C-black omega", BLACK))
    assert accepts(n, parse_word(
        "alpha A-H-C-black B-V-C-black A-H-C-black B-V-C-black omega", BLACK))
    assert not accepts(n, parse_word("alpha omega", BLACK))


def test_accepts_warm_middle_word():
    ugly = compile_nfa(parse_regex("alpha S0* [*,*,W,*] S0* omega", BLACK), BLACK)
    assert accepts(ugly, parse_word("alpha A-H-W-black omega", BLACK))
    assert not accepts(ugly, parse_word("alpha A-H-C-black omega", BLACK))


def test_accepts_rejects_foreign_symbols():
    n = compile_nfa(Lit(sym("omega")), SPECIALS)
    with pytest.raises(ForeignSymbolError):
        accepts(n, (sym("A-H-C-black"),))


def _leaves(r):
    """The Lit and Class occurrences of r."""
    if isinstance(r, (Lit, Class)):
        return 1
    if isinstance(r, (Union, Concat)):
        return _leaves(r.left) + _leaves(r.right)
    if isinstance(r, (Star, Plus)):
        return _leaves(r.inner)
    return 0


def _has_empty(r):
    if isinstance(r, Empty):
        return True
    if isinstance(r, (Union, Concat)):
        return _has_empty(r.left) or _has_empty(r.right)
    if isinstance(r, (Star, Plus)):
        return _has_empty(r.inner)
    return False


def test_compiled_nfa_has_one_state_per_leaf_plus_a_start():
    rng = random.Random(11)
    labels = list(BLACK.symbols)
    for _ in range(200):
        r = random_regex(rng, labels, depth=4)
        assert compile_nfa(r, BLACK).n_states <= _leaves(r) + 1


def test_compiled_nfa_has_no_dead_states():
    rng = random.Random(17)
    labels = list(SPECIALS.symbols)
    checked = 0
    while checked < 100:
        r = random_regex(rng, labels, depth=5)
        if not _has_empty(r):
            continue
        checked += 1
        n = compile_nfa(r, SPECIALS)
        reach = {n.start}
        stack = [n.start]
        while stack:
            for dsts in n.delta.get(stack.pop(), {}).values():
                for t in dsts - reach:
                    reach.add(t)
                    stack.append(t)
        # Every state but the start is reachable and co-reachable.
        for q in range(n.n_states):
            if q != n.start:
                assert q in reach
                assert n.min_dist[q] < 10 ** 9


# --------------------------------------------------------------------------
# Enumeration


def test_enumerate_union_of_two_letters():
    n = compile_nfa(parse_regex("alpha + beta", SPECIALS), SPECIALS)
    assert list(iter_words(n, 3)) == [(sym("alpha"),), (sym("beta"),)]


def test_enumerate_two_shade_pair_language():
    text = "[B,H,W,*] [A,V,W,*] + [B,V,C,*] [A,H,C,*]"
    n = compile_nfa(parse_regex(text, TWO), TWO)
    out = list(iter_words(n, 2))
    assert len(out) == 8
    assert all(len(w) == 2 for w in out)


def test_enumeration_is_shortlex_sorted_and_duplicate_free():
    n = compile_nfa(parse_regex("( alpha + beta )* omega", SPECIALS), SPECIALS)
    out = list(iter_words(n, 4))
    keys = [SPECIALS.word_key(w) for w in out]
    assert keys == sorted(keys)
    assert len(set(out)) == len(out)


def test_enumeration_matches_generation_oracle():
    rng = random.Random(23)
    labels = list(SPECIALS.symbols)
    for _ in range(150):
        r = random_regex(rng, labels, depth=3)
        n = compile_nfa(r, SPECIALS)
        assert set(iter_words(n, 4)) == lang_upto(r, 4)


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 5))
def test_iter_words_matches_the_generation_oracle_in_shortlex_order(seed,
                                                                    cap):
    rng = random.Random(seed)
    r = random_regex(rng, list(SPECIALS.symbols), depth=4)
    want = sorted(lang_upto(r, cap), key=SPECIALS.word_key)
    assert list(iter_words(compile_nfa(r, SPECIALS), cap)) == want


def test_iter_words_can_stop_early():
    n = compile_nfa(parse_regex("alpha*", SPECIALS), SPECIALS)
    it = iter_words(n, 50)
    assert next(it) == ()
    assert next(it) == (sym("alpha"),)


def test_shortest_word_prefers_shortlex_on_ties():
    n = compile_nfa(parse_regex("beta + alpha", SPECIALS), SPECIALS)
    assert shortest_word(n) == (sym("alpha"),)


@given(st.integers(0, 2 ** 32 - 1))
def test_shortest_word_matches_the_generation_oracle(seed):
    rng = random.Random(seed)
    r = random_regex(rng, list(SPECIALS.symbols), depth=4)
    got = shortest_word(compile_nfa(r, SPECIALS))
    if lang_empty(r):
        assert got is None
        return
    cap = 0
    while not (words := lang_upto(r, cap)):
        cap += 1
    assert got == min(words, key=SPECIALS.word_key)


# --------------------------------------------------------------------------
# Semantics against the span-matching oracle


@given(st.integers(0, 2 ** 32 - 1))
def test_membership_agrees_with_span_matcher(seed):
    rng = random.Random(seed)
    labels = [sym(n) for n in ("alpha", "beta", "omega")]
    r = random_regex(rng, labels, depth=4)
    n = compile_nfa(r, SPECIALS)
    for _ in range(25):
        w = tuple(rng.choice(labels) for _ in range(rng.randint(0, 6)))
        assert accepts(n, w) == match_regex(r, w)


def test_plus_equals_concat_with_star():
    rng = random.Random(31)
    labels = list(SPECIALS.symbols)
    for _ in range(60):
        inner = random_regex(rng, labels, depth=2)
        plus = compile_nfa(Plus(inner), SPECIALS)
        expanded = compile_nfa(Concat(inner, Star(inner)), SPECIALS)
        assert list(iter_words(plus, 5)) == list(iter_words(expanded, 5))


def test_union_all_and_concat_all_fold():
    assert union_all([]) == Empty()
    assert concat_all([]) == Epsilon()
    parts = [Lit(sym("alpha")), Lit(sym("beta")), Lit(sym("omega"))]
    assert union_all(parts) == Union(Union(parts[0], parts[1]), parts[2])
    assert concat_all(parts) == Concat(Concat(parts[0], parts[1]), parts[2])


# --------------------------------------------------------------------------
# A guide minus kill automata, by subset construction


@given(st.integers(0, 2 ** 32 - 1))
def test_product_difference_matches_generation_oracle(seed):
    """Words of L1 minus L2, shortlex, against the syntax-tree generator
    filtered by the span matcher."""
    rng = random.Random(seed)
    labels = list(SPECIALS.symbols)
    r1 = random_regex(rng, labels, depth=4)
    r2 = random_regex(rng, labels, depth=3)
    dfa = ProductDfa(compile_nfa(r1, SPECIALS), [compile_nfa(r2, SPECIALS)])
    want = sorted((w for w in lang_upto(r1, 4) if not match_regex(r2, w)),
                  key=SPECIALS.word_key)
    assert list(dfa.words(4)) == want


def _green(s):
    return s.colored(Color.GREEN)


def _random_product_parts(seed):
    """A random guide, zero to three kills over the base alphabet or over
    its green copies, the relabelling into them and a length cap."""
    rng = random.Random(seed)
    guide = compile_nfa(random_regex(rng, list(SPECIALS.symbols), depth=4),
                        SPECIALS)
    relabel = _green if rng.random() < 0.5 else None
    alphabet = SPECIALS if relabel is None else SPECIALS.colored()
    kill_labels = [s for s in alphabet.symbols if s.color is not Color.RED]
    kills = [compile_nfa(random_regex(rng, kill_labels, depth=3), alphabet)
             for _ in range(rng.randint(0, 3))]
    return guide, kills, relabel, rng.randint(0, 4)


@given(st.integers(0, 2 ** 32 - 1))
def test_product_words_are_the_guide_words_no_kill_accepts(seed):
    """words(n) is the membership filter: the guide's words within n, in
    shortlex order, that no kill accepts once relabelled."""
    guide, kills, relabel, n = _random_product_parts(seed)
    dfa = ProductDfa(guide, kills, relabel)

    def killed(w):
        read = w if relabel is None else tuple(map(relabel, w))
        return any(accepts(k, read) for k in kills)

    assert list(dfa.words(n)) == [w for w in iter_words(guide, n)
                                  if not killed(w)]


@given(st.integers(0, 2 ** 32 - 1))
def test_product_rows_from_columns_match_the_per_symbol_product(seed):
    """Rows read off per-(component, state) columns number the states as
    rows stepped symbol by symbol do: the same words, the same rows and
    the same accepting list."""
    guide, kills, relabel, n = _random_product_parts(seed)
    got = ProductDfa(guide, kills, relabel)
    want = ProductDfaPerSymbol(guide, kills, relabel)
    assert list(got.words(n)) == list(want.words(n))
    assert got._rows == want._rows
    assert got.accepting == want.accepting


def test_product_relabels_into_a_colored_component():
    """The guide words that the green kill rejects."""
    colored = SPECIALS.colored()
    green = compile_nfa(parse_regex("G:alpha G:beta*", colored), colored)
    base = compile_nfa(parse_regex("(alpha + beta)(beta + omega)", SPECIALS),
                       SPECIALS)
    dfa = ProductDfa(base, [green], _green)
    assert list(dfa.words(3)) == [(sym("alpha"), sym("omega")),
                                  (sym("beta"), sym("beta")),
                                  (sym("beta"), sym("omega"))]


def test_product_words_respect_the_length_cap_and_an_empty_guide():
    star = compile_nfa(parse_regex("alpha*", SPECIALS), SPECIALS)
    dfa = ProductDfa(star, [])
    assert list(dfa.words(0)) == [()]
    assert list(dfa.words(2)) == [(), (sym("alpha"),), (sym("alpha"),) * 2]
    empty = compile_nfa(Empty(), SPECIALS)
    assert list(ProductDfa(empty, [star]).words(5)) == []


def test_product_builds_no_state_past_a_dead_guide():
    """Only live prefixes of the guide are expanded: here the empty word,
    alpha and alpha beta, each adding at most one state per symbol,
    however many prefixes the kill tells apart."""
    guide = compile_nfa(parse_regex("alpha beta", SPECIALS), SPECIALS)
    any6 = " ".join(["(alpha + beta + omega)"] * 6)
    kill = compile_nfa(parse_regex(any6, SPECIALS), SPECIALS)
    dfa = ProductDfa(guide, [kill])
    assert list(dfa.words(6)) == [(sym("alpha"), sym("beta"))]
    assert len(dfa.accepting) <= 1 + 3 * len(SPECIALS)


# --------------------------------------------------------------------------
# Words over a label set

WALK_LABELS = [sym(n) for n in ("alpha", "beta", "omega", "A-H-C-black")]
WALK_ALPH = Alphabet(WALK_LABELS)


@given(st.integers(0, 2 ** 32 - 1))
def test_has_word_over_matches_a_one_vertex_graph(seed):
    """A query accepts a word over L exactly when it holds on one vertex
    with a self-loop per label of L, where every word over L is a walk."""
    rng = random.Random(seed)
    r = random_regex(rng, WALK_LABELS, depth=4)
    labels = frozenset(rng.sample(WALK_LABELS,
                                  rng.randint(0, len(WALK_LABELS))))
    g = LabeledGraph.build({"v"}, {("v", s, "v") for s in labels})
    got = compile_nfa(r, WALK_ALPH).has_word_over(labels)
    assert got == bool(eval_algebraic(r, g))


def _label_sets(labels):
    return [frozenset(c) for k in range(len(labels) + 1)
            for c in combinations(labels, k)]


def test_has_word_over_the_empty_word_and_the_empty_language():
    eps = compile_nfa(Epsilon(), WALK_ALPH)
    star = compile_nfa(parse_regex("alpha*", WALK_ALPH), WALK_ALPH)
    empty = compile_nfa(Empty(), WALK_ALPH)
    for labels in _label_sets(WALK_LABELS):
        assert eps.has_word_over(labels)
        assert star.has_word_over(labels)
        assert not empty.has_word_over(labels)


@pytest.mark.parametrize("text,needs", [
    ("alpha beta omega", [{"alpha", "beta", "omega"}]),
    ("alpha (beta + omega) alpha", [{"alpha", "beta"}, {"alpha", "omega"}]),
    ("alpha ((beta omega) + (omega beta)) alpha",
     [{"alpha", "beta", "omega"}]),
    ("(alpha + beta) omega* beta", [{"beta"}]),
    ("(alpha beta)^+ omega", [{"alpha", "beta", "omega"}]),
    ("alpha + beta", [{"alpha"}, {"beta"}]),
])
def test_has_word_over_the_label_sets_a_word_needs(text, needs):
    """Over each set of the three specials, a word is accepted exactly when
    the set holds one of the least label sets that some word reads."""
    n = compile_nfa(parse_regex(text, WALK_ALPH), WALK_ALPH)
    needs = [frozenset(map(sym, need)) for need in needs]
    for labels in _label_sets(WALK_LABELS[:3]):
        assert n.has_word_over(labels) == any(m <= labels for m in needs)


def test_a_class_state_reads_each_of_its_symbols():
    a, b, o = (sym(n) for n in ("alpha", "beta", "omega"))
    n = compile_nfa(Concat(Class(frozenset({a, b})), Star(Lit(o))),
                    WALK_ALPH)
    assert n.has_word_over(frozenset({a}))
    assert n.has_word_over(frozenset({b}))
    assert not n.has_word_over(frozenset({o}))


def test_has_word_over_a_re_entered_start():
    """alpha (beta alpha)* omega?, re-entering the start on beta: alpha
    alone is a word, and no word avoids alpha."""
    a, b, o = (sym(n) for n in ("alpha", "beta", "omega"))
    n = Nfa(WALK_ALPH, 3, {0: {a: frozenset({1})},
                           1: {b: frozenset({0}), o: frozenset({2})}}, 0,
            frozenset({1, 2}))
    assert n.has_word_over(frozenset({a}))
    assert not n.has_word_over(frozenset({b, o}))


def _lines_run(path, thunk) -> int:
    """The lines thunk runs in the source file path, counted by a tracer."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    before = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 local if frame.f_code.co_filename == path else None)
    try:
        thunk()
    finally:
        sys.settrace(before)
    return count


def test_has_word_over_a_long_flat_word_takes_linear_steps():
    """The label walk is linear in the rows: a 3,000-letter word takes at
    most 2.1 times the steps of a 1,500-letter one, and a bounded number
    per letter.  A second ask of the same label set is a memo lookup."""
    path = Nfa.has_word_over.__code__.co_filename
    steps = {}
    for length in (1500, 3000):
        word = [WALK_LABELS[k % 4] for k in range(length)]
        n = compile_nfa(parse_regex(" ".join(s.name for s in word),
                                    WALK_ALPH), WALK_ALPH)
        labels = frozenset(WALK_LABELS)
        steps[length] = _lines_run(path, lambda: n.has_word_over(labels))
        assert n.has_word_over(labels)
        assert not n.has_word_over(labels - {WALK_LABELS[3]})
        assert _lines_run(path, lambda: n.has_word_over(labels)) <= 5
    assert steps[3000] <= 2.1 * steps[1500]
    assert steps[3000] <= 20 * 3000
