import random
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (ProductDfaPerSymbol, all_lose_odometer,
                     classify_immutable, combination_graphs,
                     explore_immutable, explore_per_word,
                     forced_per_word, is_homomorphism,
                     random_regex, replay_positions, start_words_per_word,
                     survivors_by_grafting)
from rpqdet.automata import (Class, Concat, Empty, Lit, Plus, ProductDfa,
                             SubsetDfa, accepts, compile_nfa,
                             iter_words, parse_regex, parse_word,
                             recolor_nfa)
from rpqdet import escape
from rpqdet.constraints import (RegularConstraint, Request,
                                WitnessRejectedError, graft_path,
                                make_arrow_set, make_arrows, requests)
from rpqdet.escape import (
    Caps,
    ExploreContext,
    GuidanceError,
    PlayOutcome,
    ScriptExhaustedError,
    VerdictKind,
    explore,
    initial_position,
    run_play,
    scripted_from_trace,
    strategy_guided,
    strategy_interactive,
    strategy_scripted,
    strategy_shortest,
    trace_from_jsonl,
    trace_to_jsonl,
)
from rpqdet.gadget import build_grid, check_counterexample, decorate, find_homomorphism, iso_shadeless, verify_homomorphism
from rpqdet.graphs import (EndpointedGraph, LabeledGraph, UnknownVertexError,
                           chain_graph, endpointed_to_json)
from rpqdet.rpq import holds
from rpqdet.summary import relation
from rpqdet.ogtp import all_black_tiling
from rpqdet.symbols import Alphabet, Color, FormatError, SymbolError, sym

SPECIALS = Alphabet(["alpha", "beta", "omega"])


def start_word(alphabet, m=1):
    return parse_word(
        "alpha " + "A-H-C-black B-V-C-black " * m + "omega", alphabet)


# --------------------------------------------------------------------------
# Initial positions


def test_initial_position_is_a_green_round_zero_chain():
    pos = initial_position(parse_word("alpha omega", SPECIALS))
    assert (pos.a, pos.b) == ("a", "b")
    assert all(s.color is Color.GREEN for _, s, _ in pos.graph.edges)


def test_initial_position_rejects_red_letters_and_empty_words():
    with pytest.raises(ValueError):
        initial_position((sym("R:alpha"),))
    with pytest.raises(ValueError):
        initial_position(())


# A play starts from the chain of a nonempty q0 word.


def test_initial_positions_enumerates_q0_in_shortlex_order(black_reduction):
    words = [tuple(s.base for s in w)
             for w in iter_words(black_reduction.q0_nfa, 4)]
    assert ("alpha", "A-H-C-black", "B-V-C-black", "omega") in words
    assert all(0 < len(w) <= 4 for w in words)
    lengths = [len(w) for w in words]
    assert lengths == sorted(lengths)


def test_initial_positions_includes_warm_middle_word_at_cap_three(black_reduction):
    words = {tuple(s.base for s in w)
             for w in iter_words(black_reduction.q0_nfa, 3)}
    assert ("alpha", "A-H-W-black", "omega") in words


def test_initial_positions_cap_zero_is_empty(black_reduction):
    assert not any(iter_words(black_reduction.q0_nfa, 0))


# --------------------------------------------------------------------------
# Strategies


def test_shortest_strategy_prefers_shortlex_least():
    fwd, _ = make_arrows(parse_regex("alpha + beta", SPECIALS), SPECIALS)
    w = strategy_shortest()(1, 0, Request("a", "b", fwd))
    assert w == (sym("R:alpha"),)


def test_shortest_strategy_fails_on_empty_rhs():
    fwd, _ = make_arrows(Empty(), SPECIALS)
    with pytest.raises(GuidanceError):
        strategy_shortest()(1, 0, Request("a", "b", fwd))


def test_scripted_strategy_runs_out():
    strat = strategy_scripted([(sym("R:alpha"),)])
    fwd, _ = make_arrows(parse_regex("alpha", SPECIALS), SPECIALS)
    req = Request("a", "b", fwd)
    assert strat(1, 0, req) == (sym("R:alpha"),)
    with pytest.raises(ScriptExhaustedError, match="at round 2, request"):
        strat(2, 0, req)


def test_guided_strategy_errors_when_the_model_lacks_a_path():
    fwd, _ = make_arrows(parse_regex("alpha", SPECIALS), SPECIALS)
    pos = initial_position(parse_word("alpha", SPECIALS))
    model = pos.graph  # all green: no red witness path anywhere
    strat = strategy_guided(model, {"a": "a", "b": "b"})
    with pytest.raises(GuidanceError):
        strat(1, 0, Request("a", "b", fwd))


def test_interactive_strategy_reprompts_then_accepts(capsys):
    fwd, _ = make_arrows(parse_regex("alpha + beta", SPECIALS), SPECIALS)
    feed = iter(["omega", "R:alpha R:alpha", "R:beta"])
    strat = strategy_interactive(input_fn=lambda _: next(feed))
    assert strat(3, 0, Request("a", "b", fwd)) == (sym("R:beta"),)
    out = capsys.readouterr().out
    assert out.startswith("round 3: request (a, b) for constraint")
    assert "candidates:" in out
    assert "rejected:" in out
    assert "try again" in out


def test_interactive_strategy_eof_becomes_script_exhaustion():
    def closed(_):
        raise EOFError
    fwd, _ = make_arrows(parse_regex("alpha", SPECIALS), SPECIALS)
    strat = strategy_interactive(input_fn=closed, print_fn=lambda *_: None)
    with pytest.raises(ScriptExhaustedError):
        strat(1, 0, Request("a", "b", fwd))


# --------------------------------------------------------------------------
# Playing


def test_run_play_from_a_fixpoint_plays_no_round():
    cs = make_arrow_set([Lit(sym("omega"))], SPECIALS)
    chain = chain_graph((sym("G:omega"),), "a", "b")
    g = LabeledGraph.build(chain.vertices,
                           set(chain.edges) | {("a", sym("R:omega"), "b")})
    q0 = compile_nfa(parse_regex("alpha", SPECIALS), SPECIALS)
    result, trace = run_play(q0, cs, strategy_shortest(),
                             EndpointedGraph(g, "a", "b"), 5)
    assert (result.outcome, result.round) == (PlayOutcome.WON_FIXPOINT, 0)
    assert trace.rounds == ()


def test_first_move_adds_only_red_edges(black_reduction):
    cs = black_reduction.constraint_set()
    pos = initial_position(start_word(black_reduction.alphabet))
    reqs = requests(cs, pos.graph)
    _, trace = run_play(black_reduction.q0_nfa, cs, strategy_shortest(), pos,
                        1)
    record = trace.rounds[0]
    assert record.round_no == 1
    assert record.added_edges
    assert all(s.color is Color.RED for _, s, _ in record.added_edges)
    assert len(record.choices) == len(reqs) == 5


def test_lost_from_a_warm_middle_initial_word(black_reduction):
    cs = black_reduction.constraint_set()
    pos = initial_position(
        parse_word("alpha A-H-W-black omega", black_reduction.alphabet))
    result, _ = run_play(black_reduction.q0_nfa, cs, strategy_shortest(),
                         pos, 10)
    assert result.outcome is PlayOutcome.LOST
    assert result.round <= 2


def test_zero_round_budget_exhausts_immediately(black_reduction):
    cs = black_reduction.constraint_set()
    pos = initial_position(start_word(black_reduction.alphabet))
    result, trace = run_play(black_reduction.q0_nfa, cs, strategy_shortest(),
                             pos, 0)
    assert result.outcome is PlayOutcome.EXHAUSTED
    assert result.round == 0
    assert trace.rounds == ()


def test_guided_play_builds_the_unit_grid(black_reduction):
    cs = black_reduction.constraint_set()
    model = decorate(build_grid(1), all_black_tiling(1)).graph
    init = initial_position(start_word(black_reduction.alphabet, m=1))
    h0 = find_homomorphism(init.graph, model)
    assert h0 is not None
    strat = strategy_guided(model, h0)
    result, trace = run_play(black_reduction.q0_nfa, cs, strat, init, 10)
    assert result.outcome is PlayOutcome.WON_FIXPOINT
    assert result.round == 2
    # Replay the trace to rebuild the final position, then compare shapes.
    pos = replay_positions(cs, trace)[-1]
    assert iso_shadeless(pos.graph, build_grid(1).graph)
    assert verify_homomorphism(pos.graph, model, strat.mapping)
    assert is_homomorphism(pos.graph, model, strat.mapping)


def test_fixpoint_position_satisfies_every_constraint(black_reduction):
    from rpqdet.constraints import satisfied
    cs = black_reduction.constraint_set()
    model = decorate(build_grid(1), all_black_tiling(1)).graph
    init = initial_position(start_word(black_reduction.alphabet))
    strat = strategy_guided(model, find_homomorphism(init.graph, model))
    _, trace = run_play(black_reduction.q0_nfa, cs, strat, init, 10)
    pos = replay_positions(cs, trace)[-1]
    assert all(satisfied(rc, pos.graph) for rc in cs)


# --------------------------------------------------------------------------
# Traces


def test_trace_jsonl_round_trip(black_reduction):
    cs = black_reduction.constraint_set()
    pos = initial_position(start_word(black_reduction.alphabet))
    _, trace = run_play(black_reduction.q0_nfa, cs, strategy_shortest(), pos, 6)
    text = trace_to_jsonl(trace)
    assert trace_from_jsonl(text) == trace
    assert trace_to_jsonl(trace_from_jsonl(text)) == text
    header, first = text.splitlines()[:2]
    assert '"round":1,' in first
    with pytest.raises(FormatError, match="'round'"):
        trace_from_jsonl(header + "\n" + first.replace('"round":1,',
                                                       '"round":true,'))


def test_scripted_replay_reproduces_the_trace(black_reduction):
    cs = black_reduction.constraint_set()
    pos = initial_position(start_word(black_reduction.alphabet))
    result, trace = run_play(black_reduction.q0_nfa, cs, strategy_shortest(),
                             pos, 6)
    replay_result, replay_trace = run_play(
        black_reduction.q0_nfa, cs, scripted_from_trace(trace),
        initial_position(trace.initial_word), 6)
    assert replay_result == result
    assert trace_to_jsonl(replay_trace) == trace_to_jsonl(trace)


# --------------------------------------------------------------------------
# Bounded exploration


def test_explore_finds_a_certificate_on_the_open_instance(black_reduction):
    caps = Caps(4, 3, 6, 4)
    verdict = explore(black_reduction.q0_nfa,
                      black_reduction.constraint_set(), caps)
    assert verdict.kind is VerdictKind.NONDETERMINATE
    cert = verdict.certificate
    assert cert is not None
    report = check_counterexample(
        cert.graph, black_reduction.views.all_languages(),
        black_reduction.q0_nfa, cert.a, cert.b)
    assert report.ok, report.failures


def test_explore_all_plays_lose_when_everything_is_forbidden(blocked_reduction):
    caps = Caps(4, 3, 6, 4)
    verdict = explore(blocked_reduction.q0_nfa,
                      blocked_reduction.constraint_set(), caps)
    assert verdict.kind is VerdictKind.ALL_PLAYS_LOSE
    assert verdict.certificate is None


def test_explore_round_starved_search_is_inconclusive(black_reduction):
    caps = Caps(4, 3, 1, 4)
    verdict = explore(black_reduction.q0_nfa,
                      black_reduction.constraint_set(), caps)
    assert verdict.kind is VerdictKind.INCONCLUSIVE


def test_caps_validation():
    with pytest.raises(ValueError):
        Caps(0, 3, 6, 4)
    with pytest.raises(ValueError):
        Caps(4, 3, 6, 0)


# --------------------------------------------------------------------------
# The symbolic start-word prune against the per-word forcing rule


@pytest.mark.parametrize("name", ["black", "blocked", "two_shade"])
def test_start_words_match_the_per_word_filter(name, request):
    out = request.getfixturevalue(f"{name}_reduction")
    ctx = ExploreContext(out.q0_nfa, out.constraint_set(), Caps(6, 3, 6, 4))
    got = list(ctx.start_words())
    assert got
    assert got == start_words_per_word(ctx)


def _random_instance(seed):
    rng = random.Random(seed)
    labels = list(SPECIALS.symbols)
    views = []
    for _ in range(rng.randint(1, 3)):
        # A leading letter keeps the view free of the empty word.
        views.append(Concat(Lit(rng.choice(labels)),
                            random_regex(rng, labels, depth=3)))
    q0 = random_regex(rng, labels, depth=4)
    if rng.random() < 0.5:
        q0 = Concat(q0, views[0]) if rng.random() < 0.5 else views[0]
    caps = Caps(rng.randint(1, 5), rng.randint(1, 3), 2, rng.randint(1, 4))
    return (compile_nfa(q0, SPECIALS), make_arrow_set(views, SPECIALS), caps)


@given(st.integers(0, 2 ** 32 - 1))
def test_start_words_match_the_per_word_filter_on_random_instances(seed):
    q0, cs, caps = _random_instance(seed)
    ctx = ExploreContext(q0, cs, caps)
    want = start_words_per_word(ctx)
    assert list(ctx.start_words()) == want
    for w in want:
        assert not forced_per_word(ctx, w)


@pytest.mark.parametrize("name, caps", [
    ("black", Caps(8, 3, 6, 4)),
    ("black", Caps(4, 3, 1, 4)),
    ("blocked", Caps(6, 3, 6, 4)),
    ("two_shade", Caps(5, 3, 6, 4)),
])
def test_explore_matches_the_per_word_search(name, caps, request):
    out = request.getfixturevalue(f"{name}_reduction")
    cs = out.constraint_set()
    got = explore(out.q0_nfa, cs, caps)
    want = explore_per_word(out.q0_nfa, cs, caps)
    assert got.kind is want.kind
    if want.certificate is None:
        assert got.certificate is None
    else:
        assert (endpointed_to_json(got.certificate)
                == endpointed_to_json(want.certificate))


@pytest.mark.parametrize("name, caps", [
    ("black", Caps(8, 3, 6, 4)),
    ("blocked", Caps(7, 3, 6, 4)),
    ("two_shade", Caps(5, 3, 6, 4)),
    ("blocked", Caps(8, 3, 6, 4)),
    ("two_shade", Caps(8, 3, 6, 4)),
    ("blocked", Caps(16, 3, 6, 4)),
])
def test_start_automaton_rows_match_the_per_symbol_product(name, caps,
                                                           request,
                                                           monkeypatch):
    """The start automaton, its rows read off columns, against the same
    product with rows stepped symbol by symbol: the same words, rows and
    accepting list, so the same state numbering."""
    out = request.getfixturevalue(f"{name}_reduction")
    cs = out.constraint_set()
    got = ExploreContext(out.q0_nfa, cs, caps).start_automaton
    monkeypatch.setattr(escape, "ProductDfa", ProductDfaPerSymbol)
    want = ExploreContext(out.q0_nfa, cs, caps).start_automaton
    assert type(want) is ProductDfaPerSymbol
    n = caps.max_initial_len
    assert list(got.words(n)) == list(want.words(n))
    assert got._rows == want._rows
    assert got.accepting == want.accepting


def test_start_automaton_steps_each_component_state_symbol_once(
        blocked_reduction, monkeypatch):
    """Building the start automaton's rows steps each (component
    automaton, component state, symbol) at most once; blocked at
    max_initial_len 7 reaches 204 (automaton, state) pairs over an
    11-letter alphabet.  One explore builds one start automaton."""
    out = blocked_reduction
    cs = out.constraint_set()
    caps = Caps(7, 3, 6, 4)
    ctx = ExploreContext(out.q0_nfa, cs, caps)
    dfa = ctx.start_automaton
    steps = Counter()
    step = SubsetDfa.step

    def counted(self, q, s):
        steps[self, q, s] += 1
        return step(self, q, s)

    monkeypatch.setattr(SubsetDfa, "step", counted)
    assert list(dfa.words(caps.max_initial_len))
    assert max(steps.values()) == 1
    assert sum(steps.values()) <= 2244
    monkeypatch.undo()

    built = []

    def counted_product(*args):
        built.append(args)
        return ProductDfa(*args)

    monkeypatch.setattr(escape, "ProductDfa", counted_product)
    assert explore(out.q0_nfa, cs, caps).kind is VerdictKind.ALL_PLAYS_LOSE
    assert len(built) == 1


@contextmanager
def _counted_grafts():
    """The argument tuples of every graft_path call that escape makes
    inside: the search's children and a play's grafts all go through it."""
    grafts = []

    def counted(*args, **kwargs):
        grafts.append(args)
        return graft_path(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(escape, "graft_path", counted)
        yield grafts


def _assert_forced_words_decided_at_the_root(ctx):
    """Every nonempty q0 word within max_initial_len that the per-word
    forcing rule kills classifies all_lost with nothing grafted, and the
    start automaton is never built; returns those words."""
    forced = [w for w in iter_words(ctx.q0, ctx.caps.max_initial_len)
              if w and forced_per_word(ctx, w)]
    with _counted_grafts() as grafts:
        for w in forced:
            assert ctx.classify_word(w) == ("all_lost", None), w
    assert grafts == []
    assert "start_automaton" not in ctx.__dict__
    return forced


def test_classify_word_decides_a_forced_word_at_the_root(black_reduction):
    ctx = ExploreContext(black_reduction.q0_nfa,
                         black_reduction.constraint_set(), Caps(3, 3, 6, 4))
    warm = parse_word("alpha A-H-W-black omega", black_reduction.alphabet)
    assert warm in _assert_forced_words_decided_at_the_root(ctx)
    with pytest.raises(ValueError):
        ctx.classify_word(())
    with pytest.raises(ValueError):
        ctx.classify_word((sym("R:alpha"), sym("omega")))


@pytest.mark.parametrize("token", ["A-H-C-grey", "G:A-H-C-grey"])
def test_classify_word_refuses_a_symbol_outside_q0s_alphabet(token,
                                                             black_reduction):
    ctx = ExploreContext(black_reduction.q0_nfa,
                         black_reduction.constraint_set(), Caps(4, 3, 6, 4))
    word = tuple(map(sym, ["alpha", token, "B-V-C-black", "omega"]))
    with pytest.raises(SymbolError,
                       match=r"\Asymbol 'A-H-C-grey' not in alphabet\Z"):
        ctx.classify_word(word)


@pytest.mark.parametrize("name, max_initial_len", [
    ("black", 5), ("blocked", 5), ("two_shade", 4)])
def test_every_forced_word_is_decided_at_the_root(name, max_initial_len,
                                                  request):
    out = request.getfixturevalue(f"{name}_reduction")
    ctx = ExploreContext(out.q0_nfa, out.constraint_set(),
                         Caps(max_initial_len, 3, 6, 4))
    assert _assert_forced_words_decided_at_the_root(ctx)


@given(st.integers(0, 2 ** 32 - 1))
def test_every_forced_word_is_decided_at_the_root_on_random_instances(seed):
    q0, cs, caps = _random_instance(seed)
    _assert_forced_words_decided_at_the_root(ExploreContext(q0, cs, caps))


def _single_view_instance(q0_text, view_text):
    q0 = compile_nfa(parse_regex(q0_text, SPECIALS), SPECIALS)
    return q0, make_arrow_set([parse_regex(view_text, SPECIALS)], SPECIALS)


def test_explore_without_a_start_word_within_the_cap_is_inconclusive():
    q0, cs = _single_view_instance("alpha alpha alpha", "beta")
    assert explore(q0, cs, Caps(2, 3, 6, 4)).kind is VerdictKind.INCONCLUSIVE
    assert explore(q0, cs, Caps(3, 3, 6, 4)).kind is not VerdictKind.INCONCLUSIVE


def test_explore_with_every_start_word_pruned_is_all_plays_lose():
    # The view alpha forces: its one witness R:alpha is a red q0 word, and
    # the green chain of alpha asks for it between the endpoints.
    q0, cs = _single_view_instance("alpha", "alpha")
    ctx = ExploreContext(q0, cs, Caps(4, 3, 6, 4))
    assert list(ctx.start_words()) == []
    assert start_words_per_word(ctx) == []
    verdict = explore(q0, cs, Caps(4, 3, 6, 4))
    assert verdict.kind is VerdictKind.ALL_PLAYS_LOSE
    assert verdict.certificate is None


def test_the_empty_word_is_never_a_start_word():
    q0, cs = _single_view_instance("EPS + beta", "omega")
    ctx = ExploreContext(q0, cs, Caps(3, 3, 6, 4))
    assert list(ctx.start_words()) == [(sym("beta"),)]
    only_empty, cs = _single_view_instance("EPS", "omega")
    verdict = explore(only_empty, cs, Caps(3, 3, 6, 4))
    assert verdict.kind is VerdictKind.INCONCLUSIVE


# --------------------------------------------------------------------------
# The live-position search against the immutable one


def _two_shade_word(shades):
    return (sym("alpha"), sym(f"A-H-C-{shades[0]}"), sym(f"B-V-C-{shades[1]}"),
            sym(f"A-H-C-{shades[2]}"), sym(f"B-V-C-{shades[3]}"),
            sym("omega"))


def _same_outcome(got, want):
    assert got[0] == want[0]
    if want[1] is None:
        assert got[1] is None
    else:
        assert got[1] == want[1]


@pytest.mark.parametrize("shades", list(product(("black", "grey"), repeat=4)))
def test_classify_word_matches_the_immutable_search(shades, two_shade_reduction):
    out = two_shade_reduction
    ctx = ExploreContext(out.q0_nfa, out.constraint_set(), Caps(6, 3, 6, 3))
    word = _two_shade_word(shades)
    _same_outcome(ctx.classify_word(word), classify_immutable(ctx, word))


@pytest.mark.parametrize("shades", [("black",) * 4,
                                    ("grey", "black", "grey", "black")])
def test_classify_word_matches_the_immutable_search_at_four_branches(
        shades, two_shade_reduction):
    # Every round-one combination of these words loses: 32,768 of them,
    # against 32 over the minimal candidates.
    out = two_shade_reduction
    ctx = ExploreContext(out.q0_nfa, out.constraint_set(), Caps(6, 3, 6, 4))
    word = _two_shade_word(shades)
    _same_outcome(ctx.classify_word(word), classify_immutable(ctx, word))


@pytest.mark.parametrize("name, caps", [
    ("black", Caps(8, 3, 6, 4)),
    ("black", Caps(4, 3, 1, 4)),
    ("black", Caps(6, 2, 3, 2)),
    ("blocked", Caps(7, 3, 6, 4)),
    ("two_shade", Caps(5, 3, 6, 4)),
    ("two_shade", Caps(8, 3, 6, 8)),
])
def test_explore_matches_the_immutable_search(name, caps, request):
    out = request.getfixturevalue(f"{name}_reduction")
    cs = out.constraint_set()
    got = explore(out.q0_nfa, cs, caps)
    want = explore_immutable(out.q0_nfa, cs, caps)
    assert got.kind is want.kind
    if want.certificate is None:
        assert got.certificate is None
    else:
        assert (endpointed_to_json(got.certificate)
                == endpointed_to_json(want.certificate))


def test_a_request_is_pruned_only_when_every_candidate_loses():
    # The start chain G:alpha asks for R:alpha or R:beta between the
    # endpoints.  R:alpha is a red q0 word and loses; R:beta reaches a
    # fixpoint.
    q0, cs = _single_view_instance("alpha", "alpha + beta")
    ctx = ExploreContext(q0, cs, Caps(1, 1, 2, 2))
    word = (sym("alpha"),)
    kind, pos = ctx.classify_word(word)
    assert kind == "win"
    assert (pos.a, sym("R:beta"), pos.b) in pos.graph.edges
    _same_outcome((kind, pos), classify_immutable(ctx, word))


def test_a_win_through_a_non_minimal_candidate_is_found_by_the_fallback():
    # The start chain a G:beta v G:alpha b asks for R:beta or R:beta R:omega
    # from a to v.  The red q0 relation of R:beta R:omega is empty, so it is
    # the one minimal candidate; it does not lose, so the node falls back
    # to every combination.  R:beta, whose relation is larger, comes first
    # and reaches a fixpoint at once; R:beta R:omega opens more requests.
    q0, cs = _single_view_instance("beta alpha", "beta + beta omega")
    caps = Caps(2, 2, 3, 2)
    ctx = ExploreContext(q0, cs, caps)
    rc = cs[0]
    r_beta, r_beta_omega = (sym("R:beta"),), (sym("R:beta"), sym("R:omega"))
    assert ctx.candidates(rc) == (r_beta, r_beta_omega)
    assert _minimal_words(ctx, rc) == (r_beta_omega,)
    word = (sym("beta"), sym("alpha"))
    kind, pos = ctx.classify_word(word)
    assert kind == "win"
    assert pos.graph.edges == {("a", sym("G:beta"), "x1"),
                               ("x1", sym("G:alpha"), "b"),
                               ("a", sym("R:beta"), "x1")}
    _same_outcome((kind, pos), classify_immutable(ctx, word))
    got, want = explore(q0, cs, caps), explore_immutable(q0, cs, caps)
    assert got.kind is want.kind is VerdictKind.NONDETERMINATE
    assert (endpointed_to_json(got.certificate)
            == endpointed_to_json(want.certificate))


def test_candidates_skip_the_empty_word():
    # A view language is epsilon-free, so this rhs is built by hand:
    # graft_path refuses an empty witness, and the empty word must not
    # take one of the max_branches places either.
    colored = SPECIALS.colored()
    lhs, rhs = (parse_regex(x, colored) for x in ("G:beta", "R:beta*"))
    rc = RegularConstraint(lhs, rhs, 0, colored, compile_nfa(lhs, colored),
                           compile_nfa(rhs, colored))
    q0 = compile_nfa(parse_regex("beta", SPECIALS), SPECIALS)
    ctx = ExploreContext(q0, (rc,), Caps(1, 2, 1, 2))
    r_beta = sym("R:beta")
    assert ctx.candidates(rc) == ((r_beta,), (r_beta, r_beta))


def test_an_empty_shortest_word_is_no_candidate():
    # A hand-built rhs whose shortest word is the empty one and whose
    # other words are too long for max_witness_len: no graft can spell the
    # fallback word, so the request has no candidate and the word is
    # undecided, where grafting it would raise.
    colored = SPECIALS.colored()
    lhs, rhs = (parse_regex(x, colored)
                for x in ("G:beta", "EPS + R:beta R:beta R:beta"))
    rc = RegularConstraint(lhs, rhs, 0, colored, compile_nfa(lhs, colored),
                           compile_nfa(rhs, colored))
    q0 = compile_nfa(parse_regex("beta", SPECIALS), SPECIALS)
    caps = Caps(1, 2, 2, 2)
    ctx = ExploreContext(q0, (rc,), caps)
    assert ctx.candidates(rc) == ()
    assert ctx.classify_word((sym("beta"),)) == ("undecided", None)
    assert explore(q0, (rc,), caps).kind is VerdictKind.INCONCLUSIVE


def _minimal_words(ctx, rc):
    """The candidates of rc whose rows ctx.minimal keeps, told apart by
    identity, in candidate order."""
    kept = ctx.minimal(rc)
    return tuple(w for w, rows in zip(ctx.candidates(rc), ctx.rows(rc))
                 if any(rows is m for m in kept))


def _relation_by_membership(nfa, w):
    """The pairs (p, q) for which nfa, started in p, ends in q on w."""
    return frozenset((p, q) for p in range(nfa.n_states)
                     for q in range(nfa.n_states)
                     if accepts(replace(nfa, start=p, accepting=frozenset([q])),
                                w))


def _as_rows(pairs):
    """A relation's pairs (p, q) as rows p -> {q, ...}."""
    rows = {}
    for p, q in pairs:
        rows.setdefault(p, set()).add(q)
    return {p: frozenset(qs) for p, qs in rows.items()}


@given(st.integers(0, 2 ** 32 - 1),
       st.lists(st.integers(0, 2), min_size=1, max_size=4))
def test_relation_rows_match_the_membership_oracle(seed, letters):
    # No automaton here reads omega, so words with it test the empty rows.
    regex = random_regex(random.Random(seed), list(SPECIALS.symbols[:2]))
    nfa = compile_nfa(regex, SPECIALS)
    w = tuple(SPECIALS.symbols[i] for i in letters)
    rows = relation(nfa, w)
    assert rows == _as_rows(_relation_by_membership(nfa, w))
    if len(w) == 1:
        assert all(qs is nfa.delta[p][w[0]] for p, qs in rows.items())


@given(st.integers(0, 2 ** 32 - 1))
def test_minimal_keeps_the_first_word_of_each_minimal_relation(seed):
    q0, cs, caps = _random_instance(seed)
    ctx = ExploreContext(q0, cs, replace(caps, max_witness_len=3))
    for rc in cs:
        cands = ctx.candidates(rc)
        rel = {w: _relation_by_membership(ctx.red_q0, w) for w in cands}
        want = [w for i, w in enumerate(cands)
                if rel[w] not in {rel[u] for u in cands[:i]}
                and not any(rel[u] < rel[w] for u in cands)]
        assert list(_minimal_words(ctx, rc)) == want
        assert list(ctx.minimal(rc)) == [_as_rows(rel[w]) for w in want]
        for w in cands:
            assert any(rel[m] <= rel[w] for m in want)


@given(st.integers(0, 2 ** 32 - 1))
def test_classify_word_matches_the_immutable_search_on_random_instances(seed):
    q0, cs, caps = _random_instance(seed)
    # One-letter witnesses keep every search small; longer ones let a few
    # seeds branch into millions of combinations.  Both wins and losses
    # still occur often.  Two-letter witnesses give candidates whose red
    # q0 relations nest, so the minimal check both decides nodes and
    # falls back; one round keeps those searches small.
    for search_caps in (Caps(min(caps.max_initial_len, 4), 1, 3, 2),
                        Caps(min(caps.max_initial_len, 3), 2, 1, 2)):
        ctx = ExploreContext(q0, cs, search_caps)
        for w in ctx.start_words():
            _same_outcome(ctx.classify_word(w), classify_immutable(ctx, w))


# --------------------------------------------------------------------------
# The all-lost check by backjumping against grafting every minimal
# combination


class _Seen:
    """What the summary graphs saw: each all-lost check's decision, each
    of its leaves' nogood (None for a surviving leaf), each fallback's
    surviving picks, and the classify_word outcomes."""

    def __init__(self):
        self.nodes = []
        self.leaves = []
        self.fallbacks = []
        self.outcomes = []


def _classify_watched(ctx, words, on_leaf=None, odometer=False,
                      fallback=False):
    """Classify each word and return what its summary graphs saw.

    A node's all-lost check indexes each request's minimal candidates, and
    its fallback all of them.  on_leaf(summary, nogood) runs on every
    losing leaf of either; only the all-lost checks' leaves are
    recorded.  With odometer, every node
    asserts that the backjumping check decides as grafting every minimal
    combination; with fallback, that the fallback's survivors are, in
    order, the combinations of all candidates that do not lose grafted."""
    seen = _Seen()

    class Watched(escape.SummaryGraph):
        def __init__(self, nfa, pos, reqs, rows):
            super().__init__(nfa, pos, reqs, rows)
            self.reqs = reqs
            self.minimal = all(rs is ctx.minimal(r.constraint)
                               for r, rs in zip(reqs, rows))
            self.words = [_minimal_words(ctx, r.constraint) if self.minimal
                          else ctx.candidates(r.constraint) for r in reqs]

        def nogood(self, picks):
            got = super().nogood(picks)
            if self.minimal:
                seen.leaves.append(None if got is None else frozenset(got))
            if got is not None and on_leaf is not None:
                on_leaf(self, got)
            return got

        def all_lose(self):
            got = super().all_lose()
            if odometer:
                assert got == all_lose_odometer(ctx, self.pos, self.reqs,
                                                self.words)
            seen.nodes.append(got)
            return got

        def survivors(self):
            if self.minimal or not fallback:
                return super().survivors()
            got = list(super().survivors())
            assert got == list(survivors_by_grafting(ctx, self.pos,
                                                     self.reqs, self.words))
            seen.fallbacks.append(got)
            return iter(got)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(escape, "SummaryGraph", Watched)
        seen.outcomes = [ctx.classify_word(w) for w in words]
    return seen


def _assert_nogood_sound(ctx):
    """on_leaf: every combination of the summary's words that agrees with
    the nogood loses, each grafted on the node's position."""
    def check(summary, nogood):
        assert all_lose_odometer(ctx, summary.pos, summary.reqs,
                                 summary.words, nogood)
    return check


def _assert_nogood_loses_alone(ctx):
    """on_leaf: the node's position loses with only the nogood's picks and
    the one word of each fixed request grafted, at the odometer's round.
    Grafts only add edges, so every combination of the summary's words
    that agrees with the nogood loses too."""
    def check(summary, nogood):
        picked, pos = dict(nogood), summary.pos
        kept = [(r, [words[picked.get(i, 0)]])
                for i, (r, words) in enumerate(zip(summary.reqs,
                                                   summary.words))
                if i in picked or len(words) == 1]
        (g,) = combination_graphs(pos.graph, [r for r, _ in kept],
                                  [ws for _, ws in kept],
                                  ctx.caps.max_rounds + 1)
        assert holds(ctx.red_q0, g, pos.a, pos.b)
    return check


@pytest.mark.parametrize("name", ["two_shade", "blocked"])
@pytest.mark.parametrize("caps", [Caps(8, 3, 6, 4), Caps(8, 3, 6, 3)])
def test_all_lost_check_matches_the_odometer(name, caps, request):
    out = request.getfixturevalue(f"{name}_reduction")
    ctx = ExploreContext(out.q0_nfa, out.constraint_set(), caps)
    seen = _classify_watched(ctx, ctx.start_words(), odometer=True)
    assert any(seen.nodes)


@given(st.integers(0, 2 ** 32 - 1))
def test_all_lost_check_matches_the_odometer_on_random_instances(seed):
    q0, cs, caps = _random_instance(seed)
    for search_caps in (Caps(min(caps.max_initial_len, 4), 1, 3, 2),
                        Caps(min(caps.max_initial_len, 3), 2, 1, 2)):
        ctx = ExploreContext(q0, cs, search_caps)
        _classify_watched(ctx, ctx.start_words(), _assert_nogood_sound(ctx),
                          odometer=True)


@pytest.mark.parametrize("name, caps, max_len", [
    ("black", Caps(8, 3, 6, 4), 6),
    ("two_shade", Caps(8, 3, 6, 8), 4),
])
def test_the_fallback_grafts_exactly_the_survivors(
        name, caps, max_len, request):
    # Grafting every combination is slow where the fallback branches
    # widely: under the oracle black's 8-letter start word takes 8 s and
    # each 6-letter two-shade word 30 s, so only shorter words are run.
    out = request.getfixturevalue(f"{name}_reduction")
    ctx = ExploreContext(out.q0_nfa, out.constraint_set(), caps)
    words = [w for w in ctx.start_words() if len(w) <= max_len]
    seen = _classify_watched(ctx, words, fallback=True)
    assert any(len(f) > 1 for f in seen.fallbacks)


def test_the_fallback_grafts_exactly_the_survivors_of_a_win():
    # The instance of the non-minimal win above: the fallback keeps both
    # candidates, and the first wins.
    q0, cs = _single_view_instance("beta alpha", "beta + beta omega")
    ctx = ExploreContext(q0, cs, Caps(2, 2, 3, 2))
    seen = _classify_watched(ctx, ctx.start_words(), fallback=True)
    assert seen.fallbacks[0] == [(0,), (1,)]
    assert seen.outcomes[-1][0] == "win"


@given(st.integers(0, 2 ** 32 - 1))
def test_the_fallback_grafts_exactly_the_survivors_on_random_instances(seed):
    q0, cs, caps = _random_instance(seed)
    for search_caps in (Caps(min(caps.max_initial_len, 4), 1, 3, 2),
                        Caps(min(caps.max_initial_len, 3), 2, 1, 2)):
        ctx = ExploreContext(q0, cs, search_caps)
        _classify_watched(ctx, ctx.start_words(), fallback=True)


@given(st.integers(0, 2 ** 32 - 1),
       st.lists(st.sampled_from(SPECIALS.symbols), min_size=1, max_size=6))
def test_no_initial_position_loses(seed, word):
    # Red q0 reads only red labels and the chain is green, so the search
    # asks no loss test at the root.
    q0 = compile_nfa(random_regex(random.Random(seed), list(SPECIALS.symbols)),
                     SPECIALS)
    pos = initial_position(tuple(word))
    assert not holds(recolor_nfa(q0, Color.RED), pos.graph, pos.a, pos.b)


def test_learned_nogoods_are_sound_on_blocked(blocked_reduction):
    out = blocked_reduction
    ctx = ExploreContext(out.q0_nfa, out.constraint_set(), Caps(10, 3, 6, 4))
    seen = _classify_watched(ctx, ctx.start_words(),
                             _assert_nogood_loses_alone(ctx))
    assert {len(n) for n in seen.leaves} == {2, 3, 4, 5}


def test_a_two_shade_survivor_is_decided_in_two_one_literal_leaves(
        two_shade_reduction):
    # One request loses under each of its two minimal candidates, whatever
    # the others get: a walk that crosses the fewest choices crosses that
    # one alone.  A walk that crosses more would send the search through
    # further leaves.
    out = two_shade_reduction
    ctx = ExploreContext(out.q0_nfa, out.constraint_set(), Caps(8, 3, 6, 4))
    word = next(w for w in ctx.start_words() if len(w) == 8)
    seen = _classify_watched(ctx, [word])
    assert seen.outcomes == [("all_lost", None)]
    assert seen.nodes == [True]
    assert [len(n) for n in seen.leaves] == [1, 1]
    (i, first), (j, second) = (next(iter(n)) for n in seen.leaves)
    assert i == j and first != second


def test_a_node_decided_at_the_root_grafts_nothing(two_shade_reduction):
    out = two_shade_reduction
    ctx = ExploreContext(out.q0_nfa, out.constraint_set(), Caps(6, 3, 6, 3))
    word = _two_shade_word(("black",) * 4)
    with _counted_grafts() as grafts:
        assert ctx.classify_word(word) == ("all_lost", None)
    assert grafts == []


_EVERY_LABEL_PLUS = Plus(Class(frozenset(SPECIALS.colored().symbols)))


def _colored_constraint(cid, lhs, rhs):
    """lhs -> rhs over the colored SPECIALS; each side is a regex or its
    text."""
    colored = SPECIALS.colored()
    lhs, rhs = (parse_regex(x, colored) if isinstance(x, str) else x
                for x in (lhs, rhs))
    return RegularConstraint(lhs, rhs, cid, colored, compile_nfa(lhs, colored),
                             compile_nfa(rhs, colored))


def test_run_play_lists_a_repeated_witness_but_adds_its_edge_once():
    # Two constraints open a request on the same pair; the first graft
    # makes the edge that the second one's witness repeats.
    cs = (_colored_constraint(0, "G:alpha", "R:alpha"),
          _colored_constraint(1, "G:alpha", "R:alpha + R:beta"))
    q0 = compile_nfa(parse_regex("beta", SPECIALS), SPECIALS)
    init = EndpointedGraph(chain_graph((sym("G:alpha"),), "a", "b"), "a", "b")
    result, trace = run_play(q0, cs, strategy_shortest(), init, 3)
    assert result.outcome is PlayOutcome.WON_FIXPOINT
    (rec,) = trace.rounds
    assert rec.requests == (("a", "b", 0), ("a", "b", 1))
    assert rec.choices == ((sym("R:alpha"),), (sym("R:alpha"),))
    assert rec.added_edges == (("a", sym("R:alpha"), "b"),)


def test_a_request_with_no_candidate_leaves_the_word_undecided():
    # The rhs is empty, so the request alpha opens between the endpoints
    # has no witness; the search cannot go on and cannot claim a loss.
    cs = (_colored_constraint(0, "G:alpha", "EMPTY"),)
    q0 = compile_nfa(parse_regex("alpha", SPECIALS), SPECIALS)
    caps = Caps(2, 2, 2, 2)
    ctx = ExploreContext(q0, cs, caps)
    assert ctx.classify_word((sym("alpha"),)) == ("undecided", None)
    assert explore(q0, cs, caps).kind is VerdictKind.INCONCLUSIVE


def test_a_forcing_constraint_with_a_green_rhs_is_no_kill():
    """Constraint 0 forces, as its only candidate R:alpha R:omega is a red
    q0 word, but its rhs also accepts the green chain of alpha alpha alpha
    omega, which so opens no request and wins at once.  Its lhs alone
    would cut that word from the start words: the start automaton must
    not take it as a kill."""
    cs = (_colored_constraint(0, "G:alpha G:alpha G:alpha G:omega",
                              "R:alpha R:omega + G:alpha G:alpha G:alpha "
                              "G:omega"),
          _colored_constraint(1, "G:alpha G:omega", "R:alpha R:omega"))
    q0 = compile_nfa(parse_regex("alpha omega + alpha alpha alpha omega",
                                 SPECIALS), SPECIALS)
    caps = Caps(4, 3, 2, 4)
    ctx = ExploreContext(q0, cs, caps)
    for rc in cs:
        cands = ctx.candidates(rc)
        assert cands and all(accepts(ctx.red_q0, u) for u in cands)
    assert list(ctx.start_words()) == [
        parse_word("alpha alpha alpha omega", SPECIALS)]
    got = explore(q0, cs, caps)
    want = explore_per_word(q0, cs, caps)
    assert got.kind is want.kind is VerdictKind.NONDETERMINATE
    assert (endpointed_to_json(got.certificate)
            == endpointed_to_json(want.certificate))


@pytest.mark.parametrize("x, y, rhs, word, error, message", [
    ("a", "nowhere", _EVERY_LABEL_PLUS, "R:alpha", UnknownVertexError,
     "no vertex named 'nowhere'"),
    ("a", "b", _EVERY_LABEL_PLUS, "", WitnessRejectedError,
     "witness word is empty"),
    ("a", "b", "R:alpha", "G:alpha", WitnessRejectedError,
     "witness 'G:alpha' not in the rhs language of constraint 0"),
    ("a", "b", _EVERY_LABEL_PLUS, "R:alpha R:beta", ValueError,
     "fresh vertex names already taken: ['n1_0_1']"),
], ids=["unknown-endpoint", "empty-word", "not-in-rhs", "fresh-name-clash"])
def test_graft_path_refuses_with_its_message(x, y, rhs, word, error,
                                             message):
    rc = _colored_constraint(0, "G:alpha", rhs)
    g = LabeledGraph.build(["a", "b", "n1_0_1"], [("a", sym("G:alpha"), "b")])
    r, w = Request(x, y, rc), tuple(sym(tok) for tok in word.split())
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        graft_path(g.vertices, r, w, round_no=1, req_index=0)
