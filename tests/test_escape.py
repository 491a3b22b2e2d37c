import random
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (classify_immutable, explore_immutable, explore_per_word,
                     forced_per_word, is_homomorphism, random_graph,
                     random_regex, replay_positions, start_words_per_word)
from rpqdet.automata import (Concat, Empty, Lit, accepts, compile_nfa,
                             iter_words, parse_regex, parse_word)
from rpqdet.constraints import Request, make_arrow_set, make_arrows, requests
from rpqdet.escape import (
    Caps,
    ExploreContext,
    GuidanceError,
    LivePosition,
    PlayOutcome,
    Position,
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
from rpqdet.graphs import LabeledGraph, chain_graph, endpointed_to_json
from rpqdet.rpq import holds
from rpqdet.ogtp import all_black_tiling
from rpqdet.symbols import Alphabet, Color, FormatError, sym

SPECIALS = Alphabet(["alpha", "beta", "omega"])


def start_word(alphabet, m=1):
    return parse_word(
        "alpha " + "A-H-C-black B-V-C-black " * m + "omega", alphabet)


# --------------------------------------------------------------------------
# Initial positions


def test_initial_position_is_a_green_round_zero_chain():
    pos = initial_position(parse_word("alpha omega", SPECIALS))
    assert pos.round == 0
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
                             Position(g, "a", "b", 0), 5)
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


def test_classify_word_kills_forced_words_without_game_search(
        black_reduction):
    ctx = ExploreContext(black_reduction.q0_nfa,
                         black_reduction.constraint_set(), Caps(3, 3, 6, 4))
    warm = parse_word("alpha A-H-W-black omega", black_reduction.alphabet)
    assert forced_per_word(ctx, warm)
    assert ctx.classify_word(warm) == ("all_lost", None)
    with pytest.raises(ValueError):
        ctx.classify_word(())


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
    rc = cs.by_id(0)
    r_beta, r_beta_omega = (sym("R:beta"),), (sym("R:beta"), sym("R:omega"))
    assert ctx.candidates(rc) == (r_beta, r_beta_omega)
    assert ctx.minimal(rc) == (r_beta_omega,)
    word = (sym("beta"), sym("alpha"))
    kind, pos = ctx.classify_word(word)
    assert (kind, pos.round) == ("win", 1)
    assert pos.graph.edges == {("a", sym("G:beta"), "x1"),
                               ("x1", sym("G:alpha"), "b"),
                               ("a", sym("R:beta"), "x1")}
    _same_outcome((kind, pos), classify_immutable(ctx, word))
    got, want = explore(q0, cs, caps), explore_immutable(q0, cs, caps)
    assert got.kind is want.kind is VerdictKind.NONDETERMINATE
    assert (endpointed_to_json(got.certificate)
            == endpointed_to_json(want.certificate))


def _relation_by_membership(nfa, w):
    """The pairs (p, q) for which nfa, started in p, ends in q on w."""
    return frozenset((p, q) for p in range(nfa.n_states)
                     for q in range(nfa.n_states)
                     if accepts(replace(nfa, start=p, accepting=frozenset([q])),
                                w))


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
        assert list(ctx.minimal(rc)) == want
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


def _reach_from_scratch(nfa, g, a):
    """Per vertex, the states some walk from a reaches there: one holds()
    search per (vertex, state) pair."""
    return {v: frozenset(s for s in range(nfa.n_states)
                         if holds(replace(nfa, accepting=frozenset([s])),
                                  g, a, v))
            for v in g.vertices}


def _snapshot(live):
    return live.graph(), {v: frozenset(got) for v, got in live.reach.items()}


@given(st.integers(0, 2 ** 32 - 1))
def test_live_reach_matches_a_fresh_search_through_grafts_and_undos(seed):
    rng = random.Random(seed)
    colored = SPECIALS.colored()
    labels = list(colored.symbols)
    nfa = compile_nfa(random_regex(rng, labels, depth=3), colored)
    g = random_graph(rng, labels, max_vertices=5, max_edges=8)
    a, b = rng.choice(sorted(g.vertices)), rng.choice(sorted(g.vertices))
    rc = make_arrows(Lit(sym("alpha")), SPECIALS)[0]
    live = LivePosition(nfa, g, a, b)
    stack = []
    for step_no in range(1, 13):
        if stack and rng.random() < 0.4:
            record, before = stack.pop()
            live.undo(record)
            assert _snapshot(live) == before
        else:
            vs = sorted(live.out)
            r = Request(rng.choice(vs), rng.choice(vs), rc)
            w = tuple(rng.choice(labels) for _ in range(rng.randint(1, 3)))
            before = _snapshot(live)
            stack.append((live.graft(r, w, step_no, 0), before))
            names = [f"n{step_no}_0_{k}" for k in range(1, len(w))]
            stops = [r.x, *names, r.y]
            assert live.graph() == LabeledGraph(
                before[0].vertices | set(names),
                before[0].edges | set(zip(stops, w, stops[1:])))
        now = live.graph()
        assert live.reach == _reach_from_scratch(nfa, now, a)
        assert live.lost() == holds(nfa, now, a, b)
    while stack:
        record, before = stack.pop()
        live.undo(record)
        assert _snapshot(live) == before
    assert live.graph() == g
