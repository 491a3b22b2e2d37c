"""Acceptance suite: ten end-to-end checks, one test function each.

Criteria 3 and 10 aggregate evidence over the plays recorded by criteria
2 and 5-7, so those two tests are defined after the recording tests; the
file otherwise runs top to bottom in criterion order.  Every test carries
its own wall-clock budget.
"""

import random
from time import monotonic

from rpqdet.automata import (Lit, accepts, compile_nfa, concat_all,
                             iter_words, parse_regex, parse_word,
                             shortest_word, union_all)
from rpqdet.constraints import make_arrow_set, recolor_nfa, requests, satisfied
from rpqdet.escape import (Caps, PlayOutcome, VerdictKind, explore,
                           initial_position, run_play, scripted_from_trace,
                           strategy_guided, strategy_shortest, trace_to_jsonl)
from rpqdet.gadget import (build_grid, check_counterexample, decorate,
                           find_homomorphism, iso_shadeless,
                           verify_homomorphism)
from rpqdet.graphs import EndpointedGraph, LabeledGraph, graph_to_json
from rpqdet.ogtp import all_black_tiling, solve_bruteforce
from rpqdet.rpq import evaluate, holds
from rpqdet.symbols import Alphabet, Color, sym

from oracles import (combination_graphs, eval_algebraic, eval_walks,
                     is_homomorphism, lang_upto, random_graph, random_regex,
                     replay_positions)

# Plays recorded for the cross-cutting criteria: (q0, constraint set,
# trace, round bound) per completed play.
SAVED_PLAYS = []

START_WORD = "alpha A-H-C-black B-V-C-black A-H-C-black B-V-C-black omega"


def _view_nfas(reduction):
    return [compile_nfa(r, reduction.alphabet)
            for r in (*reduction.views.bad, *reduction.views.ugly)]


def _included_upto(sub, sup, max_len):
    """Every word of length <= max_len accepted by sub is accepted by sup,
    decided by a breadth-first walk over subset pairs of both automata."""
    start = (frozenset([sub.start]), frozenset([sup.start]))
    frontier = [start]
    seen = {start}
    for depth in range(max_len + 1):
        for a_ss, b_ss in frontier:
            if a_ss & sub.accepting and not b_ss & sup.accepting:
                return False
        if depth == max_len:
            break
        nxt = []
        for a_ss, b_ss in frontier:
            for s in sub.alphabet.symbols:
                a2 = sub.step(a_ss, s)
                if not a2:
                    continue
                pair = (a2, sup.step(b_ss, s))
                if pair not in seen:
                    seen.add(pair)
                    nxt.append(pair)
        frontier = nxt
    return True


# --------------------------------------------------------------------------
# Criterion 1


def test_criterion_01_eval_matches_bruteforce_path_oracle():
    """Product-automaton evaluation equals the compositional relation
    oracle, whose star closure agrees with path enumeration at every
    length, so in particular up to the vertex-times-states cutoff past
    which no walk can add a pair.  Where that cutoff is tiny, literal walk
    enumeration is compared directly as well."""
    t0 = monotonic()
    labels = [sym("alpha"), sym("beta"), sym("omega"), sym("A-H-C-black")]
    alphabet = Alphabet(labels)
    rng = random.Random(101)
    exact_walk_cases = 0
    for _ in range(220):
        g = random_graph(rng, labels)
        r = random_regex(rng, labels, depth=4)
        nfa = compile_nfa(r, alphabet)
        got = evaluate(nfa, g)
        assert got == eval_algebraic(r, g)
        cutoff = len(g.vertices) * nfa.n_states
        if 0 < cutoff <= 6:
            assert got == eval_walks(r, g, cutoff)
            exact_walk_cases += 1
        elif len(g.vertices) <= 5:
            assert eval_walks(r, g, 4) <= got
    assert exact_walk_cases >= 5
    assert monotonic() - t0 < 10


# --------------------------------------------------------------------------
# Criterion 2


def _fuzz_pair(rng, base, syms):
    chain = tuple(rng.choice(syms) for _ in range(rng.randint(2, 6)))
    langs = []
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(chain))
        j = rng.randint(i + 1, min(len(chain), i + 3))
        anchored = chain[i:j]
        words = [anchored]
        if rng.random() < 0.5:
            words.append(tuple(rng.choice(syms)
                               for _ in range(rng.randint(1, 3))))
        langs.append(union_all([concat_all([Lit(s) for s in w])
                                for w in words]))
        if len(anchored) >= 2 and rng.random() < 0.5:
            langs.append(concat_all([Lit(s) for s in anchored[1:]]))
    for _ in range(rng.randint(0, 2)):
        words = [tuple(rng.choice(syms) for _ in range(rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 2))]
        langs.append(union_all([concat_all([Lit(s) for s in w])
                                for w in words]))
    return make_arrow_set(langs, base), chain


def test_criterion_02_fuzzed_chases_reach_constraint_satisfying_fixpoints():
    """50 fuzzed (constraint set, chain) pairs that reach fixpoint within
    8 rounds under the shortest-witness strategy; the fixpoint satisfies
    every constraint by the production check and by the relation oracle."""
    t0 = monotonic()
    base = Alphabet([sym("alpha"), sym("beta"), sym("omega"),
                     sym("A-H-C-black")])
    syms = list(base)
    no_loss_q0 = compile_nfa(parse_regex("EMPTY", base), base)
    rng = random.Random(20260822)
    collected = 0
    attempts = 0
    while collected < 50:
        attempts += 1
        assert attempts <= 400, "fixpoint-reaching pairs too rare"
        cs, chain = _fuzz_pair(rng, base, syms)
        result, trace = run_play(no_loss_q0, cs, strategy_shortest(),
                                 initial_position(chain), 8)
        if result.outcome is not PlayOutcome.WON_FIXPOINT:
            continue
        collected += 1
        assert result.round >= 1
        positions = replay_positions(cs, trace)
        assert len(positions) - 1 == result.round
        pos = positions[-1]
        assert not requests(cs, pos.graph)
        for rc in cs:
            assert satisfied(rc, pos.graph)
            assert eval_algebraic(rc.lhs, pos.graph) <= \
                eval_algebraic(rc.rhs, pos.graph)
        SAVED_PLAYS.append((no_loss_q0, cs, trace, 8))
    assert collected == 50
    assert monotonic() - t0 < 30


# --------------------------------------------------------------------------
# Criterion 4


def test_criterion_04_guided_play_maintains_verified_homomorphism(
        black_reduction):
    """Guided by the all-black decorated doubled grid of size 2, the play
    from the cold alternation chain keeps a homomorphism into the model
    that verifies after every round, and ends at fixpoint without loss.

    The mapping only grows, so checking the final one against the graph
    after each round, rebuilt from the chain and the trace's added edges,
    is checking it after each round."""
    t0 = monotonic()
    out = black_reduction
    cs = out.constraint_set()
    model = decorate(build_grid(2), all_black_tiling(2)).graph
    word = parse_word(START_WORD, out.alphabet)
    init = initial_position(word)

    h0 = find_homomorphism(init.graph, model)
    assert h0 is not None
    strat = strategy_guided(model, h0)
    assert verify_homomorphism(init.graph, model, strat.mapping)
    assert is_homomorphism(init.graph, model, strat.mapping)

    result, trace = run_play(out.q0_nfa, cs, strat, init, 8)
    assert result.outcome is PlayOutcome.WON_FIXPOINT
    assert len(trace.rounds) == result.round
    red_q0 = recolor_nfa(out.q0_nfa, Color.RED)
    edges = set(init.graph.edges)
    for rec in trace.rounds:
        edges.update(rec.added_edges)
        g = LabeledGraph.build(
            init.graph.vertices | {v for e in edges for v in (e[0], e[2])},
            edges)
        assert not holds(red_q0, g, init.a, init.b)
        assert verify_homomorphism(g, model, strat.mapping)
        assert is_homomorphism(g, model, strat.mapping)
    assert not requests(cs, g)
    assert monotonic() - t0 < 10


# --------------------------------------------------------------------------
# Criterion 5


def test_criterion_05_guided_play_forces_the_doubled_grid(black_reduction):
    """The play of the previous criterion reaches fixpoint exactly at
    round 3 and its final position is shade-insensitively isomorphic to
    the size-2 doubled grid: 11 vertices, 28 edges, 12 distinct labels."""
    t0 = monotonic()
    out = black_reduction
    cs = out.constraint_set()
    model = decorate(build_grid(2), all_black_tiling(2)).graph
    word = parse_word(START_WORD, out.alphabet)
    init = initial_position(word)
    h0 = find_homomorphism(init.graph, model)
    result, trace = run_play(out.q0_nfa, cs, strategy_guided(model, h0),
                             init, 20)
    assert result.outcome is PlayOutcome.WON_FIXPOINT
    assert result.round == 3
    assert len(trace.rounds) == 3

    pos = replay_positions(cs, trace)[-1]
    assert len(pos.graph.vertices) == 11
    assert len(pos.graph.edges) == 28
    assert len(pos.graph.labels()) == 12
    assert iso_shadeless(pos.graph, build_grid(2).graph)
    SAVED_PLAYS.append((out.q0_nfa, cs, trace, 20))
    assert monotonic() - t0 < 10


# --------------------------------------------------------------------------
# Criterion 6


def _all_plays_lose(red_q0, cs, word, max_round=2, wit_cap=3):
    """Exhaustive branching over every witness assignment: at each round
    all open requests are answered, one branch per combination of rhs
    words within wit_cap (falling back to the single shortest rhs word
    when none fit); True when every branch reaches a red-q0 loss by
    max_round."""
    def witness_lists(reqs):
        lists = []
        for r in reqs:
            wits = [u for u in iter_words(r.constraint.rhs_nfa, wit_cap) if u]
            if not wits:
                w = shortest_word(r.constraint.rhs_nfa)
                if w is None:
                    return None
                wits = [w]
            lists.append(wits)
        return lists

    def expand(pos, round_no):
        if holds(red_q0, pos.graph, pos.a, pos.b):
            return True
        if round_no >= max_round:
            return False
        reqs = requests(cs, pos.graph)
        if not reqs:
            return False
        lists = witness_lists(reqs)
        if lists is None:
            return False
        rn = round_no + 1
        for g in combination_graphs(pos.graph, reqs, lists, rn):
            if not expand(EndpointedGraph(g, pos.a, pos.b), rn):
                return False
        return True

    return expand(initial_position(word), 0)


def test_criterion_06_every_bad_or_ugly_start_loses_by_round_two(
        black_reduction):
    """Tiered evidence that every bad or ugly initial word of length <= 8
    loses by round <= 2 under every witness choice of length <= 3.

    Words up to length 5 are checked by exhaustive branching over all
    witness assignments.  Words up to length 6 are checked by the forcing
    property: the round-zero chain opens an endpoint-to-endpoint request
    whose every allowed witness is itself a q0 word, so the first round
    closes a red q0 path no matter what else is added, and added edges
    never remove paths.  For lengths 7 and 8 the same forcing property is
    checked on a deterministic stride sample, and the ingredient it rests
    on, that every bad and ugly word within length 8 is a q0 word, is
    checked for all of them by the bounded inclusion walk."""
    t0 = monotonic()
    out = black_reduction
    cs = out.constraint_set()
    q0 = out.q0_nfa
    red_q0 = recolor_nfa(q0, Color.RED)
    nfas = _view_nfas(out)
    key = out.alphabet.word_key

    words5 = sorted({w for n in nfas for w in iter_words(n, 5) if w}, key=key)
    assert words5
    oracle_words5 = set()
    for r in (*out.views.bad, *out.views.ugly):
        oracle_words5 |= lang_upto(r, 5)
    assert set(words5) == {w for w in oracle_words5 if w}
    for w in words5:
        assert _all_plays_lose(red_q0, cs, w), w

    witness_ok = {}

    def first_round_forces_loss(word):
        pos = initial_position(word)
        for r in requests(cs, pos.graph):
            if (r.x, r.y) != (pos.a, pos.b):
                continue
            got = witness_ok.get(r.cid)
            if got is None:
                wits = [u for u in iter_words(r.constraint.rhs_nfa, 3) if u]
                if not wits:
                    w = shortest_word(r.constraint.rhs_nfa)
                    wits = [w] if w is not None else []
                got = bool(wits) and all(
                    accepts(q0, tuple(s.uncolored() for s in u))
                    for u in wits)
                witness_ok[r.cid] = got
            if got:
                return True
        return False

    words6 = sorted({w for n in nfas for w in iter_words(n, 6) if w}, key=key)
    for w in words6:
        assert first_round_forces_loss(w), w

    for nfa in nfas:
        assert _included_upto(nfa, q0, 8)
        long_words = [w for i, w in enumerate(iter_words(nfa, 8))
                      if len(w) >= 7 and i % 997 == 0]
        for w in long_words:
            assert first_round_forces_loss(w), w
        for w in long_words[::8]:
            assert _all_plays_lose(red_q0, cs, w), w

    for w in words5[:6]:
        result, trace = run_play(q0, cs, strategy_shortest(),
                                 initial_position(w), 6)
        assert result.outcome is PlayOutcome.LOST
        assert result.round <= 2
        SAVED_PLAYS.append((q0, cs, trace, 6))
    assert monotonic() - t0 < 60


# --------------------------------------------------------------------------
# Criterion 7


def test_criterion_07_unsolvable_instance_all_bounded_plays_lose(
        blocked_instance, blocked_reduction):
    """With every shade pair forbidden there is no tiling up to n=3, and
    the bounded exhaustive search over the compiled instance finds that
    every play within the caps loses."""
    t0 = monotonic()
    assert solve_bruteforce(blocked_instance, 3) is None
    out = blocked_reduction
    cs = out.constraint_set()
    verdict = explore(out.q0_nfa, cs, Caps(8, 3, 6, 4))
    assert verdict.kind is VerdictKind.ALL_PLAYS_LOSE
    assert verdict.certificate is None

    played = 0
    for w in iter_words(out.q0_nfa, 4):
        if not w:
            continue
        result, trace = run_play(out.q0_nfa, cs, strategy_shortest(),
                                 initial_position(w), 6)
        assert result.outcome is PlayOutcome.LOST
        SAVED_PLAYS.append((out.q0_nfa, cs, trace, 6))
        played += 1
        if played >= 10:
            break
    assert played
    assert monotonic() - t0 < 300


# --------------------------------------------------------------------------
# Criterion 3


def test_criterion_03_odd_moves_add_red_even_moves_add_green():
    """Across every play recorded by criteria 2 and 5-7, odd rounds add
    only red edges and even rounds only green edges."""
    assert SAVED_PLAYS
    odd_rounds = even_rounds = 0
    for _, _, trace, _ in SAVED_PLAYS:
        for rec in trace.rounds:
            want = Color.RED if rec.round_no % 2 == 1 else Color.GREEN
            colors = {s.color for _, s, _ in rec.added_edges}
            assert colors <= {want}, (rec.round_no, colors)
            if rec.round_no % 2 == 1:
                odd_rounds += 1
            else:
                even_rounds += 1
    assert odd_rounds >= 30
    assert even_rounds >= 5


# --------------------------------------------------------------------------
# Criterion 8


def test_criterion_08_solvable_instance_yields_verified_counterexample(
        black_reduction):
    """The bounded search on the solvable instance returns NONDETERMINATE
    and its certificate passes all three counterexample conditions: every
    view constraint satisfied, a green q0 path between the endpoints, and
    no red q0 path."""
    t0 = monotonic()
    out = black_reduction
    cs = out.constraint_set()
    verdict = explore(out.q0_nfa, cs, Caps(8, 3, 6, 4))
    assert verdict.kind is VerdictKind.NONDETERMINATE
    cert = verdict.certificate
    assert cert is not None

    report = check_counterexample(cert.graph, out.views.all_languages(),
                                  out.q0_nfa, cert.a, cert.b)
    assert report.ok, report.failures
    assert report.failures == ()

    assert all(satisfied(rc, cert.graph) for rc in cs)
    assert holds(recolor_nfa(out.q0_nfa, Color.GREEN), cert.graph,
                 cert.a, cert.b)
    assert not holds(recolor_nfa(out.q0_nfa, Color.RED), cert.graph,
                     cert.a, cert.b)
    assert monotonic() - t0 < 60


# --------------------------------------------------------------------------
# Criterion 9


def test_criterion_09_reduction_shapes_and_q0_coverage(
        black_instance, black_reduction, blocked_instance, blocked_reduction,
        two_shade_instance, two_shade_reduction):
    """View family sizes and alphabet size follow the instance shape, and
    every bad or ugly word up to length 8 is accepted by the q0 automaton
    (bounded inclusion walk for all three instances, plus direct word
    enumeration up to length 5 on the single-shade one)."""
    t0 = monotonic()
    for inst, red in ((black_instance, black_reduction),
                      (blocked_instance, blocked_reduction),
                      (two_shade_instance, two_shade_reduction)):
        assert len(red.views.good) == 8
        assert len(red.views.bad) == 2 + len(inst.forbidden)
        assert len(red.views.ugly) == 2
        assert len(red.alphabet) == 3 + 8 * len(inst.shades)
        for nfa in _view_nfas(red):
            assert _included_upto(nfa, red.q0_nfa, 8)

    q0 = black_reduction.q0_nfa
    checked = 0
    for nfa in _view_nfas(black_reduction):
        for w in iter_words(nfa, 5):
            if w:
                assert accepts(q0, w)
                checked += 1
    assert checked
    assert monotonic() - t0 < 30


# --------------------------------------------------------------------------
# Criterion 10


def _position_bytes(cs, trace):
    return [graph_to_json(pos.graph) for pos in replay_positions(cs, trace)]


def test_criterion_10_scripted_replay_reproduces_positions_byte_identically():
    """Replaying every saved trace with the scripted strategy yields the
    same trace bytes and the same serialized graph at every round."""
    assert SAVED_PLAYS
    for q0, cs, trace, max_rounds in SAVED_PLAYS:
        result, replayed = run_play(q0, cs, scripted_from_trace(trace),
                                    initial_position(trace.initial_word),
                                    max_rounds)
        assert trace_to_jsonl(replayed) == trace_to_jsonl(trace)
        assert _position_bytes(cs, replayed) == _position_bytes(cs, trace)
