"""The pursuit game that hunts for determinacy counterexamples.

A position is an ``EndpointedGraph``, a graph with endpoints a and b.
Every play and every search starts at round 0 from ``initial_position``,
the green chain of a word of the start-and-traps language q0.  Each round
the player must satisfy every open constraint request at once by grafting
witness paths.  The player loses as soon as a red q0 word connects a to
b; a position with no open requests is a fixpoint, and a search's fixpoint
is its counterexample certificate as it stands.

A play keeps one ``LivePosition``, its position's out-rows, which each
round's grafts extend: a round only adds edges.  Over those rows it keeps
one ``LiveRequests``, which answers the requests, and one
``rpq.LivePairs`` of red q0 walked from a alone, which answers the loss
test; each round extends both from its new edges alone.  The bounded
search keeps no mutable position: each node is one immutable graph, on
which it asks ``requests`` and builds its ``SummaryGraph``, and each child
is one union of that graph and the paths ``graft_path`` makes for its
picks.  ``LivePosition.graft`` grafts through ``graft_path`` as well.

A strategy is a callable ``strategy(round_no, index, req) -> Word``: the
witness for the open request req, the index-th (from 0) of round round_no
(from 1) in (x, y, constraint id) order.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import islice

from .automata import (Nfa, ProductDfa, accepts, iter_words, recolor_nfa,
                       shortest_word)
from .constraints import (ConstraintSet, LiveRequests, RegularConstraint,
                          Request, fresh_names, graft_path, requests)
from .graphs import (Edge, EndpointedGraph, LabeledGraph, chain_graph,
                     chain_word)
from .rpq import LivePairs, edges_by_label, find_witness
from .summary import Rows, SummaryGraph, relation
from .symbols import (Color, FormatError, Symbol, Word, WorkbenchError, expect,
                      expect_items, expect_key, format_word, load_json)


class ScriptExhaustedError(WorkbenchError):
    pass


class GuidanceError(WorkbenchError):
    pass


@dataclass(frozen=True)
class Caps:
    """Bounds for the exhaustive search; every cap must be positive."""

    max_initial_len: int
    max_witness_len: int
    max_rounds: int
    max_branches: int

    def __post_init__(self):
        for name in ("max_initial_len", "max_witness_len", "max_rounds",
                     "max_branches"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


class PlayOutcome(Enum):
    LOST = "LOST"
    WON_FIXPOINT = "WON_FIXPOINT"
    EXHAUSTED = "EXHAUSTED"


@dataclass(frozen=True)
class PlayResult:
    outcome: PlayOutcome
    round: int


@dataclass(frozen=True)
class RoundRecord:
    round_no: int
    requests: tuple[tuple[str, str, int], ...]
    choices: tuple[Word, ...]
    added_edges: tuple[Edge, ...]


@dataclass(frozen=True)
class PlayTrace:
    initial_word: Word | None
    rounds: tuple[RoundRecord, ...]


# --------------------------------------------------------------------------
# Positions


def _green_word(word: Word) -> Word:
    if not word:
        raise ValueError("initial word must be nonempty")
    green = []
    for s in word:
        if s.color is Color.RED:
            raise ValueError("initial word must be green or uncolored")
        green.append(s if s.color is Color.GREEN else s.colored(Color.GREEN))
    return tuple(green)


def initial_position(word: Word) -> EndpointedGraph:
    """The position every play and search starts from: the green chain of
    the word, from a to b."""
    return EndpointedGraph(chain_graph(_green_word(word), "a", "b"), "a", "b")


# --------------------------------------------------------------------------
# Strategies


class ShortestStrategy:
    """Always answer with the shortlex-least word of the rhs language."""

    def __call__(self, round_no: int, index: int, req: Request) -> Word:
        w = shortest_word(req.constraint.rhs_nfa)
        if w is None:
            raise GuidanceError(f"constraint {req.cid} has an empty rhs language")
        return w


class ScriptedStrategy:
    """Replay a fixed list of witness words in request order."""

    def __init__(self, words):
        self._queue = deque(words)

    def __call__(self, round_no: int, index: int, req: Request) -> Word:
        if not self._queue:
            raise ScriptExhaustedError(
                f"script ran out of words at round {round_no}, request "
                f"({req.x}, {req.y}, {req.cid})")
        return self._queue.popleft()


class GuidedStrategy:
    """Choose witnesses by following a model that satisfies the constraints.

    Maintains a homomorphism from the current position into the model; each
    witness is the shortest rhs path in the model between the images of the
    request endpoints, and the path's inner vertices become the images of
    the fresh vertices run_play grafts for it.
    """

    def __init__(self, model: LabeledGraph, h0: dict[str, str]):
        self.model = model
        self.mapping = dict(h0)

    def __call__(self, round_no: int, index: int, req: Request) -> Word:
        hx = self.mapping.get(req.x)
        hy = self.mapping.get(req.y)
        if hx is None or hy is None:
            raise GuidanceError(f"request endpoint not in the maintained map: "
                                f"({req.x}, {req.y})")
        hit = find_witness(req.constraint.rhs_nfa, self.model, hx, hy)
        if hit is None:
            raise GuidanceError(
                f"model offers no rhs path for constraint {req.cid} between "
                f"{hx} and {hy}; it does not satisfy the constraint set")
        word, path = hit
        # Fresh names are never reused, and no request of the round that
        # makes them has one as an endpoint, so they can be mapped now.
        names = fresh_names(round_no, index, len(path) - 2)
        self.mapping.update(zip(names, path[1:-1]))
        return word


# The interactive prompt lists up to _SAMPLE_COUNT rhs words of length at
# most _SAMPLE_LEN.
_SAMPLE_LEN, _SAMPLE_COUNT = 4, 8


class InteractiveStrategy:
    """Prompt for witness words; re-prompt until one the rhs accepts."""

    def __init__(self, input_fn=input, print_fn=print):
        self.input_fn = input_fn
        self.print_fn = print_fn

    def __call__(self, round_no: int, index: int, req: Request) -> Word:
        rc = req.constraint
        self.print_fn(f"round {round_no}: request ({req.x}, {req.y}) "
                      f"for constraint {req.cid}: {rc.describe()}")
        samples = list(islice(iter_words(rc.rhs_nfa, _SAMPLE_LEN),
                              _SAMPLE_COUNT))
        if samples:
            self.print_fn("candidates: " +
                          "; ".join(format_word(w) for w in samples))
        while True:
            try:
                line = self.input_fn("witness> ")
            except EOFError:
                raise ScriptExhaustedError("interactive input closed") from None
            try:
                word = _word_from_text(line)
                if word and accepts(rc.rhs_nfa, word):
                    return word
                self.print_fn("not a word of the rhs language, try again")
            except WorkbenchError as e:
                self.print_fn(f"rejected: {e}")


def strategy_shortest() -> ShortestStrategy:
    return ShortestStrategy()


def strategy_scripted(words) -> ScriptedStrategy:
    return ScriptedStrategy(words)


def strategy_guided(model: LabeledGraph, h0: dict[str, str]) -> GuidedStrategy:
    return GuidedStrategy(model, h0)


def strategy_interactive(**kwargs) -> InteractiveStrategy:
    return InteractiveStrategy(**kwargs)


# --------------------------------------------------------------------------
# Playing


def run_play(q0: Nfa, cs: ConstraintSet, strategy, init: EndpointedGraph,
             max_rounds: int) -> tuple[PlayResult, PlayTrace]:
    """Play from the position init, at round 0, until loss, fixpoint, or
    the round bound.

    q0 ranges over the base alphabet; the loss test checks its red copy
    between the endpoints after every position, the initial one included.
    Each round asks the strategy for every open request's witness in
    order and grafts it at once through LivePosition.graft.

    The play runs on one LivePosition, and over its out-rows on one
    LiveRequests, which answers the requests, and one LivePairs of red
    q0 that walks from a alone, which answers the loss test; both are
    extended from each round's new edges only, as a round never takes an
    edge away.
    """
    live = LivePosition(init)
    tracker = LiveRequests(cs, live.out)
    loss = LivePairs(recolor_nfa(q0, Color.RED), live.out, live.a)
    records: list[RoundRecord] = []
    init_word = chain_word(init.graph, init.a, init.b)
    round_no = 0
    while True:
        if (live.a, live.b) in loss.pairs:
            outcome = PlayOutcome.LOST
            break
        reqs = tracker.requests()
        if not reqs:
            outcome = PlayOutcome.WON_FIXPOINT
            break
        if round_no >= max_rounds:
            outcome = PlayOutcome.EXHAUSTED
            break
        round_no += 1
        choices: list[Word] = []
        names: list[str] = []
        added: list[Edge] = []
        for i, r in enumerate(reqs):
            w = strategy(round_no, i, r)
            choices.append(w)
            fresh, new = live.graft(r, w, round_no, i)
            names += fresh
            added += new
        by_label = edges_by_label(added)
        tracker.extend(names, by_label)
        loss.extend(names, by_label)
        records.append(RoundRecord(round_no,
                                   tuple((r.x, r.y, r.cid) for r in reqs),
                                   tuple(choices), tuple(sorted(added))))
    return PlayResult(outcome, round_no), PlayTrace(init_word, tuple(records))


# --------------------------------------------------------------------------
# Exhaustive bounded search


class VerdictKind(Enum):
    NONDETERMINATE = "NONDETERMINATE"
    ALL_PLAYS_LOSE = "ALL_PLAYS_LOSE"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    certificate: EndpointedGraph | None = None


_WIN, _ALL_LOST, _UNDECIDED = "win", "all_lost", "undecided"


class LivePosition:
    """The one mutable position of a play: the endpoints of an
    EndpointedGraph and the out-row of each of its vertices, which each
    graft extends."""

    def __init__(self, pos: EndpointedGraph):
        self.a = pos.a
        self.b = pos.b
        # One out-row per vertex, isolated ones too: its keys are the
        # vertex set.
        self.out: dict[str, list[tuple[Symbol, str]]] = {
            v: list(row) for v, row in pos.graph.out_adj.items()}

    def graft(self, r: Request, w: Word, round_no: int, req_index: int):
        """Graft a fresh path from r.x to r.y spelling w, with the names
        and checks of graft_path; returns (names, added_edges).

        An edge already present is left out of added_edges; only a
        one-letter witness can repeat one."""
        names, path = graft_path(self.out, r, w, round_no=round_no,
                                 req_index=req_index)
        out = self.out
        for v in names:
            out[v] = []
        added = [e for e in path if e[1:] not in out[e[0]]]
        for src, s, dst in added:
            out[src].append((s, dst))
        return names, added


class ExploreContext:
    """Shared state for the bounded search over one instance."""

    def __init__(self, q0: Nfa, cs: ConstraintSet, caps: Caps):
        self.q0 = q0
        self.cs = cs
        self.caps = caps
        self.red_q0 = recolor_nfa(q0, Color.RED)
        self._candidates: dict[int, tuple[Word, ...]] = {}
        self._rows: dict[int, tuple[Rows, ...]] = {}
        self._minimal: dict[int, tuple[tuple[Word, ...],
                                       tuple[Rows, ...]]] = {}

    def candidates(self, rc: RegularConstraint) -> tuple[Word, ...]:
        """Witness words for one request: the first max_branches words of
        the rhs language within max_witness_len, shortlex; when none fit,
        the single shortest rhs word, so bounded play never gets stuck."""
        got = self._candidates.get(rc.cid)
        if got is None:
            out = []
            for w in iter_words(rc.rhs_nfa, self.caps.max_witness_len):
                if not w:
                    continue
                out.append(w)
                if len(out) >= self.caps.max_branches:
                    break
            if not out:
                w = shortest_word(rc.rhs_nfa)
                if w is not None:
                    out.append(w)
            got = tuple(out)
            self._candidates[rc.cid] = got
        return got

    def minimal(self, rc: RegularConstraint) -> tuple[tuple[Word, ...],
                                                      tuple[Rows, ...]]:
        """(words, rows): the candidates of rc whose red q0 relations are
        ⊆-minimal, in candidate order, one word per distinct relation (the
        first), and each word's relation as rows {p: δ*(p, w)}.  The rows
        of every candidate stay in _rows, in candidate order.

        A word's relation on red_q0 is all the loss test can see of a path
        spelling it (see _search).
        """
        got = self._minimal.get(rc.cid)
        if got is None:
            firsts: dict[frozenset, tuple[Word, Rows]] = {}
            cands = self.candidates(rc)
            self._rows[rc.cid] = tuple(relation(self.red_q0, w) for w in cands)
            for w, rows in zip(cands, self._rows[rc.cid]):
                firsts.setdefault(frozenset(rows.items()), (w, rows))
            kept = [(w, r) for w, r in firsts.values() if not any(
                o is not r and all(p in r and o[p] <= r[p] for p in o)
                for _, o in firsts.values())]
            got = (tuple(w for w, _ in kept), tuple(r for _, r in kept))
            self._minimal[rc.cid] = got
        return got

    @cached_property
    def _forcing(self) -> frozenset[int]:
        return frozenset(rc.cid for rc in self.cs
                         if (cands := self.candidates(rc))
                         and all(accepts(self.red_q0, u) for u in cands))

    def forces_loss_alone(self, rc: RegularConstraint) -> bool:
        """True when rc has a candidate witness and every one is itself a
        red q0 word, so an a-to-b request for rc loses on any allowed
        choice.  Decided for every constraint at once, on the first ask."""
        return rc.cid in self._forcing

    @cached_property
    def start_automaton(self) -> ProductDfa:
        """q0 minus the green lhs of every forcing constraint whose rhs
        has no green transition (its kills), run over base words; it
        accepts the q0 words that survive the round-one forcing rule.

        An all-green chain keeps exactly one a-to-b walk, so an a-to-b
        request exists iff the lhs accepts the chain word and the rhs does
        not; when every allowed witness for it is a red q0 word, every
        play dies in round one no matter what the other requests get.  A
        rhs with no green transition never accepts a green chain word, so
        the lhs alone decides.  Only a hand-built set has a forcing
        constraint whose rhs has one; it is no kill, which only weakens
        the prune, and classify_word decides the words it would cut.
        """
        kills = [rc.lhs_nfa for rc in self.cs if self.forces_loss_alone(rc)
                 and all(s.color is not Color.GREEN
                         for row in rc.rhs_nfa.delta.values() for s in row)]
        return ProductDfa(self.q0, kills, _green_symbol)

    def start_words(self):
        """Nonempty q0 words within max_initial_len that no kill of
        start_automaton accepts, in the shortlex order of iter_words."""
        for w in self.start_automaton.words(self.caps.max_initial_len):
            if w:
                yield w

    def classify_word(self, word: Word):
        """Search all bounded plays from the initial position of one word,
        at round 0.

        Returns (kind, position) with kind one of win / all_lost /
        undecided; the position is the fixpoint reached on a win, an
        EndpointedGraph, and None otherwise.

        The green chain never loses, and the forcing rule is not run here:
        start_words only prunes the enumeration with it.  A word it kills
        opens an a-to-b request whose minimal candidates are all red q0
        words, so _search decides it all-lost at the root, with nothing
        grafted.  An empty or red word raises ValueError, and a symbol
        outside q0's alphabet SymbolError.
        """
        pos = initial_position(word)
        for s in word:
            self.q0.alphabet.index(s.uncolored())
        return self._search(pos, 0)

    def verdict(self, outcomes) -> Verdict:
        """Fold the classify_word outcomes of start_words, in that order,
        into the search verdict.

        NONDETERMINATE carries the first fixpoint as its certificate, as
        it is; INCONCLUSIVE when q0 has no nonempty word within
        max_initial_len or some word was undecided; otherwise
        ALL_PLAYS_LOSE.
        """
        # any() skips the empty word, which is falsy.
        if not any(iter_words(self.q0, self.caps.max_initial_len)):
            return Verdict(VerdictKind.INCONCLUSIVE)
        saw_undecided = False
        for kind, pos in outcomes:
            if kind == _WIN:
                return Verdict(VerdictKind.NONDETERMINATE, pos)
            if kind == _UNDECIDED:
                saw_undecided = True
        if saw_undecided:
            return Verdict(VerdictKind.INCONCLUSIVE)
        return Verdict(VerdictKind.ALL_PLAYS_LOSE)

    def _search(self, pos: EndpointedGraph, round_no: int):
        """Search every bounded play from the position pos, reached in
        round round_no; a win returns the fixpoint it reaches, pos itself
        at a node with no open request.  Pos never loses: red q0 reads no
        green label, and a child that loses is not built.

        A node is decided all-lost over the minimal candidates first.  A
        fresh path's inner vertices have one in-edge and one out-edge, and
        b is never one of them, so a red q0 walk from a that ends at b
        crosses a grafted path from x to y whole, and sees of it only the
        relation of its word (ExploreContext.minimal).  Swapping a
        candidate for one whose relation is a subset, and adding edges
        only adds walks, so every combination loses once each combination
        of minimal candidates does (the subsumption of antichain
        algorithms; De Wulf, Doyen, Henzinger and Raskin, CAV 2006).  A
        request that loses under each of its candidates alone makes every
        combination lose, the minimal ones included, so this check also
        covers that case.

        The same argument makes the check cheap: each grafted path is one
        macro edge from x to y that steps by its word's relation, so the
        minimal combinations are tested on a SummaryGraph of the node,
        nothing grafted, and a losing walk loses in every combination
        that agrees with the choices it crosses (its nogood; fresh names
        depend on the round and request index alone, not on the pick).
        SummaryGraph.survivors searches the combinations by
        conflict-directed backjumping over these nogoods.

        A request with no candidate returns undecided before that check,
        even where another request alone would lose.  Only a constraint
        with a nonempty lhs and an empty rhs has no candidate.  make_arrows
        never builds one, since both arrows of a view share its language,
        so only a constraint set built by hand reaches this branch.

        When some minimal combination survives, the same search over all
        candidates yields each combination that does not lose, in
        itertools.product order.  Each becomes one child graph, the union
        of pos's graph and the path graft_path makes for each pick, and is
        searched in turn; nothing is undone.
        """
        g = pos.graph
        reqs = requests(self.cs, g)
        if not reqs:
            return _WIN, pos
        if round_no >= self.caps.max_rounds:
            return _UNDECIDED, None
        cand_lists = [self.candidates(r.constraint) for r in reqs]
        if any(not c for c in cand_lists):
            return _UNDECIDED, None
        rows = [self.minimal(r.constraint)[1] for r in reqs]
        if SummaryGraph(self.red_q0, pos, reqs, rows).all_lose():
            return _ALL_LOST, None
        rows = [self._rows[r.constraint.cid] for r in reqs]
        round_no += 1
        any_undecided = False
        for picks in SummaryGraph(self.red_q0, pos, reqs, rows).survivors():
            grafts = [graft_path(g.vertices, r, cand_lists[i][k],
                                 round_no=round_no, req_index=i)
                      for i, (r, k) in enumerate(zip(reqs, picks))]
            child = LabeledGraph(g.vertices.union(*(n for n, _ in grafts)),
                                 g.edges.union(*(e for _, e in grafts)))
            kind, win = self._search(EndpointedGraph(child, pos.a, pos.b),
                                     round_no)
            if kind == _WIN:
                return kind, win
            if kind == _UNDECIDED:
                any_undecided = True
        return (_UNDECIDED if any_undecided else _ALL_LOST), None


def _green_symbol(s: Symbol) -> Symbol:
    return s.colored(Color.GREEN)


def explore(q0: Nfa, cs: ConstraintSet, caps: Caps) -> Verdict:
    """Depth-first search over initial words and witness combinations.

    Only the start words of ExploreContext.start_automaton are searched,
    in shortlex order: the q0 words that no kill accepts, the green lhs of
    a forcing constraint.  Every other q0 word loses in round one.
    NONDETERMINATE carries the first fixpoint reached without loss, in
    deterministic branch order; ALL_PLAYS_LOSE means every explored branch
    lost before the caps; anything else is INCONCLUSIVE.
    """
    ctx = ExploreContext(q0, cs, caps)
    return ctx.verdict(map(ctx.classify_word, ctx.start_words()))


# --------------------------------------------------------------------------
# Trace serialization: one JSON object per line, a header with the initial
# word and then one object per round.


def trace_to_jsonl(trace: PlayTrace) -> str:
    lines = [json.dumps(
        {"initial": None if trace.initial_word is None
         else format_word(trace.initial_word)}, separators=(",", ":"))]
    for rec in trace.rounds:
        lines.append(json.dumps({
            "round": rec.round_no,
            "requests": [[x, y, cid] for x, y, cid in rec.requests],
            "choices": [format_word(w) for w in rec.choices],
            "added_edges": [[src, s.name, dst] for src, s, dst in rec.added_edges],
        }, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def trace_from_jsonl(text: str) -> PlayTrace:
    """Inverse of trace_to_jsonl; a wrong shape raises FormatError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty trace")
    header = expect(load_json(lines[0], FormatError, "trace"), dict,
                    "trace header")
    initial = header.get("initial")
    initial_word = (None if initial is None
                    else _word_from_text(expect(initial, str, "initial word")))
    rounds = []
    for ln in lines[1:]:
        obj = expect(load_json(ln, FormatError, "trace"), dict, "trace round")

        def entries(key: str) -> list:
            return expect_key(obj, key, list, "trace round")

        edges = [expect_items(e, (str, str, str), "added edge")
                 for e in entries("added_edges")]
        rounds.append(RoundRecord(
            round_no=expect_key(obj, "round", int, "trace round"),
            requests=tuple(expect_items(r, (str, str, int), "request")
                           for r in entries("requests")),
            choices=tuple(_word_from_text(expect(c, str, "choice"))
                          for c in entries("choices")),
            added_edges=tuple((src, Symbol(s), dst) for src, s, dst in edges),
        ))
    return PlayTrace(initial_word, tuple(rounds))


def _word_from_text(text: str) -> Word:
    return tuple(Symbol(tok) for tok in text.split())


def scripted_from_trace(trace: PlayTrace) -> ScriptedStrategy:
    """A strategy replaying the trace's choices in recorded order."""
    words: list[Word] = []
    for rec in trace.rounds:
        words.extend(rec.choices)
    return ScriptedStrategy(words)
