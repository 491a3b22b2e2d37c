"""Independent reference implementations used to cross-check the engine.

Everything here deliberately uses a different algorithm than the package:
recursive span matching instead of NFA simulation, relation algebra and
literal walk enumeration instead of product reachability, an explicit
edge-list scan instead of the tiling checker's cell walk.
"""

from __future__ import annotations

import random
import re
from itertools import permutations, product

from rpqdet.automata import (
    Class,
    Concat,
    Empty,
    Epsilon,
    Lit,
    Plus,
    ProductDfa,
    Regex,
    Star,
    Union,
)
from rpqdet.automata import accepts, iter_words
from rpqdet.constraints import (ConstraintSet, apply_add, graft_path,
                                make_arrow_set, recolor_nfa, requests,
                                satisfied)
from rpqdet.escape import (ExploreContext, PlayOutcome, PlayResult,
                           PlayTrace, RoundRecord, Verdict, VerdictKind,
                           initial_position, scripted_from_trace)
from rpqdet.gadget import CounterexampleReport, GadgetError, grid_vertex
from rpqdet.graphs import EndpointedGraph, LabeledGraph, chain_word
from rpqdet.ogtp import GridTiling
from rpqdet.rpq import evaluate, holds
from rpqdet.symbols import Color, Symbol, Word, sym


# --------------------------------------------------------------------------
# Regex semantics, twice over: span matching and bounded generation


def match_regex(r: Regex, word: Word) -> bool:
    """Recursive matcher over word spans; no automata involved."""
    memo: dict[tuple, bool] = {}

    def m(node: Regex, i: int, j: int) -> bool:
        key = (node, i, j)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if isinstance(node, Empty):
            res = False
        elif isinstance(node, Epsilon):
            res = i == j
        elif isinstance(node, Lit):
            res = j == i + 1 and word[i] == node.symbol
        elif isinstance(node, Class):
            res = j == i + 1 and word[i] in node.symbols
        elif isinstance(node, Union):
            res = m(node.left, i, j) or m(node.right, i, j)
        elif isinstance(node, Concat):
            res = any(m(node.left, i, k) and m(node.right, k, j)
                      for k in range(i, j + 1))
        elif isinstance(node, Star):
            res = i == j or any(m(node.inner, i, k) and m(node, k, j)
                                for k in range(i + 1, j + 1))
        elif isinstance(node, Plus):
            if i == j:
                res = m(node.inner, i, j)
            else:
                res = any(m(node.inner, i, k) and (k == j or m(node, k, j))
                          for k in range(i + 1, j + 1))
        else:
            raise TypeError(f"unknown node {node!r}")
        memo[key] = res
        return res

    return m(r, 0, len(word))


def lang_empty(r: Regex) -> bool:
    """Exact emptiness from the syntax alone (class nodes are non-empty
    by construction, and star always contains the empty word)."""
    if isinstance(r, Empty):
        return True
    if isinstance(r, (Epsilon, Lit, Class, Star)):
        return False
    if isinstance(r, Union):
        return lang_empty(r.left) and lang_empty(r.right)
    if isinstance(r, Concat):
        return lang_empty(r.left) or lang_empty(r.right)
    if isinstance(r, Plus):
        return lang_empty(r.inner)
    raise TypeError(f"unknown node {r!r}")


def lang_upto(r: Regex, max_len: int) -> set[Word]:
    """All words of the language with length <= max_len, generated from
    the syntax tree directly."""
    if isinstance(r, Empty):
        return set()
    if isinstance(r, Epsilon):
        return {()}
    if isinstance(r, Lit):
        return {(r.symbol,)} if max_len >= 1 else set()
    if isinstance(r, Class):
        return {(s,) for s in r.symbols} if max_len >= 1 else set()
    if isinstance(r, Union):
        return lang_upto(r.left, max_len) | lang_upto(r.right, max_len)
    if isinstance(r, Concat):
        if lang_empty(r.left) or lang_empty(r.right):
            return set()
        lefts = lang_upto(r.left, max_len)
        if not lefts:
            return set()
        room = max_len - min(len(lw) for lw in lefts)
        rights = lang_upto(r.right, room)
        return {lw + rw for lw in lefts for rw in rights
                if len(lw) + len(rw) <= max_len}
    if isinstance(r, Star):
        return _iterate_concat(lang_upto(r.inner, max_len), max_len)
    if isinstance(r, Plus):
        inner = lang_upto(r.inner, max_len)
        star = _iterate_concat(inner, max_len)
        return {iw + sw for iw in inner for sw in star
                if len(iw) + len(sw) <= max_len}
    raise TypeError(f"unknown node {r!r}")


def _iterate_concat(inner: set[Word], max_len: int) -> set[Word]:
    words: set[Word] = {()}
    frontier: set[Word] = {()}
    while frontier:
        new: set[Word] = set()
        for w in frontier:
            for iw in inner:
                if iw and len(w) + len(iw) <= max_len:
                    c = w + iw
                    if c not in words:
                        words.add(c)
                        new.add(c)
        frontier = new
    return words


# --------------------------------------------------------------------------
# Query semantics, twice over: relation algebra and literal walks


def eval_algebraic(r: Regex, g: LabeledGraph) -> frozenset[tuple[str, str]]:
    """Pair semantics computed compositionally on vertex-pair relations.

    Concatenation is relational composition and star is reflexive
    transitive closure, which agrees with walk semantics at every length.
    """
    identity = frozenset((v, v) for v in g.vertices)

    def compose(a: frozenset, b: frozenset) -> frozenset:
        by_src: dict[str, list[str]] = {}
        for x, y in b:
            by_src.setdefault(x, []).append(y)
        return frozenset((x, z) for x, y in a for z in by_src.get(y, ()))

    def closure(rel: frozenset) -> frozenset:
        out = set(identity)
        frontier = set(identity)
        while frontier:
            grown = compose(frozenset(frontier), rel)
            frontier = grown - out
            out |= frontier
        return frozenset(out)

    def rel(node: Regex) -> frozenset:
        if isinstance(node, Empty):
            return frozenset()
        if isinstance(node, Epsilon):
            return identity
        if isinstance(node, Lit):
            return frozenset((s, d) for s, lab, d in g.edges
                             if lab == node.symbol)
        if isinstance(node, Class):
            return frozenset((s, d) for s, lab, d in g.edges
                             if lab in node.symbols)
        if isinstance(node, Union):
            return rel(node.left) | rel(node.right)
        if isinstance(node, Concat):
            return compose(rel(node.left), rel(node.right))
        if isinstance(node, Star):
            return closure(rel(node.inner))
        if isinstance(node, Plus):
            inner = rel(node.inner)
            return compose(inner, closure(inner))
        raise TypeError(f"unknown node {node!r}")

    return rel(r)


def iter_walks(g: LabeledGraph, max_len: int):
    """Every directed walk of length <= max_len as (start, end, word)."""
    for v in sorted(g.vertices):
        stack: list[tuple[str, Word]] = [(v, ())]
        while stack:
            cur, word = stack.pop()
            yield v, cur, word
            if len(word) < max_len:
                for label, nxt in g.out_adj[cur]:
                    stack.append((nxt, word + (label,)))


def eval_walks(r: Regex, g: LabeledGraph, max_len: int) -> frozenset:
    """Pair semantics by brute walk enumeration; tiny caps only."""
    return frozenset((x, y) for x, y, w in iter_walks(g, max_len)
                     if match_regex(r, w))


# --------------------------------------------------------------------------
# Tilings and homomorphisms


def scan_tiling(inst, t) -> bool:
    """Boundary and forbidden-pair check over an explicit edge list."""
    n = t.n
    if set(t.h) != {(i, j) for j in range(n + 1) for i in range(n)}:
        raise ValueError("horizontal cells wrong")
    if set(t.v) != {(i, j) for i in range(n + 1) for j in range(n)}:
        raise ValueError("vertical cells wrong")
    shades = set(inst.shades)
    edges = [((i, j), (i + 1, j), "H", s) for (i, j), s in t.h.items()]
    edges += [((i, j), (i, j + 1), "V", s) for (i, j), s in t.v.items()]
    if any(s not in shades for _, _, _, s in edges):
        return False
    if t.v[(0, 0)] != "black" or t.h[(n - 1, n)] != "black":
        return False
    for _, mid1, d1, s1 in edges:
        for mid2, _, d2, s2 in edges:
            if mid1 == mid2 and ((d1, s1), (d2, s2)) in inst.forbidden:
                return False
    return True


def is_homomorphism(d: LabeledGraph, m: LabeledGraph,
                    h: dict[str, str]) -> bool:
    if not d.vertices <= set(h):
        return False
    if any(h[v] not in m.vertices for v in d.vertices):
        return False
    return all((h[x], lab, h[y]) in m.edges for x, lab, y in d.edges)


def homomorphism_exists(d: LabeledGraph, m: LabeledGraph) -> bool:
    """Brute force over every vertex map from d into m; keep d and m to a
    handful of vertices."""
    dv = sorted(d.vertices)
    return any(is_homomorphism(d, m, dict(zip(dv, img)))
               for img in product(sorted(m.vertices), repeat=len(dv)))


def isomorphic(d: LabeledGraph, e: LabeledGraph) -> bool:
    """Brute force over every bijection between the vertex sets; with equal
    edge counts an edge-preserving bijection is an isomorphism."""
    if len(d.vertices) != len(e.vertices) or len(d.edges) != len(e.edges):
        return False
    dv = sorted(d.vertices)
    return any(is_homomorphism(d, e, dict(zip(dv, img)))
               for img in permutations(sorted(e.vertices)))


# --------------------------------------------------------------------------
# A guide minus kill automata with each row stepped symbol by symbol: one
# SubsetDfa.step per symbol per component for every product state, instead
# of reading the row off per-(component, state) columns.


class ProductDfaPerSymbol(ProductDfa):
    """ProductDfa whose row of a state steps every component on every
    symbol, in symbol order, and interns each successor tuple as it is
    made."""

    def row(self, q: int) -> list[int]:
        got = self._rows[q]
        if got is None:
            key = self._keys[q]
            got = [self._intern(tuple(
                       d.step(c, labels[k])
                       for d, c, labels in zip(self._dfas, key, self._labels)))
                   for k in range(len(self.alphabet))]
            self._rows[q] = got
        return got


# --------------------------------------------------------------------------
# The bounded search word by word: every q0 word is enumerated and the
# round-one forcing rule is tested on it with NFA membership, instead of
# running the words through ExploreContext.start_automaton.


def forced_per_word(ctx: ExploreContext, word: Word) -> bool:
    """The forcing rule on one word: some forcing constraint's lhs accepts
    its green chain word and the rhs does not."""
    green = tuple(s.colored(Color.GREEN) for s in word)
    return any(ctx.forces_loss_alone(rc)
               and accepts(rc.lhs_nfa, green)
               and not accepts(rc.rhs_nfa, green)
               for rc in ctx.cs)


def start_words_per_word(ctx: ExploreContext) -> list[Word]:
    return [w for w in iter_words(ctx.q0, ctx.caps.max_initial_len)
            if w and not forced_per_word(ctx, w)]


def explore_per_word(q0, cs, caps) -> Verdict:
    """explore with the per-word forcing rule and its own verdict loop."""
    ctx = ExploreContext(q0, cs, caps)
    saw_word = saw_undecided = False
    for w in iter_words(q0, caps.max_initial_len):
        if not w:
            continue
        saw_word = True
        if forced_per_word(ctx, w):
            continue
        kind, pos = classify_immutable(ctx, w)
        if kind == "win":
            return Verdict(VerdictKind.NONDETERMINATE, pos)
        if kind == "undecided":
            saw_undecided = True
    if not saw_word or saw_undecided:
        return Verdict(VerdictKind.INCONCLUSIVE)
    return Verdict(VerdictKind.ALL_PLAYS_LOSE)


# --------------------------------------------------------------------------
# The bounded game search with no prune: every witness combination is a
# new graph and every loss check is a fresh holds() search, instead of a
# summary graph's backjumping over the minimal candidates.


def combination_graphs(g: LabeledGraph, reqs, lists, round_no: int):
    """The graph of each combination of one word per request, in
    itertools.product order over lists, the request's words: g with every
    pick's path grafted.  Each (request, word) path is made once by
    graft_path, with the request's index in reqs, and each combination is
    one union of g and its paths."""
    paths = [[graft_path(g.vertices, r, w, round_no=round_no, req_index=i)
              for w in words]
             for i, (r, words) in enumerate(zip(reqs, lists))]
    for combo in product(*paths):
        yield LabeledGraph(g.vertices.union(*(names for names, _ in combo)),
                           g.edges.union(*(edges for _, edges in combo)))


def classify_immutable(ctx: ExploreContext, word: Word):
    """ExploreContext.classify_word without the forcing rule or any prune:
    the game search from the word's initial position in the same branch
    order, every combination of every candidate list grafted and
    searched.  dfs takes a position and the round that reached it."""
    def dfs(pos: EndpointedGraph, round_no: int):
        if holds(ctx.red_q0, pos.graph, pos.a, pos.b):
            return "all_lost", None
        reqs = requests(ctx.cs, pos.graph)
        if not reqs:
            return "win", pos
        if round_no >= ctx.caps.max_rounds:
            return "undecided", None
        cand_lists = [ctx.candidates(r.constraint) for r in reqs]
        if any(not c for c in cand_lists):
            return "undecided", None
        round_no += 1
        any_undecided = False
        for g in combination_graphs(pos.graph, reqs, cand_lists, round_no):
            kind, cert = dfs(EndpointedGraph(g, pos.a, pos.b), round_no)
            if kind == "win":
                return kind, cert
            if kind == "undecided":
                any_undecided = True
        return ("undecided" if any_undecided else "all_lost"), None

    return dfs(initial_position(word), 0)


def explore_immutable(q0, cs, caps) -> Verdict:
    """explore with classify_immutable on the same start words."""
    ctx = ExploreContext(q0, cs, caps)
    return ctx.verdict(classify_immutable(ctx, w) for w in ctx.start_words())


# --------------------------------------------------------------------------
# Plays on immutable positions: every round asks holds() and requests() on
# the whole graph and grafts each witness with apply_add, instead of
# extending one live position and its request tracker from the new edges.


def play_round_immutable(pos: EndpointedGraph, round_no: int, strategy,
                         reqs) -> tuple[EndpointedGraph, RoundRecord]:
    """Round round_no of run_play from pos, with one apply_add, so one new
    graph, per request."""
    g = pos.graph
    choices: list[Word] = []
    for i, r in enumerate(reqs):
        w = strategy(round_no, i, r)
        choices.append(w)
        g = apply_add(g, r, w, round_no=round_no, req_index=i)
    added = tuple(sorted(g.edges - pos.graph.edges))
    record = RoundRecord(round_no, tuple((r.x, r.y, r.cid) for r in reqs),
                         tuple(choices), added)
    return EndpointedGraph(g, pos.a, pos.b), record


def run_play_immutable(q0, cs: ConstraintSet, strategy, init: EndpointedGraph,
                       max_rounds: int) -> tuple[PlayResult, PlayTrace]:
    """run_play with a fresh holds() loss test and a fresh requests() call
    on every position."""
    red_q0 = recolor_nfa(q0, Color.RED)
    records: list[RoundRecord] = []
    init_word = chain_word(init.graph, init.a, init.b)
    pos, round_no = init, 0
    while True:
        if holds(red_q0, pos.graph, pos.a, pos.b):
            result = PlayResult(PlayOutcome.LOST, round_no)
            break
        reqs = requests(cs, pos.graph)
        if not reqs:
            result = PlayResult(PlayOutcome.WON_FIXPOINT, round_no)
            break
        if round_no >= max_rounds:
            result = PlayResult(PlayOutcome.EXHAUSTED, round_no)
            break
        round_no += 1
        pos, record = play_round_immutable(pos, round_no, strategy, reqs)
        records.append(record)
    return result, PlayTrace(init_word, tuple(records))


def replay_positions(cs: ConstraintSet,
                     trace: PlayTrace) -> list[EndpointedGraph]:
    """The position after each round of the trace, the initial one first,
    so that the k-th is the position after round k: its choices replayed
    round by round through play_round_immutable from the chain of its
    initial word."""
    pos = initial_position(trace.initial_word)
    strategy = scripted_from_trace(trace)
    out = [pos]
    for round_no in range(1, len(trace.rounds) + 1):
        pos, _ = play_round_immutable(pos, round_no, strategy,
                                      requests(cs, pos.graph))
        out.append(pos)
    return out


# --------------------------------------------------------------------------
# Requests and counterexample checks constraint by constraint: both sides of
# every constraint evaluated afresh, instead of each distinct automaton once.


def requests_per_constraint(cs: ConstraintSet,
                            g: LabeledGraph) -> list[tuple[str, str, int]]:
    """(x, y, cid) of every open request, sorted: evaluate(lhs) minus
    evaluate(rhs) for each constraint."""
    out: list[tuple[str, str, int]] = []
    for rc in cs:
        missing = evaluate(rc.lhs_nfa, g) - evaluate(rc.rhs_nfa, g)
        out += [(x, y, rc.cid) for x, y in missing]
    return sorted(out)


def check_counterexample_per_constraint(m: LabeledGraph, views, q0, a: str,
                                        b: str) -> CounterexampleReport:
    """gadget.check_counterexample with one satisfied() call per
    constraint and the q0 paths read off evaluate()."""
    failures = [f"views fail: constraint {rc.cid} ({rc.describe()}) "
                "not satisfied"
                for rc in make_arrow_set(list(views), q0.alphabet)
                if not satisfied(rc, m)]
    if (a, b) not in evaluate(recolor_nfa(q0, Color.GREEN), m):
        failures.append("G(Q0) fails: no green q0 path from a to b")
    if (a, b) in evaluate(recolor_nfa(q0, Color.RED), m):
        failures.append("R(Q0) fails: a red q0 path from a to b exists")
    return CounterexampleReport(not failures, tuple(failures))


# --------------------------------------------------------------------------
# The doubled grid as first written: names formatted and parsed per edge


_GRID_VERTEX_PER_EDGE_RE = re.compile(r"v_(\d+)_(\d+)\Z")


def build_grid_per_edge(m: int) -> EndpointedGraph:
    """gadget.build_grid formatting each vertex name at every edge end."""
    if m < 1:
        raise ValueError("grid size must be at least 1")
    vertices = ["a", "b"]
    edges = []
    for i in range(m + 1):
        for j in range(m + 1):
            v = grid_vertex(i, j)
            vertices.append(v)
            tag = "A" if (i + j) % 2 == 0 else "B"
            if i < m:
                edges.append((v, sym(f"G:{tag}-H-C"), grid_vertex(i + 1, j)))
                edges.append((v, sym(f"R:{tag}-H-W"), grid_vertex(i + 1, j)))
            if j < m:
                edges.append((v, sym(f"G:{tag}-V-C"), grid_vertex(i, j + 1)))
                edges.append((v, sym(f"R:{tag}-V-W"), grid_vertex(i, j + 1)))
    last = grid_vertex(m, m)
    edges += [("a", sym("G:alpha"), grid_vertex(0, 0)),
              ("a", sym("R:beta"), grid_vertex(0, 0)),
              (last, sym("G:omega"), "b"),
              (last, sym("R:omega"), "b")]
    return EndpointedGraph(LabeledGraph.build(vertices, edges), "a", "b")


def grid_size_per_edge(g: LabeledGraph) -> int:
    best = -1
    for v in g.vertices:
        hit = _GRID_VERTEX_PER_EDGE_RE.match(v)
        if hit:
            best = max(best, int(hit.group(1)), int(hit.group(2)))
    if best < 0:
        raise GadgetError("graph has no grid vertices")
    return best


def decorate_per_edge(g: EndpointedGraph, t: GridTiling) -> EndpointedGraph:
    """gadget.decorate parsing the source name and shading the label at
    every four-field edge."""
    m = grid_size_per_edge(g.graph)
    if m != t.n:
        raise GadgetError(f"tiling size {t.n} does not match grid size {m}")
    edges = []
    for src, s, dst in g.graph.edges:
        if not s.is_sigma0:
            edges.append((src, s, dst))
            continue
        hit = _GRID_VERTEX_PER_EDGE_RE.match(src)
        if hit is None:
            raise GadgetError(f"four-field edge leaves non-grid vertex {src!r}")
        cell = (int(hit.group(1)), int(hit.group(2)))
        table = t.h if s.direction == "H" else t.v
        try:
            shade = table[cell]
        except KeyError:
            raise GadgetError(f"tiling has no shade for cell {cell}") from None
        prefix = f"{s.color.value}:" if s.color else ""
        edges.append((src, sym(f"{prefix}{s.tag}-{s.direction}-"
                               f"{s.temperature}-{shade}"), dst))
    return EndpointedGraph(
        LabeledGraph(g.graph.vertices, frozenset(edges)), g.a, g.b)


# --------------------------------------------------------------------------
# Seeded generators shared by the fuzz tests


def random_graph(rng: random.Random, labels: list[Symbol],
                 max_vertices: int = 8, max_edges: int = 14) -> LabeledGraph:
    n = rng.randint(1, max_vertices)
    vertices = [f"u{i}" for i in range(n)]
    edges = set()
    for _ in range(rng.randint(0, max_edges)):
        edges.add((rng.choice(vertices), rng.choice(labels),
                   rng.choice(vertices)))
    return LabeledGraph.build(vertices, edges)


def _random_class(rng: random.Random, labels: list[Symbol],
                  product_only: bool) -> Regex:
    if not product_only:
        k = rng.randint(1, min(3, len(labels)))
        return Class(frozenset(rng.sample(labels, k)))
    pool = [s for s in labels if s.is_sigma0 and s.color is None]
    if not pool:
        return Lit(rng.choice(labels))
    shades = sorted({s.shade for s in pool})
    tags = rng.sample("AB", rng.randint(1, 2))
    dirs = rng.sample("HV", rng.randint(1, 2))
    temps = rng.sample("WC", rng.randint(1, 2))
    picked = shades if rng.random() < 0.5 else [rng.choice(shades)]
    members = frozenset(s for s in pool
                        if s.tag in tags and s.direction in dirs
                        and s.temperature in temps and s.shade in picked)
    return Class(members) if members else Lit(rng.choice(labels))


def random_regex(rng: random.Random, labels: list[Symbol], depth: int = 4,
                 product_classes: bool = False) -> Regex:
    """Random syntax tree; with product_classes, class nodes are drawn as
    field products so the concrete grammar can express them exactly."""
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.70:
            return Lit(rng.choice(labels))
        if roll < 0.85:
            return _random_class(rng, labels, product_classes)
        if roll < 0.95:
            return Epsilon()
        return Empty()
    op = rng.choice(("union", "concat", "star", "plus"))
    if op == "union":
        return Union(random_regex(rng, labels, depth - 1, product_classes),
                     random_regex(rng, labels, depth - 1, product_classes))
    if op == "concat":
        return Concat(random_regex(rng, labels, depth - 1, product_classes),
                      random_regex(rng, labels, depth - 1, product_classes))
    if op == "star":
        return Star(random_regex(rng, labels, depth - 1, product_classes))
    return Plus(random_regex(rng, labels, depth - 1, product_classes))


def random_batches(rng: random.Random, g: LabeledGraph):
    """g's vertices and edges in random batches, as (vertices, edges) pairs:
    each edge comes once both its endpoints have, and a batch may bring
    nothing."""
    vertices = sorted(g.vertices)
    rng.shuffle(vertices)
    pending = sorted(g.edges)
    rng.shuffle(pending)
    have: set[str] = set()
    while vertices or pending:
        new_vertices = [vertices.pop()
                        for _ in range(rng.randint(0, len(vertices)))]
        have.update(new_vertices)
        ready = [e for e in pending if e[0] in have and e[2] in have]
        new_edges = rng.sample(ready, rng.randint(0, len(ready)))
        pending = [e for e in pending if e not in new_edges]
        yield new_vertices, new_edges


# --------------------------------------------------------------------------
# The loss tests of a search node's summary graph, by grafting: every
# combination of one word per request is built as a graph of its own,
# instead of walking a summary graph with backjumping.


def survivors_by_grafting(ctx: ExploreContext, pos: EndpointedGraph, reqs,
                          words, nogood=()):
    """The picks, one index into words[i] per request i, that agree with
    nogood, a set of (request index, pick) literals, and do not lose on
    pos, in itertools.product order.

    Each combination is one graph of combination_graphs, grafted at round
    caps.max_rounds + 1, which no search position reaches, so their fresh
    names are free; the loss test does not see names."""
    picked = dict(nogood)
    lists = [(picked[i],) if i in picked else range(len(ws))
             for i, ws in enumerate(words)]
    graphs = combination_graphs(
        pos.graph, reqs, [[ws[k] for k in ks] for ws, ks in zip(words, lists)],
        ctx.caps.max_rounds + 1)
    for picks, g in zip(product(*lists), graphs):
        if not holds(ctx.red_q0, g, pos.a, pos.b):
            yield picks


def all_lose_odometer(ctx: ExploreContext, pos: EndpointedGraph, reqs, words,
                      nogood=()) -> bool:
    """Whether every combination of words that agrees with nogood loses on
    pos (see survivors_by_grafting)."""
    return next(survivors_by_grafting(ctx, pos, reqs, words, nogood),
                None) is None
