"""Evaluating regular path queries over labeled graphs.

A query holds between x and y when some directed walk from x to y spells a
word of the query language.  Walks may repeat vertices and edges, so the
evaluation runs as reachability in the product of graph and automaton.

Unless the query accepts the empty word, an accepted walk leaves x by an
edge whose label the start state reads, so ``evaluate`` starts only from
the vertices that the graph's ``sources_by_label`` index lists under those
labels (the rare-label start of Koschmieder & Leser, SSDBM 2012); a query
that accepts the empty word starts from every vertex.  The same idea
reaches past the first letter: a walk spells a word over the graph's
labels, so when the query accepts no such word (``Nfa.has_word_over``),
``evaluate`` returns no pair and ``holds`` returns False without walking
the graph.  One stack-driven walk, ``_walk``, covers all the start
vertices; its stack carries automaton rows, and it records a pair when
it enters an accepting state.  ``holds`` runs it from one vertex and
stops as soon as the walk enters its goal vertex in an accepting state.
``find_witness`` keeps its own layered search, because it carries the
shortlex word and path of each product node; a guided play asks it on
its model for pairs that hold there, so it tests no labels.

``LivePairs`` keeps the pairs of ``evaluate`` on a graph that only grows,
as a play's positions do: a play's requests read its pairs from every
source, and its loss test reads those of red q0 from one source, the
endpoint a, which is all that index walks from.  A pair that holds keeps
holding, and a new pair needs a walk over a new edge, so each step
resumes the walks already under way across the new edges, starts walks
from the new sources, and does nothing else (semi-naive evaluation;
Bancilhon & Ramakrishnan, 1986); a step whose edges carry no label the
automaton reads is over at once.  It is kept apart from ``_walk``, as
``find_witness`` is: it keeps what the walk from each source reached,
where ``_walk`` throws its visited sets away, so a one-shot ``evaluate``
stays on ``_walk``.  The bounded search, whose nodes are immutable graphs
that share no index, asks ``evaluate`` (through ``requests``) on each
node's graph instead; its loss test walks a summary graph (``summary``).
"""

from __future__ import annotations

from .automata import Nfa
from .graphs import LabeledGraph
from .symbols import Symbol, Word


def _walk(q: Nfa, g: LabeledGraph, sources,
          goal: str | None = None) -> set[tuple[str, str]]:
    """The pairs (x, y), x among the sources, such that some walk from x
    reaches y in an accepting state: a depth-first search of the product
    of graph and automaton from each (x, start), all in one loop.  The
    stack holds (vertex, row); a pair is recorded on entering an accepting
    state, and a state with no row is never stacked or marked seen.  With
    a goal, it returns as soon as it finds a pair (x, goal), so the pairs
    are then complete only if no such pair exists."""
    delta, acc, out_adj, start = q.delta, q.accepting, g.out_adj, q.start
    start_row = delta.get(start, {})
    pairs: set[tuple[str, str]] = set()
    for x in sources:
        if start in acc:
            pairs.add((x, x))
            if x == goal:
                return pairs
        seen = {(x, start)}
        stack = [(x, start_row)]
        while stack:
            v, row = stack.pop()
            for label, dst in out_adj[v]:
                targets = row.get(label)
                if not targets:
                    continue
                for t in targets:
                    t_row = delta.get(t)
                    if t_row:
                        node = (dst, t)
                        if node in seen:
                            continue
                        seen.add(node)
                        stack.append((dst, t_row))
                    if t in acc:
                        pairs.add((x, dst))
                        if dst == goal:
                            return pairs
    return pairs


def evaluate(q: Nfa, g: LabeledGraph) -> frozenset[tuple[str, str]]:
    """All vertex pairs (x, y) connected by a walk spelling a query word,
    searched from the first-label sources only, and not at all when the
    query accepts no word over the graph's labels."""
    if q.start in q.accepting:
        sources = g.vertices
    else:
        index = g.sources_by_label
        sources = set()
        for s in q.delta.get(q.start, ()):
            sources.update(index.get(s, ()))
    if sources and not q.has_word_over(g.labels()):
        return frozenset()
    return frozenset(_walk(q, g, sources))


def holds(q: Nfa, g: LabeledGraph, x: str, y: str) -> bool:
    """Single-pair check; False without a walk when the query accepts no
    word over the graph's labels."""
    g.require_vertex(x)
    g.require_vertex(y)
    return q.has_word_over(g.labels()) and (x, y) in _walk(q, g, (x,), y)


def find_witness(q: Nfa, g: LabeledGraph, x: str,
                 y: str) -> tuple[Word, tuple[str, ...]] | None:
    """Shortest witness word (shortlex tie-break) with a walk that spells it.

    Returns (word, vertex sequence) or None when the query does not hold.
    The vertex sequence starts at x and ends at y.
    """
    g.require_vertex(x)
    g.require_vertex(y)
    key = q.alphabet.word_key
    acc = q.accepting
    delta = q.delta
    layer: dict[tuple[str, int], tuple[Word, tuple[str, ...]]] = {
        (x, q.start): ((), (x,))}
    visited = set(layer)
    while layer:
        hits = [(w, p) for (v, s), (w, p) in layer.items()
                if v == y and s in acc]
        if hits:
            return min(hits, key=lambda wp: (key(wp[0]), wp[1]))
        nxt: dict[tuple[str, int], tuple[Word, tuple[str, ...]]] = {}
        for (v, s), (w, p) in layer.items():
            row = delta.get(s)
            if not row:
                continue
            for label, dst in g.out_adj[v]:
                for t in row.get(label, ()):
                    node = (dst, t)
                    if node in visited:
                        continue
                    cand = (w + (label,), p + (dst,))
                    old = nxt.get(node)
                    if old is None or (key(cand[0]), cand[1]) < (key(old[0]), old[1]):
                        nxt[node] = cand
        visited |= nxt.keys()
        layer = nxt
    return None


class LivePairs:
    """The pairs evaluate(q, g) returns, kept current while g only grows;
    with a source, only those from the source.

    ``out`` is the caller's out-row dict, vertex -> [(label, dst)], the
    form in which ``escape.run_play`` keeps its position.  The rows are walked as they stand at
    construction; the caller then hands ``extend`` each batch of vertices
    and edges once it is in the rows.

    For each automaton state with an out-row, ``_at[state]`` maps every
    vertex a walk has reached in that state to the walk's source: the
    source's name while there is one, a set once there are more.  A state
    with no out-row ends a walk, so it is not kept; a walk that reaches it
    accepting records its pair again.
    """

    def __init__(self, q: Nfa, out: dict[str, list[tuple[Symbol, str]]],
                 source: str | None = None):
        self.q = q
        self.out = out
        self.source = source
        self.pairs: set[tuple[str, str]] = set()
        delta = q.delta
        self._at: list[dict | None] = [{} if delta.get(s) else None
                                       for s in range(q.n_states)]
        # label -> [(state, targets)] over the states that read the label.
        self._readers: dict[Symbol, list[tuple[int, frozenset[int]]]] = {}
        for s, row in delta.items():
            for label, targets in row.items():
                self._readers.setdefault(label, []).append((s, targets))
        self.extend(list(out), edges_by_label(
            (v, label, dst) for v, row in out.items() for label, dst in row))

    def extend(self, vertices, by_label) -> None:
        """Take in the vertices and edges just added to the out-rows, the
        edges grouped by edges_by_label."""
        q = self.q
        delta, acc, start, at, out = (q.delta, q.accepting, q.start,
                                      self._at, self.out)
        # A batch no state reads extends no walk and starts none, unless
        # the empty word is accepted: then each new vertex starts one.
        if start not in acc and by_label.keys().isdisjoint(self._readers):
            return
        stack: list[tuple[str, str, int]] = []

        def push(x: str, v: str, t: int) -> None:
            seen = at[t]
            if seen is None or _mark(seen, v, x):
                stack.append((x, v, t))

        # Walks under way cross each new edge from every state they
        # reached its tail in.
        for label, batch in by_label.items():
            for s, targets in self._readers.get(label, ()):
                seen = at[s]
                for u, dst in batch:
                    got = seen.get(u)
                    if got is not None:
                        for x in (got,) if isinstance(got, str) else list(got):
                            for t in targets:
                                push(x, dst, t)
        # A vertex starts a walk once an accepted walk could leave it:
        # every new vertex when the empty word is accepted, else a vertex
        # with a new out-edge whose label the start state reads.  With a
        # source, no other vertex starts one.
        if start in acc:
            starts = vertices
        else:
            starts = [x for label in delta.get(start, ())
                      for x, _ in by_label.get(label, ())]
        source = self.source
        for x in starts:
            if source is None or x == source:
                push(x, x, start)
        pairs = self.pairs
        while stack:
            x, v, s = stack.pop()
            if s in acc:
                pairs.add((x, v))
            row = delta.get(s)
            if row:
                for label, dst in out[v]:
                    for t in row.get(label, ()):
                        push(x, dst, t)


def edges_by_label(edges) -> dict[Symbol, list[tuple[str, str]]]:
    """(src, dst) of the edges per label, the form LivePairs.extend takes,
    so that automata sharing a step group its edges once."""
    out: dict[Symbol, list[tuple[str, str]]] = {}
    for src, label, dst in edges:
        out.setdefault(label, []).append((src, dst))
    return out


def _mark(seen: dict, v: str, x: str) -> bool:
    """Record in seen that the walk from x reached v; False if it had.
    One source is kept as its name, not as a set of one, because most
    (vertex, state) nodes of a play are reached from one source."""
    got = seen.get(v)
    if got is None:
        seen[v] = x
    elif isinstance(got, str):
        if got == x:
            return False
        seen[v] = {got, x}
    elif x in got:
        return False
    else:
        got.add(x)
    return True
