"""Evaluating regular path queries over labeled graphs.

A query holds between x and y when some directed walk from x to y spells a
word of the query language.  Walks may repeat vertices and edges, so the
evaluation runs as reachability in the product of graph and automaton.

Unless the query accepts the empty word, an accepted walk leaves x by an
edge whose label the start state reads, so ``evaluate`` starts only from
the vertices that the graph's ``sources_by_label`` index lists under those
labels (the rare-label start of Koschmieder & Leser, SSDBM 2012); a query
that accepts the empty word starts from every vertex.  One stack-driven
walk, ``_walk``, covers all the start vertices; ``holds`` runs it from one
and stops as soon as the walk reaches its goal vertex in an accepting
state.  ``find_witness`` keeps its own layered search, because it carries
the shortlex word and path of each product node.
"""

from __future__ import annotations

from .automata import Nfa
from .graphs import LabeledGraph
from .symbols import Word


def _walk(q: Nfa, g: LabeledGraph, sources,
          goal: str | None = None) -> set[tuple[str, str]]:
    """The pairs (x, y), x among the sources, such that some walk from x
    reaches y in an accepting state: a depth-first search of the product
    of graph and automaton from each (x, start), all in one loop.  With a
    goal, it returns as soon as it finds a pair (x, goal), so the pairs
    are then complete only if no such pair exists."""
    delta, acc, out_adj, start = q.delta, q.accepting, g.out_adj, q.start
    pairs: set[tuple[str, str]] = set()
    for x in sources:
        seen = {(x, start)}
        stack = [(x, start)]
        while stack:
            v, s = stack.pop()
            if s in acc:
                pairs.add((x, v))
                if v == goal:
                    return pairs
            row = delta.get(s)
            if not row:
                continue
            for label, dst in out_adj[v]:
                for t in row.get(label, ()):
                    node = (dst, t)
                    if node not in seen:
                        seen.add(node)
                        stack.append(node)
    return pairs


def evaluate(q: Nfa, g: LabeledGraph) -> frozenset[tuple[str, str]]:
    """All vertex pairs (x, y) connected by a walk spelling a query word,
    searched from the first-label sources only."""
    if q.start in q.accepting:
        sources = g.vertices
    else:
        index = g.sources_by_label
        sources = set()
        for s in q.delta.get(q.start, ()):
            sources.update(index.get(s, ()))
    return frozenset(_walk(q, g, sources))


def holds(q: Nfa, g: LabeledGraph, x: str, y: str) -> bool:
    """Single-pair check."""
    g.require_vertex(x)
    g.require_vertex(y)
    return (x, y) in _walk(q, g, (x,), y)


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


def find_path(q: Nfa, g: LabeledGraph, x: str, y: str) -> Word | None:
    """Shortest word that both the query accepts and some x-to-y walk
    spells; None exactly when holds() is false."""
    hit = find_witness(q, g, x, y)
    return None if hit is None else hit[0]
