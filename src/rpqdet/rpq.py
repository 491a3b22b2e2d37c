"""Evaluating regular path queries over labeled graphs.

A query holds between x and y when some directed walk from x to y spells a
word of the query language.  Walks may repeat vertices and edges, so the
evaluation runs as reachability in the product of graph and automaton.
"""

from __future__ import annotations

from collections import deque

from .automata import Nfa
from .graphs import LabeledGraph
from .symbols import Word


def _reached(delta, acc, out_adj, start: int, x: str) -> set[str]:
    """The vertices that some walk from x reaches in an accepting state:
    breadth-first search of the product of graph and automaton from
    (x, start)."""
    seen = {(x, start)}
    queue = deque(seen)
    hits: set[str] = set()
    while queue:
        v, s = queue.popleft()
        if s in acc:
            hits.add(v)
        row = delta.get(s)
        if not row:
            continue
        for label, dst in out_adj[v]:
            for t in row.get(label, ()):
                node = (dst, t)
                if node not in seen:
                    seen.add(node)
                    queue.append(node)
    return hits


def evaluate(q: Nfa, g: LabeledGraph) -> frozenset[tuple[str, str]]:
    """All vertex pairs (x, y) connected by a walk spelling a query word."""
    delta, acc, out_adj, start = q.delta, q.accepting, g.out_adj, q.start
    return frozenset((x, v) for x in g.vertices
                     for v in _reached(delta, acc, out_adj, start, x))


def holds(q: Nfa, g: LabeledGraph, x: str, y: str) -> bool:
    """Single-pair check."""
    g.require_vertex(x)
    g.require_vertex(y)
    return y in _reached(q.delta, q.accepting, g.out_adj, q.start, x)


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
