"""The loss test of a search node's children, on its summary graph.

The bounded search (escape.ExploreContext._search) grafts the
combinations of one candidate per request that do not lose, and decides
a node all-lost when no ⊆-minimal combination survives.  A grafted path
is crossed whole by any losing walk, which sees of it only its word's
relation on red q0, the rows p -> δ*(p, w), so the test needs no graft:
each request becomes one macro edge that steps by those rows.  The walk
starts from (a, red q0's start) over the node graph's out-rows and those
macro edges, and the combinations are searched by conflict-directed
backjumping over the choices a losing walk crosses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .automata import Nfa
    from .constraints import Request
    from .graphs import EndpointedGraph
    from .symbols import Word


# A word's relation on an automaton as rows: p -> δ*(p, w), with an entry
# only for each state p that w leads somewhere.
Rows = dict[int, frozenset[int]]


def relation(nfa: Nfa, w: Word) -> Rows:
    """The rows of w on nfa: a first letter's rows are nfa's own target
    sets, and the empty word (a hand-built candidate) is the identity."""
    if not w:
        return {p: frozenset((p,)) for p in range(nfa.n_states)}
    rows = {p: row[w[0]] for p, row in nfa.delta.items() if w[0] in row}
    for s in w[1:]:
        rows = {p: got for p, qs in rows.items() if (got := nfa.step(qs, s))}
    return rows


class SummaryGraph:
    """The loss test of one search node under any pick of one candidate
    per request, each request's from its rows, without grafting (see
    escape.ExploreContext._search).

    Its walks are those of nfa, red q0, over (vertex, state) pairs from
    (a, start): the position's edges, and one macro edge x -> y per
    request that steps from (x, p) to (y, q) for each q in the rows of the
    request's pick at p.  A request with one candidate is fixed;
    one with more is a choice, and a pick for it is the literal (request
    index, pick).  Choice macro edges cost 1 and every other edge 0, so a
    0-1 BFS finds a losing walk that crosses the fewest choices; the
    literals it crosses are its nogood.
    """

    def __init__(self, nfa: Nfa, pos: EndpointedGraph, reqs: list[Request],
                 rows: list[tuple[Rows, ...]]):
        self.nfa = nfa
        self.pos = pos
        self.rows = rows
        self.goals = [(pos.b, f) for f in sorted(nfa.accepting)]
        self.fixed: dict[str, list[tuple[str, Rows]]] = {}
        self.choice: dict[str, list[tuple[int, str]]] = {}
        for i, r in enumerate(reqs):
            if len(rows[i]) == 1:
                self.fixed.setdefault(r.x, []).append((r.y, rows[i][0]))
            else:
                self.choice.setdefault(r.x, []).append((i, r.y))
        # Layer 0, the same at every leaf: what the position and the fixed
        # requests reach from (a, start).
        start = (pos.a, nfa.start)
        self.base: dict[tuple[str, int], object] = {start: None}
        self.base_layer = [start]
        self._close(self.base_layer, self.base)

    def _close(self, layer: list, pred: dict) -> None:
        """Extend layer, in place, by every pair its pairs reach over 0-cost
        edges, recording each new pair's predecessor in pred."""
        delta = self.nfa.delta
        out = self.pos.graph.out_adj
        fixed = self.fixed
        k = 0
        while k < len(layer):
            pair = layer[k]
            k += 1
            v, q = pair
            row = delta.get(q)
            if row:
                for s, dst in out[v]:
                    for t in row.get(s, ()):
                        if (dst, t) not in pred:
                            pred[dst, t] = (pair, None)
                            layer.append((dst, t))
            for y, rows in fixed.get(v, ()):
                for t in rows.get(q, ()):
                    if (y, t) not in pred:
                        pred[y, t] = (pair, None)
                        layer.append((y, t))

    def nogood(self, picks: list[int]) -> set[tuple[int, int]] | None:
        """The literals of a fewest-choice losing walk under picks, or None
        when no walk loses."""
        pred = dict(self.base)
        layer = self.base_layer
        choice = self.choice
        rows = self.rows
        while True:
            for goal in self.goals:
                if goal in pred:
                    return _crossed(pred, goal)
            # The next layer: one choice macro edge past this one.
            nxt = []
            for pair in layer:
                v, q = pair
                for i, y in choice.get(v, ()):
                    for t in rows[i][picks[i]].get(q, ()):
                        if (y, t) not in pred:
                            pred[y, t] = (pair, (i, picks[i]))
                            nxt.append((y, t))
            if not nxt:
                return None
            self._close(nxt, pred)
            layer = nxt

    def all_lose(self) -> bool:
        """Whether every pick loses."""
        return next(self.survivors(), None) is None

    def survivors(self):
        """Each pick with no losing walk, as a tuple, in itertools.product
        order: conflict-directed backjumping (Prosser, Computational
        Intelligence 1993) over the choice requests, in request order,
        learning each leaf's nogood as in GRASP (Marques-Silva and
        Sakallah, 1999).

        A nogood refutes every pick that agrees with it.  A choice that a
        child's nogood does not mention is jumped past with that nogood;
        once each of a choice's values is refuted, the union of their
        nogoods without the choice refutes the parent's picks.  The empty
        nogood refutes them all.  A survivor stands for a nogood of every
        choice, so the walk past it is chronological.
        """
        choices = [i for i, r in enumerate(self.rows) if len(r) > 1]
        picks = [0] * len(self.rows)
        learned: list[set[tuple[int, int]]] = [set() for _ in choices]
        while True:
            nogood = self.nogood(picks)
            if nogood is None:
                yield tuple(picks)
                nogood = {(i, picks[i]) for i in choices}
            # Up from the leaf: resolve the nogood on each choice it
            # names, and jump past each choice it does not.
            depth = len(choices)
            while True:
                depth -= 1
                if depth < 0:
                    return
                i = choices[depth]
                lit = (i, picks[i])
                if lit not in nogood:
                    continue
                nogood.discard(lit)
                learned[depth] |= nogood
                picks[i] += 1
                if picks[i] < len(self.rows[i]):
                    break
                nogood = learned[depth]
            # Down to the next leaf: the choices below restart at pick 0.
            for d in range(depth + 1, len(choices)):
                picks[choices[d]] = 0
                learned[d] = set()


def _crossed(pred: dict, pair) -> set[tuple[int, int]]:
    """The choice literals on the recorded walk that ends at pair."""
    lits = set()
    step = pred[pair]
    while step is not None:
        pair, lit = step
        if lit is not None:
            lits.add(lit)
        step = pred[pair]
    return lits
