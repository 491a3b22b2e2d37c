"""Containment constraints between path queries over a two-color signature.

A constraint lhs -> rhs demands that whenever lhs holds between two
vertices, rhs holds there too.  Lifting a base language L to the colored
signature produces the pair G(L) -> R(L) and R(L) -> G(L); a graph
satisfying both carries a red twin of every green L-connection and vice
versa.  The pair shares its two automata, recolorings of the one compiled
for L, so ``sides`` asks for the pairs of each of them once: ``requests``
evaluates them on a graph, and ``escape.run_play`` keeps them in
``rpq.LivePairs`` while a play's graph grows.

An instance's constraint set is the tuple of these pairs, one pair per
view language in declaration order, and a constraint's id is its index
there.  ``make_arrow_set`` builds it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .automata import (Class, Concat, Lit, Nfa, Plus, Regex, Star, Union,
                       accepts, compile_nfa, literals_used, post_order,
                       recolor_nfa, render_regex)
from .graphs import Edge, LabeledGraph, require_vertex
from .rpq import evaluate
from .symbols import Alphabet, Color, Word, WorkbenchError


class ConstraintError(WorkbenchError):
    pass


class WitnessRejectedError(WorkbenchError):
    pass


def recolor_regex(r: Regex, color: Color) -> Regex:
    """Repaint every literal and class with one color."""
    done: list[Regex] = []
    for node in post_order(r):
        if isinstance(node, Lit):
            done.append(Lit(node.symbol.colored(color)))
        elif isinstance(node, Class):
            done.append(Class(frozenset(s.colored(color) for s in node.symbols)))
        elif isinstance(node, (Union, Concat)):
            right = done.pop()
            done.append(type(node)(done.pop(), right))
        elif isinstance(node, (Star, Plus)):
            done.append(type(node)(done.pop()))
        else:  # Empty or Epsilon
            done.append(node)
    return done.pop()


@dataclass(frozen=True)
class RegularConstraint:
    """lhs -> rhs over a colored alphabet, with a stable id, and the
    automata of its two sides, which the other arrow of a pair shares."""

    lhs: Regex
    rhs: Regex
    cid: int
    lhs_nfa: Nfa = field(compare=False, repr=False)
    rhs_nfa: Nfa = field(compare=False, repr=False)

    def describe(self) -> str:
        alphabet = self.lhs_nfa.alphabet
        return (f"{render_regex(self.lhs, alphabet)} -> "
                f"{render_regex(self.rhs, alphabet)}")


# Constraints in id order, so that cs[rc.cid] is rc.
ConstraintSet = tuple[RegularConstraint, ...]


def _check_language(l: Regex, base_alphabet: Alphabet) -> Nfa:
    """The automaton of a base view language, which must be epsilon-free
    over the base alphabet."""
    for s in literals_used(l):
        if s.color is not None:
            raise ConstraintError(f"language uses colored symbol {s.name!r}; "
                                  "expected the base alphabet")
        if s not in base_alphabet:
            raise ConstraintError(f"language uses foreign symbol {s.name!r}")
    n = compile_nfa(l, base_alphabet)
    if accepts(n, ()):
        raise ConstraintError("language contains the empty word; constraint "
                              "sides must be epsilon-free")
    return n


def make_arrows(l: Regex, base_alphabet: Alphabet,
                first_id: int = 0) -> tuple[RegularConstraint, RegularConstraint]:
    """The two colored containment constraints induced by a base language:
    green-to-red, then red-to-green.  Both hold the same two automata,
    recolorings of the one compiled for l, which are equal to the automata
    of the recolored regexes."""
    n = _check_language(l, base_alphabet)
    green = recolor_regex(l, Color.GREEN)
    red = recolor_regex(l, Color.RED)
    g_nfa = recolor_nfa(n, Color.GREEN)
    r_nfa = recolor_nfa(n, Color.RED)
    return (RegularConstraint(green, red, first_id, g_nfa, r_nfa),
            RegularConstraint(red, green, first_id + 1, r_nfa, g_nfa))


def make_arrow_set(languages, base_alphabet: Alphabet) -> ConstraintSet:
    """Both arrows for every language, in declaration order."""
    out: list[RegularConstraint] = []
    for l in languages:
        fwd, back = make_arrows(l, base_alphabet, first_id=len(out))
        out += [fwd, back]
    return tuple(out)


def satisfied(rc: RegularConstraint, g: LabeledGraph) -> bool:
    return evaluate(rc.lhs_nfa, g) <= evaluate(rc.rhs_nfa, g)


@dataclass(frozen=True)
class Request:
    """A vertex pair where a constraint's lhs holds but its rhs does not."""

    x: str
    y: str
    constraint: RegularConstraint

    @property
    def cid(self) -> int:
        return self.constraint.cid


def sides(cs: ConstraintSet, pairs_of) -> list[tuple]:
    """(constraint, lhs pairs, rhs pairs) for each constraint of cs, in
    order, where pairs_of(q) gives an automaton's pairs.

    pairs_of is called once per distinct automaton.  Automata are told
    apart by identity, not by value: hashing and comparing them costs a
    large part of a whole ``requests`` call.
    """
    memo: dict[int, object] = {}

    def pairs(q: Nfa):
        got = memo.get(id(q))
        if got is None:
            got = memo[id(q)] = pairs_of(q)
        return got

    return [(rc, pairs(rc.lhs_nfa), pairs(rc.rhs_nfa)) for rc in cs]


def sorted_requests(sides) -> tuple[Request, ...]:
    """The requests of (constraint, lhs pairs, rhs pairs) triples: each
    constraint's lhs pairs less its rhs pairs, ordered by (x, y,
    constraint id)."""
    out = [Request(x, y, rc) for rc, lhs, rhs in sides for x, y in lhs - rhs]
    out.sort(key=lambda r: (r.x, r.y, r.cid))
    return tuple(out)


def requests(cs: ConstraintSet, g: LabeledGraph) -> tuple[Request, ...]:
    """All open requests, ordered by (x, y, constraint id); each distinct
    automaton is evaluated once (see sides)."""
    return sorted_requests(sides(cs, lambda q: evaluate(q, g)))


def fresh_names(round_no: int, req_index: int, count: int) -> list[str]:
    return [f"n{round_no}_{req_index}_{k}" for k in range(1, count + 1)]


def graft_path(vertices, r: Request, w: Word, *, round_no: int,
               req_index: int) -> tuple[list[str], list[Edge]]:
    """The fresh vertices and the edges of a path from r.x to r.y spelling
    w, to be added to a graph with the given vertex set.  A word of length
    n makes n-1 fresh vertices named n<round>_<index>_<k>.

    The checks come in this order: both request endpoints are vertices,
    the word is not empty, the constraint's rhs accepts it, the fresh
    names are free.  apply_add, escape.run_play and the children of the
    bounded search all graft through here."""
    require_vertex(vertices, r.x)
    require_vertex(vertices, r.y)
    if len(w) == 0:
        raise WitnessRejectedError("witness word is empty")
    check_witness(r.constraint, w)
    names = fresh_names(round_no, req_index, len(w) - 1)
    clash = [v for v in names if v in vertices]
    if clash:
        raise ValueError(f"fresh vertex names already taken: {sorted(clash)}")
    stops = [r.x, *names, r.y]
    return names, list(zip(stops, w, stops[1:]))


def apply_add(g: LabeledGraph, r: Request, w: Word, *, round_no: int,
              req_index: int) -> LabeledGraph:
    """Graft a fresh path from r.x to r.y spelling w (see graft_path)."""
    names, edges = graft_path(g.vertices, r, w, round_no=round_no,
                              req_index=req_index)
    return LabeledGraph(g.vertices.union(names), g.edges.union(edges))


def check_witness(rc: RegularConstraint, w: Word) -> None:
    """WitnessRejectedError unless w is a word of rc's rhs language."""
    if not accepts(rc.rhs_nfa, w):
        raise WitnessRejectedError(
            f"witness {' '.join(s.name for s in w)!r} not in the rhs language "
            f"of constraint {rc.cid}")

