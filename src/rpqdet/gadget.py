"""The doubled grid gadget, its shade decoration, the counterexample
checker, and homomorphism / isomorphism utilities.

The gadget for size m has vertices a, b, and v_i_j for i, j in [0, m].
Between grid neighbors run two edges: a green Cold one and a red Warm one.
Edges leaving a vertex with i+j even carry tag A, odd carry tag B;
horizontal edges point right, vertical edges up.  The boundary edges are
(a, v_0_0) labeled G:alpha and R:beta, and (v_m_m, b) labeled G:omega and
R:omega.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .automata import Nfa
from .constraints import make_arrow_set, recolor_nfa, satisfied
from .graphs import EndpointedGraph, LabeledGraph, strip_shades
from .ogtp import GridTiling
from .rpq import holds
from .symbols import Color, WorkbenchError, sym


class GadgetError(WorkbenchError):
    pass


_GRID_VERTEX_RE = re.compile(r"v_(\d+)_(\d+)\Z")


def grid_vertex(i: int, j: int) -> str:
    return f"v_{i}_{j}"


def build_grid(m: int) -> EndpointedGraph:
    """The shade-less doubled grid with endpoints a and b."""
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


def grid_size(g: LabeledGraph) -> int:
    """The m of a grid-shaped vertex set; raises when no grid vertex fits."""
    best = -1
    for v in g.vertices:
        hit = _GRID_VERTEX_RE.match(v)
        if hit:
            best = max(best, int(hit.group(1)), int(hit.group(2)))
    if best < 0:
        raise GadgetError("graph has no grid vertices")
    return best


def decorate(g: EndpointedGraph, t: GridTiling) -> EndpointedGraph:
    """Copy the tiling's shades onto the grid's four-field edges.

    Horizontal edges take the h shade of their source cell, vertical edges
    the v shade; the green and red twins of a cell get the same shade.
    """
    m = grid_size(g.graph)
    if m != t.n:
        raise GadgetError(f"tiling size {t.n} does not match grid size {m}")
    edges = []
    for src, s, dst in g.graph.edges:
        if not s.is_sigma0:
            edges.append((src, s, dst))
            continue
        hit = _GRID_VERTEX_RE.match(src)
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
# Counterexample checking


@dataclass(frozen=True)
class CounterexampleReport:
    ok: bool
    failures: tuple[str, ...]


def check_counterexample(m: LabeledGraph, views, q0: Nfa, a: str,
                         b: str) -> CounterexampleReport:
    """The three conditions a counterexample must meet: every
    both-direction view constraint satisfied, a green q0 path from a to b,
    and no red q0 path from a to b."""
    m.require_vertex(a)
    m.require_vertex(b)
    failures = []
    cs = make_arrow_set(list(views), q0.alphabet)
    for rc in cs:
        if not satisfied(rc, m):
            failures.append(f"views fail: constraint {rc.cid} "
                            f"({rc.describe()}) not satisfied")
    if not holds(recolor_nfa(q0, Color.GREEN), m, a, b):
        failures.append("G(Q0) fails: no green q0 path from a to b")
    if holds(recolor_nfa(q0, Color.RED), m, a, b):
        failures.append("R(Q0) fails: a red q0 path from a to b exists")
    return CounterexampleReport(not failures, tuple(failures))


# --------------------------------------------------------------------------
# Homomorphisms and isomorphism


def _label_profile(g: LabeledGraph):
    out_labels = {v: frozenset(s for s, _ in g.out_adj[v]) for v in g.vertices}
    in_labels = {v: frozenset(s for s, _ in g.in_adj[v]) for v in g.vertices}
    return out_labels, in_labels


def find_homomorphism(d: LabeledGraph, m: LabeledGraph) -> dict[str, str] | None:
    """A label-preserving vertex map from d into m, or None.

    Candidates are pruned by incident-label containment, then searched by
    _match.
    """
    d_out, d_in = _label_profile(d)
    m_out, m_in = _label_profile(m)
    m_vertices = sorted(m.vertices)
    candidates = {
        v: [u for u in m_vertices
            if d_out[v] <= m_out[u] and d_in[v] <= m_in[u]]
        for v in d.vertices}
    return _match(d, m.edges, candidates, injective=False)


def verify_homomorphism(d: LabeledGraph, m: LabeledGraph,
                        mapping: dict[str, str]) -> bool:
    """Edge-by-edge check that mapping sends d into m, totally."""
    if not d.vertices <= set(mapping):
        return False
    if not all(mapping[v] in m.vertices for v in d.vertices):
        return False
    return all((mapping[src], s, mapping[dst]) in m.edges
               for src, s, dst in d.edges)


def _signature(g: LabeledGraph, v: str):
    return (tuple(sorted(s.name for s, _ in g.out_adj[v])),
            tuple(sorted(s.name for s, _ in g.in_adj[v])))


def iso_shadeless(d: LabeledGraph, e: LabeledGraph) -> bool:
    """True when the shade-stripped graphs are isomorphic."""
    d2, e2 = strip_shades(d), strip_shades(e)
    if len(d2.vertices) != len(e2.vertices) or len(d2.edges) != len(e2.edges):
        return False
    d_sigs = sorted(_signature(d2, v) for v in d2.vertices)
    e_sigs = sorted(_signature(e2, v) for v in e2.vertices)
    if d_sigs != e_sigs:
        return False
    candidates = {
        v: [u for u in sorted(e2.vertices)
            if _signature(e2, u) == _signature(d2, v)]
        for v in d2.vertices}
    # A bijective homomorphism with equal edge counts maps the edge sets
    # onto each other, so no reverse check is needed.
    return _match(d2, e2.edges, candidates, injective=True) is not None


def _match(d: LabeledGraph, edge_set, candidates: dict[str, list[str]],
           injective: bool) -> dict[str, str] | None:
    """A map sending each vertex of d to one of its candidates and every
    edge of d into edge_set, one-to-one when injective; None when there is
    none.

    Backtracking in connectivity-first order, as in VF2 (Cordella et al.
    2004): the first vertex has the fewest candidates, and each next one is
    the unassigned neighbour of an assigned vertex with the fewest
    candidates (ties by name), so every choice meets an edge check at once.
    Only when no unassigned vertex has an assigned neighbour do all of them
    compete.
    """
    if any(not c for c in candidates.values()):
        return None
    order: list[str] = []
    placed: set[str] = set()
    frontier: set[str] = set()
    while len(order) < len(d.vertices):
        v = min(frontier or d.vertices - placed,
                key=lambda x: (len(candidates[x]), x))
        order.append(v)
        placed.add(v)
        frontier.discard(v)
        frontier.update(w for _, w in d.out_adj[v] + d.in_adj[v]
                        if w not in placed)
    assignment: dict[str, str] = {}
    used: set[str] = set()

    def consistent(v: str, u: str) -> bool:
        for s, w in d.out_adj[v]:
            img = u if w == v else assignment.get(w)
            if img is not None and (u, s, img) not in edge_set:
                return False
        for s, w in d.in_adj[v]:
            img = u if w == v else assignment.get(w)
            if img is not None and (img, s, u) not in edge_set:
                return False
        return True

    def rec(k: int) -> bool:
        if k == len(order):
            return True
        v = order[k]
        for u in candidates[v]:
            if not (injective and u in used) and consistent(v, u):
                assignment[v] = u
                used.add(u)
                if rec(k + 1):
                    return True
                del assignment[v]
                used.discard(u)
        return False

    return dict(assignment) if rec(0) else None
