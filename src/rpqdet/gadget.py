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

from .automata import Nfa, recolor_nfa
from .constraints import make_arrow_set, requests
from .graphs import EndpointedGraph, LabeledGraph, strip_shades
from .ogtp import GridTiling
from .rpq import holds
from .symbols import Color, Symbol, WorkbenchError, sym


class GadgetError(WorkbenchError):
    pass


# Only the names grid_vertex writes: ASCII digits, no leading zeros.
_GRID_VERTEX_RE = re.compile(r"v_(0|[1-9][0-9]*)_(0|[1-9][0-9]*)\Z")


def grid_vertex(i: int, j: int) -> str:
    return f"v_{i}_{j}"


def build_grid(m: int) -> EndpointedGraph:
    """The shade-less doubled grid with endpoints a and b.

    Each vertex name is formatted once, so every edge endpoint is the
    vertex-set member itself and lookups keyed by it compare by identity.
    """
    if m < 1:
        raise ValueError("grid size must be at least 1")
    names = [[grid_vertex(i, j) for j in range(m + 1)] for i in range(m + 1)]
    # Per tag: green and red horizontal, then green and red vertical.
    steps = {tag: (sym(f"G:{tag}-H-C"), sym(f"R:{tag}-H-W"),
                   sym(f"G:{tag}-V-C"), sym(f"R:{tag}-V-W"))
             for tag in "AB"}
    edges = []
    for i, column in enumerate(names):
        for j, v in enumerate(column):
            green_h, red_h, green_v, red_v = steps["AB"[(i + j) % 2]]
            if i < m:
                right = names[i + 1][j]
                edges += ((v, green_h, right), (v, red_h, right))
            if j < m:
                up = column[j + 1]
                edges += ((v, green_v, up), (v, red_v, up))
    first, last = names[0][0], names[m][m]
    edges += [("a", sym("G:alpha"), first),
              ("a", sym("R:beta"), first),
              (last, sym("G:omega"), "b"),
              (last, sym("R:omega"), "b")]
    vertices = ["a", "b", *(v for column in names for v in column)]
    return EndpointedGraph(LabeledGraph.build(vertices, edges), "a", "b")


def _grid_cells(g: LabeledGraph) -> tuple[dict[str, tuple[int, int]], int]:
    """Each grid vertex of g with its (i, j), read once per vertex, and the
    grid size m; raises when no grid vertex fits."""
    cells = {}
    for v in g.vertices:
        hit = _GRID_VERTEX_RE.match(v)
        if hit:
            cells[v] = (int(hit.group(1)), int(hit.group(2)))
    if not cells:
        raise GadgetError("graph has no grid vertices")
    return cells, max(map(max, cells.values()))


def decorate(g: EndpointedGraph, t: GridTiling) -> EndpointedGraph:
    """Copy the tiling's shades onto the grid's four-field edges.

    Horizontal edges take the h shade of their source cell, vertical edges
    the v shade; the green and red twins of a cell get the same shade.
    """
    cells, m = _grid_cells(g.graph)
    if m != t.n:
        raise GadgetError(f"tiling size {t.n} does not match grid size {m}")
    shaded: dict[tuple[Symbol, str], Symbol] = {}
    edges = []
    for edge in g.graph.edges:
        src, s, dst = edge
        if not s.is_sigma0:
            edges.append(edge)
            continue
        cell = cells.get(src)
        if cell is None:
            raise GadgetError(f"four-field edge leaves non-grid vertex {src!r}")
        table = t.h if s.direction == "H" else t.v
        try:
            shade = table[cell]
        except KeyError:
            raise GadgetError(f"tiling has no shade for cell {cell}") from None
        label = shaded.get((s, shade))
        if label is None:
            prefix = f"{s.color.value}:" if s.color else ""
            label = shaded[s, shade] = sym(
                f"{prefix}{s.tag}-{s.direction}-{s.temperature}-{shade}")
        edges.append((src, label, dst))
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
    cs = make_arrow_set(list(views), q0.alphabet)
    m.require_vertex(a)
    m.require_vertex(b)
    open_cids = {r.cid for r in requests(cs, m)}
    failures = [f"views fail: constraint {rc.cid} ({rc.describe()}) "
                "not satisfied" for rc in cs if rc.cid in open_cids]
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
    _match.  A label of d that m lacks rules out every map at once.
    """
    if not d.labels() <= m.labels():
        return None
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
    """v's out-labels and in-labels, each sorted: adjacency rows are
    sorted by label first."""
    return (tuple(s for s, _ in g.out_adj[v]),
            tuple(s for s, _ in g.in_adj[v]))


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

    # One iterator over the candidates of each placed vertex and of the
    # vertex being placed: a step takes the next candidate that fits, or
    # drops the iterator and takes back the vertex placed before.
    tries = [iter(candidates[v]) for v in order[:1]]
    while len(assignment) < len(order):
        v = order[len(tries) - 1]
        u = next((u for u in tries[-1]
                  if not (injective and u in used) and consistent(v, u)), None)
        if u is None:
            tries.pop()
            if not tries:
                return None
            used.discard(assignment.pop(order[len(tries) - 1]))
            continue
        assignment[v] = u
        used.add(u)
        if len(tries) < len(order):
            tries.append(iter(candidates[order[len(tries)]]))
    return assignment
