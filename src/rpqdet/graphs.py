"""Finite directed edge-labeled graphs and the color/shade operations."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .symbols import Symbol, Word, WorkbenchError, expect, expect_key

Edge = tuple[str, Symbol, str]


class UnknownVertexError(WorkbenchError):
    pass


@dataclass(frozen=True)
class LabeledGraph:
    """Immutable vertex and edge sets; vertices may be isolated."""

    vertices: frozenset[str]
    edges: frozenset[Edge]

    def __post_init__(self):
        for src, _, dst in self.edges:
            if src not in self.vertices or dst not in self.vertices:
                raise UnknownVertexError(f"edge endpoint missing from vertex set: "
                                         f"({src}, {dst})")

    @staticmethod
    def build(vertices: Iterable[str], edges: Iterable[Edge]) -> "LabeledGraph":
        return LabeledGraph(frozenset(vertices), frozenset(edges))

    @cached_property
    def out_adj(self) -> dict[str, tuple[tuple[Symbol, str], ...]]:
        rows: dict[str, list[tuple[Symbol, str]]] = {v: [] for v in self.vertices}
        for src, s, dst in self.edges:
            rows[src].append((s, dst))
        return {v: tuple(sorted(row)) for v, row in rows.items()}

    @cached_property
    def in_adj(self) -> dict[str, tuple[tuple[Symbol, str], ...]]:
        rows: dict[str, list[tuple[Symbol, str]]] = {v: [] for v in self.vertices}
        for src, s, dst in self.edges:
            rows[dst].append((s, src))
        return {v: tuple(sorted(row)) for v, row in rows.items()}

    @cached_property
    def sources_by_label(self) -> dict[Symbol, tuple[str, ...]]:
        """Per edge label, the vertices with an out-edge carrying it, each
        once.  Rows are tuples: a graph kept with its cache, such as a
        certificate, holds a fraction of the memory that sets would."""
        rows: dict[Symbol, set[str]] = {}
        for src, s, _ in self.edges:
            rows.setdefault(s, set()).add(src)
        return {s: tuple(row) for s, row in rows.items()}

    def labels(self) -> frozenset[Symbol]:
        return frozenset(self.sources_by_label)

    def require_vertex(self, v: str) -> None:
        require_vertex(self.vertices, v)


def require_vertex(vertices, v: str) -> None:
    """UnknownVertexError unless v is among the vertices."""
    if v not in vertices:
        raise UnknownVertexError(f"no vertex named {v!r}")


@dataclass(frozen=True)
class EndpointedGraph:
    """A graph with two distinguished vertices."""

    graph: LabeledGraph
    a: str
    b: str

    def __post_init__(self):
        self.graph.require_vertex(self.a)
        self.graph.require_vertex(self.b)


def chain_graph(word: Word, x: str, y: str) -> LabeledGraph:
    """A simple path from x to y spelling the given word, through
    intermediate vertices x1..x{n-1}."""
    n = len(word)
    if n == 0:
        raise ValueError("chain needs a nonempty word")
    if x == y:
        raise ValueError("chain endpoints must differ")
    stops = [x, *(f"x{k}" for k in range(1, n)), y]
    if len(set(stops)) != len(stops):
        raise ValueError("chain vertex names collide")
    edges = [(stops[k], word[k], stops[k + 1]) for k in range(n)]
    return LabeledGraph.build(stops, edges)


def graph_union(graphs: Iterable[LabeledGraph]) -> LabeledGraph:
    vertices: set[str] = set()
    edges: set[Edge] = set()
    for g in graphs:
        vertices |= g.vertices
        edges |= g.edges
    return LabeledGraph(frozenset(vertices), frozenset(edges))


def strip_shades(g: LabeledGraph) -> LabeledGraph:
    """Erase the shade field of every four-field label."""
    return LabeledGraph(g.vertices,
                        frozenset((src, s.stripped(), dst)
                                  for src, s, dst in g.edges))


def chain_word(g: LabeledGraph, x: str, y: str) -> Word | None:
    """If g is a single path from x to y, its word; otherwise None."""
    word: list[Symbol] = []
    seen = {x}
    v = x
    while v != y:
        row = g.out_adj.get(v, ())
        if len(row) != 1:
            return None
        s, v = row[0]
        if v in seen:
            return None
        seen.add(v)
        word.append(s)
    if len(seen) != len(g.vertices) or g.out_adj.get(y):
        return None
    return tuple(word)


# --------------------------------------------------------------------------
# JSON forms


def graph_to_obj(g: LabeledGraph) -> dict:
    return {
        "vertices": sorted(g.vertices),
        "edges": [{"src": src, "label": s.name, "dst": dst}
                  for src, s, dst in sorted(g.edges)],
    }


def graph_from_obj(obj) -> LabeledGraph:
    """Inverse of graph_to_obj; a wrong shape raises FormatError."""
    expect(obj, dict, "graph")
    vertices = [expect(v, str, "vertex name")
                for v in expect_key(obj, "vertices", list, "graph")]
    edges = []
    for e in expect_key(obj, "edges", list, "graph"):
        expect(e, dict, "edge")
        edges.append((expect_key(e, "src", str, "edge"),
                      Symbol(expect_key(e, "label", str, "edge")),
                      expect_key(e, "dst", str, "edge")))
    return LabeledGraph.build(vertices, edges)


def graph_to_json(g: LabeledGraph) -> str:
    return json.dumps(graph_to_obj(g), indent=2) + "\n"


def graph_from_json(text: str) -> LabeledGraph:
    return graph_from_obj(json.loads(text))


def endpointed_to_json(eg: EndpointedGraph) -> str:
    obj = graph_to_obj(eg.graph)
    obj["a"] = eg.a
    obj["b"] = eg.b
    return json.dumps(obj, indent=2) + "\n"


def endpointed_from_json(text: str, a: str | None = None,
                         b: str | None = None) -> EndpointedGraph:
    obj = json.loads(text)
    g = graph_from_obj(obj)
    return EndpointedGraph(g, a or expect(obj.get("a", "a"), str, "endpoint a"),
                           b or expect(obj.get("b", "b"), str, "endpoint b"))
