"""Grid tiling instances, their checker and brute-force solver, and the
compiler that turns an instance into a path-query determinacy workbench
input: an alphabet, the view languages, and the start-and-traps language q0.

Grid convention: vertex u_{0,0} sits bottom-left; horizontal edges point
right (increasing i) and vertical edges point up (increasing j).  The
bottom-left vertical edge is the one leaving u_{0,0}; the upper-right
horizontal edge is the one entering u_{n,n}.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import count

from .automata import (Class, Concat, Lit, Nfa, Plus, Regex, Star, Union,
                       compile_nfa, concat_all, parse_regex, render_regex,
                       union_all)
from .constraints import ConstraintSet, make_arrow_set
from .symbols import (Alphabet, FormatError, Symbol, WorkbenchError, expect,
                      expect_items, expect_key, load_json, sym)

DIRECTIONS = ("H", "V")

_SHADE_RE = re.compile(r"[a-z0-9_]+\Z")
_CELL_RE = re.compile(r"(\d+),(\d+)\Z")


class OgtpError(WorkbenchError):
    """Malformed tiling-problem instance."""


class TilingError(WorkbenchError):
    """Malformed tiling: missing or extra cells, bad keys."""


class SearchSpaceError(WorkbenchError):
    pass


Pair = tuple[tuple[str, str], tuple[str, str]]


@dataclass(frozen=True)
class OgtpInstance:
    """An ordered shade set (black included) and forbidden direction-shade
    pairs for consecutive grid edges."""

    shades: tuple[str, ...]
    forbidden: frozenset[Pair]

    def __post_init__(self):
        if len(set(self.shades)) != len(self.shades):
            raise OgtpError("duplicate shade names")
        for s in self.shades:
            if not _SHADE_RE.match(s):
                raise OgtpError(f"bad shade name {s!r}")
        if "black" not in self.shades:
            raise OgtpError("the shade set must contain 'black'")
        for pair in self.forbidden:
            for d, s in pair:
                if d not in DIRECTIONS:
                    raise OgtpError(f"bad direction {d!r} in forbidden pair")
                if s not in self.shades:
                    raise OgtpError(f"unknown shade {s!r} in forbidden pair")


@dataclass(frozen=True)
class GridTiling:
    """Shades for the edges of an (n+1) by (n+1) vertex grid.

    h maps (i, j) to the shade of the horizontal edge u_{i,j} to u_{i+1,j}
    for 0 <= i < n, 0 <= j <= n; v maps (i, j) to the shade of the vertical
    edge u_{i,j} to u_{i,j+1} for 0 <= i <= n, 0 <= j < n.
    """

    n: int
    h: dict[tuple[int, int], str]
    v: dict[tuple[int, int], str]


def h_cells(n: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(n + 1) for i in range(n)]


def v_cells(n: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(n) for i in range(n + 1)]


def all_black_tiling(n: int) -> GridTiling:
    return GridTiling(n, {c: "black" for c in h_cells(n)},
                      {c: "black" for c in v_cells(n)})


def _in_edges(t: GridTiling, i: int, j: int):
    """(direction, shade) of each shaded edge into u_{i,j}; edges off the
    grid or not shaded yet are skipped."""
    if (s := t.h.get((i - 1, j))) is not None:
        yield "H", s
    if (s := t.v.get((i, j - 1))) is not None:
        yield "V", s


def _out_edges(t: GridTiling, i: int, j: int):
    """(direction, shade) of each shaded edge out of u_{i,j}."""
    if (s := t.h.get((i, j))) is not None:
        yield "H", s
    if (s := t.v.get((i, j))) is not None:
        yield "V", s


def check_tiling(inst: OgtpInstance, t: GridTiling) -> bool:
    """All labels are instance shades, the bottom-left vertical and
    upper-right horizontal edges are black, and no directed length-2 path
    carries a forbidden pair."""
    if t.n < 1:
        raise TilingError("grid size must be at least 1")
    if set(t.h) != set(h_cells(t.n)) or set(t.v) != set(v_cells(t.n)):
        raise TilingError("tiling does not cover the grid edges exactly")
    shades = set(inst.shades)
    if not all(s in shades for s in t.h.values()) or \
            not all(s in shades for s in t.v.values()):
        return False
    if t.v[(0, 0)] != "black":
        return False
    if t.h[(t.n - 1, t.n)] != "black":
        return False
    for i in range(t.n + 1):
        for j in range(t.n + 1):
            for pin in _in_edges(t, i, j):
                for pout in _out_edges(t, i, j):
                    if (pin, pout) in inst.forbidden:
                        return False
    return True


# The most shades solve_bruteforce places, summed over every n it tries,
# before it gives up.
PLACEMENT_BUDGET = 200_000


def solve_bruteforce(inst: OgtpInstance, max_n: int) -> GridTiling | None:
    """Smallest-n solution by exhaustive backtracking, or None up to max_n.

    Raises SearchSpaceError once the backtracking has placed more than
    PLACEMENT_BUDGET shades.
    """
    placed = count(1)
    for n in range(1, max_n + 1):
        t = _solve_at(inst, n, placed)
        if t is not None:
            return t
    return None


def _solve_at(inst: OgtpInstance, n: int,
              placed: Iterator[int]) -> GridTiling | None:
    """The first tiling at n, or None; placed numbers each placement."""
    cells: list[tuple[str, int, int]] = []
    for j in range(n + 1):
        for i in range(n + 1):
            if i < n:
                cells.append(("h", i, j))
            if j < n:
                cells.append(("v", i, j))
    t = GridTiling(n, {}, {})
    forb = inst.forbidden

    def admissible(kind: str, i: int, j: int, s: str) -> bool:
        if kind == "v":
            if (i, j) == (0, 0) and s != "black":
                return False
            d = "V"
        else:
            if (i, j) == (n - 1, n) and s != "black":
                return False
            d = "H"
        # Cells are placed row by row, left to right, so no edge out of
        # this edge's head is placed yet: a pair of consecutive edges is
        # checked here, when its second edge is placed.
        return all((pin, (d, s)) not in forb for pin in _in_edges(t, i, j))

    # One iterator over the shades of each placed cell and of the cell
    # being placed: a step places the next admissible shade, or drops the
    # iterator and takes back the cell placed before.
    stores = {"h": t.h, "v": t.v}
    tries = [iter(inst.shades)]
    while tries:
        kind, i, j = cells[len(tries) - 1]
        s = next((s for s in tries[-1] if admissible(kind, i, j, s)), None)
        if s is None:
            tries.pop()
            if tries:
                kind, i, j = cells[len(tries) - 1]
                del stores[kind][(i, j)]
            continue
        if next(placed) > PLACEMENT_BUDGET:
            raise SearchSpaceError(
                f"backtracking placed more than {PLACEMENT_BUDGET} shades "
                f"by n={n}")
        stores[kind][(i, j)] = s
        if len(tries) == len(cells):
            return GridTiling(n, dict(t.h), dict(t.v))
        tries.append(iter(inst.shades))
    return None


# --------------------------------------------------------------------------
# Compiling an instance to a determinacy workbench input


@dataclass(frozen=True)
class Views:
    good: tuple[Regex, ...]
    bad: tuple[Regex, ...]
    ugly: tuple[Regex, ...]

    def all_languages(self) -> tuple[Regex, ...]:
        return self.good + self.bad + self.ugly


@dataclass(frozen=True)
class ReductionOutput:
    alphabet: Alphabet
    views: Views
    q_start: Regex | None
    q0: Regex

    @cached_property
    def q0_nfa(self) -> Nfa:
        return compile_nfa(self.q0, self.alphabet)

    def constraint_set(self) -> ConstraintSet:
        """Both-direction constraints for every view, good then bad then
        ugly, each contributing the green-to-red arrow before the
        red-to-green one."""
        return make_arrow_set(self.views.all_languages(), self.alphabet)


def reduction_alphabet(shades) -> Alphabet:
    """alpha, beta, omega, then the grid symbols: tag, direction,
    temperature (Warm before Cold), shade in declaration order."""
    symbols = [sym("alpha"), sym("beta"), sym("omega")]
    for tag in "AB":
        for d in "HV":
            for k in "WC":
                for s in shades:
                    symbols.append(sym(f"{tag}-{d}-{k}-{s}"))
    return Alphabet(symbols)


def compile_reduction(inst: OgtpInstance) -> ReductionOutput:
    base = reduction_alphabet(inst.shades)

    def cls(tag=None, d=None, k=None, s=None) -> Class:
        members = [x for x in base.sigma0()
                   if (tag is None or x.tag == tag)
                   and (d is None or x.direction == d)
                   and (k is None or x.temperature == k)
                   and (s is None or x.shade == s)]
        return Class(frozenset(members))

    def sig_star() -> Star:
        return Star(cls())

    alpha_, beta_, omega_ = Lit(sym("alpha")), Lit(sym("beta")), Lit(sym("omega"))

    good = (
        omega_,
        Union(alpha_, beta_),
        Union(Concat(cls("B", "H", "W"), cls("A", "V", "W")),
              Concat(cls("B", "V", "C"), cls("A", "H", "C"))),
        Union(Concat(cls("A", "H", "C"), cls("B", "V", "C")),
              Concat(cls("A", "V", "W"), cls("B", "H", "W"))),
        Union(cls("B", "V", "C"), cls("B", "V", "W")),
        Union(cls("B", "H", "W"), cls("B", "H", "C")),
        Union(cls("A", "V", "W"), cls("A", "V", "C")),
        Union(cls("A", "H", "C"), cls("A", "H", "W")),
    )

    def nonblack_union(tag: str, d: str, k: str) -> Regex:
        return union_all([Class(frozenset({sym(f"{tag}-{d}-{k}-{s}")}))
                          for s in inst.shades if s != "black"])

    bad = [
        concat_all([beta_, nonblack_union("A", "V", "W"), sig_star(), omega_]),
        concat_all([beta_, sig_star(), nonblack_union("B", "H", "W"), omega_]),
    ]
    for (d1, s1), (d2, s2) in sorted(inst.forbidden):
        bad.append(concat_all([beta_, sig_star(), cls(None, d1, "W", s1),
                               cls(None, d2, "W", s2), sig_star(), omega_]))

    ugly = (
        concat_all([alpha_, sig_star(), cls(k="W"), sig_star(), omega_]),
        concat_all([beta_, sig_star(), cls(k="C"), sig_star(), omega_]),
    )

    q_start = concat_all(
        [alpha_, Plus(Concat(cls("A", "H", "C"), cls("B", "V", "C"))), omega_])
    q0 = union_all([q_start, *ugly, *bad])

    return ReductionOutput(base, Views(good, tuple(bad), ugly), q_start, q0)


# --------------------------------------------------------------------------
# Serialization


def instance_to_json(inst: OgtpInstance) -> str:
    obj = {"shades": list(inst.shades),
           "forbidden": [[list(p), list(q)] for p, q in sorted(inst.forbidden)]}
    return json.dumps(obj, indent=2) + "\n"


def instance_from_json(text: str) -> OgtpInstance:
    """Inverse of instance_to_json; a wrong shape raises FormatError."""
    obj = expect(load_json(text, OgtpError, "instance"), dict, "instance")
    shades = tuple(expect(s, str, "shade")
                   for s in expect_key(obj, "shades", list, "instance"))
    forbidden = frozenset(
        tuple(expect_items(half, (str, str), "direction-shade pair")
              for half in expect_items(p, (list, list), "forbidden pair"))
        for p in expect_key(obj, "forbidden", list, "instance"))
    return OgtpInstance(shades, forbidden)


def tiling_to_json(t: GridTiling) -> str:
    obj = {"n": t.n,
           "h": {f"{i},{j}": t.h[(i, j)] for i, j in sorted(t.h)},
           "v": {f"{i},{j}": t.v[(i, j)] for i, j in sorted(t.v)}}
    return json.dumps(obj, indent=2) + "\n"


def tiling_from_json(text: str) -> GridTiling:
    """Inverse of tiling_to_json; a wrong shape raises FormatError."""
    obj = expect(load_json(text, TilingError, "tiling"), dict, "tiling")

    def cells(field: str) -> dict[tuple[int, int], str]:
        out = {}
        for key, shade in expect_key(obj, field, dict, "tiling").items():
            hit = _CELL_RE.match(key)
            if hit is None:
                raise FormatError(f"tiling {field!r} key must read 'i,j', "
                                  f"got {key!r}")
            out[(int(hit.group(1)), int(hit.group(2)))] = expect(
                shade, str, "shade")
        return out

    return GridTiling(expect_key(obj, "n", int, "tiling"), cells("h"),
                      cells("v"))


def reduction_to_json(out: ReductionOutput) -> str:
    a = out.alphabet
    obj = {"alphabet": [s.name for s in a]}
    if out.q_start is not None:
        obj["q_start"] = render_regex(out.q_start, a)
    obj["q0"] = render_regex(out.q0, a)
    obj["views"] = {
        "good": [render_regex(r, a) for r in out.views.good],
        "bad": [render_regex(r, a) for r in out.views.bad],
        "ugly": [render_regex(r, a) for r in out.views.ugly],
    }
    return json.dumps(obj, indent=2) + "\n"


def reduction_from_json(text: str) -> ReductionOutput:
    """Inverse of reduction_to_json; a wrong shape raises FormatError."""
    what = "instance file"
    obj = expect(load_json(text, OgtpError, "instance"), dict, what)
    alphabet = Alphabet(Symbol(expect(name, str, "symbol name"))
                        for name in expect_key(obj, "alphabet", list, what))
    views_obj = expect_key(obj, "views", dict, what)
    unknown = sorted(views_obj.keys() - {"good", "bad", "ugly"})
    if unknown:
        raise FormatError(f"{what} 'views' has an unknown group "
                          f"{unknown[0]!r}; expected 'good', 'bad' or 'ugly'")

    def group(name: str) -> tuple[Regex, ...]:
        where = f"views {name!r}"
        return tuple(parse_regex(expect(r, str, where), alphabet)
                     for r in expect(views_obj.get(name, []), list, where))

    views = Views(group("good"), group("bad"), group("ugly"))
    q_start = (parse_regex(expect_key(obj, "q_start", str, what), alphabet)
               if "q_start" in obj else None)
    q0 = parse_regex(expect_key(obj, "q0", str, what), alphabet)
    return ReductionOutput(alphabet, views, q_start, q0)
