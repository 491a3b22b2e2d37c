"""Regular expressions and nondeterministic finite automata.

Grammar, lowest precedence first: union ``+``, concatenation by
juxtaposition, postfix ``*`` and ``^+``, with parentheses for grouping.
Atoms are symbol tokens, class literals ``[T,D,K,S]`` whose fields may be
``*`` wildcards, and the token ``S0`` for the class of all four-field
symbols.  Class literals expand at parse time against the ambient alphabet;
in a colored alphabet they may carry a ``G:`` or ``R:`` prefix to select one
copy.  The reserved tokens ``EMPTY`` and ``EPS`` denote the empty language
and the empty word.

``compile_nfa`` builds the position automaton of a syntax tree: a start
state plus one state per literal or class occurrence, with no epsilon
moves.  An automaton is its transition rows, and only this module builds
one: ``compile_nfa`` from a tree, ``recolor_nfa`` from another automaton.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from collections import deque

from .symbols import (Alphabet, Color, Symbol, SymbolError, Word,
                      WorkbenchError)


class RegexSyntaxError(WorkbenchError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(RegexSyntaxError):
    def __init__(self, token: str, position: int):
        super().__init__(f"unknown symbol {token!r}", position)
        self.token = token


class ForeignSymbolError(WorkbenchError):
    """A word contains a symbol outside the automaton's alphabet."""


# --------------------------------------------------------------------------
# Syntax trees


class Regex:
    __slots__ = ()


@dataclass(frozen=True)
class Empty(Regex):
    pass


@dataclass(frozen=True)
class Epsilon(Regex):
    pass


@dataclass(frozen=True)
class Lit(Regex):
    symbol: Symbol


@dataclass(frozen=True)
class Class(Regex):
    symbols: frozenset[Symbol]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("empty symbol class")


@dataclass(frozen=True)
class Union(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True)
class Concat(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True)
class Star(Regex):
    inner: Regex


@dataclass(frozen=True)
class Plus(Regex):
    inner: Regex


def union_all(parts) -> Regex:
    """Left-folded union; the empty union is the empty language."""
    parts = iter(parts)
    return reduce(Union, parts, next(parts, Empty()))


def concat_all(parts) -> Regex:
    """Left-folded concatenation; the empty one is the empty word."""
    parts = iter(parts)
    return reduce(Concat, parts, next(parts, Epsilon()))


def post_order(r: Regex):
    """The nodes of r, each after its children, left to right.  An explicit
    stack, not recursion, walks the tree, so a long flat word does not
    recurse once per symbol."""
    todo: list[tuple[Regex, bool]] = [(r, False)]
    while todo:
        node, expanded = todo.pop()
        if expanded or isinstance(node, (Empty, Epsilon, Lit, Class)):
            yield node
        elif isinstance(node, (Union, Concat)):
            todo += [(node, True), (node.right, False), (node.left, False)]
        elif isinstance(node, (Star, Plus)):
            todo += [(node, True), (node.inner, False)]
        else:
            raise TypeError(f"not a regex: {node!r}")


def literals_used(r: Regex) -> frozenset[Symbol]:
    """Every symbol of a Lit or Class in r."""
    out: set[Symbol] = set()
    for node in post_order(r):
        if isinstance(node, Lit):
            out.add(node.symbol)
        elif isinstance(node, Class):
            out |= node.symbols
    return frozenset(out)


# --------------------------------------------------------------------------
# Parsing

_NAME_CHARS = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_:-")

_FIELD_VALUES = {0: {"A", "B"}, 1: {"H", "V"}, 2: {"W", "C"}}


def _scan(text: str):
    """Yield (kind, value, position) tokens."""
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "(":
            yield ("lparen", None, i)
            i += 1
        elif c == ")":
            yield ("rparen", None, i)
            i += 1
        elif c == "+":
            yield ("union", None, i)
            i += 1
        elif c == "*":
            yield ("star", None, i)
            i += 1
        elif c == "^":
            if i + 1 >= n or text[i + 1] != "+":
                raise RegexSyntaxError("expected '+' after '^'", i)
            yield ("plus", None, i)
            i += 2
        elif c == "[" or text[i:i + 3] in ("G:[", "R:["):
            color = None
            start = i
            if c != "[":
                color = Color.GREEN if c == "G" else Color.RED
                i += 2
            close = text.find("]", i)
            if close < 0:
                raise RegexSyntaxError("unclosed class literal", start)
            fields = [f.strip() for f in text[i + 1:close].split(",")]
            yield ("class", (color, fields), start)
            i = close + 1
        elif c in _NAME_CHARS:
            j = i
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            name = text[i:j]
            if name in ("S0", "G:S0", "R:S0"):
                color = {"G": Color.GREEN, "R": Color.RED}.get(name[0]) if ":" in name else None
                yield ("sigma0", color, i)
            elif name == "EMPTY":
                yield ("empty", None, i)
            elif name == "EPS":
                yield ("eps", None, i)
            else:
                yield ("name", name, i)
            i = j
        else:
            raise RegexSyntaxError(f"unexpected character {c!r}", i)
    yield ("end", None, n)


def _expand_class(alphabet: Alphabet, color: Color | None, fields, pos: int) -> frozenset[Symbol]:
    if len(fields) != 4:
        raise RegexSyntaxError("class literal needs exactly four fields", pos)
    for k in range(3):
        if fields[k] != "*" and fields[k] not in _FIELD_VALUES[k]:
            raise RegexSyntaxError(f"bad class field {fields[k]!r}", pos)
    t, d, k, s = fields
    out = []
    for cand in alphabet.sigma0(color):
        if t != "*" and cand.tag != t:
            continue
        if d != "*" and cand.direction != d:
            continue
        if k != "*" and cand.temperature != k:
            continue
        if s != "*" and cand.shade != s:
            continue
        out.append(cand)
    if not out:
        raise RegexSyntaxError("class literal matches no alphabet symbol", pos)
    return frozenset(out)


_LEAVES = ("name", "class", "sigma0", "empty", "eps")


def _leaf(kind: str, value, pos: int, alphabet: Alphabet) -> Regex:
    """The syntax tree of one atom token other than '('."""
    if kind == "name":
        try:
            s = Symbol(value)
        except SymbolError:
            raise UnknownSymbolError(value, pos) from None
        if s not in alphabet:
            raise UnknownSymbolError(value, pos)
        return Lit(s)
    if kind == "class":
        color, fields = value
        return Class(_expand_class(alphabet, color, fields, pos))
    if kind == "sigma0":
        frag = alphabet.sigma0(value)
        if not frag:
            raise RegexSyntaxError("alphabet has no four-field symbols", pos)
        return Class(frozenset(frag))
    return Empty() if kind == "empty" else Epsilon()


def parse_regex(text: str, alphabet: Alphabet) -> Regex:
    """Parse text by the grammar above.

    One left-to-right pass over the tokens, all scanned first, so a scan
    error comes before any parse error.  The innermost open group, or the
    whole text, keeps its finished alternatives and the atoms of the
    current one; a stack keeps those of the groups around it.  Both fold
    to the left, as union_all and concat_all do, so parentheses nest
    without recursion.  The atoms are empty exactly where an atom must
    come next: at the start, after '(' and after '+'.
    """
    outer: list[tuple[list[Regex], list[Regex]]] = []
    alts: list[Regex] = []
    atoms: list[Regex] = []
    for kind, value, pos in list(_scan(text)):
        if kind in _LEAVES:
            atoms.append(_leaf(kind, value, pos, alphabet))
        elif kind == "lparen":
            outer.append((alts, atoms))
            alts, atoms = [], []
        elif not atoms:
            raise RegexSyntaxError("expected an atom", pos)
        elif kind in ("star", "plus"):
            atoms[-1] = Star(atoms[-1]) if kind == "star" else Plus(atoms[-1])
        elif kind == "union":
            alts.append(concat_all(atoms))
            atoms = []
        elif outer and kind == "rparen":
            group = union_all(alts + [concat_all(atoms)])
            alts, atoms = outer.pop()
            atoms.append(group)
        elif outer:
            raise RegexSyntaxError("expected ')'", pos)
        elif kind == "end":
            return union_all(alts + [concat_all(atoms)])
        else:
            raise RegexSyntaxError("trailing input", pos)


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse a whitespace-separated sequence of symbol tokens."""
    out = []
    for tok in text.split():
        try:
            s = Symbol(tok)
        except SymbolError:
            raise SymbolError(f"bad symbol token in word: {tok!r}") from None
        if s not in alphabet:
            raise ForeignSymbolError(f"symbol {tok!r} not in alphabet")
        out.append(s)
    return tuple(out)


# --------------------------------------------------------------------------
# Rendering

_PREC_UNION, _PREC_CONCAT, _PREC_POSTFIX, _PREC_ATOM = 1, 2, 3, 4


def _class_token(symbols: frozenset[Symbol], alphabet: Alphabet) -> str:
    colors = {s.color for s in symbols}
    if len(colors) > 1:
        raise ValueError("class mixes colors; not serializable")
    color = colors.pop()
    prefix = f"{color.value}:" if color else ""
    fragment = alphabet.sigma0(color)
    if symbols == frozenset(fragment):
        return f"{prefix}S0"
    fields = []
    for attr in ("tag", "direction", "temperature", "shade"):
        values = {getattr(s, attr) for s in symbols}
        if values == {getattr(s, attr) for s in fragment}:
            fields.append("*")
        elif len(values) == 1:
            v = values.pop()
            if v is None:
                raise ValueError("class of shade-stripped symbols is not "
                                 "expressible; use explicit symbols")
            fields.append(v)
        else:
            fields.append(None)
    if None not in fields:
        token = f"{prefix}[{','.join(fields)}]"
        if _expand_class(alphabet, color, fields, 0) == symbols:
            return token
    parts = []
    for s in sorted(symbols, key=alphabet.index):
        if s.shade is None and s.is_sigma0:
            raise ValueError("class not expressible as class literals")
        parts.append(f"{prefix}[{s.tag},{s.direction},{s.temperature},{s.shade}]"
                     if s.is_sigma0 else s.name)
    return "(" + " + ".join(parts) + ")"


def _prec(r: Regex) -> int:
    """How tightly r's rendering binds."""
    if isinstance(r, Union):
        return _PREC_UNION
    if isinstance(r, Concat):
        return _PREC_CONCAT
    if isinstance(r, (Star, Plus)):
        return _PREC_POSTFIX
    return _PREC_ATOM


def _operand(r: Regex, paren: bool) -> list:
    """r as stack entries, in reverse, parenthesized when paren."""
    return [")", r, "("] if paren else [r]


def render_regex(r: Regex, alphabet: Alphabet) -> str:
    """Serialize so that reparsing yields an equal syntax tree, for every
    tree whose classes are expressible as class literals.  Other classes
    fall back to a parenthesized union of singletons, which reparses to a
    language-equal tree.

    An explicit stack of nodes and text pieces, written left to right, so
    a long flat word neither recurses nor rebuilds its prefix per symbol.
    """
    out: list[str] = []
    todo: list[Regex | str] = [r]
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Empty):
            out.append("EMPTY")
        elif isinstance(node, Epsilon):
            out.append("EPS")
        elif isinstance(node, Lit):
            out.append(node.symbol.name)
        elif isinstance(node, Class):
            out.append(_class_token(node.symbols, alphabet))
        elif isinstance(node, (Union, Concat)):
            prec = _prec(node)
            todo += _operand(node.right, _prec(node.right) <= prec)
            todo.append(" + " if isinstance(node, Union) else " ")
            todo += _operand(node.left, _prec(node.left) < prec)
        elif isinstance(node, (Star, Plus)):
            todo.append("*" if isinstance(node, Star) else "^+")
            todo += _operand(node.inner, _prec(node.inner) < _PREC_ATOM)
        else:
            raise TypeError(f"not a regex: {node!r}")
    return "".join(out)


# --------------------------------------------------------------------------
# Automata

_INF = 10 ** 9


@dataclass(frozen=True)
class Nfa:
    """Epsilon-free automaton over an ordered alphabet.

    delta is the automaton: per state, its row maps a symbol to the
    frozenset of target states; a state with no transition has no row.
    What is derived from the rows is cached with them: ``min_dist``,
    ``has_word_over`` per label set (whether some accepted word reads only
    those labels) and ``subset_dfa``.
    Automata compare by value but hash by nothing: callers that keep one
    per automaton (``constraints.sides``) tell them apart by identity.
    """

    alphabet: Alphabet
    n_states: int
    delta: dict[int, dict[Symbol, frozenset[int]]]
    start: int
    accepting: frozenset[int]

    __hash__ = None

    @cached_property
    def min_dist(self) -> tuple[int, ...]:
        """Per state, the least word length reaching acceptance."""
        rev: dict[int, set[int]] = {}
        for src, row in self.delta.items():
            for dst in set().union(*row.values()):
                rev.setdefault(dst, set()).add(src)
        dist = _distances_from(self.accepting, rev)
        return tuple(dist.get(q, _INF) for q in range(self.n_states))

    @cached_property
    def _words_over(self) -> dict[frozenset[Symbol], bool]:
        return {}

    def has_word_over(self, labels: frozenset[Symbol]) -> bool:
        """Whether some accepted word reads only labels in labels: whether
        the BFS from the start over the transitions on those labels reaches
        an accepting state.  Kept per label set with the rows."""
        memo = self._words_over
        got = memo.get(labels)
        if got is None:
            adj = {s: [t for label, ts in row.items() if label in labels
                       for t in ts]
                   for s, row in self.delta.items()}
            reached = _distances_from([self.start], adj)
            got = memo[labels] = not self.accepting.isdisjoint(reached)
        return got

    @cached_property
    def subset_dfa(self) -> "SubsetDfa":
        return SubsetDfa(self)

    def step(self, states: frozenset[int], s: Symbol) -> frozenset[int]:
        """The states reached from states on s; subset_dfa keeps each
        result it asks for."""
        out: set[int] = set()
        delta = self.delta
        for st in states:
            row = delta.get(st)
            if row:
                out |= row.get(s, frozenset())
        return frozenset(out)


def _distances_from(seeds, adj) -> dict[int, int]:
    """Breadth-first distances from the seeds along adj, which maps a
    state to its successors; a state out of reach has no entry."""
    dist = dict.fromkeys(seeds, 0)
    queue = deque(dist)
    while queue:
        v = queue.popleft()
        d = dist[v] + 1
        for u in adj.get(v, ()):
            if u not in dist:
                dist[u] = d
                queue.append(u)
    return dist


def compile_nfa(r: Regex, alphabet: Alphabet) -> Nfa:
    """Build the position automaton of r (Glushkov 1961; McNaughton and
    Yamada 1960), then drop the states that are unreachable or cannot
    reach acceptance.

    State 0 is the start and every Lit or Class occurrence is one state,
    entered on its symbols, so there are no epsilon moves.  One post-order
    pass gives each node whether it accepts the empty word and its sets of
    first and last positions, and records which positions may follow
    which.
    """
    labels: list[tuple[Symbol, ...]] = [()]
    follow: list[set[int]] = [set()]
    # (nullable, first, last) of each finished node; a parent consumes its
    # children's sets, so it may grow them in place.
    done: list[tuple[bool, set[int], set[int]]] = []
    for node in post_order(r):
        if isinstance(node, Lit) and node.symbol not in alphabet:
            raise SymbolError(f"literal {node.symbol.name!r} not in alphabet")
        if isinstance(node, (Lit, Class)):
            p = len(labels)
            labels.append((node.symbol,) if isinstance(node, Lit)
                          else tuple(node.symbols))
            follow.append(set())
            done.append((False, {p}, {p}))
        elif isinstance(node, (Empty, Epsilon)):
            done.append((isinstance(node, Epsilon), set(), set()))
        elif isinstance(node, Union):
            rn, rf, rl = done.pop()
            ln, lf, ll = done.pop()
            lf |= rf
            ll |= rl
            done.append((ln or rn, lf, ll))
        elif isinstance(node, Concat):
            rn, rf, rl = done.pop()
            ln, lf, ll = done.pop()
            for p in ll:
                follow[p] |= rf
            if ln:
                lf |= rf
            if rn:
                ll |= rl
            done.append((ln and rn, lf, ll if rn else rl))
        else:  # Star or Plus
            nullable, first, last = done.pop()
            for p in last:
                follow[p] |= first
            done.append((nullable or isinstance(node, Star), first, last))
    nullable, follow[0], last = done.pop()
    accepting = last | {0} if nullable else last

    back: dict[int, list[int]] = {}
    for p, qs in enumerate(follow):
        for q in qs:
            back.setdefault(q, []).append(p)
    keep = sorted((_distances_from([0], dict(enumerate(follow))).keys()
                   & _distances_from(accepting, back).keys()) | {0})
    renum = {old: i for i, old in enumerate(keep)}
    delta: dict[int, dict[Symbol, frozenset[int]]] = {}
    for p in keep:
        row: dict[Symbol, set[int]] = {}
        for q in follow[p] & renum.keys():
            for s in labels[q]:
                row.setdefault(s, set()).add(renum[q])
        if row:
            delta[renum[p]] = {s: frozenset(ts) for s, ts in row.items()}
    return Nfa(alphabet, len(keep), delta, 0,
               frozenset(renum[p] for p in accepting if p in renum))


def recolor_nfa(n: Nfa, color: Color) -> Nfa:
    """The same automaton over one colored copy of a base alphabet: each
    row's symbols repainted, its target sets those of n."""
    # A symbol labels many rows (a position is entered on each of its
    # symbols from every predecessor), so none is colored here: the
    # colored alphabet, built once, lists the green copies in base order,
    # then the red ones.
    base, colored = n.alphabet.symbols, n.alphabet.colored()
    paint = dict(zip(base, colored.symbols[
        0 if color is Color.GREEN else len(base):]))
    return Nfa(colored, n.n_states,
               {q: {paint[s]: ts for s, ts in row.items()}
                for q, row in n.delta.items()},
               n.start, n.accepting)


def accepts(n: Nfa, word: Word) -> bool:
    for s in word:
        if s not in n.alphabet:
            raise ForeignSymbolError(f"symbol {s.name!r} not in alphabet")
    dfa = n.subset_dfa
    q = 0
    for s in word:
        q = dfa.step(q, s)
    return dfa.accepting[q]


def iter_words(n: Nfa, max_len: int):
    """Words of the language with length at most max_len, shortlex order.

    Iterative deepening over the integer states of the Nfa's subset
    automaton, pruned by distance to acceptance.
    """
    dfa = n.subset_dfa
    yield from _shortlex_words(max_len, dfa.min_dist(0), dfa.live_row,
                               dfa.accepting)


def _shortlex_words(max_len: int, start_dist: int, live_row, accepting):
    """Words from state 0 of a deterministic automaton with length at most
    max_len, shortlex order: for each length, a depth-first walk of the
    prefixes that can still reach acceptance in the length left.

    live_row(q) lists (symbol, successor, successor's distance to
    acceptance) in alphabet order; accepting is indexed by state.  The
    walk keeps one iterator over a row per prefix symbol, not one frame,
    and asks for a state's row only when it steps into the state with
    letters still to place.
    """
    for length in range(start_dist, max_len + 1):
        if length == 0:
            if accepting[0]:
                yield ()
            continue
        prefix: list[Symbol] = []
        rows = [iter(live_row(0))]
        while rows:
            left = length - len(prefix)
            for s, t, dist in rows[-1]:
                if dist < left:
                    break
            else:
                rows.pop()
                if prefix:
                    prefix.pop()
                continue
            if left > 1:
                prefix.append(s)
                rows.append(iter(live_row(t)))
            elif accepting[t]:
                yield (*prefix, s)


class SubsetDfa:
    """Rabin–Scott subset construction of one Nfa, built on demand.

    States are ints naming sets of Nfa states; 0 is the start set.  A
    transition is computed the first time it is stepped and then kept.
    """

    def __init__(self, nfa: Nfa):
        self.nfa = nfa
        start = frozenset([nfa.start]) if nfa.n_states else frozenset()
        self._sets = [start]
        self._ids = {start: 0}
        self._next: dict[tuple[int, Symbol], int] = {}
        self._live: dict[int, tuple[tuple[Symbol, int, int], ...]] = {}
        self.accepting = [bool(start & nfa.accepting)]

    def step(self, q: int, s: Symbol) -> int:
        got = self._next.get((q, s))
        if got is None:
            target = self.nfa.step(self._sets[q], s)
            got = self._ids.get(target)
            if got is None:
                got = len(self._sets)
                self._sets.append(target)
                self._ids[target] = got
                self.accepting.append(bool(target & self.nfa.accepting))
            self._next[(q, s)] = got
        return got

    def min_dist(self, q: int) -> int:
        """Least word length from q to acceptance; _INF when none."""
        dist = self.nfa.min_dist
        return min((dist[t] for t in self._sets[q]), default=_INF)

    def live_row(self, q: int) -> tuple[tuple[Symbol, int, int], ...]:
        """(symbol, successor, its min_dist) for every symbol, in alphabet
        order, whose successor can still reach acceptance; kept once
        built."""
        got = self._live.get(q)
        if got is None:
            got = []
            for s in self.nfa.alphabet.symbols:
                t = self.step(q, s)
                d = self.min_dist(t)
                if d < _INF:
                    got.append((s, t, d))
            got = self._live[q] = tuple(got)
        return got


class ProductDfa:
    """Lazy subset construction of a guide automaton minus kill automata.

    Reads words over the guide's alphabet.  The kills read each word
    through one relabelling from that alphabet into theirs (None keeps
    the symbol), so base words can run through automata over colored
    copies.  The product accepts a word when the guide accepts it and no
    kill does.  States are ints, 0 is the start; the row of a state's
    successors, one per alphabet symbol in order, is built the first time
    it is needed.  A state keeps only whether it accepts (``accepting``).

    A row is read off columns: a column is one component's successor, for
    every symbol through that component's labels, from one of its states.
    Each (component, state) column is stepped once per product, the first
    time a row needs it, so many product states that share a component
    state share its steps.  The row zips the columns of its key and
    interns the tuples in symbol order.
    """

    def __init__(self, guide: Nfa, kills, relabel=None):
        self.alphabet = guide.alphabet
        symbols = self.alphabet.symbols
        self._dfas = [n.subset_dfa for n in (guide, *kills)]
        relabelled = symbols if relabel is None else tuple(map(relabel,
                                                               symbols))
        self._labels = [symbols] + [relabelled] * (len(self._dfas) - 1)
        self._columns: list[dict[int, tuple[int, ...]]] = [
            {} for _ in self._dfas]
        self._keys: list[tuple[int, ...]] = []
        self._ids: dict[tuple[int, ...], int] = {}
        self._rows: list[list[int] | None] = []
        self.accepting: list[bool] = []
        self._intern((0,) * len(self._dfas))

    def _intern(self, key: tuple[int, ...]) -> int:
        got = self._ids.get(key)
        if got is None:
            got = len(self._keys)
            self._keys.append(key)
            self._ids[key] = got
            self._rows.append(None)
            dfas = self._dfas
            self.accepting.append(dfas[0].accepting[key[0]] and not any(
                d.accepting[q] for d, q in zip(dfas[1:], key[1:])))
        return got

    def _column(self, i: int, c: int) -> tuple[int, ...]:
        """Component i's successor from its state c on every symbol."""
        columns = self._columns[i]
        got = columns.get(c)
        if got is None:
            step = self._dfas[i].step
            got = columns[c] = tuple(step(c, s) for s in self._labels[i])
        return got

    def row(self, q: int) -> list[int]:
        got = self._rows[q]
        if got is None:
            columns = [self._column(i, c)
                       for i, c in enumerate(self._keys[q])]
            got = self._rows[q] = [self._intern(t) for t in zip(*columns)]
        return got

    def _distances(self, max_len: int) -> list[int]:
        """Per state, the least word length to acceptance within reach of
        words of length at most max_len.

        Breadth-first from the start, a state found at depth d is expanded
        only when d < max_len and its guide can still accept within
        max_len - d, so at most one state per live prefix of the guide is
        built.  Each expansion reads the state's row, so the subset steps
        behind it are those of the columns that its key brings in for the
        first time.  Distances then come from a backward breadth-first
        search over the expanded rows; that is exact for every state a word
        of length at most max_len can pass through with room left.
        """
        guide = self._dfas[0]
        depth = {0: 0}
        frontier = [0]
        rev: dict[int, set[int]] = {}
        while frontier:
            nxt = []
            for q in frontier:
                d = depth[q]
                if d >= max_len or guide.min_dist(self._keys[q][0]) > max_len - d:
                    continue
                for t in self.row(q):
                    rev.setdefault(t, set()).add(q)
                    if t not in depth:
                        depth[t] = d + 1
                        nxt.append(t)
            frontier = nxt
        dist = _distances_from([q for q in depth if self.accepting[q]], rev)
        return [dist.get(q, _INF) for q in range(len(self._keys))]

    def words(self, max_len: int):
        """Accepted words of length at most max_len, shortlex order.

        Iterative deepening over the expanded rows, pruned by exact
        distance to acceptance, so every prefix walked extends to a word
        that is yielded.
        """
        dist = self._distances(max_len)
        symbols = self.alphabet.symbols

        live: dict[int, list[tuple[Symbol, int, int]]] = {}

        def live_row(q: int):
            got = live.get(q)
            if got is None:
                got = live[q] = [(s, t, dist[t])
                                 for s, t in zip(symbols, self._rows[q])
                                 if dist[t] < _INF]
            return got

        yield from _shortlex_words(max_len, dist[0], live_row, self.accepting)


def shortest_word(n: Nfa) -> Word | None:
    """Shortest accepted word, shortlex tie-break; None for the empty
    language.

    The first word of the shortlex walk at the start's distance to
    acceptance: the subset automaton's distances are exact, so that walk
    steps straight down, from each state to the first symbol whose
    successor is one step closer.
    """
    dfa = n.subset_dfa
    dist = dfa.min_dist(0)
    if dist == _INF:
        return None
    return next(_shortlex_words(dist, dist, dfa.live_row, dfa.accepting))
