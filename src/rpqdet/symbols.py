"""Edge symbols, colors, and ordered alphabets.

A symbol is a string token.  Base tokens are ``alpha``, ``beta``, ``omega``,
or a four-field form ``T-D-K-S`` where T is A or B, D is H or V, K is W or C,
and S is a shade name matching ``[a-z0-9_]+``.  The shade field may be absent
(``T-D-K``), which is the shade-stripped form.  A color prefix ``G:`` or
``R:`` marks the green or red copy of a base symbol.
"""

from __future__ import annotations

import json
import re
from enum import Enum


class WorkbenchError(Exception):
    """Base class for errors raised by this package."""


class SymbolError(WorkbenchError):
    """A token does not match the symbol grammar."""


class FormatError(WorkbenchError):
    """A JSON document does not parse, lacks a key or holds a value of the
    wrong type."""


def load_json(text: str, error: type[WorkbenchError], what: str):
    """The JSON document in text; error, naming what, when it does not
    parse.  Every file format reads its JSON through here."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise error(f"bad {what} JSON: {e}") from None


def expect(value, kind: type, what: str):
    """value if it is an instance of kind, else FormatError naming what.
    JSON true and false are never accepted, though bool subclasses int."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise FormatError(f"{what} must be a JSON {_JSON_NAMES[kind]}, "
                          f"got {value!r}")
    return value


def expect_key(obj: dict, key: str, kind: type, what: str):
    """obj[key] checked by expect; a missing key is a FormatError too."""
    if key not in obj:
        raise FormatError(f"{what} lacks the key {key!r}")
    return expect(obj[key], kind, f"{what} {key!r}")


def expect_items(value, kinds: tuple[type, ...], what: str) -> tuple:
    """value as a tuple if it is a JSON array with one entry per kind, each
    checked by expect; else FormatError naming what."""
    if len(expect(value, list, what)) != len(kinds):
        raise FormatError(f"{what} must have {len(kinds)} entries, "
                          f"got {value!r}")
    return tuple(expect(v, k, what) for v, k in zip(value, kinds))


_JSON_NAMES = {dict: "object", list: "array", str: "string", int: "integer"}


class Color(Enum):
    GREEN = "G"
    RED = "R"

    def __repr__(self) -> str:
        return self.name


SPECIALS = ("alpha", "beta", "omega")

_SIGMA0_RE = re.compile(r"([AB])-([HV])-([WC])(?:-([a-z0-9_]+))?\Z")


class Symbol(str):
    """Interned edge symbol: a str equal to its token, so it compares,
    hashes and sorts as the token does."""

    _pool: dict[str, "Symbol"] = {}

    def __new__(cls, name: str) -> "Symbol":
        cached = cls._pool.get(name)
        if cached is not None:
            return cached
        color = None
        base = name
        if name.startswith("G:"):
            color, base = Color.GREEN, name[2:]
        elif name.startswith("R:"):
            color, base = Color.RED, name[2:]
        tag = direction = temperature = shade = None
        if base not in SPECIALS:
            m = _SIGMA0_RE.match(base)
            if m is None:
                raise SymbolError(f"bad symbol token: {name!r}")
            tag, direction, temperature, shade = m.groups()
        self = super().__new__(cls, name)
        self.name = name
        self.color = color
        self.base = base
        self.tag = tag
        self.direction = direction
        self.temperature = temperature
        self.shade = shade
        cls._pool[name] = self
        return self

    @property
    def is_sigma0(self) -> bool:
        return self.tag is not None

    def colored(self, color: Color) -> "Symbol":
        """The ``color`` copy of this symbol's base."""
        return Symbol(f"{color.value}:{self.base}")

    def uncolored(self) -> "Symbol":
        return Symbol(self.base)

    def stripped(self) -> "Symbol":
        """Drop the shade field; non-grid symbols are unchanged."""
        if self.shade is None:
            return self
        prefix = f"{self.color.value}:" if self.color else ""
        return Symbol(f"{prefix}{self.tag}-{self.direction}-{self.temperature}")

    def __repr__(self) -> str:
        return self.name

    def __reduce__(self):
        # Unpickling goes through Symbol(name), so a symbol sent to or from
        # a worker process becomes the receiver's interned instance.
        return Symbol, (self.name,)


def sym(name: str) -> Symbol:
    return Symbol(name)


Word = tuple[Symbol, ...]


def format_word(word: Word) -> str:
    return " ".join(word)


class Alphabet:
    """Finite ordered set of symbols; declaration order drives shortlex."""

    __slots__ = ("symbols", "_index", "_colored")

    def __init__(self, symbols):
        seen = []
        index: dict[Symbol, int] = {}
        for s in map(Symbol, symbols):
            if s in index:
                raise SymbolError(f"duplicate symbol in alphabet: {s.name}")
            index[s] = len(seen)
            seen.append(s)
        self.symbols = tuple(seen)
        self._index = index
        self._colored = None

    def index(self, s: Symbol) -> int:
        try:
            return self._index[s]
        except KeyError:
            raise SymbolError(f"symbol {s.name!r} not in alphabet") from None

    def __contains__(self, s: Symbol) -> bool:
        return s in self._index

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({[s.name for s in self.symbols]})"

    def word_key(self, word: Word) -> tuple[int, ...]:
        """Shortlex comparison key: length first, then symbol positions."""
        idx = self._index
        return (len(word), *[idx[s] for s in word])

    def sigma0(self, color: Color | None = None) -> tuple[Symbol, ...]:
        """The four-field fragment, optionally restricted to one color."""
        return tuple(s for s in self.symbols
                     if s.is_sigma0 and (color is None or s.color is color))

    def colored(self) -> "Alphabet":
        """Green copies of every symbol, then red copies, in base order;
        built once per alphabet, since every recolored automaton asks."""
        if self._colored is None:
            if any(s.color is not None for s in self.symbols):
                raise SymbolError("alphabet is already colored")
            greens = [s.colored(Color.GREEN) for s in self.symbols]
            reds = [s.colored(Color.RED) for s in self.symbols]
            self._colored = Alphabet(greens + reds)
        return self._colored
