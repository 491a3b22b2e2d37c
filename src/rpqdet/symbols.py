"""Edge symbols, colors, and ordered alphabets.

A symbol is a string token.  Base tokens are ``alpha``, ``beta``, ``omega``,
or a four-field form ``T-D-K-S`` where T is A or B, D is H or V, K is W or C,
and S is a shade name matching ``[a-z0-9_]+``.  The shade field may be absent
(``T-D-K``), which is the shade-stripped form.  A color prefix ``G:`` or
``R:`` marks the green or red copy of a base symbol.
"""

from __future__ import annotations

import re
from enum import Enum


class WorkbenchError(Exception):
    """Base class for errors raised by this package."""


class SymbolError(WorkbenchError):
    """A token does not match the symbol grammar."""


class FormatError(WorkbenchError):
    """A JSON document lacks a key or holds a value of the wrong type."""


def expect(value, kind: type, what: str):
    """value if it is an instance of kind, else FormatError naming what."""
    if not isinstance(value, kind):
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


class Symbol:
    """Interned edge symbol.  Compare and hash by token name."""

    __slots__ = ("name", "color", "base", "tag", "direction", "temperature",
                 "shade", "_hash")

    _pool: dict[str, "Symbol"] = {}

    def __new__(cls, name: str) -> "Symbol":
        cached = cls._pool.get(name)
        if cached is not None:
            return cached
        self = super().__new__(cls)
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
        self.name = name
        self.color = color
        self.base = base
        self.tag = tag
        self.direction = direction
        self.temperature = temperature
        self.shade = shade
        self._hash = hash(name)
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

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Symbol) and self.name == other.name)

    def __hash__(self) -> int:
        return self._hash

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
    return " ".join(s.name for s in word)


def word_colored(word: Word, color: Color) -> Word:
    return tuple(s.colored(color) for s in word)


def _canonical_key(s: Symbol) -> tuple:
    color_rank = {None: 0, Color.GREEN: 1, Color.RED: 2}[s.color]
    if s.is_sigma0:
        return (color_rank, 1, s.tag, s.direction,
                0 if s.temperature == "W" else 1, s.shade or "")
    return (color_rank, 0, SPECIALS.index(s.base))


class Alphabet:
    """Finite ordered set of symbols; declaration order drives shortlex."""

    __slots__ = ("symbols", "_index")

    def __init__(self, symbols):
        seen = []
        index: dict[Symbol, int] = {}
        for s in symbols:
            if not isinstance(s, Symbol):
                s = Symbol(s)
            if s in index:
                raise SymbolError(f"duplicate symbol in alphabet: {s.name}")
            index[s] = len(seen)
            seen.append(s)
        self.symbols = tuple(seen)
        self._index = index

    @classmethod
    def from_canonical(cls, symbols) -> "Alphabet":
        """Build with symbols sorted canonically, not by declaration order."""
        uniq = {Symbol(s) if not isinstance(s, Symbol) else s for s in symbols}
        return cls(sorted(uniq, key=_canonical_key))

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

    def shades(self) -> tuple[str, ...]:
        out: list[str] = []
        for s in self.symbols:
            if s.shade is not None and s.shade not in out:
                out.append(s.shade)
        return tuple(out)

    def colored(self) -> "Alphabet":
        """Green copies of every symbol, then red copies, in base order."""
        if any(s.color is not None for s in self.symbols):
            raise SymbolError("alphabet is already colored")
        greens = [s.colored(Color.GREEN) for s in self.symbols]
        reds = [s.colored(Color.RED) for s in self.symbols]
        return Alphabet(greens + reds)
