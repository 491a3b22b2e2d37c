"""Span tracer that times calls into the rpqdet layers from outside.

Installing a Tracer wraps each listed function and rebinds the wrapper in
every loaded ``rpqdet`` module that holds the original under some name,
so calls made through aliases such as ``escape.holds`` or
``constraints.evaluate`` are recorded too.  Each call becomes a span
(name, start, end, parent) kept in flat arrays; a generator function is
timed step by step, one span per ``next``.  Uninstalling puts every
original back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, attribute) of every traced function; "Class.method" names a
# method, recorded under the method name.
TRACED = (
    ("ogtp", "compile_reduction"),
    ("ogtp", "reduction_from_json"),
    ("automata", "parse_regex"),
    ("automata", "compile_nfa"),
    ("automata", "iter_words"),
    ("automata", "accepts"),
    ("rpq", "holds"),
    ("rpq", "evaluate"),
    ("rpq", "find_witness"),
    ("constraints", "requests"),
    ("constraints", "apply_add"),
    ("constraints", "satisfied"),
    ("graphs", "graph_union"),
    ("escape", "explore"),
    ("escape", "ExploreContext.classify_word"),
    ("escape", "run_play"),
    ("gadget", "find_homomorphism"),
    ("gadget", "check_counterexample"),
)
GENERATORS = {"automata.iter_words"}

# Work counters kept beside the spans: counter name -> (span name, how the
# call's result adds to it).
RESULT_COUNTERS = {
    "constraints.requests.open": ("constraints.requests", len),
    "graphs.graph_union.edges": ("graphs.graph_union", lambda g: len(g.edges)),
}


class DeadlineExceeded(Exception):
    """Raised inside an op that overran its deadline; a traced call it
    interrupts counts in ``<name>.timeouts``."""


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self._rebound: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int) -> None:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())

    def exit(self) -> None:
        t = time.perf_counter()
        self.end[self.stack.pop()] = t

    def unwind(self, depth: int) -> None:
        """Close spans left open by an exception that skipped their exit."""
        t = time.perf_counter()
        while len(self.stack) > depth:
            self.end[self.stack.pop()] = t

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def mark(self) -> int:
        """Index of the next span; slices the spans into phases."""
        return len(self.start)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        nid = self.name_id(name)
        post = [(key, f) for key, (owner, f) in RESULT_COUNTERS.items()
                if owner == name]
        timeout_key = f"{name}.timeouts"

        if name in GENERATORS:
            words_key = f"{name}.words"

            def stepped(gen):
                try:
                    while True:
                        tracer.enter(nid)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer.exit()
                        tracer.count(words_key)
                        yield item
                finally:
                    gen.close()

            def wrapper(*args, **kwargs):
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                return stepped(fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.enter(nid)
                try:
                    out = fn(*args, **kwargs)
                except DeadlineExceeded:
                    tracer.count(timeout_key)
                    raise
                finally:
                    tracer.exit()
                for key, f in post:
                    tracer.count(key, f(out))
                return out

        functools.update_wrapper(wrapper, fn)
        wrapper._bench_traced = True
        return wrapper

    def install(self) -> None:
        """Wrap every traced function and rebind it wherever rpqdet holds it."""
        if self._rebound:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "rpqdet" or key.startswith("rpqdet."))]
        for module, attr in TRACED:
            name = span_name(module, attr)
            home = sys.modules[f"rpqdet.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._rebound.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._rebound.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        """Put every original function back, in reverse order of rebinding."""
        while self._rebound:
            owner, key, orig = self._rebound.pop()
            setattr(owner, key, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as a JSON header line, then the four raw arrays."""
        header = {"names": self.names, "count": len(self.start),
                  "arrays": ["name_of:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)


def self_times(name_of, parent, start, end, lo: int = 0,
               hi: int | None = None) -> dict:
    """Per span name: (span count, summed self time) over spans lo..hi.

    The four sequences hold one entry per span; parent is an absolute span
    index, or -1 at top level.  A span's self time is its duration minus
    the durations of its direct children; a child whose parent lies before
    lo is charged to nothing.
    """
    hi = len(start) if hi is None else hi
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        p = parent[i]
        if p >= lo:
            child[p - lo] += end[i] - start[i]
    out: dict = {}
    for i in range(lo, hi):
        key = name_of[i]
        n, t = out.get(key, (0, 0.0))
        out[key] = (n + 1, t + (end[i] - start[i]) - child[i - lo])
    return out


def outer_with_descendant(name_of, parent, outer, inner, lo: int = 0,
                          hi: int | None = None) -> int:
    """How many spans named outer, among lo..hi, have an inner span below."""
    hi = len(name_of) if hi is None else hi
    hit = set()
    for i in range(lo, hi):
        if name_of[i] != inner:
            continue
        p = parent[i]
        while p >= lo:
            if name_of[p] == outer:
                hit.add(p)
                break
            p = parent[p]
    return len(hit)
