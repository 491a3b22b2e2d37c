"""The benchmark's workloads: seeded inputs, set-up, one op, its reference.

Every workload drives the public functions the CLI verbs call.  A
workload's ``inputs(seed)`` is plain data that depends on the seed alone;
``setup(inputs)`` does what a CLI invocation does before its verdict
(compile the reduction, round-trip it through JSON, compile every
constraint automaton, build the model grids); ``op`` computes one verdict
and ``check`` compares it with the known answer, returning an error
message or None.
"""

from __future__ import annotations

import random
import sys
from itertools import product
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from rpqdet import escape, gadget, ogtp  # noqa: E402
from rpqdet.symbols import sym  # noqa: E402

BLACK = ogtp.OgtpInstance(("black",), frozenset())
BLOCKED = ogtp.OgtpInstance(("black",), frozenset(
    ((d1, "black"), (d2, "black")) for d1 in "HV" for d2 in "HV"))
TWO_SHADE = ogtp.OgtpInstance(("black", "grey"),
                              frozenset({(("H", "black"), ("V", "grey"))}))
INSTANCES = {"black": BLACK, "blocked": BLOCKED, "two-shade": TWO_SHADE}


def prepare(inst: ogtp.OgtpInstance):
    """What a CLI verb does before its verdict: compile, round-trip the
    reduction through JSON, compile every constraint automaton."""
    text = ogtp.reduction_to_json(ogtp.compile_reduction(inst))
    out = ogtp.reduction_from_json(text)
    cs = out.constraint_set()
    for rc in cs:
        rc.lhs_nfa, rc.rhs_nfa
    out.q0_nfa
    return out, cs


def grid_model(m: int, tiling: ogtp.GridTiling):
    return gadget.decorate(gadget.build_grid(m), tiling)


def start_chain(m: int):
    """Initial position of the word alpha (A-H-C-black B-V-C-black)^m omega."""
    word = ((sym("alpha"),)
            + (sym("A-H-C-black"), sym("B-V-C-black")) * m
            + (sym("omega"),))
    return escape.initial_position(word)


class SearchEnum:
    """explore on three reductions; enumeration and the forcing rule."""

    name = "search-enum"
    deadline_s = 60.0
    tail_pct = 80
    caps = {"blocked": (7, 3, 6, 4), "two-shade": (5, 3, 6, 4),
            "black": (8, 3, 6, 4)}
    expected = {"blocked": "ALL_PLAYS_LOSE", "two-shade": "ALL_PLAYS_LOSE",
                "black": "NONDETERMINATE"}

    def inputs(self, seed: int):
        return random.Random(seed).sample(sorted(self.caps), len(self.caps))

    def setup(self, inputs):
        return {key: prepare(INSTANCES[key]) for key in self.caps}

    def op(self, ready, key):
        out, cs = ready[key]
        return escape.explore(out.q0_nfa, cs, escape.Caps(*self.caps[key]))

    def check(self, ready, key, verdict):
        if verdict.kind.value != self.expected[key]:
            return f"{key}: {verdict.kind.value}, expected {self.expected[key]}"
        if verdict.certificate is not None:
            out, _ = ready[key]
            cert = verdict.certificate
            report = gadget.check_counterexample(
                cert.graph, out.views.all_languages(), out.q0_nfa, cert.a, cert.b)
            if not report.ok:
                return f"{key}: certificate rejected: {report.failures}"
        return None


class SearchGame:
    """classify_word on two-shade survivors; game search only."""

    name = "search-game"
    deadline_s = 60.0
    tail_pct = 90
    # max_branches 3, not the CLI's 4: at 4 one word takes 5-6 s, too few
    # per run for a steady median; at 3 it takes about 0.65 s.
    caps = (6, 3, 6, 3)

    def inputs(self, seed: int):
        """One survivor alpha A-H-C-s1 B-V-C-s2 A-H-C-s3 B-V-C-s4 omega per
        (s1, s2) stratum, (s3, s4) drawn by seed, in seeded order."""
        rng = random.Random(seed)
        shades = ("black", "grey")
        words = [(s1, s2) + rng.choice(list(product(shades, repeat=2)))
                 for s1, s2 in product(shades, repeat=2)]
        rng.shuffle(words)
        return words

    def setup(self, inputs):
        out, cs = prepare(TWO_SHADE)
        words = {w: (sym("alpha"), sym(f"A-H-C-{w[0]}"), sym(f"B-V-C-{w[1]}"),
                     sym(f"A-H-C-{w[2]}"), sym(f"B-V-C-{w[3]}"), sym("omega"))
                 for w in inputs}
        return out, cs, words

    def op(self, ready, shades):
        out, cs, words = ready
        ctx = escape.ExploreContext(out.q0_nfa, cs, escape.Caps(*self.caps))
        kind, _ = ctx.classify_word(words[shades])
        return kind

    def check(self, ready, shades, kind):
        if kind != "all_lost":
            return f"{'-'.join(shades)}: {kind}, expected all_lost"
        return None


class GuidedPlay:
    """find_homomorphism, then a guided play to the doubled grid."""

    name = "guided-play"
    deadline_s = 10.0
    tail_pct = 99
    sizes = (2, 3, 4, 5, 6, 8, 12, 16)
    # Sizes whose homomorphism search does not finish (exponential
    # backtracking); the traced run probes them under probe_deadline_s.
    probe_sizes = (7,)
    probe_deadline_s = 1.0
    max_rounds = 20

    def inputs(self, seed: int):
        return random.Random(seed).sample(self.sizes, len(self.sizes))

    def setup(self, inputs):
        out, cs = prepare(BLACK)
        games = {m: (grid_model(m, ogtp.all_black_tiling(m)).graph,
                     start_chain(m)) for m in self.sizes}
        return out, cs, games

    def op(self, ready, m):
        out, cs, games = ready
        model, init = games[m]
        h0 = gadget.find_homomorphism(init.graph, model)
        if h0 is None:
            return None
        result, _ = escape.run_play(out.q0_nfa, cs,
                                    escape.strategy_guided(model, h0), init,
                                    self.max_rounds)
        return result.outcome.value, result.round

    def check(self, ready, m, got):
        want = ("WON_FIXPOINT", m + 1)
        if got != want:
            return f"m={m}: {got}, expected {want}"
        return None

    def probe_inputs(self):
        return [(m, grid_model(m, ogtp.all_black_tiling(m)).graph,
                 start_chain(m).graph) for m in self.probe_sizes]

    def probe_op(self, model, chain):
        return gadget.find_homomorphism(chain, model)


class VerifyGrid:
    """check_counterexample on large two-shade doubled grids."""

    name = "verify-grid"
    deadline_s = 20.0
    tail_pct = 90
    sizes = (16, 32, 48, 64)

    def inputs(self, seed: int):
        """Per size the all-black tiling and one with a single grey cell;
        two sizes get a grey horizontal cell and two a grey vertical one."""
        rng = random.Random(seed)
        kinds = rng.sample(["h", "h", "v", "v"], 4)
        ops = []
        for m, kind in zip(self.sizes, kinds):
            cells = ogtp.h_cells(m) if kind == "h" else ogtp.v_cells(m)
            ops.append((m, None))
            ops.append((m, (kind, rng.choice(cells))))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def tiling(m: int, grey):
        t = ogtp.all_black_tiling(m)
        if grey is not None:
            kind, cell = grey
            (t.h if kind == "h" else t.v)[cell] = "grey"
        return t

    def setup(self, inputs):
        out, cs = prepare(TWO_SHADE)
        grids = {m: gadget.build_grid(m) for m in self.sizes}
        models = {spec: gadget.decorate(grids[spec[0]], self.tiling(*spec))
                  for spec in inputs}
        return out, models

    def op(self, ready, spec):
        out, models = ready
        eg = models[spec]
        return gadget.check_counterexample(eg.graph, out.views.all_languages(),
                                           out.q0_nfa, eg.a, eg.b).ok

    def check(self, ready, spec, ok):
        want = ogtp.check_tiling(TWO_SHADE, self.tiling(*spec))
        if ok != want:
            return (f"m={spec[0]} grey={spec[1]}: report.ok={ok} but "
                    f"check_tiling={want}")
        return None


WORKLOADS = {w.name: w for w in (SearchEnum(), SearchGame(), GuidedPlay(),
                                 VerifyGrid())}
