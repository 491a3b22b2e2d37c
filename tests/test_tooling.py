"""Guards for the benchmark tooling under bench/, which reaches into
rpqdet by name."""

import importlib
import runpy
from pathlib import Path

import pytest

from rpqdet import constraints, gadget
from rpqdet.automata import parse_word
from rpqdet.escape import initial_position
from rpqdet.ogtp import all_black_tiling

# run_path compiles the file in memory: nothing is written under bench/.
TRACER = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "bench" / "tracer.py"))
TRACED = TRACER["TRACED"]


@pytest.mark.parametrize("module,attr", TRACED,
                         ids=[f"{m}.{a}" for m, a in TRACED])
def test_every_traced_function_resolves(module, attr):
    home = importlib.import_module(f"rpqdet.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        fn = vars(getattr(home, cls_name))[meth]
    else:
        fn = getattr(home, attr)
    assert callable(fn)


def test_tracer_charges_the_rpq_layers(black_reduction):
    """requests and check_counterexample reach evaluate and holds through
    the module names the tracer rebinds."""
    word = parse_word("alpha A-H-C-black B-V-C-black omega",
                      black_reduction.q0_nfa.alphabet)
    chain = initial_position(word).graph
    eg = gadget.decorate(gadget.build_grid(4), all_black_tiling(4))
    with TRACER["Tracer"]() as t:
        assert constraints.requests(black_reduction.constraint_set(), chain)
        assert gadget.check_counterexample(
            eg.graph, black_reduction.views.all_languages(),
            black_reduction.q0_nfa, eg.a, eg.b).ok
    assert t.calls["rpq.evaluate"] > 0
    assert t.calls["rpq.holds"] > 0


def test_check_counterexample_evaluates_each_automaton_once(
        two_shade_reduction):
    """The two arrows of a view share their automata and requests()
    evaluates each once: two evaluate calls and one compile per view."""
    views = two_shade_reduction.views.all_languages()
    eg = gadget.decorate(gadget.build_grid(4), all_black_tiling(4))
    with TRACER["Tracer"]() as t:
        assert gadget.check_counterexample(
            eg.graph, views, two_shade_reduction.q0_nfa, eg.a, eg.b).ok
    assert t.calls["rpq.evaluate"] == 2 * len(views)
    assert t.calls["rpq.holds"] == 2
    assert t.calls["automata.compile_nfa"] == len(views)
