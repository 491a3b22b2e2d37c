"""Guards for the benchmark tooling under bench/, which reaches into
rpqdet by name, and for the shape of the source under src/rpqdet."""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

from rpqdet import constraints, escape, gadget, rpq
from rpqdet.automata import parse_word
from rpqdet.escape import PlayOutcome, initial_position
from rpqdet.ogtp import all_black_tiling

# run_path compiles the file in memory: nothing is written under bench/.
BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(__file__).resolve().parents[1] / "src" / "rpqdet"
TRACER = runpy.run_path(str(BENCH / "tracer.py"))
TRACED = TRACER["TRACED"]
WORKLOADS = runpy.run_path(str(BENCH / "workloads.py"))["WORKLOADS"]


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


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_one_checked_op(name):
    """The benchmark's calls into rpqdet still work: one op of each
    workload, on the first input of seed 1, passes its check."""
    workload = WORKLOADS[name]
    inputs = workload.inputs(1)
    ready = workload.setup(inputs)
    got = workload.op(ready, inputs[0])
    assert workload.check(ready, inputs[0], got) is None


def test_search_game_op_builds_no_start_automaton(monkeypatch):
    """search-game times the search from the root: requests, minimal
    tables and the summary check.  Its op calls classify_word alone, so
    it must build no ProductDfa; the forcing rule only prunes start_words."""
    built = []
    product_dfa = escape.ProductDfa

    def counted(*args):
        built.append(args)
        return product_dfa(*args)

    monkeypatch.setattr(escape, "ProductDfa", counted)
    workload = WORKLOADS["search-game"]
    inputs = workload.inputs(1)
    ready = workload.setup(inputs)
    got = workload.op(ready, inputs[0])
    assert workload.check(ready, inputs[0], got) is None
    assert built == []


def test_search_game_op_asks_no_loss_test():
    """The bounded search decides a node's loss on its summary graph, and
    a child it grafts never loses on entry, so no node asks holds."""
    workload = WORKLOADS["search-game"]
    inputs = workload.inputs(1)
    ready = workload.setup(inputs)
    with TRACER["Tracer"]() as t:
        got = workload.op(ready, inputs[0])
    assert workload.check(ready, inputs[0], got) is None
    assert t.calls.get("rpq.holds", 0) == 0


def test_explore_asks_no_loss_test(black_reduction):
    """Black at these caps grafts round-one children and searches them
    at round one and two: none asks holds."""
    q0, cs = black_reduction.q0_nfa, black_reduction.constraint_set()
    with TRACER["Tracer"]() as t:
        verdict = escape.explore(q0, cs, escape.Caps(8, 3, 6, 4))
    assert verdict.kind is escape.VerdictKind.NONDETERMINATE
    assert t.calls["escape.classify_word"] >= 1
    assert t.calls.get("rpq.holds", 0) == 0


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
    # q0 is compiled on first use; compile it here, outside the count.
    q0 = two_shade_reduction.q0_nfa
    eg = gadget.decorate(gadget.build_grid(4), all_black_tiling(4))
    with TRACER["Tracer"]() as t:
        assert gadget.check_counterexample(eg.graph, views, q0, eg.a,
                                           eg.b).ok
    assert t.calls["rpq.evaluate"] == 2 * len(views)
    assert t.calls["rpq.holds"] == 2
    assert t.calls["automata.compile_nfa"] == len(views)


def test_check_counterexample_skips_views_a_grid_cannot_match(
        two_shade_reduction, monkeypatch):
    """The all-black 8-grid lacks every grey label, green Warm edge and red
    Cold edge.  Of the 21 evaluate walks with a start vertex, 5 need one
    of those labels in every word, and evaluate skips them."""
    walks = []
    walk = rpq._walk

    def counted(q, g, sources, goal=None):
        sources = list(sources)
        if sources and goal is None:
            walks.append(q)
        return walk(q, g, sources, goal)

    monkeypatch.setattr(rpq, "_walk", counted)
    eg = gadget.decorate(gadget.build_grid(8), all_black_tiling(8))
    report = gadget.check_counterexample(
        eg.graph, two_shade_reduction.views.all_languages(),
        two_shade_reduction.q0_nfa, eg.a, eg.b)
    assert report == gadget.CounterexampleReport(True, ())
    assert len(walks) == 16


@pytest.mark.parametrize("grey_v_cell,ok,goal_walks", [
    (None, True, 1), ((1, 0), False, 2)])
def test_check_counterexample_walks_red_q0_only_where_it_can_match(
        two_shade_reduction, monkeypatch, grey_v_cell, ok, goal_walks):
    """check_counterexample asks holds of green q0 and of red q0.  Every
    red q0 word reads red alpha, a red Cold edge or a grey edge, and the
    all-black 8-grid has none of them, so only the green walk runs; a
    grey vertical cell at (1, 0), where the check fails, lets both run."""
    walks = []
    walk = rpq._walk

    def counted(q, g, sources, goal=None):
        if goal is not None:
            walks.append(q)
        return walk(q, g, sources, goal)

    monkeypatch.setattr(rpq, "_walk", counted)
    t = all_black_tiling(8)
    if grey_v_cell is not None:
        t.v[grey_v_cell] = "grey"
    eg = gadget.decorate(gadget.build_grid(8), t)
    report = gadget.check_counterexample(
        eg.graph, two_shade_reduction.views.all_languages(),
        two_shade_reduction.q0_nfa, eg.a, eg.b)
    assert report.ok == ok
    assert len(walks) == goal_walks


def test_guided_play_evaluates_nothing_from_scratch(black_reduction):
    """run_play answers requests and the loss test from its live position:
    a play on the 4-grid makes no whole-graph evaluation and no graft that
    copies the graph."""
    q0, cs = black_reduction.q0_nfa, black_reduction.constraint_set()
    init = initial_position(parse_word(
        "alpha " + "A-H-C-black B-V-C-black " * 4 + "omega", q0.alphabet))
    model = gadget.decorate(gadget.build_grid(4), all_black_tiling(4)).graph
    h0 = gadget.find_homomorphism(init.graph, model)
    with TRACER["Tracer"]() as t:
        result, _ = escape.run_play(q0, cs, escape.strategy_guided(model, h0),
                                    init, 20)
    assert (result.outcome, result.round) == (PlayOutcome.WON_FIXPOINT, 5)
    assert t.calls["escape.run_play"] == 1
    for name in ("rpq.evaluate", "rpq.holds", "constraints.requests",
                 "constraints.apply_add"):
        assert t.calls.get(name, 0) == 0, name


# Functions allowed to call themselves, each with what bounds its depth.
RECURSION_ALLOWED = {
    # One level per search round: at most --max-rounds deep.
    "escape.ExploreContext._search",
}


def _self_calls(tree: ast.Module, module: str):
    """Qualified names of the functions in tree that call themselves by
    name: f(...) for a function, self.f(...) for a method."""
    found = []

    def calls_itself(fn, in_class: bool) -> bool:
        for call in ast.walk(fn):
            f = getattr(call, "func", None)
            if in_class:
                if (isinstance(f, ast.Attribute) and f.attr == fn.name
                        and isinstance(f.value, ast.Name)
                        and f.value.id == "self"):
                    return True
            elif isinstance(f, ast.Name) and f.id == fn.name:
                return True
        return False

    def visit(node, prefix: str, in_class: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if calls_itself(child, in_class):
                    found.append(f"{prefix}{child.name}")
                visit(child, f"{prefix}{child.name}.", False)
            else:
                visit(child, prefix, in_class)

    visit(tree, f"{module}.", False)
    return found


def test_no_function_in_src_recurses():
    """Inputs reach thousands of symbols, vertices or nesting levels, and
    each recursive call costs a stack frame: walks keep explicit stacks."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _self_calls(ast.parse(path.read_text()), path.stem)
    assert sorted(set(found) - RECURSION_ALLOWED) == []
    assert RECURSION_ALLOWED <= set(found)


def test_only_automata_builds_an_nfa():
    """An Nfa is its transition rows; compile_nfa and recolor_nfa in
    automata.py are the only code that writes them."""
    builders = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            f = getattr(node, "func", None)
            if "Nfa" in (getattr(f, "id", None), getattr(f, "attr", None)):
                builders.add(path.stem)
    assert builders == {"automata"}


SYNTAX_NODES = {"Lit", "Class", "Concat", "Union", "Star", "Plus", "Empty",
                "Epsilon"}


def test_ogtp_builds_no_syntax_tree_by_hand():
    """compile_reduction writes each language in the class-literal syntax
    the reduction file stores and parses it, so ogtp.py calls no syntax-tree
    constructor."""
    called = set()
    for node in ast.walk(ast.parse((SRC / "ogtp.py").read_text())):
        f = getattr(node, "func", None)
        called |= {getattr(f, "id", None), getattr(f, "attr", None)}
    assert called & SYNTAX_NODES == set()


def _json_parses(tree: ast.Module, module: str):
    """The qualified name of the innermost function or class around each
    use of json.load or json.loads, and of each import of them from json;
    the module's own name at top level."""
    found = []

    def parses(node) -> bool:
        if isinstance(node, ast.Attribute):
            return (node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "json")
        return (isinstance(node, ast.ImportFrom) and node.module == "json"
                and any(a.name in ("load", "loads") for a in node.names))

    def visit(node, where: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if parses(child):
                found.append(where)
            visit(child, where)

    visit(tree, module)
    return found


def test_only_load_json_parses_json():
    """Every file format reads its JSON through symbols.load_json, which
    turns a parse error into an error that names the format."""
    probe = ast.parse("import json\nclass C:\n    def f(self, t):\n"
                      "        return json.loads(t)\nfrom json import load\n")
    assert _json_parses(probe, "m") == ["m.C.f", "m"]
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _json_parses(ast.parse(path.read_text()), path.stem)
    assert found == ["symbols.load_json"]


def _imported_names(tree: ast.Module) -> set[str]:
    """Every module path component and imported name of every import in
    tree, at any depth, TYPE_CHECKING blocks included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(p for a in node.names for p in a.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            found.update((node.module or "").split("."))
            found.update(a.name for a in node.names)
    return found


def test_summary_imports_nothing_from_escape():
    """The summary graph reads a search node's graph and nothing of the
    search itself, so summary.py imports escape nowhere."""
    for text in ("from .escape import X", "if T:\n    from . import escape",
                 "import rpqdet.escape"):
        assert "escape" in _imported_names(ast.parse(text))
    tree = ast.parse((SRC / "summary.py").read_text())
    assert "escape" not in _imported_names(tree)
