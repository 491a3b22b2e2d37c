"""The input contract of every CLI verb that reads a file: mutated or
truncated JSON and JSONL end in exit 2 with an ``error:`` line, or in one of
the verb's documented exit codes, and no exception escapes ``main``."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpqdet.automata import parse_word
from rpqdet.cli import main
from rpqdet.escape import (initial_position, run_play, strategy_shortest,
                           trace_to_jsonl)
from rpqdet.gadget import build_grid, decorate
from rpqdet.graphs import endpointed_to_json, graph_to_json
from rpqdet.ogtp import (all_black_tiling, instance_to_json, reduction_to_json,
                         tiling_to_json)

WORD = "alpha A-H-C-black B-V-C-black omega"

# verb -> (argv with {file} placeholders, documented exit codes besides 2)
CASES = {
    "eval": (["eval", "--graph", "{graph}", "--query", "G:omega"], {0}),
    "reduce": (["reduce", "{ogtp}"], {0}),
    "play-scripted": (["play", "{instance}", "--strategy", "scripted",
                       "--trace", "{trace}", "--max-rounds", "3"], {0, 1, 3}),
    "play-guided": (["play", "{instance}", "--strategy", "guided",
                     "--model", "{model}", "--initial-word", WORD,
                     "--max-rounds", "3"], {0, 1, 3}),
    "search": (["search", "{instance}", "--max-initial-len", "4",
                "--max-witness-len", "2", "--max-rounds", "2",
                "--max-branches", "2"], {0, 1, 3}),
    "verify": (["verify", "{model}", "{instance}"], {0, 1}),
    "grid": (["grid", "1", "--tiling", "{tiling}"], {0}),
    "solve-ogtp": (["solve-ogtp", "{ogtp}", "--max-n", "1"], {0, 1}),
}


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def seeds(two_shade_instance, black_reduction):
    """Valid contents for each file placeholder of CASES."""
    word = parse_word(WORD, black_reduction.alphabet)
    _, trace = run_play(black_reduction.q0_nfa,
                        black_reduction.constraint_set(), strategy_shortest(),
                        initial_position(word), 3)
    return {
        "graph": graph_to_json(build_grid(1).graph),
        "ogtp": instance_to_json(two_shade_instance),
        "instance": reduction_to_json(black_reduction),
        "trace": trace_to_jsonl(trace),
        "model": endpointed_to_json(decorate(build_grid(1),
                                             all_black_tiling(1))),
        "tiling": tiling_to_json(all_black_tiling(1)),
    }


def _paths(value, at=()):
    yield at
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _paths(v, at + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _paths(v, at + (i,))


def _strings(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for k, v in items:
            if isinstance(k, str):
                yield k
            yield from _strings(v)


@st.composite
def mutated(draw, text: str, jsonl: bool):
    """text truncated, with one character replaced, or re-serialised after
    one to three values were replaced or deleted; a JSONL text is a list
    of documents, one a line."""
    kind = draw(st.sampled_from(["truncate", "char", "structure"]))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "char":
        i = draw(st.integers(0, len(text) - 1))
        return text[:i] + draw(st.sampled_from('{}[]",:0 x')) + text[i + 1:]
    docs = ([json.loads(ln) for ln in text.splitlines()] if jsonl
            else [json.loads(text)])
    known = sorted(set(_strings(docs)))
    leaves = (st.none() | st.booleans() | st.integers(-2, 3)
              | st.text("abHV,01 -:", max_size=5) | st.sampled_from(known))
    values = st.recursive(
        leaves, lambda kids: st.lists(kids, max_size=3)
        | st.dictionaries(st.sampled_from(known + ["n", "h"]), kids,
                          max_size=3), max_leaves=4)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(docs))))
        if not path:
            continue
        parent = docs
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(values)
        else:
            del parent[path[-1]]
    if jsonl:
        return "".join(json.dumps(d) + "\n" for d in docs)
    return "".join(json.dumps(d, indent=2) + "\n" for d in docs)


@pytest.mark.parametrize("verb", sorted(CASES))
@settings(max_examples=40)
@given(data=st.data())
def test_malformed_files_exit_2_or_a_documented_code(verb, data, seeds, root):
    argv, codes = CASES[verb]
    names = [a[1:-1] for a in argv if a.startswith("{")]
    target = data.draw(st.sampled_from(names), label="mutated file")
    paths = {}
    for name in names:
        text = seeds[name]
        if name == target:
            text = data.draw(mutated(text, jsonl=name == "trace"),
                             label="content")
        paths[name] = root / f"{name}.json"
        paths[name].write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(paths[a[1:-1]]) if a.startswith("{") else a
                     for a in argv])
    if code == 2:
        assert err.getvalue().startswith("error:")
    else:
        assert code in codes, err.getvalue()
