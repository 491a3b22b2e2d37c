import io
import json
from time import monotonic

import pytest

from oracles import explore_immutable
from rpqdet import cli
from rpqdet.cli import _SEARCH_BATCH, main
from rpqdet.escape import Caps, ExploreContext
from rpqdet.gadget import build_grid, decorate
from rpqdet.graphs import endpointed_to_json, graph_from_json
from rpqdet.ogtp import (
    all_black_tiling,
    instance_to_json,
    reduction_from_json,
    reduction_to_json,
    tiling_to_json,
)


@pytest.fixture(scope="module")
def files(tmp_path_factory, black_instance, black_reduction, blocked_instance):
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "ogtp": root / "black.json",
        "blocked": root / "blocked.json",
        "instance": root / "instance.json",
        "grid2": root / "grid2.json",
        "model2": root / "model2.json",
    }
    paths["ogtp"].write_text(instance_to_json(black_instance))
    paths["blocked"].write_text(instance_to_json(blocked_instance))
    paths["instance"].write_text(reduction_to_json(black_reduction))
    paths["grid2"].write_text(endpointed_to_json(build_grid(2)))
    paths["model2"].write_text(endpointed_to_json(
        decorate(build_grid(2), all_black_tiling(2))))
    paths["root"] = root
    return paths


# --------------------------------------------------------------------------
# eval


def test_eval_grid_end_marker(files, capsys):
    code = main(["eval", "--graph", str(files["grid2"]), "--query", "G:omega"])
    assert code == 0
    assert capsys.readouterr().out == "v_2_2 b\n"


def test_eval_empty_result(files, capsys):
    code = main(["eval", "--graph", str(files["grid2"]),
                 "--query", "G:omega G:omega"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_eval_bad_regex_exits_2(files, capsys):
    code = main(["eval", "--graph", str(files["grid2"]), "--query", "G:omega +"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "position" in err


def test_eval_long_flat_query(files, capsys):
    graph = files["root"] / "cycle.json"
    graph.write_text(json.dumps({"vertices": ["u", "v"], "edges": [
        {"src": "u", "label": "G:alpha", "dst": "v"},
        {"src": "v", "label": "G:alpha", "dst": "u"}]}))
    code = main(["eval", "--graph", str(graph),
                 "--query", " ".join(["G:alpha"] * 3000)])
    assert code == 0
    assert capsys.readouterr().out == "u u\nv v\n"


def test_eval_deeply_nested_graph_json_exits_2(files, capsys):
    graph = files["root"] / "deep.json"
    graph.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["eval", "--graph", str(graph), "--query", "G:alpha"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "nested too deeply" in err


# --------------------------------------------------------------------------
# reduce


def test_reduce_writes_deterministic_instance(files, capsys, black_reduction):
    out = files["root"] / "reduced.json"
    assert main(["reduce", str(files["ogtp"]), "--out", str(out)]) == 0
    first = out.read_text()
    assert main(["reduce", str(files["ogtp"]), "--out", str(out)]) == 0
    assert out.read_text() == first
    red = reduction_from_json(first)
    assert len(red.views.good) == 8
    assert len(red.views.bad) == 2
    assert len(red.views.ugly) == 2
    assert first == reduction_to_json(black_reduction)


def test_reduce_malformed_instance_exits_2(files, capsys):
    bad = files["root"] / "bad_ogtp.json"
    bad.write_text(json.dumps({"shades": ["grey"], "forbidden": []}))
    assert main(["reduce", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------------------
# play


def test_play_guided_reaches_fixpoint_at_round_three(files, capsys):
    code = main(["play", str(files["instance"]), "--strategy", "guided",
                 "--model", str(files["model2"]),
                 "--initial-word",
                 "alpha A-H-C-black B-V-C-black A-H-C-black B-V-C-black omega"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "WON_FIXPOINT round=3"


def test_play_warm_initial_word_loses(files, capsys):
    code = main(["play", str(files["instance"]),
                 "--initial-word", "alpha A-H-W-black omega"])
    assert code == 1
    out = capsys.readouterr().out
    assert out.startswith("LOST round=")
    assert int(out.strip().rsplit("=", 1)[1]) <= 2


def test_play_rejects_words_outside_q0(files, capsys):
    code = main(["play", str(files["instance"]),
                 "--initial-word", "alpha omega"])
    assert code == 2
    assert "not in the q0 language" in capsys.readouterr().err


def test_play_initial_cap_zero_is_a_cap_not_an_absent_flag(files, capsys):
    code = main(["play", str(files["instance"]), "--initial-cap", "0"])
    assert code == 2
    assert "q0 has no word within length 0" in capsys.readouterr().err


def flat_view(files):
    """An instance whose one view is a 3,000-letter word."""
    instance = files["root"] / "flat_view.json"
    instance.write_text(json.dumps({
        "alphabet": ["alpha", "beta", "omega"], "q0": "alpha omega",
        "views": {"good": [" ".join(["alpha"] * 3000)]}}))
    return instance


def test_play_on_a_long_flat_view(files, capsys):
    instance = flat_view(files)
    code = main(["play", str(instance), "--initial-word", "alpha omega"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "WON_FIXPOINT round=0"


def test_play_scripted_replay_is_byte_identical(files, capsys):
    t1 = files["root"] / "t1.jsonl"
    code = main(["play", str(files["instance"]),
                 "--initial-cap", "4", "--out", str(t1)])
    assert code in (0, 1, 3)
    first = t1.read_text()
    t2 = files["root"] / "t2.jsonl"
    code = main(["play", str(files["instance"]), "--strategy", "scripted",
                 "--trace", str(t1), "--out", str(t2)])
    assert t2.read_text() == first
    capsys.readouterr()


# --------------------------------------------------------------------------
# search and verify


def test_search_finds_and_verify_accepts_a_certificate(files, capsys):
    cert = files["root"] / "cert.json"
    code = main(["search", str(files["instance"]), "--max-initial-len", "4",
                 "--max-witness-len", "3", "--max-rounds", "6",
                 "--max-branches", "4", "--out", str(cert)])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "NONDETERMINATE"
    code = main(["verify", str(cert), str(files["instance"])])
    assert code == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_search_parallel_matches_serial(files, capsys, two_shade_reduction):
    cert = files["root"] / "cert_serial.json"
    assert main(["search", str(files["instance"]), "--max-initial-len", "4",
                 "--out", str(cert)]) == 0
    cert2 = files["root"] / "cert_jobs.json"
    assert main(["search", str(files["instance"]), "--max-initial-len", "4",
                 "--jobs", "2", "--out", str(cert2)]) == 0
    assert cert2.read_text() == cert.read_text()
    # The first start word wins in milliseconds, and the fourth runs for
    # minutes: the worker stops its batch at the win.
    cert3 = files["root"] / "cert_jobs_long.json"
    assert main(["search", str(files["instance"]), "--max-initial-len", "10",
                 "--jobs", "2", "--out", str(cert3)]) == 0
    assert cert3.read_text() == cert.read_text()
    capsys.readouterr()
    # Two-shade at length 10 has 340 surviving start words: several
    # batches per worker.
    two_shade = files["root"] / "two_shade_instance.json"
    two_shade.write_text(reduction_to_json(two_shade_reduction))
    ctx = ExploreContext(two_shade_reduction.q0_nfa,
                         two_shade_reduction.constraint_set(), Caps(10, 3, 6, 4))
    assert len(list(ctx.start_words())) > 4 * _SEARCH_BATCH
    assert main(["search", str(two_shade), "--max-initial-len", "10",
                 "--jobs", "2"]) == 1
    assert capsys.readouterr().out == "ALL_PLAYS_LOSE\n"


class _InProcessPool:
    """A stand-in for multiprocessing.Pool that runs the workers' tasks in
    this process and records the worker count it was asked for."""

    asked: list[int] = []

    def __init__(self, processes, initializer, initargs):
        self.asked.append(processes)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("cpus, asked", [(2, [2]), (1, []), (None, [])])
def test_search_jobs_start_no_more_workers_than_cpus(files, capsys,
                                                     monkeypatch, cpus,
                                                     asked):
    # No process is started: Pool and os.cpu_count are stand-ins.  One CPU,
    # or none reported, searches in process.
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(cli, "Pool", _InProcessPool)
    monkeypatch.setattr(cli, "_SEARCH_CTX", None)
    monkeypatch.setattr(_InProcessPool, "asked", [])
    certs = []
    for jobs in ("1", "500"):
        certs.append(files["root"] / f"cert_cpus_{cpus}_jobs_{jobs}.json")
        assert main(["search", str(files["instance"]), "--max-initial-len",
                     "4", "--jobs", jobs, "--out", str(certs[-1])]) == 0
    assert _InProcessPool.asked == asked
    assert certs[0].read_text() == certs[1].read_text()
    assert capsys.readouterr().out == "NONDETERMINATE\n" * 2


def test_search_prints_the_certificate_it_would_write(files, capsys):
    cert = files["root"] / "cert_written.json"
    argv = ["search", str(files["instance"]), "--max-initial-len", "4"]
    assert main(argv + ["--out", str(cert)]) == 0
    assert capsys.readouterr().out == "NONDETERMINATE\n"
    assert main(argv) == 0
    assert capsys.readouterr().out == "NONDETERMINATE\n" + cert.read_text()


def test_search_round_starved_is_inconclusive(files, capsys):
    code = main(["search", str(files["instance"]), "--max-initial-len", "4",
                 "--max-rounds", "1"])
    assert code == 3
    assert capsys.readouterr().out.strip() == "INCONCLUSIVE"


def test_search_blocked_instance_all_plays_lose(files, capsys):
    reduced = files["root"] / "blocked_instance.json"
    assert main(["reduce", str(files["blocked"]), "--out", str(reduced)]) == 0
    code = main(["search", str(reduced), "--max-initial-len", "4"])
    assert code == 1
    assert capsys.readouterr().out.strip() == "ALL_PLAYS_LOSE"


def test_a_misspelled_view_group_exits_2(files, capsys):
    """A view group other than good, bad and ugly is refused by name, not
    read as no views, which made search print NONDETERMINATE."""
    reduced = files["root"] / "blocked_misspelled.json"
    assert main(["reduce", str(files["blocked"]), "--out", str(reduced)]) == 0
    doc = json.loads(reduced.read_text())
    doc["views"]["Bad"] = doc["views"].pop("bad")
    reduced.write_text(json.dumps(doc))
    capsys.readouterr()
    for argv in (["search", str(reduced), "--max-initial-len", "6"],
                 ["play", str(reduced), "--initial-cap", "4"],
                 ["verify", str(files["model2"]), str(reduced)]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and "'Bad'" in err


def test_search_two_shade_at_the_default_caps(files, two_shade_instance,
                                              capsys):
    tiling = files["root"] / "two_shade.json"
    tiling.write_text(instance_to_json(two_shade_instance))
    reduced = files["root"] / "two_shade_instance.json"
    assert main(["reduce", str(tiling), "--out", str(reduced)]) == 0
    start = monotonic()
    code = main(["search", str(reduced)])
    assert monotonic() - start < 20
    assert code == 1
    assert capsys.readouterr().out.strip() == "ALL_PLAYS_LOSE"
    # The all-black tiling solves the instance; eight branches reach it.
    cert = files["root"] / "two_shade_cert.json"
    assert main(["search", str(reduced), "--max-branches", "8",
                 "--out", str(cert)]) == 0
    assert capsys.readouterr().out.strip() == "NONDETERMINATE"
    out = reduction_from_json(reduced.read_text())
    want = explore_immutable(out.q0_nfa, out.constraint_set(),
                             Caps(8, 3, 6, 8))
    assert cert.read_text() == endpointed_to_json(want.certificate)
    assert main(["verify", str(cert), str(reduced)]) == 0
    assert capsys.readouterr().out.strip() == "OK"


@pytest.mark.parametrize("name", ["two_shade", "blocked"])
def test_search_at_initial_length_twelve(files, name, request, capsys):
    # Every survivor here is decided without grafting, on the summary graph
    # of its start position; grafting each minimal combination took 117 s
    # on two-shade and 45 s on blocked.
    tiling = files["root"] / f"{name}_frontier.json"
    tiling.write_text(instance_to_json(
        request.getfixturevalue(f"{name}_instance")))
    reduced = files["root"] / f"{name}_frontier_instance.json"
    assert main(["reduce", str(tiling), "--out", str(reduced)]) == 0
    capsys.readouterr()
    start = monotonic()
    code = main(["search", str(reduced), "--max-initial-len", "12"])
    assert monotonic() - start < 30
    assert code == 1
    assert capsys.readouterr().out == "ALL_PLAYS_LOSE\n"


def test_verify_reports_the_failing_condition(files, capsys):
    doc = json.loads(files["model2"].read_text())
    doc["edges"] = [e for e in doc["edges"] if e["label"] != "G:omega"]
    broken = files["root"] / "broken.json"
    broken.write_text(json.dumps(doc))
    code = main(["verify", str(broken), str(files["instance"])])
    assert code == 1
    out = capsys.readouterr().out
    assert "G(Q0) fails" in out


def test_search_and_verify_on_a_long_flat_view(files, capsys):
    instance = flat_view(files)
    cert = files["root"] / "flat_view_cert.json"
    assert main(["search", str(instance), "--out", str(cert)]) == 0
    assert capsys.readouterr().out.strip() == "NONDETERMINATE"
    assert main(["verify", str(cert), str(instance)]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_verify_a_failing_certificate_on_a_long_flat_view(files, capsys):
    instance = flat_view(files)
    cert = files["root"] / "flat_view_bad_cert.json"
    cert.write_text(json.dumps({
        "vertices": ["a", "b"],
        "edges": [{"src": "a", "label": "G:alpha", "dst": "a"},
                  {"src": "a", "label": "G:alpha", "dst": "b"},
                  {"src": "b", "label": "G:omega", "dst": "b"}],
        "a": "a", "b": "b"}))
    assert main(["verify", str(cert), str(instance)]) == 1
    green, red = (" ".join([f"{c}:alpha"] * 3000) for c in "GR")
    assert capsys.readouterr().out.splitlines() == [
        f"views fail: constraint 0 ({green} -> {red}) not satisfied"]


# --------------------------------------------------------------------------
# Inputs as long as the flat view: word walks, the homomorphism search and
# the regex parser go one step per symbol, vertex or parenthesis without
# recursing.


def long_chain(files):
    """q0 is 1,500 alpha then omega, and the one view is omega."""
    instance = files["root"] / "long_chain.json"
    instance.write_text(json.dumps({
        "alphabet": ["alpha", "beta", "omega"],
        "q0": " ".join(["alpha"] * 1500 + ["omega"]),
        "views": {"good": ["omega"]}}))
    return instance


def test_search_with_a_witness_cap_past_the_flat_view(files, capsys):
    instance = flat_view(files)
    cert = files["root"] / "flat_view_long_cert.json"
    assert main(["search", str(instance), "--max-witness-len", "3500",
                 "--max-branches", "1", "--out", str(cert)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "NONDETERMINATE"
    assert main(["verify", str(cert), str(instance)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "OK"


def test_search_on_a_long_q0_word(files, capsys):
    code = main(["search", str(long_chain(files)),
                 "--max-initial-len", "2000"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "NONDETERMINATE"


def test_play_guided_maps_a_long_chain_into_its_model(files, capsys):
    instance = files["root"] / "long_guided.json"
    instance.write_text(json.dumps({
        "alphabet": ["alpha", "beta", "omega"], "q0": "alpha^+ omega",
        "views": {"good": ["alpha", "omega"]}}))
    model = files["root"] / "long_guided_model.json"
    model.write_text(json.dumps({"vertices": ["u", "v", "z"], "edges": [
        {"src": src, "label": f"{c}:{label}", "dst": dst}
        for src, label, dst in (("u", "alpha", "v"), ("v", "alpha", "v"),
                                ("v", "omega", "z"))
        for c in "GR"]}))
    code = main(["play", str(instance), "--strategy", "guided",
                 "--model", str(model),
                 "--initial-word", " ".join(["alpha"] * 1500 + ["omega"])])
    assert code == 1
    assert capsys.readouterr().out.splitlines()[0] == "LOST round=1"


def test_play_from_a_long_initial_cap(files, capsys):
    code = main(["play", str(long_chain(files)), "--initial-cap", "2000"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "WON_FIXPOINT round=1"


def test_eval_deeply_parenthesized_query(files, capsys):
    graph = files["root"] / "one_edge.json"
    graph.write_text(json.dumps({"vertices": ["u", "v"], "edges": [
        {"src": "u", "label": "G:alpha", "dst": "v"}]}))
    code = main(["eval", "--graph", str(graph),
                 "--query", "(" * 3000 + "G:alpha" + ")" * 3000])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "u v"


def test_verify_takes_no_out_flag(files, capsys):
    with pytest.raises(SystemExit) as e:
        main(["verify", str(files["model2"]), str(files["instance"]),
              "--out", str(files["root"] / "unused.txt")])
    assert e.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eval", "--graph", "g.json", "--query", "G:omega"],
    ["reduce", "i.json"],
    ["play", "i.json"],
    ["verify", "g.json", "i.json"],
    ["grid", "1"],
    ["solve-ogtp", "i.json"],
])
def test_only_search_takes_jobs(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv + ["--jobs", "2"])
    assert e.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["search", "i.json", "--jobs", "0"],
    ["search", "i.json", "--jobs", "-1"],
    ["play", "i.json", "--max-rounds", "-1"],
    ["solve-ogtp", "i.json", "--max-n", "0"],
    ["solve-ogtp", "i.json", "--max-n", "-1"],
    ["search", "i.json", "--max-initial-len", "0"],
    ["search", "i.json", "--max-witness-len", "0"],
    ["search", "i.json", "--max-rounds", "0"],
    ["search", "i.json", "--max-branches", "0"],
    ["search", "i.json", "--max-branches", "-1"],
])
def test_a_bound_out_of_range_exits_2_before_the_verb_runs(argv, capsys):
    # The file does not exist: only the parser can have refused the bound.
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {argv[2]}: must be at least" in err
    assert "Traceback" not in err


# --------------------------------------------------------------------------
# grid and solve-ogtp


def test_grid_command_emits_decorated_grid(files, capsys):
    tiling = files["root"] / "tiling1.json"
    tiling.write_text(tiling_to_json(all_black_tiling(1)))
    out = files["root"] / "grid1.json"
    assert main(["grid", "1", "--tiling", str(tiling),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    g = graph_from_json(json.dumps({"vertices": doc["vertices"],
                                    "edges": doc["edges"]}))
    assert len(g.vertices) == 6
    assert all(lab.shade == "black" for _, lab, _ in g.edges if lab.is_sigma0)
    assert (doc["a"], doc["b"]) == ("a", "b")


def test_solve_ogtp_prints_a_tiling(files, capsys):
    assert main(["solve-ogtp", str(files["ogtp"])]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 1


def test_solve_ogtp_prints_none_on_unsolvable(files, capsys):
    assert main(["solve-ogtp", str(files["blocked"]), "--max-n", "2"]) == 1
    assert capsys.readouterr().out.strip() == "NONE"


def _assert_input_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_eval_graph_without_edges_exits_2(files, capsys):
    graph = files["root"] / "no_edges.json"
    graph.write_text(json.dumps({"vertices": ["a", "b"]}))
    assert main(["eval", "--graph", str(graph), "--query", "G:omega"]) == 2
    _assert_input_error(capsys)


def test_verify_on_a_json_array_exits_2(files, capsys):
    cert = files["root"] / "array.json"
    cert.write_text("[1, 2]")
    assert main(["verify", str(cert), str(files["instance"])]) == 2
    _assert_input_error(capsys)


def test_play_scripted_trace_line_without_requests_exits_2(files, capsys):
    trace = files["root"] / "full.jsonl"
    assert main(["play", str(files["instance"]), "--initial-cap", "4",
                 "--out", str(trace)]) in (0, 1, 3)
    lines = trace.read_text().splitlines()
    assert len(lines) > 1
    broken_round = json.loads(lines[1])
    del broken_round["requests"]
    lines[1] = json.dumps(broken_round)
    broken = files["root"] / "no_requests.jsonl"
    broken.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["play", str(files["instance"]), "--strategy", "scripted",
                 "--trace", str(broken)]) == 2
    _assert_input_error(capsys)


def test_missing_file_exits_2(capsys):
    assert main(["reduce", "/nonexistent/input.json"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("verb, doc, where", [
    ("search", {"alphabet": ["alpha"], "views": [], "q0": "alpha"},
     "'views'"),
    ("search", {"alphabet": ["alpha"], "views": {"bad": "alpha"},
                "q0": "alpha"}, "views 'bad'"),
    ("search", {"alphabet": "alpha", "views": {}, "q0": "alpha"},
     "'alphabet'"),
    ("verify", {"alphabet": ["alpha"], "views": {}}, "'q0'"),
    ("reduce", {"shades": "black", "forbidden": []}, "'shades'"),
    ("solve-ogtp", {"shades": ["black"], "forbidden": [["H", "black"]]},
     "forbidden pair"),
    ("solve-ogtp", {"shades": ["black"], "forbidden": [[["H"], ["V", 0]]]},
     "direction-shade pair"),
    ("grid", {"n": "1", "h": {}, "v": {}}, "'n'"),
    ("grid", {"n": 1, "h": [], "v": {}}, "'h'"),
    ("grid", {"n": 1, "h": {"0;0": "black"}, "v": {}}, "'0;0'"),
    ("grid", {"n": 1, "h": {"0,0": 5, "0,1": "black"},
              "v": {"0,0": "black", "1,0": "black"}}, "shade must be"),
    # JSON true is no integer, though Python's bool subclasses int.
    ("grid", {"n": True, "h": {"0,0": "black", "0,1": "black"},
              "v": {"0,0": "black", "1,0": "black"}}, "'n'"),
])
def test_malformed_loader_shapes_exit_2(files, capsys, verb, doc, where):
    path = files["root"] / "shape.json"
    path.write_text(json.dumps(doc))
    argv = {"search": ["search", str(path)],
            "verify": ["verify", str(files["model2"]), str(path)],
            "reduce": ["reduce", str(path)],
            "solve-ogtp": ["solve-ogtp", str(path)],
            "grid": ["grid", "1", "--tiling", str(path)]}[verb]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert where in err


@pytest.mark.parametrize("verb, fmt", [
    ("eval", "graph"), ("verify", "graph"), ("play", "trace"),
    ("reduce", "instance"), ("search", "instance"), ("grid", "tiling"),
])
def test_a_file_that_is_no_json_names_its_format(files, capsys, verb, fmt):
    path = files["root"] / "unparsable.json"
    path.write_text('{"n": ')
    argv = {"eval": ["eval", "--graph", str(path), "--query", "G:omega"],
            "verify": ["verify", str(path), str(files["instance"])],
            "play": ["play", str(files["instance"]), "--strategy", "scripted",
                     "--trace", str(path)],
            "reduce": ["reduce", str(path)],
            "search": ["search", str(path)],
            "grid": ["grid", "1", "--tiling", str(path)]}[verb]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: bad {fmt} JSON: ")


WORD = "alpha A-H-C-black B-V-C-black omega"


@pytest.mark.parametrize("args, message", [
    ([], "need --initial-word, --initial-cap, or a --trace with an initial "
         "word"),
    (["--initial-word", WORD, "--strategy", "scripted"],
     "--strategy scripted needs --trace"),
    (["--initial-word", WORD, "--strategy", "guided"],
     "--strategy guided needs --model"),
    (["--initial-word", WORD, "--strategy", "interactive"],
     "interactive input closed"),
])
def test_play_without_what_its_strategy_reads_exits_2(files, capsys,
                                                      monkeypatch, args,
                                                      message):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(["play", str(files["instance"]), *args]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def test_play_guided_on_an_odd_grid_exits_0(files, capsys):
    model = files["root"] / "model7.json"
    model.write_text(endpointed_to_json(
        decorate(build_grid(7), all_black_tiling(7))))
    word = "alpha " + "A-H-C-black B-V-C-black " * 7 + "omega"
    code = main(["play", str(files["instance"]), "--strategy", "guided",
                 "--model", str(model), "--initial-word", word])
    assert code == 0
    assert capsys.readouterr().out.strip() == "WON_FIXPOINT round=8"
