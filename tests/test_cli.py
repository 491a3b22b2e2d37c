import json
from time import monotonic

import pytest

from oracles import explore_immutable
from rpqdet.cli import main
from rpqdet.escape import Caps
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


def test_search_parallel_matches_serial(files, capsys):
    cert = files["root"] / "cert_serial.json"
    assert main(["search", str(files["instance"]), "--max-initial-len", "4",
                 "--out", str(cert)]) == 0
    cert2 = files["root"] / "cert_jobs.json"
    assert main(["search", str(files["instance"]), "--max-initial-len", "4",
                 "--jobs", "2", "--out", str(cert2)]) == 0
    assert cert2.read_text() == cert.read_text()
    capsys.readouterr()


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


def test_play_guided_on_an_odd_grid_exits_0(files, capsys):
    model = files["root"] / "model7.json"
    model.write_text(endpointed_to_json(
        decorate(build_grid(7), all_black_tiling(7))))
    word = "alpha " + "A-H-C-black B-V-C-black " * 7 + "omega"
    code = main(["play", str(files["instance"]), "--strategy", "guided",
                 "--model", str(model), "--initial-word", word])
    assert code == 0
    assert capsys.readouterr().out.strip() == "WON_FIXPOINT round=8"
