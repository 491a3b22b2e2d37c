import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rpqdet.symbols import (Alphabet, Color, FormatError, Symbol, SymbolError,
                            format_word, load_json, sym)


def test_special_tokens_parse():
    a = sym("alpha")
    assert a.color is None
    assert a.base == "alpha"
    assert not a.is_sigma0


def test_grid_token_fields():
    s = sym("G:A-H-C-black")
    assert s.color is Color.GREEN
    assert (s.tag, s.direction, s.temperature, s.shade) == ("A", "H", "C", "black")
    assert s.is_sigma0


def test_interning_returns_same_object():
    assert sym("R:omega") is sym("R:omega")
    assert Symbol("A-H-C-black") is Symbol("A-H-C-black")


@pytest.mark.parametrize("name", ["alpha", "G:omega", "R:B-V-W-grey", "A-H-C"])
def test_symbol_equals_and_hashes_as_its_token(name):
    s = Symbol(name)
    assert s == name and name == s
    assert hash(s) == hash(s.name) == hash(name)
    assert {name: 1}[s] == 1 and {s: 1}[name] == 1
    assert type(s.name) is str


def test_pickle_round_trip_returns_the_interned_symbol():
    s = sym("R:A-H-W-black")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(s, protocol)) is s
        assert pickle.loads(pickle.dumps((s, [s]), protocol))[1][0] is s


def test_repr_and_format_give_the_bare_token():
    s = sym("G:A-V-C-black")
    assert repr(s) == "G:A-V-C-black"
    assert f"{s}" == str(s) == "G:A-V-C-black"
    assert repr((s,)) == "(G:A-V-C-black,)"
    # Messages quote through .name, which is a plain str.
    assert f"{s.name!r}" == "'G:A-V-C-black'"


_TOKENS = st.sampled_from(["alpha", "beta", "omega", "G:alpha", "R:omega",
                           "A-H-C-black", "A-H-C", "B-V-W-grey",
                           "G:A-H-W-black", "R:B-H-C-grey"])


@given(st.lists(st.tuples(st.sampled_from(["a", "b", "x1", "r1_0_1"]),
                          _TOKENS.map(Symbol),
                          st.sampled_from(["a", "b", "x2", "r2_1_0"]))))
def test_edges_sort_as_their_token_names(edges):
    assert sorted(edges) == sorted(edges, key=lambda e: (e[0], e[1].name, e[2]))


def test_colored_and_uncolored():
    s = sym("B-V-W-grey")
    assert s.colored(Color.RED).name == "R:B-V-W-grey"
    assert s.colored(Color.RED).uncolored() is s


def test_stripped_drops_shade_only():
    assert sym("R:A-H-W-black").stripped().name == "R:A-H-W"
    assert sym("G:alpha").stripped() is sym("G:alpha")


@pytest.mark.parametrize("bad", ["gamma", "X-H-C-black", "A-H-C-Black",
                                 "G:", "g:alpha", "A-H-C-black-extra"])
def test_bad_tokens_rejected(bad):
    with pytest.raises(SymbolError):
        sym(bad)
    assert bad not in Symbol._pool
    with pytest.raises(SymbolError):
        sym(bad)


def test_shade_stripped_form_is_a_valid_token():
    stripped = sym("A-H-C-black").stripped()
    assert stripped is sym("A-H-C")
    assert stripped.shade is None


def test_alphabet_order_and_duplicates():
    a = Alphabet(["omega", "alpha"])
    assert [s.name for s in a] == ["omega", "alpha"]
    with pytest.raises(SymbolError):
        Alphabet(["alpha", "alpha"])


def test_alphabet_word_key_is_shortlex():
    a = Alphabet(["alpha", "beta", "omega"])
    w1 = (sym("omega"),)
    w2 = (sym("alpha"), sym("alpha"))
    assert a.word_key(w1) < a.word_key(w2)
    assert a.word_key((sym("alpha"),)) < a.word_key(w1)


def test_colored_alphabet_layout():
    base = Alphabet(["alpha", "omega"])
    doubled = base.colored()
    assert [s.name for s in doubled] == ["G:alpha", "G:omega", "R:alpha", "R:omega"]
    with pytest.raises(SymbolError):
        doubled.colored()
    with pytest.raises(SymbolError):
        doubled.colored()


def test_colored_alphabet_is_built_once():
    base = Alphabet(["alpha", "omega", "A-H-W-black"])
    first = base.colored()
    assert base.colored() is first
    assert first == Alphabet(["G:alpha", "G:omega", "G:A-H-W-black",
                              "R:alpha", "R:omega", "R:A-H-W-black"])
    assert base == Alphabet(["alpha", "omega", "A-H-W-black"])


def test_sigma0_and_shades():
    a = Alphabet(["alpha", "A-H-W-black", "A-H-W-grey", "B-V-C-black"])
    assert len(a.sigma0()) == 3
    assert [s.shade for s in a.sigma0()] == ["black", "grey", "black"]


def test_format_and_recolor_word():
    w = (sym("alpha"), sym("A-H-C-black"))
    assert format_word(w) == "alpha A-H-C-black"
    red = tuple(s.colored(Color.RED) for s in w)
    assert format_word(red) == "R:alpha R:A-H-C-black"


@given(st.sampled_from("AB"), st.sampled_from("HV"), st.sampled_from("WC"),
       st.text(alphabet="abcdefghij0123456789_", min_size=1, max_size=6),
       st.sampled_from(["", "G:", "R:"]))
def test_grid_token_round_trip(tag, d, k, shade, prefix):
    name = f"{prefix}{tag}-{d}-{k}-{shade}"
    s = sym(name)
    assert s.name == name
    assert (s.tag, s.direction, s.temperature, s.shade) == (tag, d, k, shade)


def test_load_json_names_the_format_of_a_document_that_does_not_parse():
    assert load_json('{"n": [1]}', FormatError, "tiling") == {"n": [1]}
    with pytest.raises(FormatError, match=r"^bad graph JSON: Expecting"):
        load_json('{"vertices": ', FormatError, "graph")
