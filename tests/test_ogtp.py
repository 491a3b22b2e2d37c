import hashlib
import random
from itertools import count, product

import pytest

from oracles import lang_upto, scan_tiling
from rpqdet.automata import accepts, compile_nfa, iter_words, parse_regex, parse_word, render_regex
from rpqdet.ogtp import (
    PLACEMENT_BUDGET,
    GridTiling,
    OgtpError,
    OgtpInstance,
    SearchSpaceError,
    TilingError,
    _solve_at,
    all_black_tiling,
    check_tiling,
    compile_reduction,
    h_cells,
    instance_from_json,
    instance_to_json,
    reduction_alphabet,
    reduction_from_json,
    reduction_to_json,
    solve_bruteforce,
    tiling_from_json,
    tiling_to_json,
    v_cells,
)
from rpqdet.symbols import sym


def random_tiling(rng, n, shades):
    return GridTiling(
        n,
        {c: rng.choice(shades) for c in h_cells(n)},
        {c: rng.choice(shades) for c in v_cells(n)},
    )


# --------------------------------------------------------------------------
# Instances and tilings


def test_instance_requires_black():
    with pytest.raises(OgtpError):
        OgtpInstance(("grey",), frozenset())


def test_instance_rejects_duplicate_shades_and_bad_pairs():
    with pytest.raises(OgtpError):
        OgtpInstance(("black", "black"), frozenset())
    with pytest.raises(OgtpError):
        OgtpInstance(("black",), frozenset({(("X", "black"), ("V", "black"))}))
    with pytest.raises(OgtpError):
        OgtpInstance(("black",), frozenset({(("H", "red"), ("V", "black"))}))


def test_all_black_tiling_passes_with_nothing_forbidden(black_instance):
    for n in (1, 2, 3):
        assert check_tiling(black_instance, all_black_tiling(n))


def test_bottom_left_vertical_edge_must_be_black():
    inst = OgtpInstance(("black", "grey"), frozenset())
    t = all_black_tiling(2)
    t.v[(0, 0)] = "grey"
    assert not check_tiling(inst, t)


def test_upper_right_horizontal_edge_must_be_black():
    inst = OgtpInstance(("black", "grey"), frozenset())
    t = all_black_tiling(2)
    t.h[(1, 2)] = "grey"
    assert not check_tiling(inst, t)


def test_forbidden_pair_rejects_every_grid(blocked_instance):
    for n in (1, 2):
        assert not check_tiling(blocked_instance, all_black_tiling(n))


def test_single_forbidden_pair_on_all_black():
    inst = OgtpInstance(("black",),
                        frozenset({(("H", "black"), ("V", "black"))}))
    assert not check_tiling(inst, all_black_tiling(1))


def test_unknown_shade_label_fails_the_check(black_instance):
    t = all_black_tiling(1)
    t.h[(0, 0)] = "grey"
    assert not check_tiling(black_instance, t)


def test_malformed_tiling_raises(black_instance):
    t = all_black_tiling(2)
    del t.h[(0, 0)]
    with pytest.raises(TilingError):
        check_tiling(black_instance, t)
    with pytest.raises(TilingError):
        check_tiling(black_instance, GridTiling(0, {}, {}))


def test_check_tiling_agrees_with_the_edge_scan_oracle():
    rng = random.Random(41)
    shades = ("black", "grey", "rust")
    all_pairs = [((d1, s1), (d2, s2)) for d1 in "HV" for s1 in shades
                 for d2 in "HV" for s2 in shades]
    for _ in range(120):
        forbidden = frozenset(rng.sample(all_pairs, rng.randint(0, 6)))
        inst = OgtpInstance(shades, forbidden)
        t = random_tiling(rng, rng.randint(1, 3), shades)
        assert check_tiling(inst, t) == scan_tiling(inst, t)


# --------------------------------------------------------------------------
# Brute-force solving


def test_solver_finds_the_unit_grid(black_instance):
    t = solve_bruteforce(black_instance, 2)
    assert t is not None
    assert t.n == 1
    assert check_tiling(black_instance, t)


def test_solver_reports_none_when_everything_is_forbidden(blocked_instance):
    assert solve_bruteforce(blocked_instance, 3) is None


def test_solver_respects_boundary_conditions():
    inst = OgtpInstance(("black", "grey"),
                        frozenset({(("V", "black"), ("V", "black"))}))
    t = solve_bruteforce(inst, 2)
    assert t is not None
    assert t.v[(0, 0)] == "black"
    assert t.h[(t.n - 1, t.n)] == "black"
    assert check_tiling(inst, t)


def _tilings(n, shades):
    """Every shading of the n-grid's edges."""
    hs, vs = h_cells(n), v_cells(n)
    for pick in product(shades, repeat=len(hs) + len(vs)):
        yield GridTiling(n, dict(zip(hs, pick)), dict(zip(vs, pick[len(hs):])))


def test_solver_agrees_with_checking_every_tiling():
    # Shades in either order: with grey first the solver tries grey on the
    # bottom-left and upper-right edges before black.
    rng = random.Random(7)
    all_pairs = [((d1, s1), (d2, s2)) for d1 in "HV" for s1 in ("black", "grey")
                 for d2 in "HV" for s2 in ("black", "grey")]
    for k in range(40):
        shades = ("grey", "black") if k % 2 else ("black", "grey")
        inst = OgtpInstance(shades, frozenset(rng.sample(all_pairs,
                                                         rng.randint(0, 8))))
        t = solve_bruteforce(inst, 2)
        want = next((n for n in (1, 2) if any(check_tiling(inst, u)
                                              for u in _tilings(n, shades))),
                    None)
        if want is None:
            assert t is None
        else:
            assert t.n == want and check_tiling(inst, t)


# No tiling at any n up to 12: about 10**5 placements in all, though the raw
# space at n = 12 is 2**312.
U = OgtpInstance(("black", "grey"), frozenset({
    (("H", "black"), ("V", "grey")), (("H", "grey"), ("H", "grey")),
    (("V", "black"), ("H", "black")), (("V", "grey"), ("V", "grey"))}))


def test_solver_guards_against_huge_search_spaces():
    # n = 13 needs more placements than the budget has left after n = 12.
    with pytest.raises(SearchSpaceError,
                       match=f"more than {PLACEMENT_BUDGET} shades by n=13"):
        solve_bruteforce(U, 13)


def test_solver_refutes_a_two_shade_instance_up_to_n_twelve():
    assert solve_bruteforce(U, 12) is None


def test_solver_refutes_a_forced_cell_without_search():
    # No edge may enter an H black edge, which the top-right edge must be:
    # its in-edges have no shade left, so n is refuted before any shade is
    # placed.  Checked only when that edge was placed, last, this took
    # 20,604 placements at n = 2 and overran the budget at n = 3.
    shades = ("black", "grey", "rust")
    into_h_black = frozenset(((d, s), ("H", "black"))
                             for d in "HV" for s in shades)
    inst = OgtpInstance(shades, into_h_black)
    for n in (1, 2, 3):
        placed = count()
        assert _solve_at(inst, n, placed) is None
        assert next(placed) <= 5


def _first_tiling_in_cell_order(inst, max_n):
    """The smallest n's first tiling in the solver's order: cells row by
    row, left to right, each vertex's H edge before its V edge, and each
    cell's shades in instance order; every shading is checked."""
    for n in range(1, max_n + 1):
        cells = [(kind, i, j) for j in range(n + 1) for i in range(n + 1)
                 for kind in "hv" if (i < n if kind == "h" else j < n)]
        for pick in product(inst.shades, repeat=len(cells)):
            t = GridTiling(n, {}, {})
            for (kind, i, j), s in zip(cells, pick):
                (t.h if kind == "h" else t.v)[(i, j)] = s
            if check_tiling(inst, t):
                return t
    return None


def test_solver_returns_the_first_tiling_in_its_cell_order():
    black_pairs = [(("H" if k & 1 else "V", "black"),
                    ("H" if k & 2 else "V", "black")) for k in range(4)]
    insts = [OgtpInstance(("black",), frozenset(
        p for b, p in enumerate(black_pairs) if mask >> b & 1))
        for mask in range(16)]
    rng = random.Random(29)
    two = [((d1, s1), (d2, s2)) for d1 in "HV" for s1 in ("black", "grey")
           for d2 in "HV" for s2 in ("black", "grey")]
    for k in range(16):
        shades = ("grey", "black") if k % 2 else ("black", "grey")
        insts.append(OgtpInstance(shades, frozenset(
            rng.sample(two, rng.randint(0, 6)))))
    got = [solve_bruteforce(inst, 2) for inst in insts]
    assert got == [_first_tiling_in_cell_order(inst, 2) for inst in insts]
    assert {t.n for t in got if t is not None} == {1, 2}


# --------------------------------------------------------------------------
# The compiled reduction


def test_alphabet_size_and_order(black_reduction, two_shade_reduction):
    assert len(black_reduction.alphabet) == 11
    assert len(two_shade_reduction.alphabet) == 19
    names = [s.name for s in two_shade_reduction.alphabet]
    assert names[:3] == ["alpha", "beta", "omega"]
    assert names[3:7] == ["A-H-W-black", "A-H-W-grey", "A-H-C-black",
                          "A-H-C-grey"]


def test_view_group_sizes(black_reduction, two_shade_reduction,
                          blocked_reduction):
    for red, n_forbidden in ((black_reduction, 0), (two_shade_reduction, 1),
                             (blocked_reduction, 4)):
        assert len(red.views.good) == 8
        assert len(red.views.bad) == 2 + n_forbidden
        assert len(red.views.ugly) == 2


def test_single_shade_generic_bad_views_are_empty(black_reduction):
    for r in black_reduction.views.bad[:2]:
        assert lang_upto(r, 8) == set()


def test_two_shade_generic_bad_views_catch_nonblack_warm_boundaries(
        two_shade_reduction):
    alph = two_shade_reduction.alphabet
    bad1 = compile_nfa(two_shade_reduction.views.bad[0], alph)
    assert accepts(bad1, parse_word("beta A-V-W-grey omega", alph))
    assert not accepts(bad1, parse_word("beta A-V-W-black omega", alph))
    bad2 = compile_nfa(two_shade_reduction.views.bad[1], alph)
    assert accepts(bad2, parse_word("beta B-H-W-grey omega", alph))
    assert not accepts(bad2, parse_word("beta B-H-W-black omega", alph))


def test_forbidden_pair_view_contains_the_adjacent_warm_letters(
        two_shade_reduction):
    alph = two_shade_reduction.alphabet
    pair_view = compile_nfa(two_shade_reduction.views.bad[2], alph)
    assert accepts(pair_view, parse_word(
        "beta A-H-W-black B-V-W-grey omega", alph))
    assert not accepts(pair_view, parse_word(
        "beta A-H-W-black B-V-W-black omega", alph))


def test_start_view_words_alternate_cold_letters(black_reduction):
    alph = black_reduction.alphabet
    n = compile_nfa(black_reduction.q_start, alph)
    words = list(iter_words(n, 6))
    assert [len(w) for w in words] == [4, 6]
    for w in words:
        assert w[0] is sym("alpha") and w[-1] is sym("omega")
        assert all(s.temperature == "C" for s in w[1:-1])


def test_q0_is_the_union_of_start_ugly_and_bad(black_reduction):
    alph = black_reduction.alphabet
    q0 = black_reduction.q0_nfa
    assert accepts(q0, parse_word(
        "alpha A-H-C-black B-V-C-black omega", alph))
    assert accepts(q0, parse_word("alpha A-H-W-black omega", alph))
    assert accepts(q0, parse_word("beta A-H-C-black omega", alph))
    assert not accepts(q0, parse_word("alpha omega", alph))


def test_reduction_regexes_survive_render_reparse(two_shade_reduction):
    alph = two_shade_reduction.alphabet
    for r in (two_shade_reduction.q_start, two_shade_reduction.q0,
              *two_shade_reduction.views.good, *two_shade_reduction.views.bad,
              *two_shade_reduction.views.ugly):
        assert parse_regex(render_regex(r, alph), alph) == r


def test_compile_is_deterministic(two_shade_instance):
    a = reduction_to_json(compile_reduction(two_shade_instance))
    b = reduction_to_json(compile_reduction(two_shade_instance))
    assert a == b


TWO_SHADE_REDUCTION = """\
{
  "alphabet": [
    "alpha",
    "beta",
    "omega",
    "A-H-W-black",
    "A-H-W-grey",
    "A-H-C-black",
    "A-H-C-grey",
    "A-V-W-black",
    "A-V-W-grey",
    "A-V-C-black",
    "A-V-C-grey",
    "B-H-W-black",
    "B-H-W-grey",
    "B-H-C-black",
    "B-H-C-grey",
    "B-V-W-black",
    "B-V-W-grey",
    "B-V-C-black",
    "B-V-C-grey"
  ],
  "q_start": "alpha ([A,H,C,*] [B,V,C,*])^+ omega",
  "q0": "alpha ([A,H,C,*] [B,V,C,*])^+ omega + alpha S0* [*,*,W,*] S0* omega + beta S0* [*,*,C,*] S0* omega + beta [A,V,W,grey] S0* omega + beta S0* [B,H,W,grey] omega + beta S0* [*,H,W,black] [*,V,W,grey] S0* omega",
  "views": {
    "good": [
      "omega",
      "alpha + beta",
      "[B,H,W,*] [A,V,W,*] + [B,V,C,*] [A,H,C,*]",
      "[A,H,C,*] [B,V,C,*] + [A,V,W,*] [B,H,W,*]",
      "[B,V,C,*] + [B,V,W,*]",
      "[B,H,W,*] + [B,H,C,*]",
      "[A,V,W,*] + [A,V,C,*]",
      "[A,H,C,*] + [A,H,W,*]"
    ],
    "bad": [
      "beta [A,V,W,grey] S0* omega",
      "beta S0* [B,H,W,grey] omega",
      "beta S0* [*,H,W,black] [*,V,W,grey] S0* omega"
    ],
    "ugly": [
      "alpha S0* [*,*,W,*] S0* omega",
      "beta S0* [*,*,C,*] S0* omega"
    ]
  }
}
"""

FOUR_BLACK_PAIRS = [((d1, "black"), (d2, "black"))
                    for d1 in "HV" for d2 in "HV"]

# sha256 of reduction_to_json for each subset of FOUR_BLACK_PAIRS, the subset
# given by a bit mask over that list.
BLACK_REDUCTION_SHA256 = [
    "b2ae78ab79fa9656a4b5f0cdc79b137d6a106c1bf5d9408f733bd2cdcd0eeab1",
    "39aecf6095260da5d7921ad595e23d538b79f3a906cba844ad913f4d98cc06bc",
    "5beaa59387c7d31c2840d39a0b636e9c47cbbbcc44925732d223e408c850a2fe",
    "bafc8707e51c2948aaeb57c06dfdc8f9c9bd01fea7ee57d700bd84386285d646",
    "ae3b8fb47bcfcb3a2a6245315b9317a9e2175357e8ba8c027fbf3c9c71817fe3",
    "9d7f679d11eed1146cdfdfe8c15c9ec902552056d2cc0b98b20ebf4a8f9402a1",
    "568997fe4285b3ea2206dcd17df87b8fa8a00f9f01945537313f5b4bf6d929d4",
    "c72ec67168b8a9e3f7e6b2d93eaf784a62d680056b44fd2328f805c03c1d334b",
    "7989a30f23e6ea2f2db6bfa3334170a68dd7edbb171856957506743c7dcdf625",
    "bd6e9a3386fabb11899b7755143d6c831f545720708690d68a942f6acdb4151d",
    "f1646df81db899bb8c77fc43a98498e5743a668ba5298426802e7f22511922df",
    "2d921a331fbbfe52107ba81b588b459ff84a00969526857951d4e4d1931b060a",
    "b17738fffa545ce511a3ff3b76b767319cec288eff9a1c6f557bc48d628f798d",
    "1278ef6bf68ec3a00a8d9e8660cb7be0d7054f8cead2e652c49600b72f4ec726",
    "fd45d0a462e978e62053c955e9db7de7e0b273262e261f318030d8a483b32eb2",
    "2ac28a4f72df9d3e190c3781aa25d4d58c9d7462e6c836c8b12f765101e88193",
]

S1 = OgtpInstance(("black", "grey"), frozenset({
    (("H", "black"), ("V", "black")), (("V", "black"), ("H", "black")),
    (("V", "grey"), ("H", "grey"))}))

# Two non-black shades, so the generic bad views read a two-member union.
THREE_SHADE = OgtpInstance(("black", "grey", "rust"), frozenset({
    (("H", "black"), ("V", "grey")), (("V", "rust"), ("H", "grey")),
    (("H", "rust"), ("H", "rust")), (("V", "grey"), ("V", "black"))}))

PINNED_REDUCTIONS = [
    *(pytest.param(OgtpInstance(("black",), frozenset(
        p for i, p in enumerate(FOUR_BLACK_PAIRS) if mask >> i & 1)),
        digest, id=f"black-{mask:02d}")
      for mask, digest in enumerate(BLACK_REDUCTION_SHA256)),
    pytest.param(OgtpInstance(("black", "grey"), frozenset({
        (("H", "black"), ("V", "grey"))})), TWO_SHADE_REDUCTION,
        id="two-shade"),
    pytest.param(
        S1, "566d4bb0e00cbf1b74dae0c5637fa296dd7fd45ae48e43f704aed1e4b1ceea9d",
        id="S1"),
    pytest.param(
        U, "21c143895d682431de69c4dcc7224d0f9691a498758a957a44b1952c34e249be",
        id="U"),
    pytest.param(
        THREE_SHADE,
        "f2f7d36fa60fb51f59cb2e61547b38e0e6cbbdb7ca6bffa785ca9df2e7769e2d",
        id="three-shade"),
]


@pytest.mark.parametrize("inst, pinned", PINNED_REDUCTIONS)
def test_reduction_bytes_are_pinned(inst, pinned):
    """reduction_to_json's exact output, as text for two-shade and as a
    sha256 digest for the rest."""
    text = reduction_to_json(compile_reduction(inst))
    if "\n" not in pinned:
        text = hashlib.sha256(text.encode()).hexdigest()
    assert text == pinned


# --------------------------------------------------------------------------
# Serialization


def test_instance_json_round_trip(two_shade_instance):
    text = instance_to_json(two_shade_instance)
    assert instance_from_json(text) == two_shade_instance
    assert instance_to_json(instance_from_json(text)) == text


def test_tiling_json_round_trip():
    t = all_black_tiling(2)
    text = tiling_to_json(t)
    assert tiling_from_json(text) == t
    assert tiling_to_json(tiling_from_json(text)) == text


def test_reduction_json_round_trip(two_shade_reduction):
    text = reduction_to_json(two_shade_reduction)
    back = reduction_from_json(text)
    assert reduction_to_json(back) == text
    assert back.q0 == two_shade_reduction.q0
    assert back.views.good == two_shade_reduction.views.good
