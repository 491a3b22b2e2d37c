import random
from itertools import product

import pytest

from oracles import lang_upto, scan_tiling
from rpqdet.automata import accepts, compile_nfa, iter_words, parse_regex, parse_word, render_regex
from rpqdet.ogtp import (
    GridTiling,
    OgtpError,
    OgtpInstance,
    SearchSpaceError,
    TilingError,
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


def test_solver_guards_against_huge_search_spaces():
    # No edge may enter an H black edge, which the top-right cell must be.
    # The backtracker refutes n = 2 in about 2 * 10**4 placements, but
    # needs more than 10**6 at n = 3, so the budget runs out there.
    shades = ("black", "grey", "rust")
    into_h_black = frozenset(((d, s), ("H", "black"))
                             for d in "HV" for s in shades)
    inst = OgtpInstance(shades, into_h_black)
    assert solve_bruteforce(inst, 2) is None
    with pytest.raises(SearchSpaceError):
        solve_bruteforce(inst, 3)


def test_solver_refutes_a_two_shade_instance_up_to_n_twelve():
    # About 10**5 placements in all: within the budget, though the raw
    # space at n = 12 is 2**312.
    u = OgtpInstance(("black", "grey"), frozenset({
        (("H", "black"), ("V", "grey")), (("H", "grey"), ("H", "grey")),
        (("V", "black"), ("H", "black")), (("V", "grey"), ("V", "grey"))}))
    assert solve_bruteforce(u, 12) is None


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
