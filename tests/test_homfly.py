"""Skein polynomial: known values, the defining relation, obstructions."""

import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbound.braids import BraidWord, determinant_of_closure, mirror
from cbound.diagrams import Diagram, from_braid, remove_crossings
from cbound.homfly import (
    HECKE_MAX_STRANDS,
    ONE,
    UNLINK_FACTOR,
    BudgetExceeded,
    LaurentPoly2,
    fwm_obstruction,
    homfly,
    homfly_braid,
    homfly_pd,
    unlink_poly,
)
from oracles import determinant_from_poly, mirror_diagram, read_poly, reverse_component

# Values anyone can check against a knot table.
KNOWN = [
    ("BR[2,{1,1,1}]", "-v^4 + v^2*z^2 + 2*v^2"),                      # right trefoil
    ("BR[2,{-1,-1,-1}]", "-v^-4 + v^-2*z^-0*z^2 + 2*v^-2"),           # left trefoil
    ("BR[3,{-1,2,-1,2}]", "v^-2 - 1 + v^2 - z^2"),                    # figure eight
    ("BR[2,{1,1}]", "-v^3*z^-1 + v*z + v*z^-1"),                      # positive hopf
]


def _braid(text):
    from cbound.notation import parse_braid

    return parse_braid(text)


def test_unknot_is_one():
    assert homfly_braid(BraidWord(1, ())) == ONE
    assert homfly_braid(BraidWord(2, (1,))) == ONE


def test_unlink_polys():
    f = read_poly("-v*z^-1 + v^-1*z^-1")
    assert unlink_poly(2) == f
    assert unlink_poly(3) == f * f
    assert unlink_poly(1) == ONE


def test_unlink_poly_is_the_binomial_expansion_of_the_factor_power():
    power = ONE  # UNLINK_FACTOR ** (c - 1), one product per step
    for c in range(1, 201):
        assert unlink_poly(c) == power
        power = power * UNLINK_FACTOR
    started = time.perf_counter()
    p = unlink_poly(2000)
    assert time.perf_counter() - started < 0.5
    assert len(p.terms) == 2000
    for (dv, dz), coeff in p.terms.items():
        k = (dv + 1999) // 2
        assert (dv, dz) == (2 * k - 1999, -1999) and coeff == (-1) ** k * math.comb(1999, k)


@pytest.mark.parametrize("word,val", KNOWN)
def test_known_values(word, val):
    assert homfly_braid(_braid(word)) == read_poly(val)


def test_markov_moves_fix_the_closure():
    b = _braid("BR[2,{1,1,1}]")
    p = homfly_braid(b)
    # conjugation
    assert homfly_braid(BraidWord(2, (1, 1, 1, 1, -1))) == p
    # stabilization with either sign
    assert homfly_braid(BraidWord(3, (1, 1, 1, 2))) == p
    assert homfly_braid(BraidWord(3, (1, 1, 1, -2))) == p


def test_mirror_rule():
    # P of the mirror is P(v^-1, -z)
    for word in ("BR[2,{1,1,1}]", "BR[3,{1,-2,1,2,-1,2}]", "BR[2,{1,1}]"):
        b = _braid(word)
        assert homfly_braid(mirror(b)) == homfly_braid(b).mirror_image()


def test_diagram_and_braid_paths_agree():
    b = _braid("BR[3,{1,-2,1,2,-1,2}]")
    assert homfly(from_braid(b)) == homfly_braid(b)
    assert homfly(mirror_diagram(from_braid(b))) == homfly_braid(mirror(b))


@pytest.mark.parametrize("seed", range(8))
def test_skein_relation(seed):
    """v^-1 P(+) - v P(-) = z P(0) at a chosen crossing."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    letters = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(3, 7))]
    k = rng.randrange(len(letters))
    plus = letters[:]
    plus[k] = abs(plus[k])
    minus = letters[:]
    minus[k] = -abs(minus[k])
    zero = letters[:k] + letters[k + 1:]
    p_plus = homfly_braid(BraidWord(n, tuple(plus)))
    p_minus = homfly_braid(BraidWord(n, tuple(minus)))
    p_zero = homfly_braid(BraidWord(n, tuple(zero)))
    v_inv = LaurentPoly2.monomial(1, -1, 0)
    v = LaurentPoly2.monomial(1, 1, 0)
    z = LaurentPoly2.monomial(1, 0, 1)
    assert v_inv * p_plus - v * p_minus == z * p_zero


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        homfly_braid(_braid("BR[4,{1,-2,3,-1,2,-3,1,-2,3,-1,2,-3}]"), budget=10)


def test_determinant_via_poly():
    words = [_braid(w) for w in ("BR[2,{1,1,1}]", "BR[3,{-1,2,-1,2}]", "BR[2,{1,1}]",
                                 "BR[3,{1,1,2,2,1,-2}]")]
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(2, 4)
        words.append(BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                                        for _ in range(rng.randint(0, 9)))))
    for b in words:
        assert determinant_from_poly(homfly_braid(b)) == determinant_of_closure(b), b


def test_fwm_obstruction_dict():
    # closure of (s1 s2^-1)^2 s1 cannot bound: v-order falls below the bound
    p = homfly_braid(_braid("BR[3,{1,-2,1,-2,1}]"))
    rep = fwm_obstruction(p, 0)
    assert rep["refuted"]
    assert rep["ord_v"] < rep["required_at_least"]
    # a quasipositive closure passes against its own chi
    hopf = homfly_braid(_braid("BR[2,{1,1}]"))
    assert not fwm_obstruction(hopf, 0)["refuted"]


def test_poly_arithmetic_basics():
    v = LaurentPoly2.monomial(1, 1, 0)
    z = LaurentPoly2.monomial(1, 0, 1)
    p = v * v - z
    assert p - p == LaurentPoly2.const(0)
    assert (p * ONE) == p
    assert p.mirror_image().mirror_image() == p
    assert read_poly("v^2 - z") == p
    assert p.ord_v == 0


# -- reference engine: the plain recursion without cleanup or memo ----------


def _reference_first_bad_crossing(diag):
    inmap = {}
    for t, (ui, uo, oi, oo, s) in enumerate(diag.crossings):
        inmap[ui] = (t, "u")
        inmap[oi] = (t, "o")
    visited = set()
    for comp in diag.components:
        lo = comp.index(min(comp))
        for a in comp[lo:] + comp[:lo]:
            t, role = inmap[a]
            if t in visited:
                continue
            visited.add(t)
            if role == "u":
                return t
    return None


def reference_homfly(d):
    """The descending-diagram recursion on the raw diagram: every node is
    switched or smoothed at its first bad crossing, nothing is simplified
    and nothing is shared."""
    t = _reference_first_bad_crossing(d)
    if t is None:
        return UNLINK_FACTOR ** (d.total_components - 1)
    ui, uo, oi, oo, s = d.crossings[t]
    switched_crossings = list(d.crossings)
    switched_crossings[t] = (oi, oo, ui, uo, -s)
    switched = Diagram(switched_crossings, [list(c) for c in d.components], d.free_loops)
    smoothed = remove_crossings(d, {t}, [(ui, oo), (oi, uo)])
    if s > 0:
        return (LaurentPoly2.monomial(1, 2, 0) * reference_homfly(switched)
                + LaurentPoly2.monomial(1, 1, 1) * reference_homfly(smoothed))
    return (LaurentPoly2.monomial(1, -2, 0) * reference_homfly(switched)
            - LaurentPoly2.monomial(1, -1, 1) * reference_homfly(smoothed))


def _diagrams_of(b):
    """The closure, its mirror, and the closure with its last component
    reversed, a diagram that is not drawn as a braid closure."""
    d = from_braid(b)
    out = [d, mirror_diagram(d)]
    if d.components:
        out.append(reverse_component(d, len(d.components) - 1))
    return out


@st.composite
def braid_words(draw, max_strands=4, max_letters=10):
    n = draw(st.integers(2, max_strands))
    gens = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    return BraidWord(n, tuple(draw(st.lists(gens, max_size=max_letters))))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(braid_words())
def test_memoized_engine_matches_reference_on_drawn_words(b):
    for d in _diagrams_of(b):
        assert homfly(d) == reference_homfly(d), b


def test_memoized_engine_matches_reference_on_seeded_words():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(2, 4)
        b = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 12))))
        assert homfly_braid(b) == reference_homfly(from_braid(b)), b


def test_homfly_does_not_change_its_input():
    d = from_braid(BraidWord(3, (1, -2, 1, -1, 2, 2)))
    before = (list(d.crossings), [list(c) for c in d.components], d.free_loops)
    homfly(d)
    assert (d.crossings, d.components, d.free_loops) == before
    assert homfly_pd(d) == homfly(d)


def test_long_unknot_closures_are_one():
    t0 = time.perf_counter()
    for n in range(2, 100):
        assert homfly_braid(BraidWord(n, tuple(range(1, n)))) == ONE, n
    assert time.perf_counter() - t0 < 10.0


def test_two_strand_torus_links_follow_the_skein_recurrence():
    # P(T(2,n)) = v^2 P(T(2,n-2)) + v z P(T(2,n-1)), from the last crossing
    v2, vz = LaurentPoly2.monomial(1, 2, 0), LaurentPoly2.monomial(1, 1, 1)
    want = [unlink_poly(2), ONE]
    for n in range(2, 42):
        want.append(v2 * want[n - 2] + vz * want[n - 1])
    t0 = time.perf_counter()
    for n in range(1, 42):
        assert homfly_braid(BraidWord(2, (1,) * n)) == want[n], n
        assert homfly_braid(BraidWord(2, (-1,) * n)) == want[n].mirror_image(), n
    assert time.perf_counter() - t0 < 10.0


def test_budget_counts_crossings_per_expanded_node():
    # the trefoil (3 crossings) smooths into the Hopf link (2), which
    # expands into the unknot and the 2-component unlink (1 each); the
    # trefoil's switched child cleans up into the unknot, a memo hit
    trefoil = from_braid(BraidWord(2, (1, 1, 1)))
    assert homfly(trefoil, budget=7) == homfly(trefoil)
    with pytest.raises(BudgetExceeded) as exc:
        homfly(trefoil, budget=6)
    assert str(exc.value) == "skein budget of 6 crossings ran out after 3 nodes expanded and 0 memo hits"



# -- the Hecke route against the skein ----------------------------------------


def _skein(b):
    """The skein on the closure diagram, which homfly_braid bypasses on at
    most HECKE_MAX_STRANDS strands."""
    return homfly(from_braid(b))


def _random_word(rng, strands, length):
    if strands == 1:
        return BraidWord(1, ())
    return BraidWord(strands, tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)))


def test_hecke_route_covers_braids_up_to_the_cap(monkeypatch):
    import cbound.homfly

    def no_skein(*args, **kwargs):
        raise AssertionError("the skein ran on a braid within the Hecke cap")

    monkeypatch.setattr(cbound.homfly, "homfly", no_skein)
    assert HECKE_MAX_STRANDS == 7
    # stabilizations of the positive Hopf link
    assert homfly_braid(BraidWord(7, (1, 2, 3, 4, 5, 6, 6))) == read_poly("-v^3*z^-1 + v*z + v*z^-1")
    with pytest.raises(AssertionError, match="the skein ran"):
        homfly_braid(BraidWord(8, (1,)))


@st.composite
def hecke_words(draw):
    n = draw(st.integers(1, HECKE_MAX_STRANDS))
    if n == 1:
        return BraidWord(1, ())
    gens = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    return BraidWord(n, tuple(draw(st.lists(gens, max_size=14))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hecke_words())
def test_hecke_matches_the_skein_on_drawn_words(b):
    p = homfly_braid(b)
    assert p == _skein(b), b
    # and the other way: the skein on the mirror diagram against the Hecke
    # route on the mirror word
    assert homfly(mirror_diagram(from_braid(b))) == homfly_braid(mirror(b)) == p.mirror_image(), b


def test_hecke_matches_the_skein_on_seeded_words():
    rng = random.Random(400)
    for _ in range(400):
        n = rng.randint(1, 5)
        b = _random_word(rng, n, rng.randint(0, 12))
        assert homfly_braid(b) == _skein(b), b


def test_torus_links_are_fast_and_obey_the_mirror_rule():
    t0 = time.perf_counter()
    for strands, top in ((3, 100), (4, 30)):
        cycle = tuple(range(1, strands))
        for n in range(1, top + 1):
            b = BraidWord(strands, cycle * n)
            p = homfly_braid(b)
            assert homfly_braid(mirror(b)) == p.mirror_image(), (strands, n)
            if n <= 4:
                assert p == _skein(b), (strands, n)
    assert time.perf_counter() - t0 < 10.0


def test_t_3_20_takes_well_under_a_tenth_of_a_second():
    b = BraidWord(3, (1, 2) * 20)
    t0 = time.perf_counter()
    p = homfly_braid(b)
    assert time.perf_counter() - t0 < 0.1
    # a positive braid closure: the lowest v-degree is 1 - chi = length - strands + 1
    assert p.ord_v == 38


def test_a_word_times_its_inverse_closes_to_the_unlink():
    rng = random.Random(7)
    w = _random_word(rng, 7, 300).letters
    inverse = tuple(-x for x in reversed(w))
    t0 = time.perf_counter()
    assert homfly_braid(BraidWord(7, w + inverse)) == unlink_poly(7)
    # a conjugate, and a rotation of the same word
    assert homfly_braid(BraidWord(7, (3, -5) + w + inverse + (5, -3))) == unlink_poly(7)
    assert homfly_braid(BraidWord(7, (w + inverse)[100:] + (w + inverse)[:100])) == unlink_poly(7)
    assert time.perf_counter() - t0 < 1.0


def test_hecke_budget_counts_coefficients_written():
    # the trefoil writes 1, 2 and 3 coefficients for its letters and 3 in
    # the trace
    trefoil = BraidWord(2, (1, 1, 1))
    assert homfly_braid(trefoil, budget=9) == homfly_braid(trefoil)
    with pytest.raises(BudgetExceeded) as exc:
        homfly_braid(trefoil, budget=8)
    assert str(exc.value) == ("skein budget of 8 crossings ran out in the trace, after all of 3 letters "
                              "(9 Hecke coefficients)")
    with pytest.raises(BudgetExceeded) as exc:
        homfly_braid(trefoil, budget=2)
    assert str(exc.value) == "skein budget of 2 crossings ran out after 2 of 3 letters (3 Hecke coefficients)"
