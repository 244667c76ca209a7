"""Skein polynomial: known values, the defining relation, obstructions."""

import random

import pytest

from cbound.braids import BraidWord, determinant_of_closure, mirror
from cbound.diagrams import from_braid, mirror_diagram
from cbound.homfly import (
    ONE,
    BudgetExceeded,
    LaurentPoly2,
    determinant_from_poly,
    fwm_obstruction,
    homfly,
    homfly_braid,
    unlink_poly,
)
from cbound.notation import parse_poly

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
    f = parse_poly("-v*z^-1 + v^-1*z^-1")
    assert unlink_poly(2) == f
    assert unlink_poly(3) == f * f
    assert unlink_poly(1) == ONE


@pytest.mark.parametrize("word,val", KNOWN)
def test_known_values(word, val):
    assert homfly_braid(_braid(word)) == parse_poly(val)


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
    assert parse_poly("v^2 - z") == p
    assert p.ord_v == 0
