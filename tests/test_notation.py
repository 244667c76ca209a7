"""Parser/printer round trips and error positions."""

import random
import time

import pytest

from cbound.braids import BraidWord
from cbound.diagrams import from_braid
from cbound.homfly import LaurentPoly2
from cbound.notation import (
    ParseError,
    _Tokens,
    line_words,
    parse_braid,
    parse_ovals,
    parse_pd,
    render_braid,
    render_pd,
    render_poly,
)
from oracles import read_poly, reference_tokens


def test_braid_round_trip():
    b = parse_braid("BR[3,{1,-2,1,2,-1,2}]")
    assert b.strands == 3
    assert b.letters == (1, -2, 1, 2, -1, 2)
    assert parse_braid(render_braid(b)) == b


def test_braid_whitespace_and_newlines():
    a = parse_braid("BR[ 4 , { 1 ,\n -3 , 2 } ]")
    assert a == parse_braid("BR[4,{1,-3,2}]")


def test_empty_braid_word():
    b = parse_braid("BR[2,{}]")
    assert b.letters == ()
    assert render_braid(b) == "BR[2, {}]"


@pytest.mark.parametrize("bad", [
    "BR[3,{1,-2,",          # truncated
    "BR[3,{1,0,2}]",        # zero is not a generator
    "BR[2,{1,2}]",          # generator out of range
    "BR[1.5,{1}]",          # strand count must be an integer
    "{1,2}",                # missing head
])
def test_braid_errors(bad):
    with pytest.raises(ParseError):
        parse_braid(bad)


def test_braid_error_position():
    with pytest.raises(ParseError) as ei:
        parse_braid("BR[3,\n{1, x}]")
    assert ei.value.line == 2
    # the offending token is the name 'x'
    assert "x" in str(ei.value)


def test_poly_hand_written_shapes():
    # golden.dat's division style with parenthesised exponents and the
    # caret style read to the same polynomial
    p = read_poly("2-3*v^2 + v^4 + z^(-2)-(2*v^2)/z^2 + v^4/z^2-v^2*z^2")
    q = read_poly("2 - 3*v^2 + v^4 + z^-2 - 2*v^2*z^-2 + v^4*z^-2 - v^2*z^2")
    assert p == q
    assert p == LaurentPoly2({(0, 0): 2, (2, 0): -3, (4, 0): 1, (0, -2): 1, (2, -2): -2, (4, -2): 1, (2, 2): -1})


def test_read_poly_reads_back_render_poly():
    rng = random.Random(30)
    seeded = [LaurentPoly2({(rng.randint(-6, 6), rng.randint(-6, 6)): rng.randint(-9, 9)
                            for _ in range(rng.randint(1, 6))}) for _ in range(500)]
    for p in [LaurentPoly2(), *seeded]:
        assert read_poly(render_poly(p)) == p, render_poly(p)


def test_poly_nested_denominator():
    p = read_poly("-3/v^6 + 1/(v^8*z^2)")
    q = read_poly("-3*v^-6 + v^-8*z^-2")
    assert p == q


def test_poly_division_and_negative_powers():
    assert read_poly("(2*v - 4*z)/(-2*v)") == read_poly("-1 + 2*v^-1*z")
    assert read_poly("(v - z)/(-1)") == read_poly("z - v")
    assert read_poly("(-v*z)^-3") == read_poly("-v^-3*z^-3")
    assert read_poly("(v)^(-2)") == read_poly("1/v^2")
    for bad, message in (
        ("3/2", "inexact division"),
        ("1/(v + z)", "can only divide by a monomial"),
        ("(2*v)^-1", "inexact division"),
        ("(v + z)^-1", "can only divide by a monomial"),
        ("v^(1+1)", "not an int literal exponent"),
        ("v^2.0", "not an int literal exponent"),
        ("v//z", "not a polynomial"),
    ):
        with pytest.raises(ValueError, match=message):
            read_poly(bad)


def test_poly_constants():
    assert read_poly("1") == read_poly("3 - 2") == LaurentPoly2.const(1)
    assert read_poly("0") == LaurentPoly2()


def test_poly_rejects_unknown_variable():
    with pytest.raises(ValueError, match="not a polynomial: w"):
        read_poly("2*w^2")


def test_pd_round_trip():
    text = "PD[X[4,2,5,1],X[2,4,3,3],X[5,1,6,6]]"
    d = parse_pd(text, unknots=0)
    assert render_pd(d) == text


def test_pd_bare_needs_unknot_count():
    with pytest.raises(ParseError):
        parse_pd("PD[]")
    d = parse_pd("PD[]", unknots=2)
    assert len(d.crossings) == 0


def test_pd_tuple_arity():
    with pytest.raises(ParseError):
        parse_pd("PD[X[1,2,3]]", unknots=0)


def test_ovals_round_trip(fixtures_dir):
    text = (fixtures_dir / "wermer.ovals").read_text()
    f = parse_ovals(text)
    assert f.ids() == [1, 2, 3]


def test_ovals_reject_unknown_parent():
    with pytest.raises(ParseError, match="missing parent"):
        parse_ovals("1 7 1 0 0 0.5")


def test_ovals_reject_duplicate_ids():
    with pytest.raises(ParseError, match="duplicate"):
        parse_ovals("1 0 1 0 0 0.5\n1 0 2 1 1 0.3")


def test_ovals_comment_lines():
    f = parse_ovals("# a single oval\n1 0 2 0 0 0.5\n")
    assert [o.winding for o in f.ovals] == [2]


def test_line_words_drops_comments_that_start_a_word():
    text = "# heading\nlink L4a1#1 # a name holding '#'\n\n  braid BR[2,{1}]\t# tab\n   #indented\nx#y z\n"
    assert list(line_words(text)) == [(2, ["link", "L4a1#1"]), (4, ["braid", "BR[2,{1}]"]), (6, ["x#y", "z"])]


def test_ovals_comment_after_a_field_needs_whitespace():
    assert [o.winding for o in parse_ovals("1 0 2 # two\n").ovals] == [2]
    with pytest.raises(ParseError, match="line 1, col 1: id, parent, winding must be integers"):
        parse_ovals("1 0 2#two\n")


# -- the scanner against the character loop -----------------------------------


def scan(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.col


# ASCII tokens, the spaces and line breaks, characters no token takes, and
# non-ASCII ones: a decimal digit (٣), non-decimal digits (², ½, Ⅳ),
# letters (é, ß) and a combining accent that is none of these
_PIECES = ["BR", "PD", "X", "v", "z", "_a1", "x2", "0", "17", *"+-*/^(){}[],",
           " ", "\t", "\r", "\n", "\n", "\xa0", "#", ".", "٣", "²", "½", "é", "ß", "Ⅳ", "\u0301"]


def test_scanner_matches_the_character_loop():
    rng = random.Random(1801)
    errors = 0
    for _ in range(100000):
        text = "".join(rng.choices(_PIECES, k=rng.randint(0, 12)))
        got = scan(lambda t: _Tokens(t).toks, text)
        assert got == scan(reference_tokens, text), repr(text)
        errors += isinstance(got, tuple)
    # both outcomes are well represented
    assert 20000 < errors < 80000


def test_scanner_positions_and_errors():
    assert _Tokens("BR[ x_²,\n\t٣7 }").toks == [
        ("name", "BR", 1, 1), ("sym", "[", 1, 3), ("name", "x_²", 1, 5), ("sym", ",", 1, 8),
        ("int", "٣7", 2, 2), ("sym", "}", 2, 5)]
    for text, message in (
        ("v +\n  ²", "line 2, col 3: unexpected character '²'"),
        ("z*½", "line 1, col 3: unexpected character '½'"),
        ("\r\nⅣ", "line 2, col 1: unexpected character 'Ⅳ'"),
        ("e\u0301", "line 1, col 2: unexpected character '\u0301'"),
        ("1.5", "line 1, col 2: unexpected character '.'"),
    ):
        with pytest.raises(ParseError) as ei:
            _Tokens(text)
        assert str(ei.value) == message


# -- very large literals ---------------------------------------------------------


def random_letters(rng, strands, length):
    return tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length))


def test_a_200000_letter_braid_parses_in_linear_time():
    b = BraidWord(3, random_letters(random.Random(1802), 3, 200000))
    text = render_braid(b).replace(", ", ",\n", 1000)
    t0 = time.perf_counter()
    got = parse_braid(text)
    assert time.perf_counter() - t0 < 10
    assert got == b


def test_a_50000_crossing_pd_parses_in_linear_time():
    text = render_pd(from_braid(BraidWord(4, random_letters(random.Random(1803), 4, 50000))))
    t0 = time.perf_counter()
    d = parse_pd(text)
    assert time.perf_counter() - t0 < 10
    assert render_pd(d) == text
