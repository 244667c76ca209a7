"""Parser/printer round trips and error positions."""

import random
import time

import pytest

from cbound.braids import BraidWord
from cbound.diagrams import from_braid
from cbound.notation import (
    ParseError,
    _Tokens,
    line_words,
    parse_braid,
    parse_ovals,
    parse_pd,
    parse_poly,
    render_braid,
    render_pd,
    render_poly,
)
from oracles import reference_tokens


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
    # division style, parenthesised exponents, and caret style all agree
    p = parse_poly("2-3*v^2 + v^4 + z^(-2)-(2*v^2)/z^2 + v^4/z^2-v^2*z^2")
    q = parse_poly("2 - 3*v^2 + v^4 + z^-2 - 2*v^2*z^-2 + v^4*z^-2 - v^2*z^2")
    assert p == q
    assert parse_poly(render_poly(p)) == p


def test_poly_nested_denominator():
    p = parse_poly("-3/v^6 + 1/(v^8*z^2)")
    q = parse_poly("-3*v^-6 + v^-8*z^-2")
    assert p == q


def test_poly_division_and_negative_powers():
    assert parse_poly("(2*v - 4*z)/(-2*v)") == parse_poly("-1 + 2*v^-1*z")
    assert parse_poly("(v - z)/(-1)") == parse_poly("z - v")
    assert parse_poly("(-v*z)^-3") == parse_poly("-v^-3*z^-3")
    assert parse_poly("(v)^(-2)") == parse_poly("1/v^2")
    for bad, message in (
        ("3/2", "non-integer coefficient in division"),
        ("1/(v + z)", "can only divide by a single monomial"),
        ("(2*v)^-1", "negative power needs a monomial base"),
        ("(v + z)^-1", "negative power needs a monomial base"),
    ):
        with pytest.raises(ParseError, match=message):
            parse_poly(bad)


def test_poly_constants():
    assert parse_poly("1") == parse_poly("3 - 2")
    assert render_poly(parse_poly("0")) == "0"


def test_poly_digit_run_past_the_int_string_limit_is_a_positioned_error():
    huge = "9" * 5000
    for text, col in (("%s*v" % huge, 1), ("v^%s" % huge, 3), ("v^(-%s)" % huge, 5)):
        with pytest.raises(ParseError, match="^line 1, col %d: integer of 5000 digits is too long$" % col):
            parse_poly(text)


def test_poly_rejects_unknown_variable():
    with pytest.raises(ParseError):
        parse_poly("2*w^2")


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
