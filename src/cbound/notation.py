"""Text formats: braid words, planar diagrams and oval forest files are
read and written; two-variable skein polynomials are only written, since
no command reads one.

All parsers report positions.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator
from itertools import takewhile

from .braids import BraidWord
from .diagrams import Diagram, DiagramError, from_pd, pd_tuples
from .homfly import LaurentPoly2
from .splice import Oval, OvalForest, OvalError


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col


def line_words(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, words) of every line that holds more than a comment,
    for the kb, certificate and oval files.

    ``#`` opens a comment at the start of a line or after whitespace; link
    names themselves contain the character.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = list(takewhile(lambda w: not w.startswith("#"), raw.split()))
        if words:
            yield lineno, words


# ``*/^()`` belong to no format read here; as symbols they keep BR and PD
# errors in the "expected X, found '*'" form
_SYMBOLS = "+-*/^(){}[],"


# a symbol, a decimal run, a name, a line break, or any other non-space
# character; the spaces between matches are skipped
_TOKEN = re.compile(r"(?P<sym>[%s])|(?P<int>\d+)|(?P<name>[^\W\d]\w*)|(?P<nl>\n)|\S" % re.escape(_SYMBOLS))


class _Tokens:
    """Simple scanner: integers, names, single-char symbols."""

    def __init__(self, text: str):
        self.toks: list[tuple[str, str, int, int]] = []  # (kind, value, line, col)
        line, start = 1, 0  # start: offset of the current line's first character
        for m in _TOKEN.finditer(text):
            kind, value, col = m.lastgroup, m[0], m.start() - start + 1
            if kind == "nl":
                line, start = line + 1, m.end()
            # a name starts with a letter or "_"; [^\W\d] also lets a
            # non-decimal digit (², ½, Ⅳ) through
            elif kind is None or kind == "name" and not (value[0].isalpha() or value[0] == "_"):
                raise ParseError("unexpected character %r" % value[0], line, col)
            else:
                self.toks.append((kind, value, line, col))
        self.pos = 0

    def peek(self):
        if self.pos < len(self.toks):
            return self.toks[self.pos]
        return ("eof", "", *self._end())

    def _end(self):
        if self.toks:
            k, v, l, c = self.toks[-1]
            return l, c + len(v)
        return 1, 1

    def next(self):
        t = self.peek()
        self.pos += 1
        return t

    def expect(self, kind, value=None):
        k, v, l, c = self.next()
        if k != kind or (value is not None and v != value):
            want = value if value is not None else kind
            raise ParseError("expected %s, found %r" % (want, v or k), l, c)
        return v, l, c

    def at(self, kind, value=None):
        k, v, _, _ = self.peek()
        return k == kind and (value is None or v == value)

    def done(self):
        if self.pos != len(self.toks):
            k, v, l, c = self.peek()
            raise ParseError("trailing input %r" % (v or k), l, c)


def _int(tk: _Tokens) -> int:
    neg = False
    if tk.at("sym", "-"):
        tk.next()
        neg = True
    elif tk.at("sym", "+"):
        tk.next()
    digits, l, c = tk.expect("int")
    try:  # int() refuses a digit run past Python's int-string limit
        v = int(digits)
    except ValueError:
        raise ParseError("integer of %d digits is too long" % len(digits), l, c) from None
    return -v if neg else v


# -- braid words -------------------------------------------------------------


def parse_braid(text: str) -> BraidWord:
    """Read ``BR[n, {e1, e2, ...}]``."""
    tk = _Tokens(text)
    _, l, c = tk.expect("name", "BR")
    tk.expect("sym", "[")
    strands = _int(tk)
    tk.expect("sym", ",")
    tk.expect("sym", "{")
    letters = []
    if not tk.at("sym", "}"):
        letters.append(_int(tk))
        while tk.at("sym", ","):
            tk.next()
            letters.append(_int(tk))
    tk.expect("sym", "}")
    tk.expect("sym", "]")
    tk.done()
    try:
        return BraidWord(strands, tuple(letters))
    except ValueError as exc:
        raise ParseError(str(exc), l, c)


def render_braid(b: BraidWord) -> str:
    return "BR[%d, {%s}]" % (b.strands, ", ".join(str(x) for x in b.letters))


# -- skein polynomials -------------------------------------------------------


def render_poly(p: LaurentPoly2) -> str:
    """Canonical text: terms by falling v-degree then z-degree."""
    if not p.terms:
        return "0"
    items = sorted(p.terms.items(), key=lambda kv: (-kv[0][0], -kv[0][1]))
    out = []
    for (dv, dz), coeff in items:
        mono = []
        if dv:
            mono.append("v" if dv == 1 else "v^%d" % dv)
        if dz:
            mono.append("z" if dz == 1 else "z^%d" % dz)
        mag = abs(coeff)
        if mag != 1 or not mono:
            mono.insert(0, str(mag))
        body = "*".join(mono)
        if not out:
            out.append("-" + body if coeff < 0 else body)
        else:
            out.append((" - " if coeff < 0 else " + ") + body)
    return "".join(out)


# -- planar diagrams ---------------------------------------------------------


def parse_pd(text: str, unknots: int | None = None) -> Diagram:
    """Read ``PD[X[a,b,c,d], ...]``.

    A bare ``PD[]`` carries no component information, so it is rejected
    unless the caller supplies how many unknotted circles it stands for,
    at least one.
    """
    tk = _Tokens(text)
    _, l0, c0 = tk.expect("name", "PD")
    tk.expect("sym", "[")
    tuples = []
    while not tk.at("sym", "]"):
        _, l, c = tk.expect("name", "X")
        tk.expect("sym", "[")
        vals = [_int(tk)]
        for _ in range(3):
            tk.expect("sym", ",")
            vals.append(_int(tk))
        tk.expect("sym", "]")
        tuples.append(tuple(vals))
        if tk.at("sym", ","):
            tk.next()
        elif not tk.at("sym", "]"):
            k, v, l, c = tk.peek()
            raise ParseError("expected , or ], found %r" % (v or k), l, c)
    tk.expect("sym", "]")
    tk.done()
    if not tuples:
        if unknots is None or unknots < 1:
            raise ParseError("empty diagram needs an explicit unknot count of at least 1", l0, c0)
        return Diagram([], [], free_loops=unknots)
    try:
        return from_pd(tuples, free_loops=unknots or 0)
    except DiagramError as exc:
        raise ParseError(str(exc), l0, c0)


def render_pd(d: Diagram) -> str:
    if not d.crossings:
        return "PD[]"
    return "PD[%s]" % ",".join("X[%d,%d,%d,%d]" % t for t in pd_tuples(d))


# -- oval forests ------------------------------------------------------------


def parse_ovals(text: str) -> OvalForest:
    """One oval per line: ``id parent winding`` with optional ``cx cy r``.

    Comments follow ``line_words``; parents may be declared after their
    children.  A radius of exactly 0 marks a fiber circle; OvalForest
    rejects a negative one.  Its errors name the line of the oval at fault.
    """
    ovals, lines = [], []
    for lineno, parts in line_words(text):
        lines.append(lineno)
        if len(parts) not in (3, 6):
            raise ParseError("expected 3 or 6 fields, found %d" % len(parts), lineno, 1)
        try:
            ident, parent, winding = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError("id, parent, winding must be integers", lineno, 1)
        if len(parts) == 6:
            try:
                cx, cy, r = (float(x) for x in parts[3:])
                if not all(map(math.isfinite, (cx, cy, r))):
                    raise ValueError
            except ValueError:
                raise ParseError("geometry fields must be finite numbers", lineno, 1)
            ovals.append(Oval(ident, parent, winding, fiber=(r == 0.0),
                              cx=cx, cy=cy, r=r))
        else:
            ovals.append(Oval(ident, parent, winding))
    if not ovals:
        raise ParseError("no ovals in input")
    try:
        return OvalForest(ovals)
    except OvalError as exc:
        raise ParseError(str(exc), lines[exc.at])
