"""Independent routes that the tests check cbound's invariants against.

None of these is used by a command: each one reaches a known answer by a
second way (reflecting a diagram, reversing one component, evaluating the
skein polynomial at a point, following each component's strands on its
own, trying every component subset for a sublink of zero linking,
rewriting braid words letter by letter, sweeping Garside factors
until nothing changes, acting on the free group,
eliminating the Seifert form over the rationals, orienting PD input by
local rules, scanning text one character at a time, reading polynomial
text with Python's own parser) so that a test can compare the two.
"""

import ast
import operator
from fractions import Fraction

from cbound.braids import BraidWord, NormalForm, _gen_perm, pinv, pmul, seifert_matrix_of_closure
from cbound.diagrams import Crossing, Diagram, DiagramError, _component_of_arc, walk_components
from cbound.homfly import LaurentPoly2
from cbound.notation import _SYMBOLS, ParseError


def mirror_diagram(d: Diagram) -> Diagram:
    out = [(oi, oo, ui, uo, -s) for ui, uo, oi, oo, s in d.crossings]
    return Diagram(out, [list(c) for c in d.components], d.free_loops)


def reverse_component(d: Diagram, idx: int) -> Diagram:
    """Reverse the orientation of a single component."""
    where = _component_of_arc(d)
    out: list[Crossing] = []
    for ui, uo, oi, oo, s in d.crossings:
        under_in = where[ui] == idx
        over_in = where[oi] == idx
        if under_in and over_in:
            out.append((uo, ui, oo, oi, s))
        elif under_in:
            out.append((uo, ui, oi, oo, -s))
        elif over_in:
            out.append((ui, uo, oo, oi, -s))
        else:
            out.append((ui, uo, oi, oo, s))
    comps = [list(reversed(c)) if i == idx else list(c) for i, c in enumerate(d.components)]
    return Diagram(out, comps, d.free_loops)


def evaluate(p: LaurentPoly2, v: complex, z: complex) -> complex:
    tot = 0j
    for (a, b), c in p.terms.items():
        tot += c * v**a * z**b
    return tot


def determinant_from_poly(p: LaurentPoly2) -> int:
    """|P(1, 2i)|, which matches the link determinant; the value of a
    Laurent polynomial at v=1, z=2i is a Gaussian integer."""
    val = evaluate(p, 1, 2j)
    out = abs(val)
    r = round(out)
    if abs(out - r) > 1e-6:
        raise ValueError("determinant evaluation drifted: %r" % val)
    return int(r)


def strand_cycles(b: BraidWord) -> list[list[int]]:
    """Cycles of the strand permutation of a braid word, 0-based.

    The strand that starts at position x ends at position p[x]; each cycle
    starts at its least strand and follows p, cycles in order of their
    least strand."""
    occ = list(range(b.strands))
    for x in b.letters:
        i = abs(x)
        occ[i - 1], occ[i] = occ[i], occ[i - 1]
    p = [0] * b.strands
    for pos, s in enumerate(occ):
        p[s] = pos
    seen = [False] * b.strands
    out = []
    for s in range(b.strands):
        if seen[s]:
            continue
        cyc = [s]
        seen[s] = True
        x = p[s]
        while x != s:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        out.append(cyc)
    return out


def sub_braid(b: BraidWord, strand_set: set[int]) -> BraidWord:
    """Braid of the sublink traced by the given starting strands (1-based).

    Letters touching a kept and a removed strand drop out; the occupancy
    of positions is tracked so surviving letters reindex correctly.
    """
    keep = {s - 1 for s in strand_set}
    occupants = list(range(b.strands))
    letters = []
    for x in b.letters:
        i = abs(x)
        a, c = occupants[i - 1], occupants[i]
        if a in keep and c in keep:
            pos = sum(1 for y in occupants[: i - 1] if y in keep)
            letters.append((pos + 1) if x > 0 else -(pos + 1))
        occupants[i - 1], occupants[i] = c, a
    n = len(keep)
    return BraidWord(max(n, 1), tuple(letters))


def cycle_linking(word: BraidWord, cycles: list[frozenset[int]]) -> list[list[int]]:
    """Pairwise linking numbers of the components (1-based strand cycles)."""
    which = {s - 1: k for k, cyc in enumerate(cycles) for s in cyc}
    acc = [[0] * len(cycles) for _ in cycles]
    occ = list(range(word.strands))
    for x in word.letters:
        i = abs(x)
        a, c = occ[i - 1], occ[i]
        ka, kc = which[a], which[c]
        if ka != kc:
            s = 1 if x > 0 else -1
            acc[ka][kc] += s
            acc[kc][ka] += s
        occ[i - 1], occ[i] = c, a
    return [[v // 2 for v in row] for row in acc]


def closure_components_by_sublink(b: BraidWord) -> tuple[list[BraidWord], list[list[int]]]:
    """Component words and linking matrix, one sublink walk per component
    and one more for the linking."""
    cycles = [frozenset(c + 1 for c in cyc) for cyc in strand_cycles(b)]
    return [sub_braid(b, cyc) for cyc in cycles], cycle_linking(b, cycles)


def reference_zero_linking_sublinks(m: list[list[int]]):
    """Proper nonempty component subsets whose total linking number with
    the complement vanishes, yielded one at a time; every subset is tried,
    each complement too."""
    n = len(m)
    for mask in range(1, (1 << n) - 1):
        s = [i for i in range(n) if mask >> i & 1]
        rest = [i for i in range(n) if not mask >> i & 1]
        if sum(m[i][j] for i in s for j in rest) == 0:
            yield tuple(s)


# -- the chi search's rewriting moves on plain letter tuples ------------------

_RELATION_SIGNS = {
    (1, 1, 1): (1, 1, 1),
    (-1, -1, -1): (-1, -1, -1),
    (1, 1, -1): (-1, 1, 1),
    (-1, 1, 1): (1, 1, -1),
    (1, -1, -1): (-1, -1, 1),
    (-1, -1, 1): (1, -1, -1),
}


def _free_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _destabilize(word: tuple[int, ...]) -> tuple[int, ...] | None:
    counts: dict[int, int] = {}
    for x in word:
        counts[abs(x)] = counts.get(abs(x), 0) + 1
    lone = [i for i, c in counts.items() if c == 1]
    if not lone:
        return None
    i = min(lone)
    low = [x for x in word if abs(x) < i]
    high = [x - 1 if x > 0 else x + 1 for x in word if abs(x) > i]
    return tuple(low + high)


def reference_neighbors(word: tuple[int, ...], strands: int):
    """The chi search's rewriting moves, written on signed letters.

    Yields (move name, new strand count, new word) in the order the search
    takes them: flips, reduce, destab, rotate, commutes, relations.
    """
    # sign flips sigma^-1 -> sigma
    for t, x in enumerate(word):
        if x < 0:
            yield ("flip", strands, word[:t] + (-x,) + word[t + 1 :])
    red = _free_reduce(word)
    if red != word:
        yield ("reduce", strands, red)
    dest = _destabilize(word)
    if dest is not None:
        yield ("destab", strands - 1, dest)
    if len(word) > 1:
        yield ("rotate", strands, word[1:] + word[:1])
    for t in range(len(word) - 1):
        if abs(abs(word[t]) - abs(word[t + 1])) >= 2:
            swapped = list(word)
            swapped[t], swapped[t + 1] = swapped[t + 1], swapped[t]
            yield ("commute", strands, tuple(swapped))
    for t in range(len(word) - 2):
        a, b, c = word[t : t + 3]
        if abs(a) == abs(c) and abs(abs(a) - abs(b)) == 1:
            pat = (1 if a > 0 else -1, 1 if b > 0 else -1, 1 if c > 0 else -1)
            new = _RELATION_SIGNS.get(pat)
            if new is not None:
                i, j = abs(a), abs(b)
                repl = (new[0] * j, new[1] * i, new[2] * j)
                yield ("relation", strands, word[:t] + repl + word[t + 3 :])


# -- the Seifert form's congruence reduction over Q ---------------------------


def fraction_seifert_reduction(b: BraidWord) -> tuple[int, int, int, Fraction]:
    """(positives, negatives, zeros, product of the nonzero pivots) of
    V + V^T, by congruence reduction with exact fractions, as the program
    computed it before its fraction-free elimination.  That code also
    updated the closed rows and columns, which nothing reads; here only
    the open block is updated.

    A nonzero diagonal entry of the open block is the next pivot, and its
    sign alone counts it; each other open entry loses its pivot-row
    multiple.  With a zero diagonal, an open pair (a, b) with a nonzero
    entry is turned into a diagonal one by adding row and column b to row
    and column a.  Every step has determinant 1, so with no zero block the
    pivot product is det(V + V^T).
    """
    v = seifert_matrix_of_closure(b)
    n = len(v)
    m = [[v[a][c] + v[c][a] for c in range(n)] for a in range(n)]
    pos = neg = zero = 0
    det = Fraction(1)
    idx = list(range(n))
    while idx:
        piv = next((a for a in idx if m[a][a] != 0), None)
        if piv is None:
            hot = next(((a, c) for a in idx for c in idx if a != c and m[a][c] != 0), None)
            if hot is None:
                zero += len(idx)
                break
            a, bb = hot
            for c in idx:
                m[a][c] += m[bb][c]
            for r in idx:
                m[r][a] += m[r][bb]
            continue
        d = m[piv][piv]
        if d > 0:
            pos += 1
        else:
            neg += 1
        det *= d
        idx.remove(piv)
        for a in idx:
            f = m[a][piv] / d
            if f != 0:
                for c in idx:
                    m[a][c] -= f * m[piv][c]
    return pos, neg, zero, det


# -- the Garside normal form by sweeps until stable ---------------------------


def _w0(n: int) -> tuple[int, ...]:
    return tuple(range(n - 1, -1, -1))


def _tau(p: tuple[int, ...], n: int) -> tuple[int, ...]:
    w = _w0(n)
    return pmul(pmul(w, p), w)


def _left_descents(p: tuple[int, ...]) -> set[int]:
    return {i for i in range(1, len(p)) if p[i - 1] > p[i]}


def _right_descents(p: tuple[int, ...]) -> set[int]:
    return _left_descents(pinv(p))


def reference_normal_form(b: BraidWord) -> NormalForm:
    """Garside left-canonical form: ``Delta^d . A_1 ... A_k`` with each
    factor a permutation and consecutive pairs left-weighted."""
    n = b.strands
    ident = tuple(range(n))
    w0 = _w0(n)
    d = 0
    factors: list[tuple[int, ...]] = []
    for x in b.letters:
        if x > 0:
            factors.append(_gen_perm(n, x))
        else:
            d -= 1
            factors = [_tau(f, n) for f in factors]
            factors.append(pmul(w0, _gen_perm(n, -x)))
    # left-weighting passes
    changed = True
    while changed:
        changed = False
        t = 0
        while t < len(factors) - 1:
            a, bb = factors[t], factors[t + 1]
            moved = True
            while moved:
                moved = False
                cand = _left_descents(bb) - _right_descents(a)
                if cand:
                    i = min(cand)
                    a = pmul(a, _gen_perm(n, i))
                    bb = pmul(_gen_perm(n, i), bb)
                    moved = True
                    changed = True
            factors[t], factors[t + 1] = a, bb
            t += 1
        # absorb full twists, drop identities
        t = 0
        while t < len(factors):
            if factors[t] == w0:
                d += 1
                for s in range(t):
                    factors[s] = _tau(factors[s], n)
                del factors[t]
                changed = True
            elif factors[t] == ident:
                del factors[t]
                changed = True
            else:
                t += 1
    return NormalForm(n, d, tuple(factors))


# -- braid equality by Artin's action on the free group ----------------------


def artin_images(b: BraidWord) -> list[tuple[int, ...]]:
    """Images of the free generators x_1..x_n under Artin's action of the
    braid, as freely reduced words in the letters +-1..+-n.

    sigma_i sends x_i to x_i x_{i+1} x_i^-1 and x_{i+1} to x_i; the action
    is faithful, so two braids are equal exactly when their images agree.
    """
    images = [(j,) for j in range(1, b.strands + 1)]
    for x in b.letters:
        i = abs(x)
        sub = {i: (i, i + 1, -i), i + 1: (i,)} if x > 0 else {i: (i + 1,), i + 1: (-i - 1, i, i + 1)}

        def image(g):
            w = sub.get(abs(g), (abs(g),))
            return w if g > 0 else tuple(-y for y in reversed(w))

        images = [_free_reduce(tuple(y for g in w for y in image(g))) for w in images]
    return images


# -- PD orientation by constraint propagation --------------------------------


def reference_from_pd(tuples: list[tuple[int, int, int, int]], free_loops: int = 0) -> Diagram:
    """``diagrams.from_pd`` by constraint propagation: a sweep of local
    rules over head and tail counters, repeated until nothing changes.

    The under strand runs from the first to the third entry.  The over
    direction at each crossing is fixed by demanding that every arc gets
    exactly one head and one tail; a crossing left free (on a closed
    all-over circle) falls back on consecutive arc numbering, one at a time.
    """
    for i, j, k, l in tuples:
        if i == k:
            raise DiagramError(
                "crossing X[%d,%d,%d,%d] is orientation-inconsistent: a closed "
                "curve cannot cross another exactly once" % (i, j, k, l)
            )
        if j == l:
            raise DiagramError(
                "crossing X[%d,%d,%d,%d] is orientation-inconsistent: over "
                "strand enters and leaves on the same arc" % (i, j, k, l)
            )
    heads: dict[int, int] = {}
    tails: dict[int, int] = {}

    def claim(table, arc, what):
        table[arc] = table.get(arc, 0) + 1
        if table[arc] > 1:
            raise DiagramError("arc %d has two %s" % (arc, what))

    for i, j, k, l in tuples:
        claim(heads, i, "heads")
        claim(tails, k, "tails")
    # sign[t] = +1 when over runs l->j, -1 when over runs j->l
    sign: list[int | None] = [None] * len(tuples)

    def orient(t, s):
        """Fix crossing t's sign and claim its over strand's head and tail."""
        _, j, _, l = tuples[t]
        sign[t] = s
        head, tail = (l, j) if s == 1 else (j, l)
        claim(heads, head, "heads")
        claim(tails, tail, "tails")

    changed = True
    while changed:
        changed = False
        for t, (i, j, k, l) in enumerate(tuples):
            if sign[t] is not None:
                continue
            if heads.get(j) or tails.get(l):
                orient(t, 1)  # j must be a tail, so over runs l -> j
            elif tails.get(j) or heads.get(l):
                orient(t, -1)
            else:
                continue
            changed = True
        if not changed and None in sign:
            # a circle over at every crossing has no self-crossing, so either
            # direction is correct; the numbering fixes one crossing (it breaks
            # where the numbering wraps around) and the rest propagate from it
            t = sign.index(None)
            _, j, _, l = tuples[t]
            orient(t, -1 if j + 1 == l else 1)
            changed = True
    crossings: list[Crossing] = []
    for t, (i, j, k, l) in enumerate(tuples):
        if sign[t] == 1:
            crossings.append((i, k, l, j, 1))
        else:
            crossings.append((i, k, j, l, -1))
    comps = walk_components(crossings)
    return Diagram(crossings, comps, free_loops)


# -- the token scanner as a character loop -------------------------------------


def reference_tokens(text: str) -> list[tuple[str, str, int, int]]:
    """``notation._Tokens(text).toks`` by a loop over the characters:
    (kind, value, line, col) of every integer, name and symbol, or the
    ParseError of the first character that starts none of them."""
    toks: list[tuple[str, str, int, int]] = []  # (kind, value, line, col)
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            toks.append(("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            toks.append(("sym", ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    return toks


# -- polynomial text by Python's own parser -----------------------------------

_RING = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}


def read_poly(text: str) -> LaurentPoly2:
    """A skein polynomial from hand-written text such as
    ``2-3*v^2 + z^(-2)-(2*v^2)/z^2`` or ``-3/v^6 + 1/(v^8*z^2)``.

    Python parses the text once ``^`` is written ``**``.  Only int
    constants, v, z, unary +/-, ``+ - *``, exact division by a monomial
    and powers with an int literal exponent are evaluated, a negative one
    only on a +/-1 monomial; any other node raises ValueError.
    """
    return _poly_of(ast.parse(text.replace("^", "**"), mode="eval").body)


def _poly_of(node: ast.expr) -> LaurentPoly2:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return LaurentPoly2.const(node.value)
    if isinstance(node, ast.Name) and node.id in ("v", "z"):
        return LaurentPoly2.monomial(1, int(node.id == "v"), int(node.id == "z"))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        p = _poly_of(node.operand)
        return -p if isinstance(node.op, ast.USub) else p
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        lit = node.right.operand if isinstance(node.right, ast.UnaryOp) else node.right
        if not (isinstance(lit, ast.Constant) and type(lit.value) is int):
            raise ValueError("not an int literal exponent: %s" % ast.unparse(node.right))
        e, base = _poly_of(node.right).terms.get((0, 0), 0), _poly_of(node.left)
        return base ** e if e >= 0 else _divide(LaurentPoly2.const(1), base ** -e)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return _divide(_poly_of(node.left), _poly_of(node.right))
    if isinstance(node, ast.BinOp) and type(node.op) in _RING:
        return _RING[type(node.op)](_poly_of(node.left), _poly_of(node.right))
    raise ValueError("not a polynomial: %s" % ast.unparse(node))


def _divide(num: LaurentPoly2, den: LaurentPoly2) -> LaurentPoly2:
    if len(den.terms) != 1:
        raise ValueError("can only divide by a monomial")
    [((dv, dz), c)] = den.terms.items()
    quot = {(a - dv, b - dz): divmod(k, c) for (a, b), k in num.terms.items()}
    if any(r for _, r in quot.values()):
        raise ValueError("inexact division")
    return LaurentPoly2({key: q for key, (q, _) in quot.items()})
