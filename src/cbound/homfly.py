"""HOMFLY polynomial of braid closures and of planar diagrams.

Normalization: the unknot has polynomial 1 and the skein relation is

    P(positive crossing) = v*z * P(smoothed) + v^2 * P(switched)

so a split unlink of m circles evaluates to ((1/v - v)/z)^(m-1).

Two routes compute it:

* A braid on at most ``HECKE_MAX_STRANDS`` (7) strands is multiplied out
  in the Hecke algebra H_n and closed with the Ocneanu trace (Jones 1987,
  as computed by Morton and Short 1990).  The cost grows with the word
  length times the size of H_n, polynomially in the length for a fixed
  strand count.  The word is cyclically free-reduced first.
* A planar diagram, or a braid on more strands, goes through a memoized
  descending-diagram skein evaluation.  Every node of the skein tree is
  first cleaned of kinks and cancelling clasps (``simplify_diagram``) and
  then relabelled canonically, which keys a memo that belongs to one
  ``homfly`` call: a subdiagram reached twice is evaluated once.  A node
  walks every component from its smallest arc and switches or smooths the
  first crossing met on an under-strand first; descending diagrams close
  up into unlinks.  The tree is walked with an explicit stack, so deep
  trees need no Python recursion.  The skein also serves the tests as an
  oracle independent of the Hecke route.

One ``budget`` bounds the work of both.  The skein charges each expanded
node its crossing count (at least 1); memo hits are free.  The Hecke route
charges one unit per coefficient entry (a permutation and a z-degree) of
every element it writes, in the trace too.
"""

from __future__ import annotations

from .braids import BraidWord, reduce_word
from .diagrams import Crossing, Diagram, from_braid, remove_crossings, simplify_diagram


#: default skein budget, in crossings charged per expanded node (or Hecke
#: coefficients written, on braids routed through the Hecke algebra)
DEFAULT_SKEIN_BUDGET = 1 << 20

#: braids on at most this many strands are evaluated in the Hecke algebra
HECKE_MAX_STRANDS = 7


class BudgetExceeded(RuntimeError):
    """Raised when an evaluation charges more work than its budget allows."""


class LaurentPoly2:
    """Laurent polynomial in two variables v, z with integer coefficients.

    Stored sparsely as {(v_degree, z_degree): coefficient}.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    @classmethod
    def const(cls, c: int) -> "LaurentPoly2":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, c: int, dv: int, dz: int) -> "LaurentPoly2":
        return cls({(dv, dz): c})

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return LaurentPoly2(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) - v
        return LaurentPoly2(out)

    def __neg__(self):
        return LaurentPoly2({k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly2(out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined here")
        out = LaurentPoly2.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, dv: int, dz: int) -> "LaurentPoly2":
        return LaurentPoly2({(a + dv, b + dz): c for (a, b), c in self.terms.items()})

    @property
    def ord_v(self) -> int:
        """Lowest v-degree appearing; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return min(a for a, _ in self.terms)

    def mirror_image(self) -> "LaurentPoly2":
        """Polynomial of the mirror link: substitute v -> 1/v, z -> -z."""
        return LaurentPoly2({(-a, b): c * (1 if b % 2 == 0 else -1) for (a, b), c in self.terms.items()})

    def __repr__(self):
        items = sorted(self.terms.items(), key=lambda kv: (-kv[0][0], -kv[0][1]))
        return "LaurentPoly2(%r)" % (dict(items),)


#: multiplying by this adds one split unknot component
UNLINK_FACTOR = LaurentPoly2({(-1, -1): 1, (1, -1): -1})

ONE = LaurentPoly2.const(1)


Key = tuple[tuple[Crossing, ...], tuple[int, ...], int]


def _canonical(d: Diagram) -> Key:
    """Memo key of a diagram: arcs renumbered from 1 in walk order (the
    components in their listed order, each from its smallest arc), then the
    sorted crossings, the component lengths and the free loops.

    Arcs of one component get consecutive numbers, so the key rebuilds the
    relabelled diagram (``_diagram_of``)."""
    label: dict[int, int] = {}
    for comp in d.components:
        lo = comp.index(min(comp))
        for a in comp[lo:] + comp[:lo]:
            label[a] = len(label) + 1
    crossings = sorted([(label[ui], label[uo], label[oi], label[oo], s) for ui, uo, oi, oo, s in d.crossings])
    return tuple(crossings), tuple(len(c) for c in d.components), d.free_loops


def _diagram_of(key: Key) -> Diagram:
    crossings, lengths, free = key
    comps, start = [], 1
    for n in lengths:
        comps.append(list(range(start, start + n)))
        start += n
    return Diagram(list(crossings), comps, free)


def _node(d: Diagram) -> Key:
    return _canonical(simplify_diagram(d))


def homfly(diag: Diagram, budget: int = DEFAULT_SKEIN_BUDGET) -> LaurentPoly2:
    """HOMFLY polynomial of an oriented diagram.

    Every node expanded charges its crossing count (at least 1) against
    ``budget``; memo hits are free.  BudgetExceeded is raised once the
    charge passes the budget.
    """
    memo: dict[Key, LaurentPoly2] = {}
    pending: dict[Key, tuple[int, Key, Key]] = {}
    charged = expanded = hits = 0
    root = _node(diag)
    stack = [root]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            hits += 1
            continue
        if key in pending:
            s, switched, smoothed = pending.pop(key)
            if s > 0:
                memo[key] = memo[switched].shift(2, 0) + memo[smoothed].shift(1, 1)
            else:
                memo[key] = memo[switched].shift(-2, 0) - memo[smoothed].shift(-1, 1)
            stack.pop()
            continue
        crossings, lengths, free = key
        charged += max(1, len(crossings))
        if charged > budget:
            raise BudgetExceeded(
                "skein budget of %d crossings ran out after %d nodes expanded and %d memo hits"
                % (budget, expanded, hits)
            )
        expanded += 1
        # arcs are numbered in walk order, so the walk meets a crossing first
        # at the smaller of its two in-arcs; the crossings are sorted by
        # under-in arc, so the first one met on its under strand is the
        # first whose under-in arc comes before its over-in arc
        t = next((t for t, c in enumerate(crossings) if c[0] < c[2]), None)
        if t is None:
            # descending diagrams close up into unlinks
            memo[key] = unlink_poly(len(lengths) + free)
            stack.pop()
            continue
        d = _diagram_of(key)
        ui, uo, oi, oo, s = crossings[t]
        d.crossings[t] = (oi, oo, ui, uo, -s)
        switched = _node(d)
        d.crossings[t] = crossings[t]
        smoothed = _node(remove_crossings(d, {t}, [(ui, oo), (oi, uo)]))
        pending[key] = (s, switched, smoothed)
        stack += (switched, smoothed)
    return memo[root]


# -- the Hecke algebra route ------------------------------------------------
#
# An element of H_n is a dict {w: {j: c}}: the basis element T_w of a
# permutation w (a tuple, w[p] the value at position p) with coefficient
# sum c*z^j.  The generators satisfy g_i^2 = z*g_i + 1, so g_i^-1 = g_i - z.

Element = dict[tuple[int, ...], dict[int, int]]


def _add_into(x: Element, w: tuple[int, ...], p: dict[int, int], dz: int = 0, sign: int = 1):
    """x += sign * z^dz * p * T_w, dropping the terms that cancel."""
    q = x.get(w)
    if q is None:
        x[w] = dict(p) if dz == 0 and sign == 1 else {j + dz: sign * c for j, c in p.items()}
        return
    for j, c in p.items():
        c = q.get(j + dz, 0) + sign * c
        if c:
            q[j + dz] = c
        else:
            del q[j + dz]
    if not q:
        del x[w]


def _times(x: Element, i: int, sign: int) -> Element:
    """x * g_i for ``sign`` 1, x * g_i^-1 for -1: g_i swaps positions i-1
    and i (0-based) of every permutation."""
    out: Element = {}
    for w, p in x.items():
        _add_into(out, w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:], p)
        # T_w g_i = z T_w + T_ws at a descent, T_w g_i^-1 = T_ws - z T_w at an ascent
        if (w[i - 1] > w[i]) == (sign > 0):
            _add_into(out, w, p, 1, sign)
    return out


def _cyclically_reduced(b: BraidWord) -> tuple[int, ...]:
    """The letters of ``b`` with every x, -x pair cancelled, also across its
    ends: the closure, and so the polynomial, stays the same."""
    out = reduce_word(b).letters
    lo, hi = 0, len(out)
    while hi - lo > 1 and out[lo] == -out[hi - 1]:
        lo, hi = lo + 1, hi - 1
    return out[lo:hi]


def _hecke_homfly(b: BraidWord, budget: int) -> LaurentPoly2:
    """Polynomial of the closure of ``b`` from the Ocneanu trace of its
    image in the Hecke algebra H_n (Jones 1987, Morton-Short 1990).

    The trace tr satisfies tr(1) = 1 and tr(x g_{m-1} y) = t tr(xy) for x, y
    in H_{m-1}.  With tr(b) = sum c_kj t^k z^j, e the writhe and
    c = UNLINK_FACTOR, P = v^e sum c_kj z^j c^(n-1-k) v^-k.
    """
    n = b.strands
    letters = _cyclically_reduced(b)
    charged = 0

    def charge(x: Element, where: str):
        nonlocal charged
        charged += sum(len(p) for p in x.values())
        if charged > budget:
            raise BudgetExceeded(
                "skein budget of %d crossings ran out %s of %d letters (%d Hecke coefficients)"
                % (budget, where, len(letters), charged)
            )

    x: Element = {tuple(range(n)): {0: 1}}
    for step, s in enumerate(letters, 1):
        x = _times(x, abs(s), 1 if s > 0 else -1)
        charge(x, "after %d" % step)
    # Take H_m down to H_{m-1}, m = n, ..., 2.  If w has the value m-1 at
    # position k, T_w = T_u g_{m-1} g_{m-2} ... g_{k+1} with u = w less that
    # value, whose trace is t * tr(T_u g_{m-2} ... g_{k+1}); layers[d] holds
    # the part that carries t^d.
    layers = [x]
    for m in range(n, 1, -1):
        down: list[Element] = [{} for _ in range(len(layers) + 1)]
        for d, layer in enumerate(layers):
            by_position: dict[int, Element] = {}
            for w, p in layer.items():
                k = w.index(m - 1)
                by_position.setdefault(k, {})[w[:k] + w[k + 1:]] = p
            for k, y in by_position.items():
                for i in range(m - 2, k, -1):
                    y = _times(y, i, 1)
                    charge(y, "in the trace, after all")
                for u, p in y.items():
                    _add_into(down[d + (k < m - 1)], u, p)
        layers = down
        for y in layers:
            charge(y, "in the trace, after all")
    e = b.writhe
    out, power = LaurentPoly2(), ONE  # power = c^(n-1-d)
    for d in range(n - 1, -1, -1):
        trace_d = layers[d].get((0,), {})
        out = out + LaurentPoly2({(e - d, j): c for j, c in trace_d.items()}) * power
        power = power * UNLINK_FACTOR
    return out


def homfly_braid(b: BraidWord, budget: int = DEFAULT_SKEIN_BUDGET) -> LaurentPoly2:
    """Polynomial of the closure of ``b``: in the Hecke algebra on at most
    HECKE_MAX_STRANDS strands, else by the skein of its closure diagram."""
    if b.strands <= HECKE_MAX_STRANDS:
        return _hecke_homfly(b, budget)
    return homfly(from_braid(b), budget)


def homfly_pd(diag: Diagram, budget: int = DEFAULT_SKEIN_BUDGET) -> LaurentPoly2:
    """Same as ``homfly``, which already removes kinks and clasps at every
    node of the skein tree."""
    return homfly(diag, budget)


def unlink_poly(components: int) -> LaurentPoly2:
    # UNLINK_FACTOR ** m = (v^-1 - v)^m z^-m, expanded by the binomial theorem
    # with C(m, k + 1) = C(m, k) (m - k) / (k + 1)
    m, terms, c = components - 1, {}, 1
    for k in range(m + 1):
        terms[(2 * k - m, -m)] = -c if k % 2 else c
        c = c * (m - k) // (k + 1)
    return LaurentPoly2(terms)


def fwm_obstruction(p: LaurentPoly2, chi_s_upper: int) -> dict:
    """Skein-theoretic quasipositivity obstruction.

    A quasipositive link satisfies ord_v P >= 1 - chi_s.  Feeding the best
    available upper bound for chi_s keeps the test sound: a violation
    refutes quasipositivity outright.
    """
    bound = 1 - chi_s_upper
    return {
        "ord_v": p.ord_v,
        "required_at_least": bound,
        "refuted": p.ord_v < bound,
    }
