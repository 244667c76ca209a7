"""Braid words, Garside normal forms, quasipositive factorizations.

Letters are nonzero integers: ``i`` stands for the elementary positive
half-twist of strands ``i`` and ``i+1``, ``-i`` for its inverse.  Words act
left to right.  Strand positions are 1-based in the public interface.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from fractions import Fraction


#: default work cap of the chi search (``chi_minus_lower_bound``), in units
DEFAULT_SEARCH_BUDGET = 100000
#: exploring a node of l letters costs ceil(l / SEARCH_UNIT_LETTERS) units, at least 1
SEARCH_UNIT_LETTERS = 16


class BraidError(ValueError):
    pass


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on ``strands`` strands."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise BraidError("strand count must be positive, got %r" % (self.strands,))
        object.__setattr__(self, "letters", tuple(self.letters))
        for x in self.letters:
            if not isinstance(x, int) or x == 0:
                raise BraidError("braid letters must be nonzero integers, got %r" % (x,))
            if abs(x) >= self.strands:
                raise BraidError(
                    "letter %d needs at least %d strands, word declares %d"
                    % (x, abs(x) + 1, self.strands)
                )

    def __len__(self):
        return len(self.letters)

    @property
    def writhe(self) -> int:
        return sum(1 if x > 0 else -1 for x in self.letters)

    def is_positive(self) -> bool:
        return all(x > 0 for x in self.letters)


@dataclass(frozen=True)
class QPFactorization:
    """A product of conjugated positive generators ``w σ_j w^{-1}``.

    ``factors`` holds pairs ``(conjugator_letters, j)`` with ``j > 0``;
    every letter must be one of a braid on ``strands`` strands.
    """

    strands: int
    factors: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        fixed = []
        for conj, j in self.factors:
            conj = tuple(conj)
            if j <= 0:
                raise BraidError("quasipositive generator index must be positive, got %r" % (j,))
            BraidWord(self.strands, conj + (j,))  # raises on a letter out of range
            fixed.append((conj, j))
        object.__setattr__(self, "factors", tuple(fixed))


def expand_qp(fac: QPFactorization) -> BraidWord:
    """Multiply out a quasipositive factorization into a plain braid word."""
    letters: list[int] = []
    for conj, j in fac.factors:
        letters.extend(conj)
        letters.append(j)
        letters.extend(-x for x in reversed(conj))
    return BraidWord(fac.strands, tuple(letters))


def qp_chi(fac: QPFactorization) -> int:
    """Euler characteristic of the braided surface built from the factors."""
    return fac.strands - len(fac.factors)


def bennequin_chi(b: BraidWord) -> int:
    """Euler characteristic of the banded surface of the closure: n - length."""
    return b.strands - len(b.letters)


def mirror(b: BraidWord) -> BraidWord:
    return BraidWord(b.strands, tuple(-x for x in b.letters))


# -- permutations -----------------------------------------------------------
#
# A permutation is a tuple p with p[x] = final position of the strand that
# starts at position x (0-based).  Word concatenation u,v corresponds to
# pmul(p_u, p_v).


def pmul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(b[a[x]] for x in range(len(a)))


def pinv(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for x, y in enumerate(a):
        out[y] = x
    return tuple(out)


def _gen_perm(n: int, i: int) -> tuple[int, ...]:
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


# -- components of the closure -----------------------------------------------


def closure_components(b: BraidWord) -> tuple[list[BraidWord], list[list[int]]]:
    """Components of the closure, each as a braid on its own strands, and
    their pairwise linking numbers.

    Components come in order of their least starting strand.  A letter
    between two strands of one component is renumbered among that
    component's strands at the letter's position; a letter between two
    components adds its sign to the pair, and a linking number is half the
    sum of the signs of the pair's crossings.
    """
    n = b.strands
    occ = list(range(n))  # occ[p]: starting strand now at position p
    for x in b.letters:
        i = abs(x)
        occ[i - 1], occ[i] = occ[i], occ[i - 1]
    # the closure joins the strand that ends at position p to the one
    # starting there
    comp = [-1] * n
    sizes: list[int] = []
    for s in range(n):
        if comp[s] < 0:
            t, size = s, 0
            while comp[t] < 0:
                comp[t] = len(sizes)
                t = occ[t]
                size += 1
            sizes.append(size)
    words: list[list[int]] = [[] for _ in sizes]
    lk = [[0] * len(sizes) for _ in sizes]
    occ = list(range(n))
    for x in b.letters:
        i = abs(x)
        a, c = occ[i - 1], occ[i]
        ka, kc = comp[a], comp[c]
        if ka == kc:
            pos = 1 + sum(1 for y in occ[: i - 1] if comp[y] == ka)
            words[ka].append(pos if x > 0 else -pos)
        else:
            sign = 1 if x > 0 else -1
            lk[ka][kc] += sign
            lk[kc][ka] += sign
        occ[i - 1], occ[i] = c, a
    return ([BraidWord(size, tuple(w)) for size, w in zip(sizes, words)],
            [[v // 2 for v in row] for row in lk])


def component_count(b: BraidWord) -> int:
    return len(closure_components(b)[0])


# -- Garside left-canonical form --------------------------------------------


@dataclass(frozen=True)
class NormalForm:
    strands: int
    delta_power: int
    factors: tuple[tuple[int, ...], ...]


def _descents(p: tuple[int, ...]) -> set[int]:
    """The i for which p starts with σ_i: its strands from 0-based i-1 and i cross."""
    return {i for i in range(1, len(p)) if p[i - 1] > p[i]}


def _left_weighted(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Move generators from the front of b to the back of a until b starts
    only with generators that a ends with; the product stays the same."""
    while cand := _descents(b) - _descents(pinv(a)):
        g = _gen_perm(len(a), min(cand))
        a, b = pmul(a, g), pmul(g, b)
    return a, b


def normal_form(b: BraidWord) -> NormalForm:
    """Garside left-canonical form: ``Delta^d . A_1 ... A_k`` with each
    factor a permutation, none Delta or the identity, and consecutive pairs
    left-weighted.

    One pass reads the letters right to left and keeps the suffix read so
    far in this form.  A letter is one simple factor: σ_i, or Delta σ_i^-1
    with d lowered by one, since σ_i^-1 = Delta^-1 (Delta σ_i^-1).  Moving
    it right past Delta^d conjugates it by τ^d, and τ (σ_i <-> σ_{n-i}) is
    an involution, so only the parity of d counts.  The factor then slides
    right, one pair at a time: each pair is made left-weighted and what
    cannot stay left moves on.  Once a pair is already left-weighted, or
    nothing is left to move, every later pair is as it was.  In a
    left-weighted sequence Delta can only come first and the identity only
    last, so a Delta made at the front joins the power and an identity is
    never kept.
    """
    n = b.strands
    delta = tuple(range(n - 1, -1, -1))
    ident = tuple(range(n))
    d = 0
    factors: list[tuple[int, ...]] = []
    for x in reversed(b.letters):
        f = _gen_perm(n, n - abs(x) if d % 2 else abs(x))
        if x < 0:
            f = pmul(delta, f)
            d -= 1
        t = 0
        while f != ident and t < len(factors):
            a, rest = _left_weighted(f, factors[t])
            if rest == factors[t]:
                break
            factors[t], f = a, rest
            t += 1
        if f != ident:
            factors.insert(t, f)
        while factors and factors[0] == delta:
            del factors[0]
            d += 1
    return NormalForm(n, d, tuple(factors))


def braid_equal(a: BraidWord, b: BraidWord) -> bool:
    if a.strands != b.strands:
        raise BraidError("braid_equal needs words on the same strand count")
    return normal_form(a) == normal_form(b)


# -- word rewriting moves ----------------------------------------------------


def _free_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _destab(mags) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Drop the smallest index that occurs once, letters below it first and
    those above it renumbered one lower: the new magnitudes and the position
    each came from, or None when no index occurs once."""
    lone = [m for m in set(mags) if mags.count(m) == 1]
    if not lone:
        return None
    i = min(lone)
    order = [t for t, m in enumerate(mags) if m < i] + [t for t, m in enumerate(mags) if m > i]
    return tuple(mags[t] - (mags[t] > i) for t in order), tuple(order)


def reduce_word(b: BraidWord) -> BraidWord:
    """Free reduction: cancel adjacent inverse pairs until none remain."""
    return BraidWord(b.strands, _free_reduce(b.letters))


def destabilize_isolated(b: BraidWord) -> BraidWord | None:
    """Remove the smallest generator index that occurs exactly once.

    The closure is unchanged: the letters below the index commute with the
    letters above it, so the word sorts into two blocks joined by the lone
    band, and the closure is the connected sum of the two block closures.
    The output word is that sorted composite on one strand less.  Keeping
    the letters in place instead would interleave the blocks across the
    shared strand and generally change the link.
    """
    dest = _destab([abs(x) for x in b.letters])
    if dest is None:
        return None
    return BraidWord(b.strands - 1, tuple(m if b.letters[t] > 0 else -m for m, t in zip(*dest)))


_RELATION_SIGNS = {
    (1, 1, 1): (1, 1, 1),
    (-1, -1, -1): (-1, -1, -1),
    (1, 1, -1): (-1, 1, 1),
    (-1, 1, 1): (1, 1, -1),
    (1, -1, -1): (-1, -1, 1),
    (-1, -1, 1): (1, -1, -1),
}


def _sign_bits(signs) -> int:
    return sum(1 << k for k, s in enumerate(signs) if s < 0)


# the relation rule on 3-bit sign patterns, bit k set when letter t + k is
# negative: indexed by the old pattern, None where no relation applies
_RELATION_BITS = tuple(map({_sign_bits(old): _sign_bits(new) for old, new in _RELATION_SIGNS.items()}.get, range(8)))


def _letters(mags: tuple[int, ...], neg: int) -> tuple[int, ...]:
    return tuple(-m if neg >> t & 1 else m for t, m in enumerate(mags))


def _cancel(mags: tuple[int, ...], neg: int, pairs: int) -> tuple[tuple[int, ...], int]:
    """Free reduction on magnitudes and sign bits: remove the lowest
    cancelling pair until none is left.  ``pairs`` has bit t set when
    letters t and t + 1 have equal magnitude; a removal shifts the bits
    above the pair down by two and renews the one at the seam.  Free
    reduction is confluent, so the word is that of ``_free_reduce``."""
    while cancel := (neg ^ neg >> 1) & pairs:
        t = (cancel & -cancel).bit_length() - 1
        keep = (1 << t) - 1
        neg = neg & keep | neg >> t + 2 << t
        pairs = pairs & keep >> 1 | pairs >> t + 2 << t
        mags = mags[:t] + mags[t + 2 :]
        if 0 < t < len(mags) and mags[t - 1] == mags[t]:
            pairs |= 1 << t - 1
    return mags, neg


class _Table:
    """The magnitude words of one search, interned to small int ids, with
    the sign-free parts of their moves computed once per id.

    A node is ``(strands, id, neg)``: bit t of ``neg`` is set when letter t
    is negative.  ``shape(i)`` gives the word's length, the bitmask of
    positions t where letters t and t + 1 have equal magnitude (the only
    places where a pair can cancel), the ``_destab`` target as an id with
    the bit each old position moves to (0 for the dropped letter), the
    rotated word's id, and each commute and each relation as (position,
    id).  None of these depends on the strand count or on the signs."""

    def __init__(self):
        self.ids: dict[tuple[int, ...], int] = {}
        self.mags: list[tuple[int, ...]] = []
        self.shapes: list[tuple | None] = []

    def intern(self, mags: tuple[int, ...]) -> int:
        i = self.ids.get(mags)
        if i is None:
            i = self.ids[mags] = len(self.mags)
            self.mags.append(mags)
            self.shapes.append(None)
        return i

    def node(self, strands: int, word: tuple[int, ...]) -> tuple[int, int, int]:
        return strands, self.intern(tuple(map(abs, word))), _sign_bits(word)

    def shape(self, i: int) -> tuple:
        mags = self.mags[i]
        n = len(mags)
        pairs = 0
        commutes = []
        relations = []
        for t in range(n - 1):
            a, b = mags[t], mags[t + 1]
            if a == b:
                pairs |= 1 << t
            elif abs(a - b) > 1:
                commutes.append((t, self.intern(mags[:t] + (b, a) + mags[t + 2 :])))
            elif t < n - 2 and mags[t + 2] == a:
                relations.append((t, self.intern(mags[:t] + (b, a, b) + mags[t + 3 :])))
        destab = _destab(mags)
        if destab is not None:
            dmags, order = destab
            moved = [0] * n
            for k, t in enumerate(order):
                moved[t] = 1 << k
            destab = self.intern(dmags), moved
        rotated = self.intern(mags[1:] + mags[:1]) if n > 1 else None
        shape = self.shapes[i] = n, pairs, destab, rotated, commutes, relations
        return shape


def _moves(node: tuple[int, int, int], table: _Table):
    """Rewriting moves of a search node that never increase word length, as
    (move name, new node), flips first; the witness path for a
    flip-then-reduce simplification is then found in that order.  Only the
    sign bits are computed here; the rest comes from ``table``."""
    strands, i, neg = node
    n, pairs, destab, rotated, commutes, relations = table.shapes[i] or table.shape(i)
    # sign flips sigma^-1 -> sigma (sound for lower bounds, see chi search),
    # clearing the set bits from low to high
    rest = neg
    while rest:
        low = rest & -rest
        yield "flip", (strands, i, neg ^ low)
        rest ^= low
    if (neg ^ neg >> 1) & pairs:
        mags, rneg = _cancel(table.mags[i], neg, pairs)
        yield "reduce", (strands, table.intern(mags), rneg)
    if destab is not None:
        # each negative letter's bit moves to its new position
        d, moved = destab
        dneg = 0
        rest = neg
        while rest:
            low = rest & -rest
            dneg |= moved[low.bit_length() - 1]
            rest ^= low
        yield "destab", (strands - 1, d, dneg)
    if rotated is not None:
        yield "rotate", (strands, rotated, neg >> 1 | (neg & 1) << n - 1)
    for t, c in commutes:
        yield "commute", (strands, c, neg ^ ((neg >> t ^ neg >> t + 1) & 1) * 3 << t)
    for t, r in relations:
        signs = _RELATION_BITS[neg >> t & 7]
        if signs is not None:
            yield "relation", (strands, r, neg & ~(7 << t) | signs << t)


def _reach(node: tuple[int, int, int], length: int) -> int:
    """The most a positive word reachable from a node of ``length``
    letters can score: see ``chi_minus_lower_bound``."""
    strands, _, neg = node
    return strands - length + 2 * min(neg.bit_count(), length // 2)


@dataclass
class ChiSearchResult:
    score: int
    witness: list[tuple[str, BraidWord]] = field(default_factory=list)
    truncated: bool = False
    explored: int = 0


def chi_minus_lower_bound(
    b: BraidWord, budget: int = DEFAULT_SEARCH_BUDGET, *, seifert: tuple[int, int, int] | None = None,
    mu: int | None = None,
) -> ChiSearchResult:
    """Best provable lower bound for the maximal Euler characteristic of a
    surface with negative double points bounded by the closure.

    Replacing a negative letter by a positive one can only drop the
    invariant, free reduction, commutation, braid relations, rotation and
    destabilization preserve the closure, and an all-positive word of
    length l on n strands realizes n - l exactly.  A best-first search on
    word length therefore yields sound bounds; ``witness`` lists the move
    sequence reaching the best terminal found.

    The search stops as soon as its best score equals a ceiling that no
    reachable positive word can beat, so ``truncated`` is false there.  The
    ceiling is c = min(mu, 1 + sigma + nu), where mu is the component count
    of the closure (``mu``) and sigma and nu are its signature and nullity
    (``seifert``, the ``seifert_invariants`` triple of ``b``; each computed
    here when not given; positive braids have sigma < 0).  No surface
    beats mu: each piece of a surface has Euler characteristic at most its
    number of boundary components.  A reached positive word p of length l
    on s strands scores s - l, the Euler characteristic of its banded
    surface, so by Murasugi's bound s - l <= chi_s(p) <= 1 - |sigma(p)| +
    nu(p) <= 1 + sigma(p) + nu(p).  A flip is a crossing change from
    negative to positive: it changes the symmetrized Seifert form by a
    negative semidefinite term of rank one, so sigma + nu never rises
    (Murasugi, Trans. AMS 117, 1965), and every other move is an isotopy;
    so sigma(p) + nu(p) is at most sigma + nu of the start.  Every score
    s - l is congruent to mu mod 2, and so is c: on a banded surface of P
    pieces the form has l - s + P loops, so sigma + nu = pos - neg + zero
    + P - 1 is congruent to l - s - 1.  The stop cannot change the score
    or the witness: the best terminal is replaced only by a strictly
    greater score, and nothing scores above c; only ``explored`` falls.

    The search also cuts every word that cannot beat the best score so far.
    A word on s strands with l letters, k of them negative, reaches no
    positive word scoring above R = s - l + 2 min(k, floor(l / 2))
    (``_reach``): a reached word scores s - l + 2r after r cancelled pairs,
    each pair spends a negative letter, no move adds one, and 2r <= l.  No
    move raises R: flips and ``destab`` can only lower it, free reduction
    keeps it, and the other moves keep s, l and k.  Once a best score
    exists, a popped node with R <= best is dropped without being charged
    or counted, and a new child with R <= best is neither recorded nor
    pushed.  R never rises along a move and the best only rises, so every
    node below a cut node is cut too: the search explores the nodes it
    would explore without the cut, minus the cut ones, in the same order.
    A search that completes without the cut has the same score, witness
    and ``truncated`` with it; under a budget it gets further, so no score
    falls.  ``truncated`` is false when every unexplored word was cut.

    A positive start word, after free reduction, is final and is not
    explored: no move changes n - l of a positive word.  Flips and
    reductions need a negative letter, ``destab`` drops one strand and one
    letter, and the other moves keep the length and the signs.  So the
    score and the witness are the same; ``explored`` is 0 and ``truncated``
    false.

    ``budget`` bounds work: exploring a node of l letters costs
    ceil(l / SEARCH_UNIT_LETTERS) units, at least 1, and the search stops
    before a node whose cost would take it past the budget.  No move
    lengthens a word, so no node costs more than the freely reduced start.

    A node is ``(strands, id, neg)``: ``id`` names the tuple of the
    letters' magnitudes in a ``_Table`` that lives for this call, and bit t
    of ``neg`` is set when letter t is negative, so a flip clears one bit
    and a word is positive exactly when ``neg`` is 0.  The table computes
    the sign-free parts of the moves once per magnitude word, so a node
    computes only sign bits, and free reduction runs on those bits
    (``_cancel``).  Words are decoded only along the witness path.
    """
    start = reduce_word(b)
    table = _Table()
    mags = table.mags
    start_node = table.node(start.strands, start.letters)
    ceiling = mu or component_count(start)
    counter = itertools.count()
    # visited set is word-level: braid-relation and commutation rewrites fix
    # the group element but change which flips and cancellations exist, so
    # collapsing nodes by normal form would cut off required simplifications
    parents: dict[tuple, tuple | None] = {start_node: None}
    best_score: int | None = None
    best_node = None
    heap: list[tuple[int, int, tuple]] = []
    if start.is_positive():
        best_score = start.strands - len(start.letters)
        best_node = start_node
    else:
        sig, nul, _ = seifert or seifert_invariants(start)
        ceiling = min(ceiling, 1 + sig + nul)
        heap.append((len(start.letters), next(counter), start_node))
    spent = explored = 0
    truncated = False
    while heap:
        length, _, node = heap[0]
        if best_score is not None and _reach(node, length) <= best_score:
            heapq.heappop(heap)
            continue
        cost = -(-length // SEARCH_UNIT_LETTERS) or 1
        if spent + cost > budget:
            truncated = True
            break
        spent += cost
        heapq.heappop(heap)
        explored += 1
        for move, new in _moves(node, table):
            if new in parents:
                continue
            length = len(mags[new[1]])
            if best_score is not None and _reach(new, length) <= best_score:
                continue
            parents[new] = (node, move)
            # score on first encounter: positive words are exact realizations,
            # and one that passed the cut beats the best so far
            if not new[2]:
                best_score = new[0] - length
                best_node = new
                if best_score == ceiling:
                    # an empty frontier ends the search
                    heap.clear()
                    break
            heapq.heappush(heap, (length, next(counter), new))
    if best_score is None:
        # fall back on flipping every remaining negative letter at once; a
        # positive word has nothing left to cancel
        return ChiSearchResult(bennequin_chi(start), [], True, explored)
    path: list[tuple[str, BraidWord]] = []
    node = best_node
    while parents[node] is not None:
        parent, move = parents[node]
        path.append((move, BraidWord(node[0], _letters(mags[node[1]], node[2]))))
        node = parent
    path.reverse()
    if b.letters != start.letters:
        path.insert(0, ("reduce", start))
    return ChiSearchResult(best_score, path, truncated, explored)


def verify_witness(start: BraidWord, result: ChiSearchResult) -> None:
    """Replay the witness of ``chi_minus_lower_bound(start)``; raise
    BraidError unless it proves ``result.score``.

    Every step must be one of the ``_moves`` of the word before it, under
    the same move name; a leading ``reduce`` is the free reduction of
    ``start``.  The last word must be positive with n - l equal to the score.
    An empty witness stands for the start itself, freely reduced; a
    truncated search that found no positive word returns that word's n - l,
    the bound of flipping every negative letter at once.
    """
    strands, word = start.strands, start.letters
    table = _Table()
    for k, (move, w) in enumerate(result.witness):
        if (move, table.node(w.strands, w.letters)) not in set(_moves(table.node(strands, word), table)):
            raise BraidError("witness step %d is not a %s move of the word before it" % (k, move))
        strands, word = w.strands, w.letters
    if not result.witness:
        word = _free_reduce(word)
        if not (result.truncated or all(x > 0 for x in word)):
            raise BraidError("empty witness but the start word is not positive")
    elif not all(x > 0 for x in word):
        raise BraidError("the last witness word is not positive")
    if strands - len(word) != result.score:
        raise BraidError("witness realizes %d, not the score %d" % (strands - len(word), result.score))


# -- Seifert form of the banded surface --------------------------------------


def seifert_matrix_of_closure(b: BraidWord) -> list[list[Fraction]]:
    """Seifert matrix of the banded surface spanned by the closure.

    Generators of first homology are the loops running through consecutive
    bands in a single column.  Self-linking and interaction constants
    follow the usual conventions for banded surfaces; they are pinned by
    the determinant and signature fixtures in the test suite.
    """
    return [[Fraction(x, 2) for x in row] for row in _doubled_seifert_matrix(b)]


def _doubled_seifert_matrix(b: BraidWord) -> list[list[int]]:
    """Twice the Seifert matrix of ``seifert_matrix_of_closure``, whose
    entries are halves, in integers."""
    cols: dict[int, list[tuple[int, int]]] = {}
    for t, x in enumerate(b.letters):
        cols.setdefault(abs(x), []).append((t, 1 if x > 0 else -1))
    loops = []  # (col, t_lo, t_hi, sign_lo, sign_hi)
    for i, occ in sorted(cols.items()):
        for (t1, s1), (t2, s2) in zip(occ, occ[1:]):
            loops.append((i, t1, t2, s1, s2))
    m = len(loops)
    v = [[0] * m for _ in range(m)]
    for a in range(m):
        i, t1, t2, s1, s2 = loops[a]
        v[a][a] = -(s1 + s2)
        for bidx in range(a + 1, m):
            j, u1, u2, r1, r2 = loops[bidx]
            if j == i and u1 == t2:
                # consecutive loops sharing the middle band
                if s2 > 0:
                    v[a][bidx] = 2
                else:
                    v[bidx][a] = -2
            # loops are listed by ascending column, so a later loop sits in
            # column i or i + 1, never i - 1
            elif j == i + 1:
                if t1 < u1 < t2 < u2:
                    v[a][bidx] = 2
                elif u1 < t1 < u2 < t2:
                    v[bidx][a] = -2
    return v


def _seifert_reduction(b: BraidWord) -> tuple[int, int, int, int]:
    """(positives, negatives, zeros, determinant) of the symmetrized Seifert
    form V + V^T, by fraction-free symmetric (Bareiss) elimination on its
    integer matrix.

    Each pivot is a nonzero diagonal entry d of the open block.  Every other
    open entry becomes (d m[a][c] - m[a][p] m[p][c]) // prev, where prev is
    the pivot before, 1 at first.  The entries are then the minors of the
    form bordered by the pivots so far, d is the leading minor of the pivots
    and the rational pivot is d / prev: it counts as positive when d and
    prev have the same sign, and the last d is det(V + V^T) when no zero
    block is left.  Where the open block has a zero diagonal but a nonzero
    pair, adding one open row and column to another is a unimodular
    congruence of the whole form, which keeps the pivot minors and leaves
    the open entries minors of a congruent integer matrix, so every
    division stays exact.
    """
    v = _doubled_seifert_matrix(b)
    n = len(v)
    m = [[(v[a][c] + v[c][a]) // 2 for c in range(n)] for a in range(n)]
    pos = neg = zero = 0
    prev = 1
    idx = list(range(n))
    while idx:
        piv = next((a for a in idx if m[a][a]), None)
        if piv is None:
            # an off-diagonal nonzero pair contributes (+1, -1)
            hot = next(((a, c) for a in idx for c in idx if a != c and m[a][c]), None)
            if hot is None:
                zero += len(idx)
                break
            a, bb = hot
            # row/col addition turns the hyperbolic pair into +/- diagonal
            for c in idx:
                m[a][c] += m[bb][c]
            for r in idx:
                m[r][a] += m[r][bb]
            continue
        d = m[piv][piv]
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        idx.remove(piv)
        row_p = m[piv]
        for a in idx:
            row = m[a]
            f = row[piv]
            for c in idx:
                row[c] = (d * row[c] - f * row_p[c]) // prev
        prev = d
    return pos, neg, zero, prev


def _surface_pieces(b: BraidWord) -> int:
    """Connected pieces of the banded surface: strands joined by used columns.

    Column ``i`` joins strand positions ``i`` and ``i + 1``, so the used
    columns are edges of a path graph on the positions; a forest has one
    piece per vertex less one per edge, and each distinct column is one edge.
    """
    return b.strands - len({abs(x) for x in b.letters})


def seifert_invariants(b: BraidWord) -> tuple[int, int, int]:
    """Signature, nullity and determinant of the closure, from one
    reduction of the banded surface's Seifert form.

    The nullity counts the kernel of the symmetrized Seifert form plus one
    for each extra split piece of the surface beyond the first.  The
    determinant is |det(V + V^T)|, and 0 for split links.
    """
    pos, neg, zero, det = _seifert_reduction(b)
    extra_pieces = _surface_pieces(b) - 1
    if zero or extra_pieces:
        return pos - neg, zero + extra_pieces, 0
    return pos - neg, 0, abs(det)


def signature_and_nullity(b: BraidWord) -> tuple[int, int]:
    """Signature and nullity of the closure (see ``seifert_invariants``)."""
    sig, nul, _ = seifert_invariants(b)
    return sig, nul


def determinant_of_closure(b: BraidWord) -> int:
    """Link determinant |det(V + V^T)| of the closure; 0 for split links."""
    return seifert_invariants(b)[2]


def murasugi_chi_upper(b: BraidWord) -> int:
    """Upper bound 1 - |signature| + nullity for the slice Euler
    characteristic of the closure."""
    sig, nul = signature_and_nullity(b)
    return 1 - abs(sig) + nul
