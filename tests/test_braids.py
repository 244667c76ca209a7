"""Braid word operations, closure invariants, and the chi search."""

import functools
import heapq
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from cbound.braids import (
    DEFAULT_SEARCH_BUDGET,
    SEARCH_UNIT_LETTERS,
    BraidError,
    BraidWord,
    ChiSearchResult,
    NormalForm,
    QPFactorization,
    _cancel,
    _free_reduce,
    _letters,
    _moves,
    _seifert_reduction,
    _sign_bits,
    _Table,
    _surface_pieces,
    bennequin_chi,
    braid_equal,
    chi_minus_lower_bound,
    closure_components,
    component_count,
    destabilize_isolated,
    determinant_of_closure,
    expand_qp,
    mirror,
    murasugi_chi_upper,
    normal_form,
    pinv,
    qp_chi,
    reduce_word,
    seifert_invariants,
    seifert_matrix_of_closure,
    signature_and_nullity,
    verify_witness,
)
from cbound.notation import parse_braid, render_braid
from oracles import (
    artin_images,
    closure_components_by_sublink,
    fraction_seifert_reduction,
    reference_neighbors,
    reference_normal_form,
    strand_cycles,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

TREFOIL = BraidWord(2, (1, 1, 1))
FIG8 = BraidWord(3, (-1, 2, -1, 2))
HOPF = BraidWord(2, (1, 1))


def test_word_validation():
    with pytest.raises(BraidError):
        BraidWord(2, (2,))
    with pytest.raises(BraidError):
        BraidWord(3, (0,))
    with pytest.raises(BraidError):
        BraidWord(0, ())


def test_component_count():
    assert component_count(TREFOIL) == 1
    assert component_count(HOPF) == 2
    assert component_count(BraidWord(3, ())) == 3
    assert component_count(BraidWord(3, (1, -2, 1, -2, 1))) == 2


def test_reduce_word_cancels_free_pairs():
    b = BraidWord(3, (1, -2, 2, -1, 1))
    assert reduce_word(b).letters == (1,)
    assert reduce_word(BraidWord(2, (1, -1))).letters == ()


def test_destabilize_isolated():
    # sigma_2 appears exactly once: Markov destabilization drops a strand
    b = BraidWord(3, (1, 1, 2))
    d = destabilize_isolated(b)
    assert d is not None
    assert d.strands == 2 and d.letters == (1, 1)
    assert destabilize_isolated(TREFOIL) is None


def test_braid_equal_relations():
    assert braid_equal(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))
    assert braid_equal(BraidWord(3, (1, 3 - 2)), BraidWord(3, (1, 1, -1, 1)))  # far commutation + cancel
    assert not braid_equal(TREFOIL, BraidWord(2, (1,)))


def _relators(n):
    """Words equal to the identity on n strands: a cancelling pair, a
    far commutator, and a braid relation times its other side inverted."""
    out = []
    for i in range(1, n):
        out += [(i, -i), (-i, i)]
        out += [(i, j, -i, -j) for j in range(i + 2, n)]
        if i + 1 < n:
            out.append((i, i + 1, i, -(i + 1), -i, -(i + 1)))
    return out


def test_braid_equal_agrees_with_the_artin_action():
    rng = random.Random(17)
    equal = 0
    for k in range(3200):
        n = rng.randint(2, 5)
        a = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 10)))
        if k % 2:
            b = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 10)))
        else:
            t = rng.randint(0, len(a))
            b = a[:t] + rng.choice(_relators(n)) + a[t:]
        a, b = BraidWord(n, a), BraidWord(n, b)
        same = artin_images(a) == artin_images(b)
        assert braid_equal(a, b) == same, (a, b)
        equal += same
    assert 1600 <= equal < 3200


def _delta_word(n):
    """The half twist (σ_1)(σ_2 σ_1)...(σ_{n-1}...σ_1)."""
    return tuple(j for k in range(1, n) for j in range(k, 0, -1))


@functools.cache
def _seeded_forms():
    """5,000 seeded words on 1-6 strands with their normal forms and, where
    it is known, the form they must have: every fifth word is a power of
    the half twist, every fifth on two or more strands is up to six random
    letters, a relator and the inverse of those letters, which cancels to
    the identity; the rest are random."""
    rng = random.Random(24)
    out = []
    for k in range(5000):
        n = rng.randint(1, 6)
        w = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 20))) if n > 1 else ()
        want = None
        if k % 5 == 0:
            p = rng.randint(-3, 3)
            w = _delta_word(n) * p if p >= 0 else tuple(-x for x in reversed(_delta_word(n))) * -p
            want = NormalForm(n, p if n > 1 else 0, ())
        elif k % 5 == 1 and n > 1:
            w = w[:6] + rng.choice(_relators(n)) + tuple(-x for x in reversed(w[:6]))
            want = NormalForm(n, 0, ())
        b = BraidWord(n, w)
        out.append((b, normal_form(b), want))
    return out


def test_normal_form_equals_the_sweep_reference():
    for b, nf, want in _seeded_forms():
        assert nf == reference_normal_form(b), b
        assert want is None or nf == want, b


def test_normal_form_factors_are_proper_and_left_weighted():
    def descents(p):
        return {i for i in range(1, len(p)) if p[i - 1] > p[i]}

    for b, nf, _ in _seeded_forms():
        n = b.strands
        for f in nf.factors:
            assert sorted(f) == list(range(n)), b
            assert f not in (tuple(range(n)), tuple(range(n - 1, -1, -1))), b
        for a, c in zip(nf.factors, nf.factors[1:]):
            assert descents(c) <= descents(pinv(a)), b


def test_mirror():
    assert mirror(TREFOIL).letters == (-1, -1, -1)
    assert mirror(mirror(FIG8)) == FIG8


def test_closure_component_words_are_one_based():
    # 2_1 u 2_1: strands {1,2} and {3,4} each close to a Hopf link, and no
    # letter joins strand 1 to strand 3
    words, lk = closure_components(BraidWord(4, (1, 1, 3, 3)))
    assert words == [BraidWord(1, ())] * 4
    assert lk == [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    # a trefoil on strands 3 and 4 is renumbered onto strands 1 and 2
    words, lk = closure_components(BraidWord(4, (3, 3, 3)))
    assert words == [BraidWord(1, ()), BraidWord(1, ()), BraidWord(2, (1, 1, 1))]
    assert lk == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]


def test_bennequin_chi():
    # strands minus letters: trefoil gives -1, hopf 0
    assert bennequin_chi(TREFOIL) == -1
    assert bennequin_chi(HOPF) == 0
    assert bennequin_chi(BraidWord(3, (1, 1, 1, 2, 2))) == -2


def test_qp_expansion_and_chi():
    fac = QPFactorization(3, (((), 1), ((), 1), ((1,), 2)))
    w = expand_qp(fac)
    assert w.strands == 3
    # each factor contributes one band: chi = strands - factors
    assert qp_chi(fac) == 0
    # the expanded word also carries the conjugating letters, so its
    # banded surface can only do worse
    assert bennequin_chi(w) <= qp_chi(fac)


def test_signature_and_nullity():
    assert signature_and_nullity(TREFOIL) == (-2, 0)
    assert signature_and_nullity(mirror(TREFOIL)) == (2, 0)
    assert signature_and_nullity(FIG8) == (0, 0)
    # split 2-component unlink has nullity 1
    assert signature_and_nullity(BraidWord(2, ()))[1] == 1


def test_determinants():
    assert determinant_of_closure(TREFOIL) == 3
    assert determinant_of_closure(FIG8) == 5
    assert determinant_of_closure(BraidWord(2, (1, 1, 1, 1, 1))) == 5
    # split links have vanishing determinant
    assert determinant_of_closure(BraidWord(3, (1, 1))) == 0


def test_seifert_matrix_size():
    m = seifert_matrix_of_closure(TREFOIL)
    assert len(m) == 2 and len(m[0]) == 2


def test_murasugi_upper_bound():
    assert murasugi_chi_upper(mirror(TREFOIL)) <= -1
    assert murasugi_chi_upper(BraidWord(2, (-1, -1))) <= 0


def test_chi_search_worked_example():
    r = chi_minus_lower_bound(BraidWord(3, (1, -2, -1, -1, -2)), 100000)
    assert r.score >= 2
    assert not r.truncated
    moves = [step[0] for step in r.witness]
    assert moves[0] == "flip"
    assert moves[1] == "reduce"
    assert r.witness[1][1].letters == (1, -2, -2)


def test_chi_search_respects_budget():
    r = chi_minus_lower_bound(BraidWord(3, (1, -2, -1, -1, -2)), 3)
    assert r.truncated
    assert r.explored <= 3


def test_chi_search_on_positive_words():
    # positive words can never reach more disks than components
    r = chi_minus_lower_bound(TREFOIL, 5000)
    assert r.score <= component_count(TREFOIL)


@pytest.mark.parametrize("seed", range(4))
def test_reduce_preserves_permutation(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    word = tuple(rng.choice([i, -i]) for i in
                 (rng.randint(1, n - 1) for _ in range(8)))
    b = BraidWord(n, word)
    assert strand_cycles(reduce_word(b)) == strand_cycles(b)


# -- the Seifert invariants against the two-path reference --------------------


def reference_signature_and_nullity(b):
    """Signature and nullity by the congruence reduction over Q, as the
    program computed them before one reduction served both them and the
    determinant."""
    pos, neg, zero, _ = fraction_seifert_reduction(b)
    return pos - neg, zero + reference_surface_pieces(b) - 1


def reference_surface_pieces(b):
    """Pieces of the banded surface by union-find over the strands, as the
    program counted them before the closed form."""
    parent = list(range(b.strands))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x in b.letters:
        i = abs(x)
        a, c = find(i - 1), find(i)
        if a != c:
            parent[a] = c
    return len({find(s) for s in range(b.strands)})


def reference_determinant(b):
    """|det(V + V^T)| by a separate Gaussian elimination, 0 when the
    reference nullity is positive."""
    if reference_signature_and_nullity(b)[1] > 0:
        return 0
    v = seifert_matrix_of_closure(b)
    n = len(v)
    m = [[v[a][c] + v[c][a] for c in range(n)] for a in range(n)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
    assert det.denominator == 1
    return abs(int(det))


def random_word(rng, max_strands, max_length):
    n = rng.randint(1, max_strands)
    length = rng.randint(0, max_length) if n > 1 else 0
    return BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length)))


def test_surface_pieces_match_union_find_reference():
    rng = random.Random(6113)
    for _ in range(3000):
        n = rng.randint(1, 8)
        # draw from a random subset of the columns, so that some words skip
        # columns and leave several pieces
        cols = [i for i in range(1, n) if rng.random() < 0.6]
        length = rng.randint(0, 12) if cols else 0
        b = BraidWord(n, tuple(rng.choice((1, -1)) * rng.choice(cols) for _ in range(length)))
        assert _surface_pieces(b) == reference_surface_pieces(b), b
    assert _surface_pieces(BraidWord(6, (1, 3, -3, 5, 1))) == 3
    assert _surface_pieces(BraidWord(4, ())) == 4


def test_seifert_invariants_match_two_path_reference():
    rng = random.Random(4401)
    for _ in range(600):
        b = random_word(rng, 5, 14)
        assert signature_and_nullity(b) == reference_signature_and_nullity(b), b
        assert determinant_of_closure(b) == reference_determinant(b), b


def test_integer_seifert_reduction_equals_the_reduction_over_q():
    rng = random.Random(4402)
    for _ in range(3000):
        n, length = rng.randint(2, 6), rng.randint(0, 24)
        b = BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length)))
        assert _seifert_reduction(b) == fraction_seifert_reduction(b), b
    # V + V^T = [[0, -1, 0], [-1, 0, 1], [0, 1, 0]] has no diagonal pivot:
    # the hyperbolic step makes the pivot -2, the next leading minor is -1
    # (a positive pivot -1 / -2) and a zero is left
    b = BraidWord(2, (1, -1, 1, -1))
    assert _seifert_reduction(b) == fraction_seifert_reduction(b) == (1, 1, 1, -1)
    # a hyperbolic step that added the row but not the column would leave
    # the last pivot minor of this word at 12
    b = BraidWord(5, (-3, -3, -1, -4, 4, 3, -1, 3, -1, 4, -4))
    assert _seifert_reduction(b) == fraction_seifert_reduction(b) == (4, 2, 2, 3)


# -- closure components against one sublink walk per component ---------------


def test_closure_components_of_small_links():
    assert closure_components(HOPF) == ([BraidWord(1, ()), BraidWord(1, ())], [[0, 1], [1, 0]])
    assert closure_components(mirror(HOPF)) == ([BraidWord(1, ()), BraidWord(1, ())], [[0, -1], [-1, 0]])
    assert closure_components(TREFOIL) == ([TREFOIL], [[0]])
    # split: a trefoil on strands 1-2 beside a negative Hopf link on
    # strands 4-5, with strand 3 a free circle in between
    assert closure_components(BraidWord(5, (1, -4, 1, -4, 1))) == (
        [TREFOIL, BraidWord(1, ()), BraidWord(1, ()), BraidWord(1, ())],
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]],
    )
    # 1 -2 1 -2 1 closes strand 1 on itself and joins strands 2 and 3; the
    # third letter is the only one inside that component, and the four
    # letters between the two components cancel
    words, lk = closure_components(BraidWord(3, (1, -2, 1, -2, 1)))
    assert words == [BraidWord(1, ()), BraidWord(2, (1,))]
    assert lk == [[0, 0], [0, 0]]


def test_closure_components_match_sublink_reference():
    rng = random.Random(2531)
    for _ in range(5000):
        b = random_word(rng, 8, 18)
        assert closure_components(b) == closure_components_by_sublink(b), b


# -- the chi search against results pinned before the tuple rewrite ----------


def rendered(r):
    return ["%s %s" % (move, render_braid(w)) for move, w in r.witness]


def test_chi_search_matches_pinned_results(fixtures_dir):
    # score and witness were pinned before the tuple rewrite; explored and
    # truncated were re-pinned when the search learned to stop at the
    # component count, which only lowers explored and clears truncated, and
    # explored again when it stopped exploring a positive start word, when
    # it learned to cut words that cannot beat the best score and when it
    # learned to stop at the signature ceiling
    pinned = json.loads((fixtures_dir / "chi_search.json").read_text())
    for case in pinned["cases"]:
        r = chi_minus_lower_bound(parse_braid(case["word"]), pinned["budget"])
        got = {
            "word": case["word"],
            "score": r.score,
            "truncated": r.truncated,
            "explored": r.explored,
            "witness": rendered(r),
        }
        assert got == case


# -- the chi search against the search without the ceiling stop or the cut ---


def reach(strands, word):
    """The most a positive word reachable from ``word`` can score: each
    cancelled pair spends a negative letter and two letters."""
    return strands - len(word) + 2 * min(sum(x < 0 for x in word), len(word) // 2)


def reference_chi_search(b, budget, ceiling=False, cut=False):
    """The chi search on plain letter tuples, through ``reference_neighbors``.

    Without ``ceiling`` and ``cut`` it runs as the program did before it
    stopped at the component count: it explores until its frontier or
    budget runs out.  With ``ceiling`` it stops where the program does: at
    the first score equal to min(mu, 1 + sigma + nu) rounded down to the
    parity of mu, with sigma and nu from the reduction over Q, and before
    exploring a start word that is positive after free reduction.  With
    ``cut`` it drops, as the program does, every popped or new word whose
    ``reach`` is at most the best score so far."""
    start = reduce_word(b)
    start_key = (start.strands, start.letters)
    stop = None
    if ceiling:
        mu = component_count(start)
        sig, nul = reference_signature_and_nullity(start)
        stop = min(mu, 1 + sig + nul)
        stop -= (mu - stop) % 2
    heap = []
    counter = itertools.count()
    parents = {start_key: None}
    best_score = None
    best_key = None
    if start.is_positive():
        best_score = start.strands - len(start.letters)
        best_key = start_key
    if not (ceiling and start.is_positive()):
        heapq.heappush(heap, (len(start.letters), next(counter), start.letters, start.strands))
    explored = 0
    truncated = False
    while heap:
        _, _, word, strands = heap[0]
        if cut and best_score is not None and reach(strands, word) <= best_score:
            heapq.heappop(heap)
            continue
        if explored >= budget:
            truncated = True
            break
        heapq.heappop(heap)
        explored += 1
        key = (strands, word)
        for move, ns, nw in reference_neighbors(word, strands):
            nkey = (ns, nw)
            if nkey in parents:
                continue
            if cut and best_score is not None and reach(ns, nw) <= best_score:
                continue
            parents[nkey] = (key, move)
            if all(x > 0 for x in nw):
                score = ns - len(nw)
                if best_score is None or score > best_score:
                    best_score = score
                    best_key = nkey
                    if score == stop:
                        heap.clear()
                        break
            heapq.heappush(heap, (len(nw), next(counter), nw, ns))
    if best_score is None:
        return ChiSearchResult(bennequin_chi(start), [], True, explored)
    path = []
    key = best_key
    while parents[key] is not None:
        pkey, move = parents[key]
        path.append((move, BraidWord(key[0], key[1])))
        key = pkey
    path.reverse()
    if b.letters != start.letters:
        path.insert(0, ("reduce", start))
    return ChiSearchResult(best_score, path, truncated, explored)


def assert_matches_reference(b, budget):
    """A score at least the reference's, the same score, witness and no
    truncation wherever the reference completes, and fewer or as many
    nodes explored."""
    got, ref = chi_minus_lower_bound(b, budget), reference_chi_search(b, budget)
    assert got.score >= ref.score, b
    if not ref.truncated:
        assert (got.score, rendered(got), got.truncated) == (ref.score, rendered(ref), False), b
    assert got.explored <= ref.explored, b
    return got, ref


def test_chi_search_matches_reference_on_pinned_words(fixtures_dir):
    pinned = json.loads((fixtures_dir / "chi_search.json").read_text())
    for case in pinned["cases"]:
        got, ref = assert_matches_reference(parse_braid(case["word"]), pinned["budget"])
        assert (case["score"], case["witness"]) == (ref.score, rendered(ref))


def test_chi_search_matches_reference_on_seeded_words():
    rng = random.Random(6106)
    cleared = 0
    for _ in range(300):
        got, ref = assert_matches_reference(random_word(rng, 5, 14), 5000)
        cleared += ref.truncated and not got.truncated
    assert cleared >= 1


def freely_reduced_word(rng):
    """3 or 4 strands, 7 to 12 letters, freely reduced, so that the search
    starts from the whole word."""
    n, length, word = rng.randint(3, 4), rng.randint(7, 12), []
    while len(word) < length:
        x = rng.choice([1, -1]) * rng.randint(1, n - 1)
        if not word or word[-1] != -x:
            word.append(x)
    return BraidWord(n, tuple(word))


def test_chi_search_equals_the_reference_with_the_ceiling_stop():
    # the sign-bitmask search explores the same nodes in the same order as
    # the search on letter tuples, so every field agrees, explored included
    rng = random.Random(1507)
    words = [freely_reduced_word(rng) for _ in range(420)]
    words.append(BraidWord(300, (-299, 298, -299, 297, -298, 299, -297)))
    truncated = 0
    for b in words:
        got = chi_minus_lower_bound(b, 2000)
        assert got == reference_chi_search(b, 2000, ceiling=True, cut=True), b
        truncated += got.truncated
    # 50 of the 421 searches run out of budget
    assert truncated >= 45


def test_chi_search_stops_at_the_component_count():
    # the start word is positive with n - l = mu: nothing to explore
    r = chi_minus_lower_bound(BraidWord(3, (1, 2)), 0)
    assert (r.score, r.witness, r.truncated, r.explored) == (1, [], False, 0)
    # a flip of the first node reaches mu = 1 before the budget runs out
    r = chi_minus_lower_bound(BraidWord(2, (-1,)), 1)
    assert (r.score, r.truncated, r.explored) == (1, False, 1)
    assert reference_chi_search(BraidWord(2, (-1,)), 1).truncated


def signature_ceiling(b):
    """min(mu, 1 + sigma + nu), rounded down to the parity of mu."""
    mu = component_count(b)
    sig, nul, _ = seifert_invariants(b)
    c = min(mu, 1 + sig + nul)
    return c - (mu - c) % 2


def test_one_plus_signature_plus_nullity_has_the_parity_of_the_component_count():
    # so the program's ceiling min(mu, 1 + sigma + nu) needs no rounding
    rng = random.Random(2117)
    for _ in range(5000):
        b = random_word(rng, 7, 16)
        sig, nul, _ = seifert_invariants(b)
        assert (1 + sig + nul - component_count(b)) % 2 == 0, b


def mu_stop_only(b, budget):
    """The search with the component count as its only stop: a triple
    whose 1 + sigma + nu exceeds the strand count leaves mu the ceiling."""
    return chi_minus_lower_bound(b, budget, seifert=(b.strands, 0, 0))


def test_no_completed_search_scores_above_the_signature_ceiling():
    rng = random.Random(2111)
    completed = met = 0
    for _ in range(3000):
        n = rng.randint(2, 5)
        b = BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 14))))
        r = mu_stop_only(b, 500)
        if r.truncated:
            continue
        c = signature_ceiling(b)
        assert r.score <= c, b
        completed += 1
        met += r.score == c
    # 2,761 searches complete, and 2,717 of them meet the ceiling exactly
    assert completed >= 2700 and met >= 2650


def test_the_signature_ceiling_keeps_score_and_witness():
    rng = random.Random(2113)
    cleared = fell = 0
    for _ in range(400):
        b = freely_reduced_word(rng)
        got, mu_only = chi_minus_lower_bound(b, 2000), mu_stop_only(b, 2000)
        assert (got.score, got.witness) == (mu_only.score, mu_only.witness), b
        assert got.truncated <= mu_only.truncated and got.explored <= mu_only.explored, b
        cleared += mu_only.truncated and not got.truncated
        fell += got.explored < mu_only.explored
    # 25 truncations clear and 88 searches explore fewer nodes
    assert cleared >= 20 and fell >= 80


def test_the_signature_ceiling_is_computed_when_not_given():
    b = parse_braid("BR[4,{1,3,-1,-1,-2,1,1,3,2}]")
    assert signature_ceiling(b) == -1 < component_count(b)
    r = chi_minus_lower_bound(b, 2000)
    assert r == chi_minus_lower_bound(b, 2000, seifert=seifert_invariants(b))
    assert (r.score, r.truncated, r.explored) == (-1, False, 287)
    assert mu_stop_only(b, 2000).truncated


def test_chi_search_does_not_explore_a_positive_start_word():
    # the trefoil: n - l = -1 is below mu = 1, yet no move changes it
    for budget in (0, 1):
        r = chi_minus_lower_bound(TREFOIL, budget)
        assert (r.score, r.witness, r.truncated, r.explored) == (-1, [], False, 0)
    # free reduction leaves a positive word; the witness keeps that step
    b = BraidWord(3, (1, 1, 1, 2, -1, 2, -2, 1, 2, 1))
    for budget in (0, 5000):
        r = chi_minus_lower_bound(b, budget)
        assert (r.score, r.witness, r.truncated, r.explored) == (-3, [("reduce", reduce_word(b))], False, 0)
        verify_witness(b, r)


# -- the search's moves against the moves on letter tuples ---------------------


def test_moves_match_reference_neighbors():
    rng = random.Random(1511)
    table = _Table()
    for _ in range(20000):
        b = random_word(rng, 9, 16)
        node = table.node(b.strands, b.letters)
        got = [(move, ns, _letters(table.mags[i], neg)) for move, (ns, i, neg) in _moves(node, table)]
        assert got == list(reference_neighbors(b.letters, b.strands)), b
    # one shape per magnitude word, shared by words of any strand count
    assert sum(shape is not None for shape in table.shapes) < 20000


def cascades(rng):
    """Seeded words built so that free reduction cascades: nested x y -y -x
    shells around a core, cancelling pairs at both ends, and rotations of
    these."""
    def letter():
        return rng.choice([1, -1]) * rng.randint(1, 4)

    for _ in range(3000):
        core = [letter() for _ in range(rng.randint(0, 3))]
        shells = [letter() for _ in range(rng.randint(1, 5))]
        word = shells + core + [-x for x in reversed(shells)]
        for _ in range(rng.randint(0, 2)):
            x = letter()
            word = [x, -x] + word if rng.random() < 0.5 else word + [x, -x]
        if rng.random() < 0.5:
            x = letter()
            word = [-x] + word + [x]
        k = rng.randrange(len(word))
        yield tuple(word)
        yield tuple(word[k:] + word[:k])


def test_cancel_on_sign_bits_equals_free_reduction_on_cascades():
    table = _Table()
    deep = 0
    for word in cascades(random.Random(1901)):
        _, i, neg = table.node(5, word)
        pairs = table.shape(i)[1]
        mags, rneg = _cancel(table.mags[i], neg, pairs)
        want = _free_reduce(word)
        assert (mags, rneg) == (tuple(map(abs, want)), _sign_bits(want)), word
        deep += len(word) - len(want) >= 6
    assert deep >= 1000
    # the seam update: 1 2 -2 -1 empties only if removing 2 -2 joins 1 and -1
    assert _cancel((1, 2, 2, 1), 0b1100, 0b010) == ((), 0)


# -- the search budget bounds work -------------------------------------------------


def test_a_node_of_17_letters_costs_2_units():
    # the start node and its first children keep every letter, so the first
    # pops all have the start's length
    w16 = BraidWord(3, (-1, -2) * 8)
    w17 = BraidWord(3, (-1, -2) * 8 + (-1,))
    assert SEARCH_UNIT_LETTERS == 16
    for budget in range(12):
        r16, r17 = chi_minus_lower_bound(w16, budget), chi_minus_lower_bound(w17, budget)
        assert (r16.truncated, r16.explored) == (True, budget)
        assert (r17.truncated, r17.explored) == (True, budget // 2)


# 3 strands, 198 letters: drawn with random.Random(198), letter by letter as
# rng.choice([1, -1]) * rng.randint(1, 2), skipping a letter that would cancel
# the one before it
LONG_WORD = BraidWord(3, (
    2, 2, -1, -1, -1, -1, -2, -2, 1, 1, -2, 1, -2, -2, -1, 2, 1, 2, 2, -1,
    -2, -1, -2, 1, 1, -2, 1, 1, 1, 2, 2, 2, -1, -1, -2, 1, -2, -2, -2, -1,
    2, 2, 1, 2, 2, -1, -2, -1, -2, 1, -2, -2, 1, 1, 1, -2, -2, 1, 1, 1,
    -2, 1, 1, -2, -1, 2, -1, -2, -2, -1, 2, 1, 2, 2, 1, 2, 2, 2, 1, 1,
    1, -2, 1, 1, 2, -1, -1, 2, 2, 1, 2, 2, 2, -1, -1, -2, 1, -2, -2, -1,
    -1, -2, -1, 2, 2, 1, 1, 2, 1, -2, 1, 2, 2, -1, -2, -1, -1, 2, 2, -1,
    2, 2, -1, 2, 2, 1, 1, -2, -1, -1, -1, -1, -1, -1, 2, -1, -2, -1, -1, 2,
    2, 1, 2, 1, -2, -2, -2, -2, 1, 2, 2, 2, 2, -1, -2, 1, 1, -2, -2, 1,
    2, 2, -1, -1, 2, 2, 1, -2, 1, 2, 2, 2, 1, -2, -2, 1, 2, 1, 1, 1,
    1, -2, -1, -2, -2, 1, 2, 2, 1, 1, 2, -1, 2, 1, 2, -1, 2, -1,
))


# Searches LONG_WORD at the default budget in a fresh interpreter and prints
# what the test checks; ru_maxrss counts KiB on Linux and bytes on macOS
_SEARCH_LONG_WORD = """
import json, resource, sys, time
from cbound.braids import BraidError, BraidWord, chi_minus_lower_bound, verify_witness
kib = 1 / 1024 if sys.platform == "darwin" else 1
after_import = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * kib
word = BraidWord(3, tuple(json.loads(sys.argv[1])))
started = time.perf_counter()
r = chi_minus_lower_bound(word)
seconds = time.perf_counter() - started
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * kib
try:
    verify_witness(word, r)
    witness = "verified"
except BraidError as e:
    witness = str(e)
print(json.dumps(dict(truncated=r.truncated, explored=r.explored, seconds=seconds, witness=witness,
                      after_import_kib=after_import, peak_kib=peak)))
"""


def test_the_default_budget_bounds_the_search_on_a_198_letter_word():
    # under the old node cap this word ran 70 s and took 338 MB; a node of
    # it costs 13 units, fewer once reductions shorten it.  The search runs
    # in a child without tracemalloc, which slowed it from 1.4-1.8 s to
    # 14-17 s on one core of an Intel Xeon; there its peak RSS rises about
    # 102 MiB over the RSS after import
    assert len(LONG_WORD) == 198 and reduce_word(LONG_WORD) == LONG_WORD
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", _SEARCH_LONG_WORD, json.dumps(LONG_WORD.letters)],
                           capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr
    r = json.loads(child.stdout)
    assert r["truncated"] and DEFAULT_SEARCH_BUDGET // 13 <= r["explored"] <= DEFAULT_SEARCH_BUDGET
    assert r["seconds"] < 60
    assert (r["peak_kib"] - r["after_import_kib"]) * 1024 < 160 * 2**20
    assert r["witness"] == "verified"


def test_the_seifert_invariants_of_the_198_letter_word():
    # the triple the reduction over Q gave, in about 11 s on one core of an
    # Intel Xeon; the integer elimination takes about 0.2 s
    assert seifert_invariants(LONG_WORD) == (-16, 0, 1140544841150704784)


# -- witness replay -------------------------------------------------------------


def test_verify_witness_accepts_every_pinned_case(fixtures_dir):
    pinned = json.loads((fixtures_dir / "chi_search.json").read_text())
    for case in pinned["cases"]:
        b = parse_braid(case["word"])
        verify_witness(b, chi_minus_lower_bound(b, pinned["budget"]))


def test_verify_witness_accepts_the_all_flipped_fallback():
    b = BraidWord(3, (-1, -2, 2, -1, -2))
    r = chi_minus_lower_bound(b, 1)
    assert r.truncated and r.witness == [] and r.score == 3 - 3
    verify_witness(b, r)


def test_verify_witness_rejects_tampered_witnesses():
    b = BraidWord(3, (1, -2, -1, -1, -2))
    r = chi_minus_lower_bound(b, 100000)
    assert len(r.witness) >= 3
    verify_witness(b, r)
    dropped = replace(r, witness=r.witness[:1] + r.witness[2:])
    with pytest.raises(BraidError, match="step 1"):
        verify_witness(b, dropped)
    (move, w), (move2, w2) = r.witness[:2]
    swapped = replace(r, witness=[(move2, w), (move, w2)] + r.witness[2:])
    assert move != move2
    with pytest.raises(BraidError, match="step 0"):
        verify_witness(b, swapped)
    with pytest.raises(BraidError, match="not the score"):
        verify_witness(b, replace(r, score=r.score + 1))
    with pytest.raises(BraidError, match="not positive"):
        verify_witness(b, replace(r, witness=r.witness[:1]))
