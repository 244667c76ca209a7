"""Planar diagrams: construction, linking matrices, sublinks."""

import random

import pytest

from cbound.braids import BraidWord
from cbound.diagrams import (
    Diagram,
    DiagramError,
    from_braid,
    from_pd,
    linked_throughout,
    linking_matrix,
    pd_tuples,
    remove_crossings,
    simplify_diagram,
    walk_components,
)
from cbound.homfly import homfly, unlink_poly
from cbound.notation import parse_pd
from oracles import (
    mirror_diagram,
    reference_from_pd,
    reference_zero_linking_sublinks,
    reverse_component,
    strand_cycles,
)

HOPF_PLUS = BraidWord(2, (1, 1))


def test_from_braid_counts():
    d = from_braid(BraidWord(3, (1, -2, 1, 2, -1, 2)))
    assert len(d.crossings) == 6
    assert d.total_components == 3


def test_closure_of_empty_word_is_unlink():
    d = from_braid(BraidWord(3, ()))
    assert len(d.crossings) == 0
    assert d.total_components == 3


def test_linking_hopf_signs():
    assert linking_matrix(from_braid(HOPF_PLUS)) == [[0, 1], [1, 0]]
    neg = from_braid(BraidWord(2, (-1, -1)))
    assert linking_matrix(neg) == [[0, -1], [-1, 0]]


def test_mirror_diagram_negates_linking():
    d = from_braid(BraidWord(3, (1, 1, 3 - 1, 2)))
    m = linking_matrix(d)
    mm = linking_matrix(mirror_diagram(d))
    assert mm == [[-x for x in row] for row in m]


@pytest.mark.parametrize("pd", [
    # one circle over the other at both crossings
    "PD[X[1,3,2,4],X[2,3,1,4]]",
    # two ellipses crossing at 4 points, the one on arcs 5-8 over at each
    "PD[X[1,6,2,5],X[2,6,3,7],X[3,8,4,7],X[4,8,1,5]]",
])
def test_a_component_over_at_every_crossing_is_a_split_unknot(pd):
    d = parse_pd(pd)
    assert d.total_components == 2
    assert linking_matrix(d) == [[0, 0], [0, 0]]
    assert homfly(d) == unlink_poly(2)


def test_an_all_over_circle_the_numbering_orients_keeps_its_diagram():
    d = parse_pd("PD[X[1,3,2,5],X[2,5,1,3]]")
    assert d.crossings == [(1, 2, 5, 3, 1), (2, 1, 3, 5, 1)]
    assert d.components == [[1, 2], [3, 5]]


def _same_as_reference(tuples):
    """from_pd and the propagation reference both raise DiagramError, or
    both give the same crossings and components; returns whether they
    accepted."""
    try:
        want = reference_from_pd(tuples)
    except DiagramError:
        with pytest.raises(DiagramError):
            from_pd(tuples)
        return False
    got = from_pd(tuples)
    assert (got.crossings, got.components) == (want.crossings, want.components), tuples
    return True


def test_from_pd_matches_the_propagation_reference_on_closures(fixtures_dir):
    rng = random.Random(23)
    count = 0
    for k, b in enumerate(_seeded_words(23, 2400, 5, 14)):
        tuples = pd_tuples(from_braid(b))
        if not tuples:
            continue
        if k % 2:
            # fresh arc labels and crossing order
            arcs = sorted({a for t in tuples for a in t})
            relabel = dict(zip(arcs, rng.sample(range(1, 4 * len(arcs) + 1), len(arcs))))
            tuples = [tuple(relabel[a] for a in t) for t in tuples]
            rng.shuffle(tuples)
        count += _same_as_reference(tuples)
    all_over = ["PD[X[1,3,2,4],X[2,3,1,4]]", "PD[X[1,6,2,5],X[2,6,3,7],X[3,8,4,7],X[4,8,1,5]]",
                "PD[X[1,3,2,5],X[2,5,1,3]]", (fixtures_dir / "appendix.pd").read_text()]
    for text in all_over:
        assert _same_as_reference(pd_tuples(parse_pd(text, unknots=0)))
    assert count >= 2000


def test_from_pd_accepts_and_rejects_random_lists_like_the_reference():
    rng = random.Random(29)
    accepted = 0
    for k in range(12000):
        n = rng.randint(1, 5)
        if k % 2:
            # every arc twice, so most lists get past the end count
            arcs = [a for a in range(1, 2 * n + 1) for _ in (0, 1)]
            rng.shuffle(arcs)
        else:
            arcs = [rng.randint(1, 2 * n + 1) for _ in range(4 * n)]
        accepted += _same_as_reference([tuple(arcs[4 * t:4 * t + 4]) for t in range(n)])
    assert 1000 < accepted < 12000


def test_pd_round_trip_preserves_linking():
    # component numbering may differ after the round trip (arc order vs
    # strand order), so compare up to a relabeling
    import itertools

    d = from_braid(BraidWord(3, (1, -2, 1, 2, -1, 2)))
    d2 = from_pd(pd_tuples(d))
    assert d2.total_components == d.total_components
    a, b = linking_matrix(d), linking_matrix(d2)
    n = len(a)
    assert any(all(a[i][j] == b[p[i]][p[j]] for i in range(n) for j in range(n))
               for p in itertools.permutations(range(n)))


def test_appendix_diagram(fixtures_dir):
    d = parse_pd((fixtures_dir / "appendix.pd").read_text(), unknots=0)
    assert len(d.crossings) == 10
    assert d.total_components == 2
    m = linking_matrix(d)
    assert m[0][1] == m[1][0]


def test_reverse_component_flips_its_linking_row():
    d = from_braid(HOPF_PLUS)
    r = reverse_component(d, 0)
    assert linking_matrix(r) == [[0, -1], [-1, 0]]


# the negative Hopf chain on 5 components: each links its neighbours once
HOPF_CHAIN_LK = [[-1 if abs(i - j) == 1 else 0 for j in range(5)] for i in range(5)]
# component 0 links 1 and 2 with opposite signs, so {0} has total 0
CANCELLING_TRIPLE_LK = [[0, 1, -1], [1, 0, 1], [-1, 1, 0]]


def test_linked_throughout():
    # {0,1} clasp each other but not component 2, so {2} splits off with
    # zero total linking (and so does its complement {0,1})
    assert not linked_throughout([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    # a single clasp admits no such subset; the whole link is not a proper subset
    assert linked_throughout([[0, 1], [1, 0]])
    assert linked_throughout([[0]])
    assert not linked_throughout([[0] * 4 for _ in range(4)])
    assert linked_throughout(HOPF_CHAIN_LK)
    assert not linked_throughout(CANCELLING_TRIPLE_LK)


def _seeded_linking_matrices(seed, count):
    rng = random.Random(seed)
    for k in range(count):
        n = 1 + k % 8
        zero = 0.6 * rng.random()  # the share of unlinked pairs, about
        # one sign throughout links every subset that has a linked pair
        # across it; mixed signs can cancel
        values = rng.choice(((1, 2), (-1, -2), (-2, -1, 1, 2)))
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() >= zero:
                    m[i][j] = m[j][i] = rng.choice(values)
        yield m


def test_linked_throughout_equals_the_reference_on_seeded_matrices():
    special = [[[0] * n for _ in range(n)] for n in range(1, 9)] + [HOPF_CHAIN_LK, CANCELLING_TRIPLE_LK]
    seen = {(n, want): 0 for n in range(1, 9) for want in (True, False)}
    for m in [*special, *_seeded_linking_matrices(41, 560)]:
        want = next(reference_zero_linking_sublinks(m), None) is None
        assert linked_throughout(m) == want, m
        seen[len(m), want] += 1
    # both answers occur often at every size from 2 components up
    assert min(seen[n, want] for n in range(2, 9) for want in (True, False)) >= 15, seen


def test_simplify_removes_reducible_kinks():
    # sigma_1 sigma_1^-1 closes to a 2-unlink drawn with two kinks
    d = from_braid(BraidWord(2, (1, -1)))
    s = simplify_diagram(d)
    assert len(s.crossings) < len(d.crossings)
    assert s.total_components == 2


# -- reference cleanup: the quadratic clasp search, kept as the oracle -------


def reference_walk_components(crossings):
    succ = {}
    for ui, uo, oi, oo, _ in crossings:
        succ[ui] = uo
        succ[oi] = oo
    comps, seen = [], set()
    for start in sorted(succ):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        a = succ[start]
        while a != start:
            cyc.append(a)
            seen.add(a)
            a = succ[a]
        comps.append(cyc)
    return comps


def reference_remove_crossings(d, kill, joins):
    parent = {}

    def find(a):
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in joins:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    survivors = [c for t, c in enumerate(d.crossings) if t not in kill]
    relabeled = [tuple(find(a) for a in c[:4]) + (c[4],) for c in survivors]
    present = set()
    for c in relabeled:
        present.update(c[:4])
    extinct = set()
    for t in kill:
        for a in d.crossings[t][:4]:
            r = find(a)
            if r not in present:
                extinct.add(r)
    return Diagram(relabeled, reference_walk_components(relabeled), d.free_loops + len(extinct))


def reference_simplify_diagram(d):
    cur = d
    changed = True
    while changed:
        changed = False
        for t, (ui, uo, oi, oo, s) in enumerate(cur.crossings):
            if ui == oo:
                cur = reference_remove_crossings(cur, {t}, [(oi, ui), (ui, uo)])
                changed = True
                break
            if uo == oi:
                cur = reference_remove_crossings(cur, {t}, [(ui, uo), (uo, oo)])
                changed = True
                break
        if changed:
            continue
        m = len(cur.crossings)
        for t1 in range(m):
            if changed:
                break
            ui1, uo1, oi1, oo1, s1 = cur.crossings[t1]
            for t2 in range(m):
                if t1 == t2:
                    continue
                ui2, uo2, oi2, oo2, s2 = cur.crossings[t2]
                if s1 + s2 != 0 or oo1 != oi2:
                    continue
                joins = [(oi1, oo1), (oo1, oo2)]
                if uo1 == ui2:
                    joins += [(ui1, uo1), (uo1, uo2)]
                elif uo2 == ui1:
                    joins += [(ui2, uo2), (uo2, uo1)]
                else:
                    continue
                cur = reference_remove_crossings(cur, {t1, t2}, joins)
                changed = True
                break
    return cur


def _fields(d):
    return d.crossings, d.components, d.free_loops


def _seeded_words(seed, count, max_strands, max_letters):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, max_strands)
        yield BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                                 for _ in range(rng.randint(0, max_letters))))


def test_simplify_matches_quadratic_reference():
    shrunk = 0
    for b in _seeded_words(2024, 3000, 5, 16):
        for d in (from_braid(b), reverse_component(from_braid(b), 0)):
            got = simplify_diagram(d)
            assert _fields(got) == _fields(reference_simplify_diagram(d)), b
            shrunk += len(got.crossings) < len(d.crossings)
    # most draws carry a kink or a clasp, so both move kinds are exercised
    assert shrunk > 3000


def test_remove_crossings_matches_reference_on_smoothings():
    rng = random.Random(5)
    for b in _seeded_words(7, 600, 4, 12):
        d = from_braid(b)
        if not d.crossings:
            continue
        t = rng.randrange(len(d.crossings))
        ui, uo, oi, oo, _ = d.crossings[t]
        joins = [(ui, oo), (oi, uo)]
        assert _fields(remove_crossings(d, {t}, joins)) == _fields(reference_remove_crossings(d, {t}, joins)), b


def test_walk_components_matches_reference():
    for b in _seeded_words(11, 300, 5, 14):
        d = from_braid(b)
        assert walk_components(d.crossings) == reference_walk_components(d.crossings)


def reference_from_braid(b):
    """Closure with components matched to the permutation's cycles."""
    n = b.strands
    cur = list(range(1, n + 1))
    nxt = n + 1
    crossings = []
    for x in b.letters:
        i = abs(x)
        a, bb = cur[i - 1], cur[i]
        xa, ya = nxt, nxt + 1
        nxt += 2
        crossings.append((a, ya, bb, xa, 1) if x > 0 else (bb, xa, a, ya, -1))
        cur[i - 1], cur[i] = xa, ya
    rename = {cur[p]: p + 1 for p in range(n) if cur[p] != p + 1}
    free = n - len(rename)
    crossings = [tuple(rename.get(a, a) for a in c[:4]) + (c[4],) for c in crossings]
    comps_by_min = walk_components(crossings)
    used = [cyc for cyc in strand_cycles(b) if cur[cyc[0]] != cyc[0] + 1]
    first = [cyc for cyc in used if 0 in cyc]
    rest = sorted((cyc for cyc in used if 0 not in cyc), key=lambda cyc: -min(cyc))
    order = []
    for cyc in first + rest:
        (comp,) = [c for c in comps_by_min if min(cyc) + 1 in c]
        j = comp.index(min(cyc) + 1)
        order.append(comp[j:] + comp[:j])
    return Diagram(crossings, order, free)


def test_from_braid_matches_cycle_matching_reference():
    rng = random.Random(31)
    for _ in range(5000):
        n = rng.randint(1, 7)
        letters = () if n == 1 else tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                                          for _ in range(rng.randint(0, 16)))
        b = BraidWord(n, letters)
        assert _fields(from_braid(b)) == _fields(reference_from_braid(b)), b
