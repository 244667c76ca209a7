"""Oriented link diagrams as lists of crossing records.

A crossing is a 5-tuple ``(under_in, under_out, over_in, over_out, sign)``
of arc labels plus the crossing sign.  Arcs are abstract labels; each arc
has exactly one head (an ``*_in`` slot) and one tail (an ``*_out`` slot).
Circles without crossings cannot carry arcs and are tracked by the
``free_loops`` counter.

The classical planar presentation with 4-tuples ``X[i, j, k, l]`` (arcs
counterclockwise from the incoming under-strand) maps to records as

* positive crossing, over strand runs ``l -> j``:  ``(i, k, l, j, +1)``
* negative crossing, over strand runs ``j -> l``:  ``(i, k, j, l, -1)``
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .braids import BraidWord


class DiagramError(ValueError):
    pass


Crossing = tuple[int, int, int, int, int]


@dataclass
class Diagram:
    crossings: list[Crossing]
    components: list[list[int]] = field(default_factory=list)
    free_loops: int = 0

    @property
    def total_components(self) -> int:
        return len(self.components) + self.free_loops

    def copy(self) -> "Diagram":
        return Diagram([c for c in self.crossings], [list(c) for c in self.components], self.free_loops)


def _successors(crossings: list[Crossing]) -> dict[int, int]:
    succ: dict[int, int] = {}
    for ui, uo, oi, oo, _ in crossings:
        for a, b in ((ui, uo), (oi, oo)):
            if a in succ:
                raise DiagramError("arc %d has two heads" % a)
            succ[a] = b
    return succ


def walk_components(crossings: list[Crossing]) -> list[list[int]]:
    """Oriented circles of the diagram as arc cycles, ordered by their
    smallest arc label."""
    succ = _successors(crossings)
    tails = set(succ.values())
    if set(succ) != tails:
        raise DiagramError("every arc needs one head and one tail")
    comps = []
    # ``tails`` now doubles as the set of arcs not yet walked
    for start in sorted(succ):
        if start not in tails:
            continue
        cyc = [start]
        tails.remove(start)
        a = succ[start]
        while a != start:
            cyc.append(a)
            tails.remove(a)
            a = succ[a]
        comps.append(cyc)
    return comps


def from_braid(b: BraidWord) -> Diagram:
    """Diagram of the braid closure.

    Components are ordered with the cycle through strand position 1 first,
    then the remaining cycles by decreasing minimal strand position.
    Strands that meet no crossing close up into free loops.
    """
    n = b.strands
    cur = list(range(1, n + 1))
    nxt = n + 1
    crossings: list[Crossing] = []
    for x in b.letters:
        i = abs(x)
        a, bb = cur[i - 1], cur[i]
        xa, ya = nxt, nxt + 1
        nxt += 2
        if x > 0:
            crossings.append((a, ya, bb, xa, 1))
        else:
            crossings.append((bb, xa, a, ya, -1))
        cur[i - 1], cur[i] = xa, ya
    rename = {}
    free = 0
    for p in range(n):
        if cur[p] == p + 1:
            free += 1
        else:
            rename[cur[p]] = p + 1
    crossings = [tuple(rename.get(a, a) for a in c[:4]) + (c[4],) for c in crossings]
    # arcs 1..n are the strand positions, and the walk starts every
    # component at its smallest arc
    order = sorted(walk_components(crossings), key=lambda c: (c[0] != 1, -c[0]))
    return Diagram(crossings, order, free)


def from_pd(tuples: list[tuple[int, int, int, int]], free_loops: int = 0) -> Diagram:
    """Build a diagram from planar 4-tuples, inferring over-strand
    directions by constraint propagation.

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


def pd_tuples(d: Diagram) -> list[tuple[int, int, int, int]]:
    out = []
    for ui, uo, oi, oo, s in d.crossings:
        if s > 0:
            out.append((ui, oo, uo, oi))
        else:
            out.append((ui, oi, uo, oo))
    return out


def _component_of_arc(d: Diagram) -> dict[int, int]:
    where = {}
    for idx, comp in enumerate(d.components):
        for a in comp:
            where[a] = idx
    return where


def linking_matrix(d: Diagram) -> list[list[int]]:
    """Pairwise linking numbers; free loops contribute zero rows at the
    end of the matrix."""
    n = d.total_components
    where = _component_of_arc(d)
    acc = [[0] * n for _ in range(n)]
    for ui, _, oi, _, s in d.crossings:
        cu, co = where[ui], where[oi]
        if cu != co:
            acc[cu][co] += s
            acc[co][cu] += s
    for r in range(n):
        for c in range(n):
            if acc[r][c] % 2:
                raise DiagramError("odd crossing count between components %d and %d" % (r, c))
            acc[r][c] //= 2
    return acc


def remove_crossings(d: Diagram, kill: set[int], joins: list[tuple[int, int]]) -> Diagram:
    """Delete the crossings with the given indices and fuse arcs pairwise.

    Arc classes that end up meeting no surviving crossing close into free
    loops.  Components are recomputed and ordered by smallest arc label.
    """
    parent: dict[int, int] = {}

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
    rep = {a: find(a) for a in parent}
    get = rep.get
    relabeled = [(get(ui, ui), get(uo, uo), get(oi, oi), get(oo, oo), s)
                 for t, (ui, uo, oi, oo, s) in enumerate(d.crossings) if t not in kill]
    present = {a for c in relabeled for a in c[:4]}
    extinct = {get(a, a) for t in kill for a in d.crossings[t][:4]} - present
    comps = walk_components(relabeled)
    return Diagram(relabeled, comps, d.free_loops + len(extinct))


def simplify_diagram(d: Diagram) -> Diagram:
    """Remove kinks and cancelling clasp pairs until none remain.

    Only moves that shrink the crossing count are applied, so this always
    terminates; it is a cheap preprocessor, not a full simplifier.
    """
    cur = d.copy()
    changed = True
    while changed:
        changed = False
        # kinks: the loop arc is absorbed into the continuing strand
        for t, (ui, uo, oi, oo, s) in enumerate(cur.crossings):
            if ui == oo:
                cur = remove_crossings(cur, {t}, [(oi, ui), (ui, uo)])
                changed = True
                break
            if uo == oi:
                cur = remove_crossings(cur, {t}, [(ui, uo), (uo, oo)])
                changed = True
                break
        if changed:
            continue
        # clasp pairs: two crossings of opposite sign joined by an arc in the
        # over slots and an arc in the under slots (same strand on top twice);
        # both connecting arcs are absorbed into the strands that pass through.
        # The partner of t1 is the crossing whose over strand enters on t1's
        # over-out arc; it is unique because every arc has one head.
        over_in = {c[2]: t for t, c in enumerate(cur.crossings)}
        for t1, (ui1, uo1, oi1, oo1, s1) in enumerate(cur.crossings):
            t2 = over_in.get(oo1)
            if t2 is None or t2 == t1:
                continue
            ui2, uo2, oi2, oo2, s2 = cur.crossings[t2]
            if s1 + s2 != 0:
                continue
            joins = [(oi1, oo1), (oo1, oo2)]
            if uo1 == ui2:
                joins += [(ui1, uo1), (uo1, uo2)]
            elif uo2 == ui1:
                joins += [(ui2, uo2), (uo2, uo1)]
            else:
                continue
            cur = remove_crossings(cur, {t1, t2}, joins)
            changed = True
            break
    return cur


def zero_linking_sublinks(m: list[list[int]]) -> list[tuple[int, ...]]:
    """Proper nonempty component subsets whose total linking number with
    the complement vanishes."""
    n = len(m)
    out = []
    for mask in range(1, (1 << n) - 1):
        s = [i for i in range(n) if mask >> i & 1]
        rest = [i for i in range(n) if not mask >> i & 1]
        if sum(m[i][j] for i in s for j in rest) == 0:
            out.append(tuple(s))
    return out
