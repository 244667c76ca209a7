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
    """Build a diagram from planar 4-tuples ``X[i, j, k, l]``, orienting
    each over strand by walking along it.

    The under strand runs from i (slot 0) to k (slot 2).  From every
    under-out slot the walk follows the strand forward over each crossing it
    meets, fixing that crossing's sign, until it dives under at an under-in
    slot.  A crossing no walk reaches lies on a circle that is over at every
    crossing, so either direction is correct: the numbering at its first
    crossing in tuple order picks one (it breaks where the numbering wraps
    around) and the walk goes once round the circle.
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
    ends: dict[int, list[tuple[int, int]]] = {}
    for t, tup in enumerate(tuples):
        for slot, arc in enumerate(tup):
            ends.setdefault(arc, []).append((t, slot))
    for arc, e in ends.items():
        if len(e) != 2:
            raise DiagramError("arc %d needs two ends, found %d" % (arc, len(e)))
        if e[0][1] == e[1][1] == 0:
            raise DiagramError("arc %d has two heads" % arc)
    # sign[t] = +1 when over runs l->j, -1 when over runs j->l, 0 until fixed
    sign = [0] * len(tuples)

    def walk(t, slot):
        """Follow the strand that leaves crossing t by ``slot``."""
        while True:
            arc = tuples[t][slot]
            a, b = ends[arc]
            t, slot = b if a == (t, slot) else a
            if slot == 2:
                raise DiagramError("arc %d has two tails" % arc)
            if slot == 0 or sign[t]:  # dives under, or closes an all-over circle
                return
            sign[t] = slot - 2
            slot = 4 - slot

    for t in range(len(tuples)):
        walk(t, 2)
    for t, (i, j, k, l) in enumerate(tuples):
        if not sign[t]:
            sign[t] = -1 if j + 1 == l else 1
            walk(t, 2 - sign[t])
    crossings: list[Crossing] = [(i, k, l, j, 1) if s == 1 else (i, k, j, l, -1)
                                 for (i, j, k, l), s in zip(tuples, sign)]
    return Diagram(crossings, walk_components(crossings), free_loops)


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
    cur = d
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


def linked_throughout(m: list[list[int]]) -> bool:
    """Whether every proper component subset has nonzero total linking with
    its complement.  A subset and its complement share that total, so only
    the 2^(n-1) - 1 subsets without the last component are tried."""
    n = len(m)
    for mask in range(1, (1 << n) // 2):
        s = [i for i in range(n) if mask >> i & 1]
        rest = [i for i in range(n) if not mask >> i & 1]
        if sum(m[i][j] for i in s for j in rest) == 0:
            return False
    return True
