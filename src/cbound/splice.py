"""Nested oval forests, cabling programs, and weighted splice trees.

An oval forest records disjoint/nested circles in the unit disk, each with
an integer winding count of the second coordinate (counterclockwise
convention) and optional geometry.  Zero-radius entries are fiber circles:
they stand for a vertical circle over an interior point and must be leaves
with winding +1 or -1.

The forest compiles to a cabling program (how to build the link by
iterated cabling of a trivial fiber) and to a splice tree whose arrows are
the link components.  Linking numbers are read off the splice tree: for
two arrows, multiply the weights sitting at every interior node of the
connecting path on the edges hanging off that path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class OvalError(ValueError):
    def __init__(self, message: str, at: int | None = None):
        super().__init__(message)
        self.at = at  # position in OvalForest.ovals of the oval at fault


@dataclass(frozen=True)
class Oval:
    ident: int
    parent: int  # 0 for a root
    winding: int
    fiber: bool = False
    cx: float | None = None
    cy: float | None = None
    r: float | None = None

    @property
    def has_geometry(self) -> bool:
        return self.r is not None


@dataclass
class OvalForest:
    """Ovals indexed by id, with child lists in id order and one walk from
    the roots (``walk``: roots in id order, each oval followed by the walks
    of its children in id order) that records every depth."""

    ovals: list[Oval]

    def __post_init__(self):
        self._by_id: dict[int, Oval] = {}
        for k, o in enumerate(self.ovals):
            if self._by_id.setdefault(o.ident, o) is not o:
                raise OvalError("duplicate oval ids", k)
        for k, o in enumerate(self.ovals):
            if o.ident <= 0:
                raise OvalError("oval ids must be positive", k)
        self._children: dict[int, list[Oval]] = {i: [] for i in [0, *self._by_id]}
        for k, o in enumerate(self.ovals):
            if o.parent not in self._children:
                raise OvalError("oval %d refers to missing parent %d" % (o.ident, o.parent), k)
        for o in sorted(self.ovals, key=lambda o: o.ident):
            self._children[o.parent].append(o)
        self.walk: list[Oval] = []
        self._depth: dict[int, int] = {}
        todo = [(o, 0) for o in reversed(self._children[0])]
        while todo:
            o, d = todo.pop()
            self.walk.append(o)
            self._depth[o.ident] = d
            todo.extend((k, d + 1) for k in reversed(self._children[o.ident]))
        missed = [o for o in self.ovals if o.ident not in self._depth]
        if missed:
            # an oval the walk misses has a parent cycle above it
            seen, i = set(), missed[0].ident
            while i not in seen:
                seen.add(i)
                i = self._by_id[i].parent
            raise OvalError("parent cycle through oval %d" % i, self.ovals.index(self._by_id[i]))
        for k, o in enumerate(self.ovals):
            if o.fiber:
                if self.children(o.ident):
                    raise OvalError("fiber %d cannot contain other ovals" % o.ident, k)
                if o.winding not in (-1, 1):
                    raise OvalError("fiber %d needs winding +1 or -1, got %d" % (o.ident, o.winding), k)
                if o.has_geometry and o.r != 0.0:
                    raise OvalError("fiber %d must have radius 0" % o.ident, k)
            elif o.has_geometry and o.r <= 0.0:
                raise OvalError("oval %d needs positive radius" % o.ident, k)
        for k, o in enumerate(self.ovals):
            if o.has_geometry != self.ovals[0].has_geometry:
                raise OvalError("geometry must be given for all ovals or none", k)

    def by_id(self, ident: int) -> Oval:
        return self._by_id[ident]

    def children(self, ident: int) -> list[Oval]:
        return self._children[ident]

    def roots(self) -> list[Oval]:
        return self._children[0]

    def depth(self, ident: int) -> int:
        return self._depth[ident]

    def ids(self) -> list[int]:
        return sorted(self._by_id)


def induced_windings(forest: OvalForest) -> dict[int, int]:
    """Windings adjusted for the orientation that the two-sided coloring of
    the disk complement induces: ovals at odd depth flip sign."""
    out = {}
    for o in forest.ovals:
        delta = -1 if forest.depth(o.ident) % 2 else 1
        out[o.ident] = delta * o.winding
    return out


def realizable(forest: OvalForest) -> tuple[bool, list[int]]:
    """Check the local balance condition for the forest to come from a
    holomorphic graph over the disk.

    Every non-fiber oval whose interior region is positively oriented
    (odd depth) must have its adjusted winding plus those of its children
    sum to zero.  Returns (ok, offending oval ids).
    """
    adj = induced_windings(forest)
    bad = []
    for o in forest.ovals:
        if o.fiber:
            continue
        if forest.depth(o.ident) % 2 == 1:
            s = adj[o.ident] + sum(adj[c.ident] for c in forest.children(o.ident))
            if s != 0:
                bad.append(o.ident)
    return (not bad, bad)


# -- cabling programs --------------------------------------------------------


@dataclass(frozen=True)
class CableOp:
    """One step of the iterated cabling build.

    kind 'add_retain': replace the current torus boundary fiber by the
    winding-``value`` curve, keeping the core circle available.
    kind 'add_remove': same but the core is discarded (leaf oval).
    kind 'split': fan the current fiber out into ``value`` parallel copies;
    with ``reverse`` set (value 1) the single copy is orientation-reversed.
    """

    kind: str
    oval: int
    value: int
    reverse: bool = False

    def __str__(self):
        if self.kind == "split" and self.reverse:
            return "split(%d, reverse) @%d" % (self.value, self.oval)
        if self.kind == "split":
            return "split(%d) @%d" % (self.value, self.oval)
        return "%s(%+d) @%d" % (self.kind, self.value, self.oval)


def cabling_program(forest: OvalForest) -> list[CableOp]:
    """Compile the forest into cabling steps, roots first, children in id
    order.  Fibers with winding +1 are silent: they are exactly the cores
    that add_retain keeps."""
    ops: list[CableOp] = []
    for o in forest.walk:
        kids = forest.children(o.ident)
        if o.fiber:
            if o.winding == -1:
                ops.append(CableOp("split", o.ident, 1, reverse=True))
        elif kids:
            ops.append(CableOp("add_retain", o.ident, o.winding))
            if len(kids) >= 2:
                ops.append(CableOp("split", o.ident, len(kids)))
        else:
            ops.append(CableOp("add_remove", o.ident, o.winding))
    return ops


# -- splice trees ------------------------------------------------------------


@dataclass
class SpliceVertex:
    ident: int
    kind: str  # 'node' | 'arrow' | 'stub'
    label: int | None = None  # forest id for arrows


@dataclass
class SpliceEdge:
    v1: int
    v2: int
    w1: int  # weight at the v1 end
    w2: int

    def weight_at(self, v: int) -> int:
        return self.w1 if self.v1 == v else self.w2


@dataclass
class SpliceDiagram:
    """Vertices by id, and for each vertex a map from neighbour to the edge
    joining them, in the order the edges were added."""

    vertices: dict[int, SpliceVertex] = field(default_factory=dict)
    adjacent: dict[int, dict[int, SpliceEdge]] = field(default_factory=dict)
    _next: int = 1

    def new_vertex(self, kind: str, label: int | None = None) -> int:
        v = self._next
        self._next += 1
        self.vertices[v] = SpliceVertex(v, kind, label)
        self.adjacent[v] = {}
        return v

    def add_edge(self, v1: int, v2: int, w1: int, w2: int) -> SpliceEdge:
        e = SpliceEdge(v1, v2, w1, w2)
        self.adjacent[v1][v2] = self.adjacent[v2][v1] = e
        return e

    def remove_vertex(self, v: int):
        for u in self.adjacent.pop(v):
            del self.adjacent[u][v]
        del self.vertices[v]

    @property
    def edges(self) -> list[SpliceEdge]:
        return [e for v, nbrs in self.adjacent.items() for e in nbrs.values() if e.v1 == v]

    def arrows(self) -> list[int]:
        return sorted((v for v, sv in self.vertices.items() if sv.kind == "arrow"),
                      key=lambda v: self.vertices[v].label or 0)


def splice_diagram(forest: OvalForest) -> SpliceDiagram:
    """Build the weighted splice tree, walking the forest in the same order
    as :func:`cabling_program`.

    Each oval arrives at an arrowhead: a fresh one for a root, its parent's
    continuation for an only child, or a new branch off its parent's
    fan-out node.  A fiber labels that arrowhead (winding +1) or turns it
    into a node with a reversed copy (winding -1); any other oval turns it
    into a node carrying the oval's own arrow and either a stub of weight
    ``winding`` (a leaf) or a continuation toward its children."""
    sd = SpliceDiagram()
    cont: dict[int, int] = {}  # oval id -> the vertex its children hang from
    for o in forest.walk:
        arrow = cont[o.parent] if o.parent else sd.new_vertex("arrow")
        if sd.vertices[arrow].kind == "node":  # a fan-out node
            branch = sd.new_vertex("arrow")
            sd.add_edge(arrow, branch, 1, 1)
            arrow = branch
        if o.fiber and o.winding == 1:
            sd.vertices[arrow].label = o.ident
            continue
        # the arrowhead's only edge already has weight 1 at this end
        sd.vertices[arrow].kind = "node"
        if o.fiber:
            sd.add_edge(arrow, sd.new_vertex("stub"), -1, 1)
            sd.add_edge(arrow, sd.new_vertex("arrow", o.ident), 1, 1)
            continue
        sd.add_edge(arrow, sd.new_vertex("arrow", o.ident), 1, 1)
        kids = forest.children(o.ident)
        if not kids:
            sd.add_edge(arrow, sd.new_vertex("stub"), o.winding, 1)
            continue
        cont[o.ident] = sd.new_vertex("arrow")
        rest = sd.add_edge(arrow, cont[o.ident], o.winding, 1)
        if len(kids) >= 2:
            # fan-out: the copies are parallel fibers of one torus, so they
            # do not link each other; weight 0 back toward the parent
            # encodes that
            sd.vertices[cont[o.ident]].kind = "node"
            rest.w2 = 0
    return sd


def linking_from_splice(sd: SpliceDiagram) -> tuple[list[int], list[list[int]]]:
    """Linking matrix of the arrow components, rows ordered by label.

    One walk of the tree from each arrow carries, to every vertex it
    reaches, the product of the weights at the interior vertices of the
    path on the edges that leave it.  Arrows in different trees of the
    diagram do not link.
    """
    arrows = sd.arrows()
    labels = [sd.vertices[v].label for v in arrows]
    if any(l is None for l in labels):
        raise OvalError("unlabeled arrow in splice diagram")
    row_of = {v: k for k, v in enumerate(arrows)}
    m = [[0] * len(arrows) for _ in arrows]
    for a in arrows:
        todo = [(u, a, 1) for u in sd.adjacent[a]]
        while todo:
            v, prev, prod = todo.pop()
            if v in row_of:
                m[row_of[a]][row_of[v]] = prod
            out = {u: e.weight_at(v) for u, e in sd.adjacent[v].items() if u != prev}
            zeros = sum(w == 0 for w in out.values())
            nonzero = math.prod(w for w in out.values() if w)
            # on to u: times every weight leaving v but the one toward u
            todo.extend((u, v, 0 if zeros > (w == 0) else prod * (nonzero // w if w else nonzero))
                        for u, w in out.items())
    return labels, m


def simplify_splice(sd: SpliceDiagram) -> SpliceDiagram:
    """Drop weight-1 stubs and contract plain degree-2 nodes.

    Contraction is skipped when both neighbors are arrowheads so that the
    minimal two-component picture keeps its central node.  Both moves
    leave every pairwise linking number unchanged.
    """
    copies = {id(e): SpliceEdge(e.v1, e.v2, e.w1, e.w2) for e in sd.edges}
    out = SpliceDiagram({v: SpliceVertex(sv.ident, sv.kind, sv.label) for v, sv in sd.vertices.items()},
                        {v: {u: copies[id(e)] for u, e in nbrs.items()} for v, nbrs in sd.adjacent.items()},
                        sd._next)
    changed = True
    while changed:
        changed = False
        for v, sv in list(out.vertices.items()):
            if sv.kind != "stub":
                continue
            ((n, e),) = out.adjacent[v].items()
            if e.weight_at(n) == 1:
                out.remove_vertex(v)
                changed = True
                break
        if changed:
            continue
        for v, sv in list(out.vertices.items()):
            if sv.kind != "node" or len(out.adjacent[v]) != 2:
                continue
            (n1, e1), (n2, e2) = out.adjacent[v].items()
            if out.vertices[n1].kind == "arrow" and out.vertices[n2].kind == "arrow":
                continue
            out.remove_vertex(v)
            out.add_edge(n1, n2, e1.weight_at(n1), e2.weight_at(n2))
            changed = True
            break
    return out


def render_splice(sd: SpliceDiagram) -> str:
    """Text form: one edge per line, ``v1 w1 -- w2 v2``; arrow vertices are
    written ``>name`` (name = component label when known), stubs ``.id``."""
    def vname(v: int) -> str:
        sv = sd.vertices[v]
        if sv.kind == "arrow":
            return ">%s" % (sv.label if sv.label is not None else "v%d" % v)
        if sv.kind == "stub":
            return ".%d" % v
        return "n%d" % v

    lines = []
    for e in sorted(sd.edges, key=lambda e: (e.v1, e.v2)):
        lines.append("%s %d -- %d %s" % (vname(e.v1), e.w1, e.w2, vname(e.v2)))
    if not lines:
        lines.append("(empty)")
    return "\n".join(lines)


def random_realizable_forest(rng, max_ovals: int = 6) -> OvalForest:
    """Sample a forest that passes :func:`realizable`.

    Only even-depth windings are free: an oval at odd depth must carry the
    sum of its children's raw windings (fibers included), so those values
    are forced after the shape is drawn.  ``rng`` is a ``random.Random``.
    """
    n = rng.randint(2, max_ovals)
    ovals: list[dict] = []
    for ident in range(1, n + 1):
        hosts = [o["ident"] for o in ovals if not o["fiber"]]
        if not hosts or rng.random() < 0.25:
            parent = 0
        else:
            parent = rng.choice(hosts)
        fiber = parent != 0 and rng.random() < 0.25
        ovals.append({"ident": ident, "parent": parent, "fiber": fiber,
                      "depth": ovals[parent - 1]["depth"] + 1 if parent else 0,
                      "winding": rng.choice([-1, 1]) if fiber else rng.randint(-3, 3)})

    for o in sorted(ovals, key=lambda o: -o["depth"]):
        if o["fiber"] or o["depth"] % 2 == 0:
            continue
        kids = [c for c in ovals if c["parent"] == o["ident"]]
        o["winding"] = sum(c["winding"] for c in kids)
    return OvalForest([Oval(o["ident"], o["parent"], o["winding"], fiber=o["fiber"])
                       for o in ovals])
