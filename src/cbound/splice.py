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

from dataclasses import dataclass, field


class OvalError(ValueError):
    pass


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
    ovals: list[Oval]

    def __post_init__(self):
        ids = [o.ident for o in self.ovals]
        if len(set(ids)) != len(ids):
            raise OvalError("duplicate oval ids")
        if any(i <= 0 for i in ids):
            raise OvalError("oval ids must be positive")
        known = set(ids)
        for o in self.ovals:
            if o.parent != 0 and o.parent not in known:
                raise OvalError("oval %d refers to missing parent %d" % (o.ident, o.parent))
        # reject parent cycles
        for o in self.ovals:
            seen = {o.ident}
            p = o.parent
            while p != 0:
                if p in seen:
                    raise OvalError("parent cycle through oval %d" % p)
                seen.add(p)
                p = self.by_id(p).parent
        for o in self.ovals:
            if o.fiber:
                if self.children(o.ident):
                    raise OvalError("fiber %d cannot contain other ovals" % o.ident)
                if o.winding not in (-1, 1):
                    raise OvalError("fiber %d needs winding +1 or -1, got %d" % (o.ident, o.winding))
                if o.has_geometry and o.r != 0.0:
                    raise OvalError("fiber %d must have radius 0" % o.ident)
            elif o.has_geometry and o.r <= 0.0:
                raise OvalError("oval %d needs positive radius" % o.ident)
        geo = [o.has_geometry for o in self.ovals]
        if any(geo) and not all(geo):
            raise OvalError("geometry must be given for all ovals or none")

    def by_id(self, ident: int) -> Oval:
        for o in self.ovals:
            if o.ident == ident:
                return o
        raise KeyError(ident)

    def children(self, ident: int) -> list[Oval]:
        return sorted((o for o in self.ovals if o.parent == ident), key=lambda o: o.ident)

    def roots(self) -> list[Oval]:
        return sorted((o for o in self.ovals if o.parent == 0), key=lambda o: o.ident)

    def depth(self, ident: int) -> int:
        d = 0
        p = self.by_id(ident).parent
        while p != 0:
            d += 1
            p = self.by_id(p).parent
        return d

    def ids(self) -> list[int]:
        return sorted(o.ident for o in self.ovals)


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

    def process(o: Oval):
        if o.fiber:
            if o.winding == -1:
                ops.append(CableOp("split", o.ident, 1, reverse=True))
            return
        kids = forest.children(o.ident)
        if kids:
            ops.append(CableOp("add_retain", o.ident, o.winding))
            if len(kids) >= 2:
                ops.append(CableOp("split", o.ident, len(kids)))
            for k in kids:
                process(k)
        else:
            ops.append(CableOp("add_remove", o.ident, o.winding))

    for r in forest.roots():
        process(r)
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


@dataclass
class SpliceDiagram:
    vertices: dict[int, SpliceVertex] = field(default_factory=dict)
    edges: list[SpliceEdge] = field(default_factory=list)
    _next: int = 1

    def new_vertex(self, kind: str, label: int | None = None) -> int:
        v = self._next
        self._next += 1
        self.vertices[v] = SpliceVertex(v, kind, label)
        return v

    def add_edge(self, v1: int, v2: int, w1: int, w2: int) -> SpliceEdge:
        e = SpliceEdge(v1, v2, w1, w2)
        self.edges.append(e)
        return e

    def incident(self, v: int) -> list[SpliceEdge]:
        return [e for e in self.edges if v in (e.v1, e.v2)]

    def neighbor(self, e: SpliceEdge, v: int) -> int:
        return e.v2 if e.v1 == v else e.v1

    def weight_at(self, e: SpliceEdge, v: int) -> int:
        return e.w1 if e.v1 == v else e.w2

    def set_weight_at(self, e: SpliceEdge, v: int, w: int):
        if e.v1 == v:
            e.w1 = w
        else:
            e.w2 = w

    def arrows(self) -> list[int]:
        return sorted((v for v, sv in self.vertices.items() if sv.kind == "arrow"),
                      key=lambda v: self.vertices[v].label or 0)


def splice_diagram(forest: OvalForest) -> SpliceDiagram:
    """Build the weighted splice tree by executing the cabling program."""
    sd = SpliceDiagram()

    def promote(arrow: int) -> int:
        """Turn an arrowhead into an interior node; its edge (if any) gets
        weight 1 at the new node end."""
        sd.vertices[arrow] = SpliceVertex(arrow, "node")
        for e in sd.incident(arrow):
            sd.set_weight_at(e, arrow, 1)
        return arrow

    def process(o: Oval, arrow: int):
        if o.fiber:
            if o.winding == -1:
                n = promote(arrow)
                stub = sd.new_vertex("stub")
                sd.add_edge(n, stub, -1, 1)
                comp = sd.new_vertex("arrow", o.ident)
                sd.add_edge(n, comp, 1, 1)
            else:
                sd.vertices[arrow].label = o.ident
            return
        kids = forest.children(o.ident)
        n = promote(arrow)
        curve = sd.new_vertex("arrow", o.ident)
        sd.add_edge(n, curve, 1, 1)
        if not kids:
            stub = sd.new_vertex("stub")
            sd.add_edge(n, stub, o.winding, 1)
            return
        cont = sd.new_vertex("arrow")
        rest = sd.add_edge(n, cont, o.winding, 1)
        if len(kids) == 1:
            process(kids[0], cont)
            return
        # fan-out: the copies are parallel fibers of one torus, so they do
        # not link each other; weight 0 back toward the parent encodes that
        m = promote(cont)
        sd.set_weight_at(rest, m, 0)
        for k in kids:
            branch = sd.new_vertex("arrow")
            sd.add_edge(m, branch, 1, 1)
            process(k, branch)

    for r in forest.roots():
        bare = sd.new_vertex("arrow")
        process(r, bare)
    return sd


def _splice_path(sd: SpliceDiagram, a: int, b: int) -> list[int] | None:
    prev: dict[int, int | None] = {a: None}
    queue = [a]
    while queue:
        v = queue.pop(0)
        if v == b:
            path = [v]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])
            return list(reversed(path))
        for e in sd.incident(v):
            u = sd.neighbor(e, v)
            if u not in prev:
                prev[u] = v
                queue.append(u)
    return None


def linking_from_splice(sd: SpliceDiagram) -> tuple[list[int], list[list[int]]]:
    """Linking matrix of the arrow components, rows ordered by label.

    Arrows in different trees of the diagram do not link.
    """
    arrows = sd.arrows()
    labels = [sd.vertices[v].label for v in arrows]
    if any(l is None for l in labels):
        raise OvalError("unlabeled arrow in splice diagram")
    n = len(arrows)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            path = _splice_path(sd, arrows[i], arrows[j])
            if path is None:
                continue
            prod = 1
            onpath = set(zip(path, path[1:])) | set(zip(path[1:], path))
            for v in path[1:-1]:
                for e in sd.incident(v):
                    u = sd.neighbor(e, v)
                    if (v, u) in onpath:
                        continue
                    prod *= sd.weight_at(e, v)
            m[i][j] = m[j][i] = prod
    return labels, m


def simplify_splice(sd: SpliceDiagram) -> SpliceDiagram:
    """Drop weight-1 stubs and contract plain degree-2 nodes.

    Contraction is skipped when both neighbors are arrowheads so that the
    minimal two-component picture keeps its central node.  Both moves
    leave every pairwise linking number unchanged.
    """
    out = SpliceDiagram({v: SpliceVertex(sv.ident, sv.kind, sv.label) for v, sv in sd.vertices.items()},
                        [SpliceEdge(e.v1, e.v2, e.w1, e.w2) for e in sd.edges], sd._next)
    changed = True
    while changed:
        changed = False
        for v, sv in list(out.vertices.items()):
            if sv.kind != "stub":
                continue
            (e,) = out.incident(v)
            n = out.neighbor(e, v)
            if out.weight_at(e, n) == 1:
                out.edges.remove(e)
                del out.vertices[v]
                changed = True
                break
        if changed:
            continue
        for v, sv in list(out.vertices.items()):
            if sv.kind != "node":
                continue
            inc = out.incident(v)
            if len(inc) != 2:
                continue
            e1, e2 = inc
            n1, n2 = out.neighbor(e1, v), out.neighbor(e2, v)
            if out.vertices[n1].kind == "arrow" and out.vertices[n2].kind == "arrow":
                continue
            w1 = out.weight_at(e1, n1)
            w2 = out.weight_at(e2, n2)
            out.edges.remove(e1)
            out.edges.remove(e2)
            del out.vertices[v]
            out.add_edge(n1, n2, w1, w2)
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
                      "winding": rng.choice([-1, 1]) if fiber else rng.randint(-3, 3)})

    def depth(ident: int) -> int:
        d = 0
        p = ovals[ident - 1]["parent"]
        while p != 0:
            d += 1
            p = ovals[p - 1]["parent"]
        return d

    for o in sorted(ovals, key=lambda o: -depth(o["ident"])):
        if o["fiber"] or depth(o["ident"]) % 2 == 0:
            continue
        kids = [c for c in ovals if c["parent"] == o["ident"]]
        o["winding"] = sum(c["winding"] for c in kids)
    return OvalForest([Oval(o["ident"], o["parent"], o["winding"], fiber=o["fiber"])
                       for o in ovals])
