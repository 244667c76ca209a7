"""Oval forests: realizability, cabling, splice diagrams, linking.

The linking checks use an independent oracle.  When one oval contains
another, the inner boundary curve is homologous to (its winding) times
the fiber of the solid torus it lives in, and the outer curve links that
fiber exactly once, so lk = winding of the inner oval.  Ovals in
disjoint subtrees never link: their curves sit over disjoint disks and
separate.
"""

import random

import pytest

from cbound.splice import (
    CableOp,
    Oval,
    OvalError,
    OvalForest,
    SpliceEdge,
    SpliceVertex,
    cabling_program,
    induced_windings,
    linking_from_splice,
    random_realizable_forest,
    realizable,
    render_splice,
    simplify_splice,
    splice_diagram,
)

WERMER = [Oval(1, 0, 1), Oval(2, 1, 1), Oval(3, 2, 1)]


def ancestry_lk(forest: OvalForest):
    """Closed-form linking matrix straight from the nesting combinatorics."""
    ovals = {o.ident: o for o in forest.ovals}
    ids = forest.ids()

    def ancestors(i):
        out = [i]
        while ovals[out[-1]].parent != 0:
            out.append(ovals[out[-1]].parent)
        return out

    def lk(i, j):
        if j in ancestors(i):
            return ovals[i].winding
        if i in ancestors(j):
            return ovals[j].winding
        return 0

    n = len(ids)
    return [[0 if a == b else lk(ids[a], ids[b]) for b in range(n)]
            for a in range(n)]


def splice_lk(forest):
    labels, m = linking_from_splice(simplify_splice(splice_diagram(forest)))
    assert labels == forest.ids()
    return m


def test_wermer_chain_realizable():
    ok, bad = realizable(OvalForest(WERMER))
    assert ok and bad == []


def test_bare_nested_pair_is_not_realizable():
    # an innermost oval at odd depth has nothing to balance its winding
    ok, bad = realizable(OvalForest([Oval(1, 0, 1), Oval(2, 1, 1)]))
    assert not ok
    assert bad == [2]


def test_unbalanced_chain_blames_the_middle_oval():
    ok, bad = realizable(OvalForest([Oval(1, 0, 2), Oval(2, 1, 1), Oval(3, 2, 3)]))
    assert not ok and bad == [2]


def test_top_level_ovals_are_unconstrained():
    for w1, w2 in [(1, 1), (3, -2), (-3, 0)]:
        ok, _ = realizable(OvalForest([Oval(1, 0, w1), Oval(2, 0, w2)]))
        assert ok


def test_fibers_skip_the_balance_rule():
    # a fiber at odd depth needs no children of its own
    ok, bad = realizable(OvalForest([Oval(1, 0, 3), Oval(2, 1, 1, fiber=True)]))
    assert ok, bad
    f = OvalForest([Oval(1, 0, 2), Oval(2, 1, 1, fiber=True), Oval(3, 1, 2), Oval(4, 3, 2)])
    ok, bad = realizable(f)
    assert ok, bad


def test_induced_windings_flip_at_odd_depth():
    w = induced_windings(OvalForest(WERMER))
    assert w == {1: 1, 2: -1, 3: 1}


def test_cabling_program_ops():
    prog = cabling_program(OvalForest(WERMER))
    assert [str(op) for op in prog] == [
        "add_retain(+1) @1", "add_retain(+1) @2", "add_remove(+1) @3"]
    assert all(isinstance(op, CableOp) for op in prog)


def test_splice_render_is_stable():
    sd = simplify_splice(splice_diagram(OvalForest(WERMER)))
    text = render_splice(sd)
    assert text.count(">") == 3  # one arrowhead per component
    assert render_splice(simplify_splice(splice_diagram(OvalForest(WERMER)))) == text


def test_wermer_linking():
    assert splice_lk(OvalForest(WERMER)) == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_disjoint_subtrees_do_not_link():
    f = OvalForest([Oval(1, 0, 1), Oval(2, 1, 2), Oval(3, 1, -1),
                    Oval(4, 2, 2), Oval(5, 3, -1)])
    m = splice_lk(f)
    assert m == ancestry_lk(f)
    assert m[1][2] == 0 and m[3][4] == 0 and m[1][4] == 0


def test_deep_chain_linking_is_inner_winding():
    f = OvalForest([Oval(1, 0, 2), Oval(2, 1, 1), Oval(3, 2, 1),
                    Oval(4, 3, -2), Oval(5, 4, -2)])
    m = splice_lk(f)
    assert m == ancestry_lk(f)
    assert m[1][4] == -2          # = winding of oval 5
    assert m[0][1] == 1           # = winding of oval 2


def test_zero_winding_middle_oval():
    # a middle oval balanced to zero by its children links nothing above it,
    # but the children still link every ancestor with their own windings
    f = OvalForest([Oval(1, 0, 1), Oval(2, 1, 0), Oval(3, 2, 2), Oval(4, 2, -2)])
    m = splice_lk(f)
    assert m == ancestry_lk(f)
    assert m[0][1] == 0 and m[0][2] == 2 and m[0][3] == -2


def test_fiber_winding_enters_directly():
    f = OvalForest([Oval(1, 0, 3), Oval(2, 1, -1, fiber=True)])
    assert splice_lk(f) == [[0, -1], [-1, 0]]


@pytest.mark.parametrize("seed", range(40))
def test_random_forests_match_ancestry_oracle(seed):
    rng = random.Random(seed)
    f = random_realizable_forest(rng, max_ovals=6)
    ok, bad = realizable(f)
    assert ok, bad
    assert splice_lk(f) == ancestry_lk(f)


def test_generator_covers_wide_windings():
    rng = random.Random(0)
    seen = set()
    for _ in range(300):
        f = random_realizable_forest(rng)
        seen.update(o.winding for o in f.ovals if not o.fiber and f.depth(o.ident) % 2 == 0)
    assert {-3, 3} <= seen


def test_duplicate_idents_rejected():
    with pytest.raises(OvalError):
        OvalForest([Oval(1, 0, 1), Oval(1, 0, 2)])


def test_a_fiber_with_a_radius_is_rejected():
    # parse_ovals marks exactly the zero radii as fibers, so only a forest
    # built in code can break this
    with pytest.raises(OvalError, match="fiber 1 must have radius 0"):
        OvalForest([Oval(1, 0, 1, fiber=True, cx=0.0, cy=0.0, r=0.1)])


# -- the recursive construction and per-pair path search, kept as references --


class _ReferenceDiagram:
    """Splice diagram with a flat edge list, scanned for every lookup."""

    def __init__(self, vertices=None, edges=None, next_id=1):
        self.vertices = vertices or {}
        self.edges = edges or []
        self._next = next_id

    def new_vertex(self, kind, label=None):
        v = self._next
        self._next += 1
        self.vertices[v] = SpliceVertex(v, kind, label)
        return v

    def add_edge(self, v1, v2, w1, w2):
        e = SpliceEdge(v1, v2, w1, w2)
        self.edges.append(e)
        return e

    def incident(self, v):
        return [e for e in self.edges if v in (e.v1, e.v2)]

    def neighbor(self, e, v):
        return e.v2 if e.v1 == v else e.v1

    def weight_at(self, e, v):
        return e.w1 if e.v1 == v else e.w2

    def set_weight_at(self, e, v, w):
        if e.v1 == v:
            e.w1 = w
        else:
            e.w2 = w

    def arrows(self):
        return sorted((v for v, sv in self.vertices.items() if sv.kind == "arrow"),
                      key=lambda v: self.vertices[v].label or 0)


def reference_splice_diagram(forest):
    sd = _ReferenceDiagram()

    def promote(arrow):
        sd.vertices[arrow] = SpliceVertex(arrow, "node")
        for e in sd.incident(arrow):
            sd.set_weight_at(e, arrow, 1)
        return arrow

    def process(o, arrow):
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
        kids = sorted((k for k in forest.ovals if k.parent == o.ident), key=lambda k: k.ident)
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
        m = promote(cont)
        sd.set_weight_at(rest, m, 0)
        for k in kids:
            branch = sd.new_vertex("arrow")
            sd.add_edge(m, branch, 1, 1)
            process(k, branch)

    for r in sorted((o for o in forest.ovals if o.parent == 0), key=lambda o: o.ident):
        process(r, sd.new_vertex("arrow"))
    return sd


def reference_simplify_splice(sd):
    out = _ReferenceDiagram({v: SpliceVertex(sv.ident, sv.kind, sv.label) for v, sv in sd.vertices.items()},
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


def _reference_path(sd, a, b):
    prev = {a: None}
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


def reference_linking_from_splice(sd):
    arrows = sd.arrows()
    labels = [sd.vertices[v].label for v in arrows]
    n = len(arrows)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            path = _reference_path(sd, arrows[i], arrows[j])
            if path is None:
                continue
            prod = 1
            onpath = set(zip(path, path[1:])) | set(zip(path[1:], path))
            for v in path[1:-1]:
                for e in sd.incident(v):
                    u = sd.neighbor(e, v)
                    if (v, u) not in onpath:
                        prod *= sd.weight_at(e, v)
            m[i][j] = m[j][i] = prod
    return labels, m


def _shuffled_forest(rng, max_ovals):
    """Any forest of 2 to max_ovals ovals: ids are a random relabelling, so
    parents may carry larger ids than their children, and the list order is
    shuffled."""
    n = rng.randint(2, max_ovals)
    names = rng.sample(range(1, 3 * n), n)
    ovals = []
    for k in range(n):
        hosts = [o for o in ovals if not o.fiber]
        parent = rng.choice(hosts).ident if hosts and rng.random() < 0.75 else 0
        fiber = parent != 0 and rng.random() < 0.25
        winding = rng.choice([-1, 1]) if fiber else rng.randint(-3, 3)
        ovals.append(Oval(names[k], parent, winding, fiber=fiber))
    rng.shuffle(ovals)
    return OvalForest(ovals)


@pytest.mark.parametrize("draw", [random_realizable_forest, _shuffled_forest])
def test_splice_matches_the_recursive_reference(draw):
    rng = random.Random(11)
    for _ in range(1000):
        f = draw(rng, 9)
        raw, ref_raw = splice_diagram(f), reference_splice_diagram(f)
        assert render_splice(raw) == render_splice(ref_raw)
        assert linking_from_splice(raw) == reference_linking_from_splice(ref_raw)
        simple, ref_simple = simplify_splice(raw), reference_simplify_splice(ref_raw)
        assert render_splice(simple) == render_splice(ref_simple)
        assert linking_from_splice(simple) == reference_linking_from_splice(ref_simple)


def test_wide_and_deep_forests_need_no_recursion():
    rng = random.Random(1)
    wide = OvalForest([Oval(k, rng.randrange(k), rng.randint(-3, 3)) for k in range(1, 301)])
    assert splice_lk(wide) == ancestry_lk(wide)
    deep = OvalForest([Oval(k, k - 1, (-1) ** k) for k in range(1, 1501)])
    assert deep.depth(1500) == 1499
    assert [op.oval for op in cabling_program(deep)] == list(range(1, 1501))
    sd = simplify_splice(splice_diagram(deep))
    assert [sd.vertices[v].label for v in sd.arrows()] == list(range(1, 1501))
    # down a chain, two ovals link by the winding of the inner one
    chain = OvalForest(deep.ovals[:400])
    assert splice_lk(chain) == [[0 if i == j else (-1) ** max(i + 1, j + 1) for j in range(400)]
                                for i in range(400)]
