"""Geometric realization of oval forests on the unit 3-sphere.

Each oval (center c, radius r, winding a) becomes the closed curve

    t -> (c + r*exp(i t),  sqrt(1 - |z|^2) * exp(i (a t + phase)))

living on S^3 in C^2; a zero-radius oval is the vertical circle over its
center.  The curves are sampled as closed polygons, pushed through a
seeded stereographic projection, and scanned for segment crossings.  The
scan decides each crossing (the strand at the greater depth is over, and
the plane tangents give the sign); the diagram only numbers the arcs.
Degenerate projections (crossing too close to a sample point, matched
depths, near-parallel hits, pole on the link) are rejected and retried
with a fresh chart deterministically derived from the seed.  Errors are
splice.OvalError, as in the rest of the oval pipeline.  This is the only
module that imports numpy; the command line imports it in `ovals embed`.

The crossing scan (_scan) runs once per chart over all curves.  Each
polygon's segments are cut into chunks of _CHUNK consecutive segments;
parametrize gives every curve a multiple of 64 samples, so no chunk
straddles two curves.  Each chunk gets its bounding box padded by _PAD on
every side.  The curves are swept in groups of consecutive whole curves.
A group takes the next curve while its overlap block (its chunk rows
against every chunk from its first on) stays within _GROUP entries; a
lone curve wider than that meets the later chunks in column steps.  One
batched exact test per group covers its chunk pairs ci < cj (curve pairs
x < y whole, a curve against itself above the diagonal) and, as one more
job, each chunk against itself on the 21 cells (u, v) with v >= u + 2.

Nothing is lost by these triangles.  Hits on one curve are kept only for
j >= i + 2 (and j - i < n - 1), and inside a chunk j - i = v - u.  The
near-parallel guard skips the same neighbours, and a cell and its mirror
fire together: the det and start-point differences of (b, a) are the
exact IEEE negatives of those of (a, b).  Nothing is lost at the
broadphase either.  A hit lies on both segments (up to a 1e-7 fraction of
their length), so both boxes hold it.  The guard fires on segments whose
start points are within 2e-2 on each axis, and boxes holding such start
points overlap once each is padded by more than 1e-2.

The exact test's arithmetic is that of a test of one pair at a time: the
same float64 expressions on the same operands, with the same tolerances.
det, the start-point differences and s are computed on every cell, t only
where det is nonzero (|det| > 1e-12) and s is in range, and the guard only
where det is not.  Elementwise float64 arithmetic does not depend on how
cells are grouped, so every crossing is bit-identical to that of a dense
test over every pair.

A chart is rejected for the first problem a pair-by-pair scan over curve
pairs (x, y), x <= y, would meet: the pair's first borderline hit (too
close to a sample point, or matched depths) in (i, j) order, else its
near-parallel guard.  Each group is settled in that order in one pass
before the next is swept.  Every pair (x, y) with x in an earlier group
was clean, so a rejected chart stops at its first group with a problem.

Two orientation conventions are supported.  "ccw" traverses every oval
counterclockwise in the z-plane, matching the winding bookkeeping of the
splice tree.  "induced" reverses traversal on odd-depth ovals, which is
the boundary orientation the nested annuli induce.
"""

from __future__ import annotations

import math

import numpy as np

from .diagrams import Diagram, linking_matrix
from .splice import Oval, OvalForest, OvalError


class _RetryProjection(Exception):
    pass


_GOLDEN = 2.399963229728653  # angular spread for the w-phases
_MAX_SAMPLES = 1 << 15  # samples per oval at most

# Broadphase of the crossing scan; see the module docstring.
_CHUNK = 8  # consecutive segments per box
_PAD = 0.015  # added on every side of a box
_BATCH = 256  # chunk pairs per exact-test batch, at most 256 * 64 cells
_GROUP = 1 << 17  # overlap-block entries a group of several curves stays within
# Chunk pairs in one overlap block at most, (_MAX_SAMPLES / _CHUNK)^2 bools
# (16 MiB); a lone curve's rows meet the later chunks in column steps that fit.
_NEAR_BLOCK = (_MAX_SAMPLES // _CHUNK) ** 2
# Smallest radius auto_geometry places.  A chain given without geometry
# projects at depth 15 (radius 1.0e-7) and at depth 16 (3.5e-8) no chart is
# generic; a few levels further the radii fall through check_geometry's
# 1e-9 tolerance and then underflow to 0.
_MIN_AUTO_RADIUS = 1e-7
_CHARTS = 64  # charts oval_link_pd tries before it gives up


def auto_geometry(forest: OvalForest) -> OvalForest:
    """Fill in disk geometry for a forest given without it.

    Roots go on a circle around the origin (or at the origin when there is
    only one); children sit on a circle of 0.55 times the parent radius,
    shrunk by the sibling count.  Existing geometry is kept as-is;
    parametrize checks it.  An oval whose disk would come out smaller than
    _MIN_AUTO_RADIUS is an error.
    """
    if all(o.has_geometry for o in forest.ovals):
        return forest

    placed: dict[int, tuple[float, float, float]] = {}
    roots = forest.roots()
    if len(roots) == 1:
        placed[roots[0].ident] = (0.0, 0.0, 0.0 if roots[0].fiber else 0.7)
    else:
        rr = min(0.25, 0.4 * math.sin(math.pi / len(roots)))
        for k, o in enumerate(roots):
            ang = 2 * math.pi * k / len(roots)
            placed[o.ident] = (0.5 * math.cos(ang), 0.5 * math.sin(ang),
                              0.0 if o.fiber else rr)
    for parent in forest.walk:
        cx, cy, r = placed[parent.ident]
        kids = forest.children(parent.ident)
        s = len(kids)
        for k, o in enumerate(kids):
            if s == 1:
                x, y = cx, cy
            else:
                ang = 2 * math.pi * k / s
                x = cx + 0.55 * r * math.cos(ang)
                y = cy + 0.55 * r * math.sin(ang)
            placed[o.ident] = (x, y, 0.0 if o.fiber else 0.35 * r / s)
            if not o.fiber and 0.35 * r / s < _MIN_AUTO_RADIUS:
                raise OvalError(
                    "oval %d at depth %d is nested too deep to place without geometry "
                    "(its radius would be %.1e); give cx cy r for every oval in the oval file"
                    % (o.ident, forest.depth(o.ident), 0.35 * r / s)
                )
    return OvalForest([Oval(o.ident, o.parent, o.winding, o.fiber,
                            placed[o.ident][0], placed[o.ident][1], placed[o.ident][2])
                       for o in forest.ovals])


def check_geometry(forest: OvalForest):
    """Disks must respect the nesting combinatorics and stay strictly
    inside the unit circle."""
    for o in forest.ovals:
        if not o.has_geometry:
            raise OvalError("oval %d has no geometry" % o.ident)
        d = math.hypot(o.cx, o.cy)
        if d + o.r >= 0.995:
            raise OvalError("oval %d touches the unit circle" % o.ident)
        if o.parent != 0:
            p = forest.by_id(o.parent)
            dp = math.hypot(o.cx - p.cx, o.cy - p.cy)
            if dp + o.r >= p.r - 1e-9:
                raise OvalError("oval %d leaves its parent disk" % o.ident)
    sibs: dict[int, list[Oval]] = {}
    for o in forest.ovals:
        sibs.setdefault(o.parent, []).append(o)
    for group in sibs.values():
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                d = math.hypot(a.cx - b.cx, a.cy - b.cy)
                if d <= a.r + b.r + 1e-9:
                    raise OvalError("ovals %d and %d overlap" % (a.ident, b.ident))


def parametrize(forest: OvalForest, orientation: str = "ccw",
                samples_scale: int = 1) -> list[tuple[int, np.ndarray]]:
    """Sample every oval as a closed polygon on S^3.

    Returns (oval id, points) pairs in id order; points are rows
    (Re z, Im z, Re w, Im w).  Each oval gets
    max(256, 64 * (1 + |winding|)) * samples_scale points; an oval that
    would need more than _MAX_SAMPLES raises OvalError.
    """
    check_geometry(forest)
    if orientation not in ("ccw", "induced"):
        raise ValueError("orientation must be 'ccw' or 'induced'")
    if samples_scale < 1:
        raise OvalError("samples scale must be an integer >= 1, got %s" % samples_scale)
    counts = {}
    for ident in forest.ids():
        a = forest.by_id(ident).winding
        counts[ident] = m = max(256, 64 * (1 + abs(a))) * samples_scale
        if m > _MAX_SAMPLES:
            raise OvalError("oval %d (winding %d) at samples scale %d needs %d samples, more than %d"
                            % (ident, a, samples_scale, m, _MAX_SAMPLES))
    out = []
    for ident, m in counts.items():
        o = forest.by_id(ident)
        a = o.winding
        sgn = 1
        if orientation == "induced" and forest.depth(ident) % 2 == 1:
            sgn = -1
        t = np.linspace(0.0, 2 * math.pi, m, endpoint=False)
        z = (o.cx + 1j * o.cy) + o.r * np.exp(1j * sgn * t)
        rho = np.sqrt(np.maximum(0.0, 1.0 - np.abs(z) ** 2))
        w = rho * np.exp(1j * (a * sgn * t + _GOLDEN * ident))
        out.append((ident, np.column_stack([z.real, z.imag, w.real, w.imag])))
    return out


def _chart(seed: int, attempt: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([977, seed, attempt])
    pole = rng.normal(size=4)
    pole /= np.linalg.norm(pole)
    mat = rng.normal(size=(4, 4))
    mat[:, 0] = pole
    q, _ = np.linalg.qr(mat)
    if np.dot(q[:, 0], pole) < 0:
        q = -q
    # pin the chart handedness so crossing signs cannot flip between seeds
    if np.linalg.det(q) < 0:
        q[:, 3] = -q[:, 3]
    return pole, q[:, 1:]


def _project(curves: list[tuple[int, np.ndarray]], pole: np.ndarray,
             frame: np.ndarray) -> list[tuple[int, np.ndarray]]:
    out = []
    for ident, pts in curves:
        u = pts @ pole
        if np.max(u) > 0.995:
            raise _RetryProjection("pole too close to the link")
        proj = (pts @ frame) / (1.0 - u)[:, None]
        out.append((ident, proj))
    return out


def _cell_segments(cell: np.ndarray, bi: np.ndarray, bj: np.ndarray,
                   u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment indices (i, j) of the flat cells ``cell`` of an exact-test
    job: cell [p, k] tests segment u[p] of chunk bi[k] against segment v[p]
    of chunk bj[k]."""
    p, k = np.divmod(cell, len(bi))
    return bi[k] * _CHUNK + u[p], bj[k] * _CHUNK + v[p]


def _scan(proj: list[tuple[int, np.ndarray]]) -> list[tuple]:
    """All transverse crossings of the closed polygons ``proj`` (oval id,
    rows x, y, depth) in the plane, each decided.  Returns tuples
    (x, y, u, v, x_over, sign) in (x, y, i, j) order: segment i of curve x
    meets segment j of curve y (x <= y, and i < j when x == y) at fractions
    s and t along them, at positions u = i + s and v = j + t along the
    curves.  The strand at the greater depth is over (x_over: that of x),
    and sign is the crossing sign.

    Raises _RetryProjection on the first problem in that order: for each
    pair of curves, its first borderline hit in (i, j) order, else its
    near-parallel close segments.  The curves are scanned in groups of
    consecutive curves, each settled before the next is scanned.  Only
    segment pairs whose chunks' padded boxes overlap are tested; see the
    module docstring for why no hit and no guard is lost."""
    sizes = [len(p) for _, p in proj]
    # parametrize gives every curve a multiple of 64 samples, so no chunk
    # straddles two curves
    assert all(n % _CHUNK == 0 for n in sizes)
    first = np.cumsum([0] + sizes)
    start = first // _CHUNK  # first chunk of each curve
    p0 = np.concatenate([p for _, p in proj])
    p1 = np.concatenate([q for _, p in proj for q in (p[1:], p[:1])])  # segment end points
    tangent = p1[:, :2] - p0[:, :2]
    # padded chunk boxes, one array per side and axis
    lox, loy = (np.minimum(p0[:, k], p1[:, k]).reshape(-1, _CHUNK).min(axis=1) - _PAD for k in (0, 1))
    hix, hiy = (np.maximum(p0[:, k], p1[:, k]).reshape(-1, _CHUNK).max(axis=1) + _PAD for k in (0, 1))
    # start x, y and tangent x, y of segment u of chunk c at [:, u, c]; the
    # chunk axis is last so the exact test runs along long contiguous rows
    chunks = np.stack([p0[:, 0], p0[:, 1], tangent[:, 0], tangent[:, 1]]).reshape(4, -1, _CHUNK)
    chunks = np.ascontiguousarray(chunks.transpose(0, 2, 1))
    owner = np.repeat(np.arange(len(proj)), np.diff(start))  # curve of each chunk
    nchunks = len(lox)
    # cells (u, v) of an exact-test job, broadcasting to its cell shape, then flat:
    # all 64 of a chunk pair, or the 21 with v >= u + 2 of a chunk against itself
    square = (np.arange(_CHUNK)[:, None], np.arange(_CHUNK)) + np.divmod(np.arange(_CHUNK ** 2), _CHUNK)
    triangle = 2 * np.nonzero(np.triu(np.ones((_CHUNK, _CHUNK), dtype=bool), 2))
    eps = 1e-6
    results = []
    x1 = 0
    while x1 < len(proj):
        # the next group of whole curves, chunk rows r0 to r1
        r0, x1 = start[x1], x1 + 1
        while x1 < len(proj) and (start[x1 + 1] - r0) * (nchunks - r0) <= _GROUP:
            x1 += 1
        r1 = start[x1]
        step = _NEAR_BLOCK // (r1 - r0)
        found = []  # (global i, global j, s, t) of each hit
        close_cells = []  # (global i, global j) of each near-parallel close cell
        for c0 in range(r0, nchunks, step):
            rows, cols = slice(r0, r1), slice(c0, c0 + step)
            near = ((lox[rows, None] <= hix[cols]) & (lox[cols] <= hix[rows, None])
                    & (loy[rows, None] <= hiy[cols]) & (loy[cols] <= hiy[rows, None]))
            # chunk pairs ci < cj: the group above the diagonal, later curves whole
            ci, cj = np.nonzero(np.triu(near, r0 - c0 + 1))
            jobs = [(ci[k:k + _BATCH] + r0, cj[k:k + _BATCH] + c0, square) for k in range(0, len(ci), _BATCH)]
            if c0 == r0:  # each chunk against itself, so every group has one job at least
                jobs.append((np.arange(r0, r1), np.arange(r0, r1), triangle))
            for bi, bj, (u, v, uf, vf) in jobs:
                # cells [u, v, k] or [p, k]; see _cell_segments
                ax, ay, adx, ady = np.take(chunks, bi, axis=2)[:, u]
                bx, by, bdx, bdy = np.take(chunks, bj, axis=2)[:, v]
                det = adx * bdy
                det -= ady * bdx
                diff0 = bx - ax
                diff1 = by - ay
                s = diff0 * bdy
                s -= diff1 * bdx
                with np.errstate(divide="ignore", invalid="ignore"):
                    s /= det
                ok = np.abs(det) > 1e-12
                cell = np.flatnonzero(ok & (s > -1e-7) & (s < 1 + 1e-7))
                i, j = _cell_segments(cell, bi, bj, uf, vf)
                t = (diff0.take(cell) * tangent[i, 1] - diff1.take(cell) * tangent[i, 0]) / det.take(cell)
                keep = (t > -1e-7) & (t < 1 + 1e-7)
                found.append((i[keep], j[keep], s.take(cell[keep]), t[keep]))
                # near-parallel overlapping segments that produced no solvable hit
                cell = np.flatnonzero(~ok)
                cell = cell[(np.abs(diff0.take(cell)) < 2e-2) & (np.abs(diff1.take(cell)) < 2e-2)]
                close_cells.append(_cell_segments(cell, bi, bj, uf, vf))
        gi, gj, hit_s, hit_t = (np.concatenate(col) for col in zip(*found))
        i, j = (np.concatenate(col) for col in zip((gi, gj), *close_cells))
        # curve pair x * len(proj) + y of each hit, then of each close cell;
        # -1 for neighbours on one curve (every cell has i < j)
        x, y = owner[i // _CHUNK], owner[j // _CHUNK]
        pair = np.where((x == y) & ((j - i == 1) | (j - i == np.diff(first)[x] - 1)), -1, x * len(proj) + y)
        pair, close = pair[:len(gi)], pair[len(gi):]
        # the first curve pair with near-parallel close segments
        parallel = close[close >= 0].min(initial=len(proj) ** 2)
        # in (x, y, i, j) order, up to that pair
        order = np.lexsort((gj, gi, pair))
        order = order[(pair[order] >= 0) & (pair[order] <= parallel)]
        gi, gj, hit_s, hit_t = (a[order] for a in (gi, gj, hit_s, hit_t))
        hit_x, hit_y = np.divmod(pair[order], len(proj))
        at_sample = (hit_s < eps) | (hit_s > 1 - eps) | (hit_t < eps) | (hit_t > 1 - eps)
        depth_x = p0[gi, 2] + hit_s * (p1[gi, 2] - p0[gi, 2])
        depth_y = p0[gj, 2] + hit_t * (p1[gj, 2] - p0[gj, 2])
        bad = np.flatnonzero(at_sample | (np.abs(depth_x - depth_y) < 1e-8))
        if len(bad):
            raise _RetryProjection("crossing too close to a sample point" if at_sample[bad[0]]
                                   else "matched depths at a crossing")
        if parallel < len(proj) ** 2:
            raise _RetryProjection("near-parallel segments")
        x_over = depth_x > depth_y
        # sign pinned so a +1 winding fiber pair links +1: -(over x under).
        # tangent[gi] x tangent[gj] is the hit's det (never 0), negated if y is over
        turn = tangent[gi, 0] * tangent[gj, 1] - tangent[gi, 1] * tangent[gj, 0]
        sign = np.where((turn > 0) == x_over, -1, 1)
        results += zip(hit_x.tolist(), hit_y.tolist(), ((gi - first[hit_x]) + hit_s).tolist(),
                       ((gj - first[hit_y]) + hit_t).tolist(), x_over.tolist(), sign.tolist())
    return results


def diagram_of_projection(proj: list[tuple[int, np.ndarray]]) -> tuple[Diagram, list[int]]:
    """Turn projected polygons into a crossing diagram.

    Returns the diagram plus the oval ids of its components in component
    order (curves without crossings become free loops, listed last).
    """
    # per curve, its passages (position, crossing, in-slot 0 under or 2 over)
    events = [[] for _ in proj]
    crossings = []
    for cid, (x, y, u, v, x_over, sign) in enumerate(_scan(proj)):
        events[x].append((u, cid, 2 if x_over else 0))
        events[y].append((v, cid, 0 if x_over else 2))
        crossings.append([0, 0, 0, 0, sign])
    components, comp_ids, free = [], [], []
    arc = 0
    for (ident, _), evs in zip(proj, events):
        if not evs:
            free.append(ident)
            continue
        n = len(evs)
        for k, (_, cid, slot) in enumerate(sorted(evs)):
            crossings[cid][slot] = arc + 1 + k
            crossings[cid][slot + 1] = arc + 1 + (k + 1) % n
        components.append(list(range(arc + 1, arc + n + 1)))
        comp_ids.append(ident)
        arc += n
    diag = Diagram([tuple(c) for c in crossings], components, free_loops=len(free))
    return diag, comp_ids + free


class Projection(tuple):
    """The pair (diagram, component ids) read off the first generic chart.

    It unpacks like that pair and also carries the projected polygons
    (``curves``: (oval id, rows x, y, depth) in id order), the number of
    charts tried (``attempts``) and the reason each rejected chart gave
    (``retries``)."""

    def __new__(cls, diagram: Diagram, ids: list[int], curves: list[tuple[int, np.ndarray]],
                retries: list[str]):
        self = super().__new__(cls, (diagram, ids))
        self.curves = curves
        self.retries = retries
        self.attempts = len(retries) + 1
        return self


def oval_link_pd(forest: OvalForest, orientation: str = "ccw", seed: int = 0,
                 samples_scale: int = 1) -> Projection:
    """Diagram of the realized forest, retrying charts until the
    projection is generic."""
    forest = auto_geometry(forest)
    curves = parametrize(forest, orientation, samples_scale)
    retries = []
    for attempt in range(_CHARTS):
        pole, frame = _chart(seed, attempt)
        try:
            proj = _project(curves, pole, frame)
            diag, ids = diagram_of_projection(proj)
        except _RetryProjection as exc:
            retries.append(str(exc))
            continue
        return Projection(diag, ids, proj, retries)
    raise OvalError("no generic projection found after %d charts: %s"
                    % (_CHARTS, retries[-1] if retries else None))


def linking_by_id(diag: Diagram, ids: list[int]) -> tuple[list[int], list[list[int]]]:
    """Linking matrix of a diagram whose components are the ovals ``ids``,
    rows in oval id order."""
    raw = linking_matrix(diag)
    order = sorted(range(len(ids)), key=lambda k: ids[k])
    return ([ids[k] for k in order],
            [[raw[a][b] for b in order] for a in order])


def oval_link_lk(forest: OvalForest, orientation: str = "ccw", seed: int = 0,
                 samples_scale: int = 1) -> tuple[list[int], list[list[int]]]:
    """Linking matrix of the realized forest, rows in oval id order."""
    return linking_by_id(*oval_link_pd(forest, orientation, seed, samples_scale))


_SVG_SIZE = 480  # width and height of render_svg's picture, in pixels
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#7f7f7f"]


def render_svg(projection: Projection) -> str:
    """Plain SVG of a projected diagram; under-strands get a small gap."""
    proj = projection.curves
    allpts = np.vstack([p[:, :2] for _, p in proj])
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = float(max(hi - lo)) or 1.0
    pad = 0.06 * span

    def sx(v):
        return (v[0] - lo[0] + pad) / (span + 2 * pad) * _SVG_SIZE

    def sy(v):
        return _SVG_SIZE - (v[1] - lo[1] + pad) / (span + 2 * pad) * _SVG_SIZE

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">' % (_SVG_SIZE, _SVG_SIZE),
             '<rect width="100%" height="100%" fill="white"/>']
    order = np.argsort([np.mean(p[:, 2]) for _, p in proj])
    for rank, k in enumerate(order):
        ident, p = proj[k]
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join("%.2f,%.2f" % (sx(v), sy(v)) for v in p)
        halo = '<polygon points="%s" fill="none" stroke="white" stroke-width="6"/>' % pts
        line = '<polygon points="%s" fill="none" stroke="%s" stroke-width="2"><title>%d</title></polygon>' % (pts, color, ident)
        parts.append(halo)
        parts.append(line)
    parts.append("</svg>")
    return "\n".join(parts)
