"""Geometric realization of oval forests on the unit 3-sphere.

Each oval (center c, radius r, winding a) becomes the closed curve

    t -> (c + r*exp(i t),  sqrt(1 - |z|^2) * exp(i (a t + phase)))

living on S^3 in C^2; a zero-radius oval is the vertical circle over its
center.  The curves are sampled as closed polygons, pushed through a
seeded stereographic projection, and scanned for segment crossings to
produce a bona fide diagram.  Degenerate projections (crossing too close
to a sample point, matched depths, near-parallel hits, pole on the link)
are rejected and retried with a fresh chart deterministically derived
from the seed.

The crossing scan has two stages.  Each polygon's segments are cut into
chunks of _CHUNK consecutive segments, and each chunk gets its bounding
box padded by _PAD on every side.  Only segment pairs from chunks whose
padded boxes overlap reach the exact test, which is unchanged: the same
formulas, tolerances and guards, visited in the same (i, j) order, so
the crossings and the first rejection are exactly those of a test over
every pair.  Nothing is lost at the broadphase.  A hit lies on both
segments (up to a 1e-7 fraction of their length), so both boxes hold it.
The near-parallel guard fires on segments whose start points are within
2e-2 of each other on each axis; each box holds its segment's start
point, and two boxes that close overlap once each is padded by more than
1e-2 (2 * _PAD = 0.03 in total).  For a curve against itself only chunk
pairs ci <= cj are kept: hits with i > j are skipped anyway and the
guard is symmetric in i and j.

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


class EmbedError(RuntimeError):
    pass


class _RetryProjection(Exception):
    pass


_GOLDEN = 2.399963229728653  # angular spread for the w-phases
# Samples per oval at most; the chunk-overlap matrix of a curve pair then
# holds at most (2^15 / _CHUNK)^2 = 4096^2 bools (16 MiB).
_MAX_SAMPLES = 1 << 15

# Broadphase of the crossing scan; see the module docstring.
_CHUNK = 8  # consecutive segments per box
_PAD = 0.015  # added on every side of a box
_BATCH = 2048  # chunk pairs per exact-test batch, at most 2048 * 64 cells
# Smallest radius auto_geometry places.  A chain given without geometry
# projects at depth 15 (radius 1.0e-7) and at depth 16 (3.5e-8) no chart is
# generic; a few levels further the radii fall through check_geometry's
# 1e-9 tolerance and then underflow to 0.
_MIN_AUTO_RADIUS = 1e-7
_CHARTS = 64  # charts oval_link_pd tries before it gives up
_CELL_I, _CELL_J = np.divmod(np.arange(_CHUNK * _CHUNK), _CHUNK)


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
    would need more than _MAX_SAMPLES raises EmbedError.
    """
    check_geometry(forest)
    if orientation not in ("ccw", "induced"):
        raise ValueError("orientation must be 'ccw' or 'induced'")
    if samples_scale < 1:
        raise EmbedError("samples scale must be an integer >= 1, got %s" % samples_scale)
    counts = {}
    for ident in forest.ids():
        a = forest.by_id(ident).winding
        counts[ident] = m = max(256, 64 * (1 + abs(a))) * samples_scale
        if m > _MAX_SAMPLES:
            raise EmbedError("oval %d (winding %d) at samples scale %d needs %d samples, more than %d"
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


def _chunk_boxes(p0: np.ndarray, p1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Padded bounding boxes (lo, hi) of the segments p0[k] -> p1[k], taken
    in runs of _CHUNK consecutive segments."""
    starts = np.arange(0, len(p0), _CHUNK)
    lo = np.minimum.reduceat(np.minimum(p0, p1), starts) - _PAD
    hi = np.maximum.reduceat(np.maximum(p0, p1), starts) + _PAD
    return lo, hi


def _segment_crossings(pa: np.ndarray, pb: np.ndarray, same: bool):
    """All transverse crossings between closed polygons pa, pb in the
    plane (first two columns); third column is depth.  Returns tuples
    (i, s, j, t, depth_a, depth_b, da, db) in (i, j) order, with da/db the
    plane tangents.  Raises _RetryProjection on any borderline hit: the
    first one in (i, j) order, else on near-parallel close segments.

    Only segment pairs whose chunks' padded boxes overlap are tested; see
    the module docstring for why no hit and no guard is lost."""
    a0 = pa[:, :2]
    a1 = np.roll(pa[:, :2], -1, axis=0)
    b0 = pb[:, :2]
    b1 = np.roll(pb[:, :2], -1, axis=0)
    da = a1 - a0
    db = b1 - b0
    na, nb = len(a0), len(b0)
    lo_a, hi_a = _chunk_boxes(a0, a1)
    lo_b, hi_b = _chunk_boxes(b0, b1)
    near = np.all((lo_a[:, None] <= hi_b[None, :]) & (lo_b[None, :] <= hi_a[:, None]), axis=2)
    if same:
        # hits with i > j are skipped and the close guard is symmetric
        near = np.triu(near)
    chunk_pairs = np.argwhere(near) * _CHUNK
    hits = []
    near_parallel = False
    for k in range(0, len(chunk_pairs), _BATCH):
        batch = chunk_pairs[k:k + _BATCH]
        i = (batch[:, :1] + _CELL_I).ravel()
        j = (batch[:, 1:] + _CELL_J).ravel()
        inside = (i < na) & (j < nb)
        i, j = i[inside], j[inside]
        dai, dbj = da[i], db[j]
        det = dai[:, 0] * dbj[:, 1] - dai[:, 1] * dbj[:, 0]
        diff0 = b0[j, 0] - a0[i, 0]
        diff1 = b0[j, 1] - a0[i, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (diff0 * dbj[:, 1] - diff1 * dbj[:, 0]) / det
            t = (diff0 * dai[:, 1] - diff1 * dai[:, 0]) / det
        ok = np.abs(det) > 1e-12
        hit = ok & (s > -1e-7) & (s < 1 + 1e-7) & (t > -1e-7) & (t < 1 + 1e-7)
        # near-parallel overlapping segments that produced no solvable hit
        close = ~ok & (np.abs(diff0) < 2e-2) & (np.abs(diff1) < 2e-2)
        if same:
            gap = (j - i) % na
            hit &= (gap != 0) & (gap != 1) & (gap != na - 1) & (i <= j)
            close &= (np.abs(i - j) > 1) & (np.abs(i - j) < na - 1)
        hits.append((i[hit], s[hit], j[hit], t[hit]))
        near_parallel = near_parallel or bool(np.any(close))
    eps = 1e-6
    results = []
    if hits:
        hit_i, hit_s, hit_j, hit_t = (np.concatenate(col) for col in zip(*hits))
        for n in np.lexsort((hit_j, hit_i)):
            i, si, j, tj = hit_i[n], hit_s[n], hit_j[n], hit_t[n]
            if si < eps or si > 1 - eps or tj < eps or tj > 1 - eps:
                raise _RetryProjection("crossing too close to a sample point")
            depth_a = pa[i, 2] + si * (pa[(i + 1) % na, 2] - pa[i, 2])
            depth_b = pb[j, 2] + tj * (pb[(j + 1) % nb, 2] - pb[j, 2])
            if abs(depth_a - depth_b) < 1e-8:
                raise _RetryProjection("matched depths at a crossing")
            results.append((int(i), float(si), int(j), float(tj),
                            float(depth_a), float(depth_b), da[i], db[j]))
    if near_parallel:
        raise _RetryProjection("near-parallel segments")
    return results


def diagram_of_projection(proj: list[tuple[int, np.ndarray]]) -> tuple[Diagram, list[int]]:
    """Turn projected polygons into a crossing diagram.

    Returns the diagram plus the oval ids of its components in component
    order (curves without crossings become free loops, listed last).
    """
    events: dict[int, list] = {ident: [] for ident, _ in proj}
    crossings_raw = []
    for x in range(len(proj)):
        for y in range(x, len(proj)):
            ia, pa = proj[x]
            ib, pb = proj[y]
            for (i, s, j, t, dpa, dpb, da, db) in _segment_crossings(pa, pb, x == y):
                cid = len(crossings_raw)
                if dpa > dpb:
                    over, under = (ia, i + s, da), (ib, j + t, db)
                else:
                    over, under = (ib, j + t, db), (ia, i + s, da)
                # sign convention pinned so a +1 winding fiber pair links +1
                sign = -1 if (over[2][0] * under[2][1] - over[2][1] * under[2][0]) > 0 else 1
                crossings_raw.append({"sign": sign})
                events[over[0]].append((over[1], cid, "over"))
                events[under[0]].append((under[1], cid, "under"))
    arc = 0
    components = []
    comp_ids = []
    slots = [dict() for _ in crossings_raw]
    for ident, _ in proj:
        evs = sorted(events[ident])
        if not evs:
            continue
        comp_arcs = []
        n = len(evs)
        first_arc = arc + 1
        for k, (_, cid, role) in enumerate(evs):
            incoming = arc + 1 + k
            outgoing = first_arc + (k + 1) % n
            comp_arcs.append(incoming)
            if role == "over":
                slots[cid]["oi"] = incoming
                slots[cid]["oo"] = outgoing
            else:
                slots[cid]["ui"] = incoming
                slots[cid]["uo"] = outgoing
        arc += n
        components.append(comp_arcs)
        comp_ids.append(ident)
    free = [ident for ident, _ in proj if not events[ident]]
    crossings = [(s["ui"], s["uo"], s["oi"], s["oo"], crossings_raw[k]["sign"])
                 for k, s in enumerate(slots)]
    diag = Diagram(crossings, components, free_loops=len(free))
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
    raise EmbedError("no generic projection found after %d charts: %s"
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
