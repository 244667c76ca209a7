"""Numeric oracle: parametrized curves over nested disks, projected and read
back as diagrams."""

import random

import numpy as np
import pytest

from cbound import embed
from cbound.diagrams import linking_matrix
from cbound.embed import (
    _chart,
    _project,
    _RetryProjection,
    _scan,
    auto_geometry,
    check_geometry,
    oval_link_lk,
    oval_link_pd,
    parametrize,
    render_svg,
)
from cbound.homfly import homfly
from cbound.notation import parse_ovals, render_pd
from cbound.splice import (
    Oval,
    OvalError,
    OvalForest,
    linking_from_splice,
    random_realizable_forest,
    simplify_splice,
    splice_diagram,
)

HOPF_TEXT = "1 0 1 0 0 0.6\n2 1 1 0 0 0\n"


def test_hopf_fixture(fixtures_dir):
    f = parse_ovals((fixtures_dir / "hopf.ovals").read_text())
    ids, m = oval_link_lk(f)
    assert ids == [1, 2]
    assert m == [[0, 1], [1, 0]]


def test_pd_and_lk_paths_agree():
    f = parse_ovals(HOPF_TEXT)
    diag, ids = oval_link_pd(f)
    assert ids == [1, 2]
    assert linking_matrix(diag) == [[0, 1], [1, 0]]


def test_splice_and_embedding_agree_on_two_fibers_of_opposite_winding(fixtures_dir):
    f = parse_ovals((fixtures_dir / "fan.ovals").read_text())
    spliced = linking_from_splice(simplify_splice(splice_diagram(f)))
    assert spliced == ([1, 2, 3], [[0, -1, 1], [-1, 0, 0], [1, 0, 0]])
    for seed in range(3):
        assert oval_link_lk(f, seed=seed) == spliced


def test_auto_geometry_fills_circles():
    f = OvalForest([Oval(1, 0, 1), Oval(2, 1, 1), Oval(3, 2, 1)])
    g = auto_geometry(f)
    check_geometry(g)
    by_id = {o.ident: o for o in g.ovals}
    # children sit strictly inside their parents
    assert by_id[2].r < by_id[1].r
    assert by_id[3].r < by_id[2].r


def test_auto_geometry_places_chains_of_16_ovals_and_no_deeper():
    chain = [Oval(k, k - 1, 1) for k in range(1, 17)]
    check_geometry(auto_geometry(OvalForest(chain)))
    with pytest.raises(OvalError, match=r"^oval 17 at depth 16 is nested too deep .* give cx cy r"):
        auto_geometry(OvalForest(chain + [Oval(17, 16, 1)]))


def test_check_geometry_rejects_overlap():
    f = OvalForest([Oval(1, 0, 1, cx=0.0, cy=0.0, r=0.5),
                    Oval(2, 0, 1, cx=0.4, cy=0.0, r=0.5)])
    with pytest.raises(OvalError, match="overlap"):
        check_geometry(f)


def test_check_geometry_rejects_child_outside_parent():
    f = OvalForest([Oval(1, 0, 1, cx=0.0, cy=0.0, r=0.3),
                    Oval(2, 1, 1, cx=0.9, cy=0.0, r=0.05)])
    with pytest.raises(OvalError, match="leaves its parent"):
        check_geometry(f)


@pytest.mark.parametrize("scale", [0, -1])
def test_parametrize_rejects_scale_below_one(scale):
    with pytest.raises(OvalError, match="samples scale"):
        parametrize(parse_ovals(HOPF_TEXT), samples_scale=scale)


def test_parametrize_caps_samples_per_oval():
    f = parse_ovals(HOPF_TEXT)
    assert [len(points) for _, points in parametrize(f, samples_scale=128)] == [1 << 15] * 2
    with pytest.raises(OvalError, match=r"^oval 1 \(winding 1\) at samples scale 129 needs 33024 samples"):
        parametrize(f, samples_scale=129)


def test_parametrize_sample_counts_scale():
    f = parse_ovals(HOPF_TEXT)
    base = parametrize(f)
    fine = parametrize(f, samples_scale=2)
    assert len(base) == len(fine) == 2
    for (_, a), (_, b) in zip(base, fine):
        assert len(b) > len(a)


def test_projection_stable_across_seeds():
    f = parse_ovals(HOPF_TEXT)
    mats = {tuple(map(tuple, oval_link_lk(f, seed=s)[1])) for s in range(4)}
    assert len(mats) == 1


def test_orientation_flag_negates_odd_depth():
    # the induced orientation reverses curves at odd depth, which flips
    # the sign of their linking with everything else
    f = parse_ovals(HOPF_TEXT)
    _, ccw = oval_link_lk(f, orientation="ccw")
    _, ind = oval_link_lk(f, orientation="induced")
    assert ind == [[0, -ccw[0][1]], [-ccw[1][0], 0]]


def test_wermer_embedding_homfly_matches_diagram(fixtures_dir):
    from cbound.braids import BraidWord
    from cbound.homfly import homfly_braid

    f = parse_ovals((fixtures_dir / "wermer.ovals").read_text())
    diag, _ = oval_link_pd(f)
    # same 3-component value both ways through completely different code
    assert homfly(diag) == homfly_braid(BraidWord(3, (1, 2, 1, 1, 2, 1)))


def test_svg_render_smoke():
    svg = render_svg(oval_link_pd(parse_ovals(HOPF_TEXT)))
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "<polygon" in svg and "<title>1</title>" in svg


def test_bad_orientation_rejected():
    with pytest.raises(ValueError):
        oval_link_lk(parse_ovals(HOPF_TEXT), orientation="cw")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_forest_embeds_cleanly(seed):
    rng = random.Random(100 + seed)
    from cbound.splice import random_realizable_forest

    f = random_realizable_forest(rng, max_ovals=5)
    ids, m = oval_link_lk(f, seed=seed)
    assert ids == f.ids()
    assert all(m[i][j] == m[j][i] for i in range(len(m)) for j in range(len(m)))


def test_projection_keeps_every_retry_reason(monkeypatch):
    # criterion 7's forest 167 is rejected on five charts before the sixth
    rng = random.Random(7)
    forests = [random_realizable_forest(rng, max_ovals=6) for _ in range(168)]
    proj = oval_link_pd(forests[167], seed=167)
    assert proj.attempts == 6
    assert proj.retries == ["near-parallel segments"] * 5
    _, ids = proj
    assert sorted(ids) == forests[167].ids()
    assert [ident for ident, _ in proj.curves] == forests[167].ids()
    monkeypatch.setattr(embed, "_CHARTS", 5)
    with pytest.raises(OvalError, match="after 5 charts: near-parallel segments"):
        oval_link_pd(forests[167], seed=167)


# -- the crossing scan against the dense reference ----------------------------


def dense_segment_crossings(pa: np.ndarray, pb: np.ndarray, same: bool):
    """Reference crossing scan: the exact test on every one of the na x nb
    segment pairs, as the program did before the broadphase."""
    a0 = pa[:, :2]
    a1 = np.roll(pa[:, :2], -1, axis=0)
    b0 = pb[:, :2]
    b1 = np.roll(pb[:, :2], -1, axis=0)
    da = a1 - a0
    db = b1 - b0
    na, nb = len(a0), len(b0)
    det = da[:, None, 0] * db[None, :, 1] - da[:, None, 1] * db[None, :, 0]
    diff0 = b0[None, :, 0] - a0[:, None, 0]
    diff1 = b0[None, :, 1] - a0[:, None, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (diff0 * db[None, :, 1] - diff1 * db[None, :, 0]) / det
        t = (diff0 * da[:, None, 1] - diff1 * da[:, None, 0]) / det
    ok = np.abs(det) > 1e-12
    hit = ok & (s > -1e-7) & (s < 1 + 1e-7) & (t > -1e-7) & (t < 1 + 1e-7)
    if same:
        ii, jj = np.meshgrid(np.arange(na), np.arange(nb), indexing="ij")
        gap = (jj - ii) % na
        hit &= (gap != 0) & (gap != 1) & (gap != na - 1)
    pairs = np.argwhere(hit)
    eps = 1e-6
    results = []
    for i, j in pairs:
        if same and i > j:
            continue
        si, tj = s[i, j], t[i, j]
        if si < eps or si > 1 - eps or tj < eps or tj > 1 - eps:
            raise _RetryProjection("crossing too close to a sample point")
        depth_a = pa[i, 2] + si * (pa[(i + 1) % na, 2] - pa[i, 2])
        depth_b = pb[j, 2] + tj * (pb[(j + 1) % nb, 2] - pb[j, 2])
        if abs(depth_a - depth_b) < 1e-8:
            raise _RetryProjection("matched depths at a crossing")
        results.append((int(i), float(si), int(j), float(tj),
                        float(depth_a), float(depth_b), da[i], db[j]))
    close = ~ok & (np.abs(diff0) < 2e-2) & (np.abs(diff1) < 2e-2)
    if same:
        close &= (np.abs(np.arange(na)[:, None] - np.arange(nb)[None, :]) > 1) \
            & (np.abs(np.arange(na)[:, None] - np.arange(nb)[None, :]) < na - 1)
    if np.any(close):
        raise _RetryProjection("near-parallel segments")
    return results


def _decide(rows):
    """Reference crossing rule, one crossing at a time: rows (x, y, i, s, j,
    t, depth_x, depth_y, dx, dy) become (x, y, i + s, j + t, x_over, sign).
    The strand at the greater depth is over, and the sign is -1 where the
    over tangent x the under tangent is positive."""
    out = []
    for x, y, i, s, j, t, depth_x, depth_y, dx, dy in rows:
        over, under = (dx, dy) if depth_x > depth_y else (dy, dx)
        sign = -1 if (over[0] * under[1] - over[1] * under[0]) > 0 else 1
        out.append((x, y, i + s, j + t, depth_x > depth_y, sign))
    return out


def dense_scan(proj):
    """Reference per-chart scan: dense_segment_crossings on every curve pair
    (x, y), x <= y, in (x, y) order, each crossing prefixed with (x, y) and
    decided by _decide."""
    out = []
    for x in range(len(proj)):
        for y in range(x, len(proj)):
            out += [(x, y) + row for row in dense_segment_crossings(proj[x][1], proj[y][1], x == y)]
    return _decide(out)


def _outcome(scan, proj):
    """The decided crossings, or the retry."""
    try:
        return scan(proj)
    except _RetryProjection as exc:
        return "retry: %s" % exc


def _compare_scans(forest, orientation, scale, seed, charts) -> list:
    """Outcome of the scan on each chart; asserts both scans agree."""
    curves = parametrize(auto_geometry(forest), orientation, scale)
    outcomes = []
    for attempt in range(charts):
        try:
            proj = _project(curves, *_chart(seed, attempt))
        except _RetryProjection:
            continue
        got = _outcome(_scan, proj)
        assert got == _outcome(dense_scan, proj), (forest.ids(), orientation, scale, seed, attempt)
        outcomes.append(got)
    return outcomes


def _criterion7_forests(count):
    rng = random.Random(7)
    return [random_realizable_forest(rng, max_ovals=6) for _ in range(count)]


@pytest.mark.parametrize("scale,picks,charts", [
    # forests 163-195 include charts rejected for near-parallel segments
    (1, list(range(6)) + [163, 167, 195], 3),
    (2, [0, 1], 2),
    (4, [5], 1),
])
def test_broadphase_scan_matches_dense_reference(scale, picks, charts):
    forests = _criterion7_forests(max(picks) + 1)
    outcomes = []
    for k in picks:
        for orientation in ("ccw", "induced"):
            outcomes += _compare_scans(forests[k], orientation, scale, k, charts)
    assert any(isinstance(o, list) and o for o in outcomes)
    if scale == 1:
        assert "retry: near-parallel segments" in outcomes


def test_broadphase_scan_matches_dense_reference_on_fixtures(fixtures_dir):
    for name in ("hopf", "wermer", "wermer_conj"):
        f = parse_ovals((fixtures_dir / ("%s.ovals" % name)).read_text())
        for orientation in ("ccw", "induced"):
            _compare_scans(f, orientation, 2, 0, 3)


def test_scan_in_narrow_column_steps_matches_dense_reference(monkeypatch):
    # one curve per group and 100 chunk pairs per overlap block: a curve's
    # 32-56 chunk rows meet the chunks of its own and later curves 1-3
    # columns at a time
    monkeypatch.setattr(embed, "_GROUP", 0)
    monkeypatch.setattr(embed, "_NEAR_BLOCK", 100)
    forests = _criterion7_forests(168)
    outcomes = []
    for k in (0, 1, 2, 167):
        outcomes += _compare_scans(forests[k], "ccw", 1, k, 2)
    assert any(isinstance(o, list) and o for o in outcomes)
    assert "retry: near-parallel segments" in outcomes


def _first_problem_curve(proj):
    """Curve x of the first curve pair (x, y) whose dense test rejects the
    chart, or None."""
    for x in range(len(proj)):
        for y in range(x, len(proj)):
            try:
                dense_segment_crossings(proj[x][1], proj[y][1], x == y)
            except _RetryProjection:
                return x
    return None


def test_scan_in_one_curve_groups_matches_dense_reference(monkeypatch):
    # a group budget below every curve's overlap block: each group is one
    # curve, settled before the next curve is swept
    monkeypatch.setattr(embed, "_GROUP", 0)
    forests = _criterion7_forests(168)
    outcomes, later = [], []
    for k in (0, 1, 2, 167):
        curves = parametrize(auto_geometry(forests[k]), "ccw", 1)
        for attempt in range(2):
            try:
                proj = _project(curves, *_chart(k, attempt))
            except _RetryProjection:
                continue
            got = _outcome(_scan, proj)
            assert got == _outcome(dense_scan, proj), (k, attempt)
            outcomes.append(got)
            if got == "retry: near-parallel segments":
                later.append(_first_problem_curve(proj))
    assert any(isinstance(o, list) and o for o in outcomes)
    # rejected in a group after the first
    assert any(x > 0 for x in later), later


def _rectangle(x0, x1, y0, y1, per_side, depth):
    """Closed polygon around a rectangle, starting at (x0, y1) along the top
    edge, per_side segments to a side; constant depth."""
    k = np.arange(per_side) / per_side
    top = np.column_stack([x0 + (x1 - x0) * k, np.full(per_side, y1)])
    right = np.column_stack([np.full(per_side, x1), y1 + (y0 - y1) * k])
    bottom = np.column_stack([x1 + (x0 - x1) * k, np.full(per_side, y0)])
    left = np.column_stack([np.full(per_side, x0), y0 + (y1 - y0) * k])
    pts = np.vstack([top, right, bottom, left])
    return np.column_stack([pts, np.full(len(pts), depth)])


def test_near_parallel_guard_survives_broadphase(monkeypatch):
    # two parallel edges 0.019 apart: no hit, only the 2e-2 guard sees them
    proj = [(1, _rectangle(0.0, 1.0, -1.0, 0.0, 32, 0.0)),
            (2, _rectangle(0.0, 1.0, 0.019, 1.0, 32, 1.0))]
    for scan in (dense_scan, _scan):
        with pytest.raises(_RetryProjection, match="near-parallel segments"):
            scan(proj)
    # without the pad the chunk boxes of those edges would not meet
    monkeypatch.setattr(embed, "_PAD", 0.0)
    assert _scan(proj) == []


def test_crossing_at_a_sample_point_survives_broadphase():
    # the edges of the two rectangles meet at (0.25, 0), a vertex of both
    proj = [(1, _rectangle(0.0, 1.0, -1.0, 0.0, 32, 0.0)),
            (2, _rectangle(0.25, 0.75, -0.5, 0.5, 32, 1.0))]
    for scan in (dense_scan, _scan):
        with pytest.raises(_RetryProjection, match="too close to a sample point"):
            scan(proj)


# Three rectangles: MIDDLE's top edge runs 0.019 below TOP's bottom edge
# (near-parallel, no hit); BOTTOM's sides cross MIDDLE's bottom edge at
# vertices of both (crossings at a sample point).  TOP and BOTTOM are far
# apart.
TOP = _rectangle(0.0, 1.0, 0.019, 1.0, 32, 1.0)
MIDDLE = _rectangle(0.0, 1.0, -1.0, 0.0, 32, 0.0)
BOTTOM = _rectangle(0.25, 0.75, -1.5, -0.5, 32, 2.0)
NEAR_PARALLEL = "near-parallel segments"
AT_SAMPLE = "crossing too close to a sample point"


@pytest.mark.parametrize("curves,reason", [
    # pair (0, 1) near-parallel, pair (1, 2) at a sample point, and mirrored
    ((TOP, MIDDLE, BOTTOM), NEAR_PARALLEL),
    ((BOTTOM, MIDDLE, TOP), AT_SAMPLE),
    # both problems in the pairs of curve 0: (0, 1) comes before (0, 2)
    ((MIDDLE, TOP, BOTTOM), NEAR_PARALLEL),
    ((MIDDLE, BOTTOM, TOP), AT_SAMPLE),
])
def test_first_rejection_is_that_of_the_first_curve_pair(curves, reason):
    proj = list(enumerate(curves, start=1))
    assert _outcome(dense_scan, proj) == _outcome(_scan, proj) == "retry: " + reason


def test_a_rejected_chart_stops_at_its_first_problem_group(monkeypatch):
    # TOP and MIDDLE are near-parallel; 30 small squares far away follow.  A
    # group budget of exactly the first two curves' block (32 chunk rows
    # against 32 + 30 * 8 chunks) puts them alone in the first group.
    far = [_rectangle(5.0 + k, 5.1 + k, 5.0, 5.1, 16, 3.0) for k in range(30)]
    proj = list(enumerate([TOP, MIDDLE] + far, start=1))
    monkeypatch.setattr(embed, "_GROUP", 32 * (32 + 30 * 8))
    rows = []
    real = embed._cell_segments

    def spy(cell, bi, *rest):
        rows.append(bi)
        return real(cell, bi, *rest)

    monkeypatch.setattr(embed, "_cell_segments", spy)
    assert _outcome(_scan, proj) == "retry: " + NEAR_PARALLEL
    # every chunk pair that reached the exact test has its row in curve 0 or 1
    assert rows and max(r.max(initial=0) for r in rows) < 32


def test_a_near_parallel_pair_two_apart_inside_one_chunk_is_rejected():
    # segments 1, (0, 0) -> (0.01, 0), and 3, (0.01, 0.01) -> (0, 0.01), are
    # parallel with start points 0.01 apart: both in chunk 0, so only the
    # triangle of cells v >= u + 2 of chunk 0 against itself holds them
    pts = [(0, -1), (0, 0), (0.01, 0), (0.01, 0.01), (0, 0.01), (-0.5, 1), (-1, 0.5), (-1.2, 0),
           (-1, -0.7), (-0.6, -1.3), (-0.2, -1.6), (0.3, -1.7), (0.8, -1.4), (1, -0.9), (0.7, -0.5),
           (0.3, -0.9)]
    curve = np.column_stack([np.array(pts, dtype=float), np.arange(len(pts), dtype=float)])
    for scan in (dense_scan, _scan):
        assert _outcome(scan, [(1, curve)]) == "retry: " + NEAR_PARALLEL
    # tilting segment 3 leaves a curve with no crossing and no other close pair
    curve[4, 1] += 1e-3
    for scan in (dense_scan, _scan):
        assert _outcome(scan, [(1, curve)]) == []


def test_a_self_crossing_inside_one_chunk_is_found_once():
    # segment 1 runs (1, 0) -> (2, 0) and segment 4 runs (1.5, 1) -> (1.5, -1):
    # both in chunk 0, so only the i <= j filter keeps the cell (4, 1) out
    pts = [(0, 0), (1, 0), (2, 0), (2, 1), (1.5, 1), (1.5, -1), (1.5, -2), (1, -2),
           (0, -2), (-1, -2), (-1, -1.5), (-1, -1), (-1, -0.5), (-1, 0), (-0.5, 0.5), (-0.5, 0.2)]
    curve = np.column_stack([np.array(pts, dtype=float), np.arange(len(pts), dtype=float)])
    got = _outcome(_scan, [(1, curve)])
    assert got == _outcome(dense_scan, [(1, curve)])
    # at depths 1.5 and 4.5: segment 4, running down, passes over segment 1
    assert got == [(0, 0, 1.5, 4.5, False, -1)]


def _pd_outputs(fixtures_dir):
    conj = parse_ovals((fixtures_dir / "wermer_conj.ovals").read_text())
    runs = [(conj, "induced", seed, 1) for seed in range(5)]
    runs += [(conj, "induced", 0, scale) for scale in (2, 4)]
    runs += [(f, "ccw", i, 1) for i, f in enumerate(_criterion7_forests(20))]
    out = []
    for forest, orientation, seed, scale in runs:
        proj = oval_link_pd(forest, orientation, seed, scale)
        out.append((render_pd(proj[0]), proj[1], proj.retries))
    return out


def test_pd_output_identical_to_dense_reference(fixtures_dir, monkeypatch):
    got = _pd_outputs(fixtures_dir)
    monkeypatch.setattr(embed, "_scan", dense_scan)
    assert got == _pd_outputs(fixtures_dir)
