import inspect

import numpy as np
import pytest

from frenet_ife import mesh as mesh_module
from frenet_ife.curves import LineCurve, circle, ellipse, flower
from frenet_ife.errors import AmbiguousCut, FrenetIfeError, TangentialIntersection
from frenet_ife.frenet import FrenetChart
from frenet_ife.mesh import (_EDGE_SAMPLES, RectMesh, _bisect, _polish_roots, build_mesh,
                             classify_elements)

from oracles import (as_level_record, bisect_root, chart_map, loop_classify, loop_polish_root,
                     loop_rect_mesh, sign_sample_interface)


def test_counts_2x2():
    m = build_mesh((-1, 1, -1, 1), 2)
    assert m.n_elements == 4
    assert m.n_edges == 12
    assert int(np.sum(~m.edge_is_boundary)) == 4
    assert int(np.sum(m.edge_is_boundary)) == 8


def test_counts_4x4():
    m = build_mesh((0, 1, 0, 1), 4)
    assert m.n_elements == 16
    assert m.n_edges == 2 * 4 * 5


def test_area_partition():
    m = build_mesh((-1, 1, -1, 1), 5)
    total = 0.0
    for e in range(m.n_elements):
        xl, yl, xh, yh = m.elem_box(e)
        total += (xh - xl) * (yh - yl)
    x0, x1, y0, y1 = m.box
    assert total == pytest.approx((x1 - x0) * (y1 - y0), abs=1e-12)


def test_edge_topology_consistency():
    m = RectMesh((0, 2, 0, 1), 4, 3)
    for k in range(m.n_edges):
        e1, e2 = m.edge_elems[k]
        assert e1 >= 0
        if m.edge_is_boundary[k]:
            assert e2 == -1
        else:
            assert e2 >= 0
    # each element's edges cover its boundary exactly
    for e in range(m.n_elements):
        lengths = m.edge_length[m.elem_edges[e]]
        assert np.sum(lengths) == pytest.approx(2 * (m.dx + m.dy), abs=1e-12)
        for k in m.elem_edges[e]:
            assert e in set(m.edge_elems[k])


MESH_ARRAYS = ("edge_a", "edge_b", "edge_normal", "edge_elems", "edge_is_boundary",
               "edge_length", "elem_edges")


@pytest.mark.parametrize("box, nx, ny", [
    ((-1, 1, -1, 1), 1, 1), ((0, 2, 0, 1), 4, 3), ((-1, 1, -1, 1), 7, 1),
    ((-1, 1, -1, 1), 1, 5), ((-1, 1, -1, 1), 64, 64), ((0.25, 0.75, 0, 0.5), 1, 1)])
def test_mesh_arrays_bytewise_equal_to_loop_oracle(box, nx, ny):
    # bytes, so a signed zero in a normal counts as a difference
    mesh, ref = RectMesh(box, nx, ny), loop_rect_mesh(box, nx, ny)
    assert mesh.n_edges == ref.n_edges
    for name in MESH_ARRAYS:
        got, want = getattr(mesh, name), getattr(ref, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name


def _inside_circle(r):
    return lambda x, y: np.hypot(x, y) < r


@pytest.mark.parametrize("n", [4, 8])
def test_classification_matches_sign_sampling_circle(n):
    chart = FrenetChart(circle(0.6), h=0.25)
    mesh = build_mesh((-1, 1, -1, 1), n)
    tags = classify_elements(mesh, chart)
    for e in range(mesh.n_elements):
        expected = sign_sample_interface(_inside_circle(0.6), mesh.elem_box(e))
        assert (tags.tags[e] == 0) == expected, f"element {e}"


def test_classification_matches_sign_sampling_other_curves():
    cases = [
        (ellipse(0.65, 0.5), lambda x, y: (x / 0.65) ** 2 + (y / 0.5) ** 2 < 1, 10),
        (flower(0.5, 0.02, 5),
         lambda x, y: np.hypot(x, y) < 0.5 + 0.02 * np.cos(5 * np.arctan2(y, x)), 12),
    ]
    for curve, inside, n in cases:
        chart = FrenetChart(curve, h=0.18)
        mesh = build_mesh((-1, 1, -1, 1), n)
        tags = classify_elements(mesh, chart)
        for e in range(mesh.n_elements):
            expected = sign_sample_interface(inside, mesh.elem_box(e))
            assert (tags.tags[e] == 0) == expected


def test_line_on_gridlines_gives_no_interface_elements():
    chart = FrenetChart(LineCurve([0.0, 0.0], [1.0, 0.0], -5, 5), h=1.5)
    mesh = build_mesh((-1, 1, -1, 1), 2)
    tags = classify_elements(mesh, chart)
    assert tags.n_interface == 0
    sides = tags.tags.tolist()
    # normal (0,-1): below the line is the plus side
    assert sides == [1, 1, -1, -1]


def test_intersection_point_against_bisection_oracle():
    # spec case: circle r=0.6, edge x=0.5, y in [0, 0.5]
    y_star = bisect_root(lambda y: 0.25 + y * y - 0.36, 0.0, 0.5)
    assert y_star == pytest.approx(np.sqrt(0.11), abs=1e-12)

    chart = FrenetChart(circle(0.6), h=0.3)
    mesh = build_mesh((-1, 1, -1, 1), 4)
    tags = classify_elements(mesh, chart)
    pts = tags.interface.point.reshape(-1, 2)
    d = np.linalg.norm(pts - np.array([0.5, y_star]), axis=1)
    assert d.min() <= 1e-10
    # every recorded crossing sits on the curve, at its edge parameter
    cuts, (cut_edge, cut_t) = tags.interface, tags.crossings
    for k, t, xi, p in zip(cuts.edge.ravel(), cuts.t.ravel(), cuts.xi.ravel(), pts):
        assert np.linalg.norm(p - chart.curve.point(np.asarray(xi))) <= 1e-12
        assert t in cut_t[cut_edge == k]
    assert sorted({int(k) for k in cuts.edge.ravel()}) == np.unique(cut_edge).tolist()


def test_interface_tags_have_two_cuts_and_interval():
    chart = FrenetChart(circle(0.6), h=0.25)
    mesh = build_mesh((-1, 1, -1, 1), 8)
    tags = classify_elements(mesh, chart)
    assert tags.n_interface > 0
    cuts = tags.interface
    assert cuts.edge.shape == cuts.t.shape == cuts.xi.shape == (tags.n_interface, 2)
    for (xi0, xi1), cut_xi in zip(cuts.interval, cuts.xi):
        assert xi0 < xi1
        for xi in cut_xi:
            assert xi0 <= xi <= xi1


@pytest.mark.parametrize("n", [8, 16, 32])
def test_interval_band_and_finite_overlap(n):
    mesh = build_mesh((-1, 1, -1, 1), n)
    chart = FrenetChart(circle(0.6), h=mesh.h)
    tags = classify_elements(mesh, chart)
    x0, _, y0, _ = mesh.box
    for xi0, xi1 in tags.interface.interval:
        assert 0.2 <= (xi1 - xi0) / mesh.h <= 5.0
        # fictitious element touches at most 7x7 elements
        eta_s = np.linspace(-mesh.h, mesh.h, 12)
        xi_s = np.linspace(xi0, xi1, 12)
        E, X = np.meshgrid(eta_s, xi_s)
        pts = chart_map(chart, E.ravel(), X.ravel())
        ix = np.clip(((pts[:, 0] - x0) / mesh.dx).astype(int), 0, mesh.nx - 1)
        iy = np.clip(((pts[:, 1] - y0) / mesh.dy).astype(int), 0, mesh.ny - 1)
        assert len(set(zip(ix, iy))) <= 49


def test_tangential_crossing_detected_directly():
    # interface crossing an edge at slope 1e-12: below the tangency threshold
    chart = FrenetChart(LineCurve([0.0, 0.0], [1.0, 1e-12], -5, 5), h=1.0)
    a, b = np.array([0.3, 3.5e-13]), np.array([0.7, 3.5e-13])
    (f_lo,) = chart.signed_distance_estimate(a[None])
    (f_hi,) = chart.signed_distance_estimate(b[None])
    assert f_lo * f_hi < 0
    (t,) = _bisect(chart, a[None], b[None], np.array([0.0]), np.array([1.0]), np.array([f_lo]))
    with pytest.raises(TangentialIntersection, match="^edge "):
        _polish_roots(chart, a[None], b[None], np.array([t]), [7])


def test_polish_raises_for_the_first_failing_root_tangency_first():
    chart = FrenetChart(circle(0.6), h=0.25)
    edges = {
        3: ((0.5, 0.0), (0.7, 0.0)),     # crosses at (0.6, 0)
        4: ((0.7, 0.0), (0.7, 0.1)),     # misses the circle: Newton does not converge
        9: ((0.9, -0.1), (0.9, 0.1)),    # misses it parallel to the tangent: both checks fail
    }
    with pytest.raises(AmbiguousCut):
        loop_polish_root(chart, *map(np.array, edges[4]), 0.5)
    with pytest.raises(TangentialIntersection):
        loop_polish_root(chart, *map(np.array, edges[9]), 0.5)

    def polish(ids):
        a, b = (np.array([edges[k][j] for k in ids]) for j in (0, 1))
        return _polish_roots(chart, a, b, np.full(len(ids), 0.5), ids)

    assert polish([3])[2].tolist() == [[0.6, 0.0]]
    with pytest.raises(AmbiguousCut, match="^edge 4: edge crossing failed to converge$"):
        polish([3, 4, 9])
    with pytest.raises(TangentialIntersection, match="^edge 9: interface tangent"):
        polish([3, 9, 4])
    with pytest.raises(TangentialIntersection, match="^edge 9: "):
        polish([9])


def test_polish_refuses_a_crossing_off_its_edge():
    # from t = 0.5 the Newton steps reach circle(0.6) at (0.6, 0), which lies
    # on the line of each edge but not on the edge
    chart = FrenetChart(circle(0.6), h=0.25)
    for k, a, b, t in ((5, (0.7, 0.0), (0.8, 0.0), "-1"), (6, (0.0, 0.0), (0.1, 0.0), "6")):
        with pytest.raises(AmbiguousCut, match=rf"^edge {k}: crossing at t = {t} is off the edge$"):
            _polish_roots(chart, np.array([a]), np.array([b]), np.array([0.5]), [k])


def test_ambiguous_cut_raised_for_quadruple_crossing():
    # thin slab through the circle equator: four crossings on one element
    chart = FrenetChart(circle(0.6), h=0.25)
    mesh = build_mesh((-0.65, 0.65, -0.05, 0.05), 1)
    with pytest.raises(AmbiguousCut, match=r"element 0: 4 interface crossings, expected 2; "
                       r"the mesh is too coarse for the interface here, refine the mesh"):
        classify_elements(mesh, chart)


def test_summary_counts():
    chart = FrenetChart(circle(0.6), h=0.3)
    mesh = build_mesh((-1, 1, -1, 1), 8)
    tags = classify_elements(mesh, chart)
    s = tags.summary()
    assert s["elements"] == 64
    assert s["interface_elements"] == tags.n_interface
    assert s["plain_elements"] == 64 - tags.n_interface


def _bits(x):
    return None if x is None else np.asarray(x, dtype=float).tobytes()


def _assert_same_classification(got, ref):
    # the loop oracle's per-element records, read into the record arrays,
    # field by field and bit for bit
    assert got.tags.dtype == ref.tags.dtype
    assert got.tags.tobytes() == ref.tags.tobytes()
    record, edge_cuts = as_level_record(ref)
    for field, g, r in zip(record._fields, got.interface, record):
        assert (g.dtype, g.shape) == (r.dtype, r.shape), field
        assert g.tobytes() == r.tobytes(), field
    # the oracle's crossings, flattened over its edges that hold one, in
    # ascending edge order
    keys = sorted(k for k, ts in edge_cuts.items() if ts)
    cut_edge, cut_t = got.crossings
    assert cut_edge.dtype == int and cut_t.dtype == float
    assert cut_edge.tolist() == [int(k) for k in keys for _ in edge_cuts[k]]
    assert [_bits(t) for t in cut_t] == [_bits(t) for k in keys for t in edge_cuts[k]]


ORACLE_CURVES = {
    "circle": circle(0.6),
    "off-centre circle": circle(0.55, (0.13, -0.07)),
    "ellipse": ellipse(0.7, 0.5),
    "flower": flower(0.5, 0.1, 5),
    "line": LineCurve([0.1, -0.05], [1.0, 0.37], -4.0, 4.0),
}


@pytest.mark.parametrize("n", [8, 16, 32, 64])
@pytest.mark.parametrize("name", sorted(ORACLE_CURVES))
def test_classification_bitwise_equal_to_loop_oracle(name, n):
    curve = ORACLE_CURVES[name]
    mesh = build_mesh((-1, 1, -1, 1), n)
    chart = FrenetChart(curve, h=min(mesh.h, 0.5 / max(curve.max_curvature, 1e-30)))
    ref = loop_classify(mesh, chart)
    assert ref.n_interface > 0
    _assert_same_classification(classify_elements(mesh, chart), ref)


def _random_placements(seed):
    """(mesh, chart) of nine seeded circles and ellipses near the origin, at
    n = 8, 16 and 32."""
    rng = np.random.default_rng(seed)
    for n in (8, 16, 32):
        for _ in range(3):
            center = rng.uniform(-0.15, 0.15, 2)
            if rng.uniform() < 0.5:
                curve = circle(rng.uniform(0.4, 0.7), center)
            else:
                curve = ellipse(rng.uniform(0.5, 0.75), rng.uniform(0.35, 0.55), center)
            mesh = build_mesh((-1, 1, -1, 1), n)
            yield mesh, FrenetChart(curve, h=min(mesh.h, 0.9 / curve.max_curvature))


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_classification_random_placements_bitwise_equal_to_loop_oracle(seed):
    # an under-resolved placement must raise the oracle's error instead
    classified = 0
    for mesh, chart in _random_placements(seed):
        try:
            ref = loop_classify(mesh, chart)
        except FrenetIfeError as exc:
            with pytest.raises(type(exc)):
                classify_elements(mesh, chart)
            continue
        _assert_same_classification(classify_elements(mesh, chart), ref)
        classified += 1
    assert classified >= 6


def _vertex_placements():
    """(mesh, chart) of curves through grid vertices: circles of radius 0.5
    and 0.75, ellipse(0.7, 0.5) and flower(0.5, 0.1, 5) at n = 8..64, and the
    line of the cut-cell rule tests' placements."""
    for curve in (circle(0.5), circle(0.75), ellipse(0.7, 0.5), flower(0.5, 0.1, 5)):
        for n in (8, 16, 32, 64):
            mesh = build_mesh((-1, 1, -1, 1), n)
            yield mesh, FrenetChart(curve, h=min(mesh.h, 0.5 / curve.max_curvature))
    yield build_mesh((0, 1, 0, 1), 7), FrenetChart(LineCurve([0.0, 0.1], [1.0, 0.3], -5, 5), h=2.0)


def test_cuts_at_mesh_vertices_stay_on_them():
    # every interface element has two cuts, and a cut within 1e-9 h of a grid
    # vertex lies on it to rounding; these cuts are the chart's feet of
    # zero-band samples, bit for bit the loop oracle's
    at_vertices = 0
    for mesh, chart in _vertex_placements():
        got = classify_elements(mesh, chart)
        _assert_same_classification(got, loop_classify(mesh, chart))
        cuts = got.interface
        assert cuts.edge.shape == (len(cuts.elements), 2) and len(cuts.elements) > 0
        corner = np.array(mesh.box[::2])
        step = np.array([mesh.dx, mesh.dy])
        pts = cuts.point.reshape(-1, 2)
        gap = np.linalg.norm(pts - corner - np.round((pts - corner) / step) * step, axis=1)
        near = gap < 1e-9 * mesh.h
        assert np.all(gap[near] <= 1e-14 * mesh.h)
        at_vertices += int(near.sum())
    assert at_vertices >= 90


def test_corner_feet_come_from_one_chart_call_per_level(monkeypatch):
    # the zero-band samples of all elements that see fewer than two crossings
    # go to one chart inverse, and no inverse runs when there are none
    sizes = []

    def counted(self, pts, _orig=FrenetChart._newton):
        if inspect.currentframe().f_back.f_globals["__name__"] == mesh_module.__name__:
            sizes.append(len(pts))
        return _orig(self, pts)

    monkeypatch.setattr(FrenetChart, "_newton", counted)
    for radius, calls in ((0.5, 1), (0.6, 0)):
        sizes.clear()
        mesh = build_mesh((-1, 1, -1, 1), 16)
        classify_elements(mesh, FrenetChart(circle(radius), h=mesh.h))
        assert len(sizes) == calls and all(sizes)


def _polish_call(monkeypatch, mesh, chart):
    """The (a, b, t, edges) of the one _polish_roots call of classify_elements."""
    calls = []

    def record(*args, _orig=mesh_module._polish_roots):
        calls.append(args[1:])
        return _orig(*args)

    monkeypatch.setattr(mesh_module, "_polish_roots", record)
    classify_elements(mesh, chart)
    monkeypatch.undo()
    (call,) = calls
    return call


@pytest.mark.parametrize("n", [8, 16, 32, 64])
@pytest.mark.parametrize("name", sorted(ORACLE_CURVES))
def test_polish_roots_bitwise_equal_to_loop_oracle(name, n, monkeypatch):
    # every bracket classify_elements polishes, from its bisected t and from
    # starts moved off it, so that more Newton steps run
    curve = ORACLE_CURVES[name]
    mesh = build_mesh((-1, 1, -1, 1), n)
    chart = FrenetChart(curve, h=min(mesh.h, 0.5 / max(curve.max_curvature, 1e-30)))
    a, b, t, edges = _polish_call(monkeypatch, mesh, chart)
    assert len(t) > 0
    compared = 0
    for shift in (0.0, 1e-6, -1e-3, 3e-2, -0.4):
        start = t + shift
        ref = []
        for ak, bk, tk in zip(a, b, start):
            try:
                ref.append(loop_polish_root(chart, ak, bk, tk))
            except FrenetIfeError as exc:
                ref.append(exc)
        failed = [i for i, r in enumerate(ref) if isinstance(r, FrenetIfeError)]
        if failed:
            with pytest.raises(type(ref[failed[0]]), match=f"^edge {edges[failed[0]]}: "):
                _polish_roots(chart, a, b, start, edges)
            continue
        got = _polish_roots(chart, a, b, start, edges)
        for j, want in enumerate(zip(*ref)):
            assert np.asarray(got[j]).tobytes() == np.array(want).tobytes(), (shift, j)
        compared += 1
    assert compared >= 3


def test_classification_chart_calls_do_not_grow_with_the_mesh(monkeypatch):
    # classification makes one chart query per phase, whatever the number of
    # crossings; the calls of the chart's own inverse are not counted
    counts = []
    for n in (16, 32):
        calls = []
        for name in ("nearest_parameter_estimate", "signed_distance_estimate"):
            def counted(self, *args, _name=name, _orig=getattr(FrenetChart, name)):
                if inspect.currentframe().f_back.f_globals["__name__"] == mesh_module.__name__:
                    calls.append(_name)
                return _orig(self, *args)
            monkeypatch.setattr(FrenetChart, name, counted)
        mesh = build_mesh((-1, 1, -1, 1), n)
        classify_elements(mesh, FrenetChart(circle(0.6), h=mesh.h))
        monkeypatch.undo()
        counts.append(sorted(calls))
    assert counts[0] == counts[1]
    assert counts[0].count("nearest_parameter_estimate") == 1


def _classify_recording(monkeypatch, mesh, chart):
    """Classify; return the edge ids classify_elements asks `_one_sided`
    about, its answer, and the number of points of the edge samples: the
    first `signed_distance_estimate` call of the chart after that question.
    An error of the classification after the test ran is ignored."""
    seen, sizes = [], []

    def one_sided(*args, _orig=mesh_module._one_sided):
        seen.append((args[3], _orig(*args)))
        return seen[-1][1]

    def counted(self, points, _orig=FrenetChart.signed_distance_estimate):
        if seen:
            sizes.append(len(points))
        return _orig(self, points)

    monkeypatch.setattr(mesh_module, "_one_sided", one_sided)
    monkeypatch.setattr(FrenetChart, "signed_distance_estimate", counted)
    try:
        classify_elements(mesh, chart)
    except FrenetIfeError:
        pass
    monkeypatch.undo()
    ((ids, skip),) = seen
    return ids, skip, sizes[0]


def _assert_skipped_edges_keep_their_sign(monkeypatch, mesh, chart):
    """Every sample of every edge the classifier skips lies beyond zero_tol
    with the sign of the edge's ends.  Returns (skipped, candidate edges)."""
    ids, skip, _ = _classify_recording(monkeypatch, mesh, chart)
    zero_tol = 1e-10 * mesh.h
    a, b = mesh.edge_a[ids[skip]], mesh.edge_b[ids[skip]]
    ts = np.linspace(0.0, 1.0, _EDGE_SAMPLES)
    ends = chart.signed_distance_estimate(np.vstack([a, b])).reshape(2, -1)
    samples = chart.signed_distance_estimate(
        (a[:, None, :] + ts[:, None] * (b - a)[:, None, :]).reshape(-1, 2)
    ).reshape(-1, _EDGE_SAMPLES)
    assert np.all(np.sign(ends[0]) == np.sign(ends[1]))
    assert np.all(samples * np.sign(ends[0])[:, None] > zero_tol)
    return int(skip.sum()), len(ids)


CLOSED_CURVES = {name: curve for name, curve in ORACLE_CURVES.items() if curve.periodic}
CLOSED_CURVES["shallow flower"] = flower(0.5, 0.02, 5)


@pytest.mark.parametrize("name", sorted(CLOSED_CURVES))
def test_skipped_edges_keep_their_sign_on_closed_curves(name, monkeypatch):
    curve = CLOSED_CURVES[name]
    skipped = candidates = 0
    for n in (8, 16, 32, 64, 128):
        mesh = build_mesh((-1, 1, -1, 1), n)
        chart = FrenetChart(curve, h=min(mesh.h, 0.5 / curve.max_curvature))
        s, c = _assert_skipped_edges_keep_their_sign(monkeypatch, mesh, chart)
        skipped, candidates = skipped + s, candidates + c
    assert skipped > 0.5 * candidates


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_skipped_edges_keep_their_sign_on_random_placements(seed, monkeypatch):
    for mesh, chart in _random_placements(seed):
        _assert_skipped_edges_keep_their_sign(monkeypatch, mesh, chart)


def test_no_edge_is_skipped_for_an_open_curve(monkeypatch):
    # the line ends at (0.5, 0.098), inside the box; an open curve has no
    # sides, so every candidate edge is sampled
    curve = LineCurve([0.1, -0.05], [1.0, 0.37], -4.0, 0.4)
    for n in (8, 32):
        mesh = build_mesh((-1, 1, -1, 1), n)
        ids, skip, sampled = _classify_recording(monkeypatch, mesh, FrenetChart(curve, h=mesh.h))
        assert len(ids) > 0 and not np.any(skip)
        assert sampled == _EDGE_SAMPLES * len(ids)


def test_classifier_samples_at_most_two_fifths_of_the_candidate_edges(monkeypatch):
    mesh = build_mesh((-1, 1, -1, 1), 64)
    ids, skip, sampled = _classify_recording(monkeypatch, mesh, FrenetChart(circle(0.6), h=mesh.h))
    assert sampled == _EDGE_SAMPLES * int(np.sum(~skip))
    assert sampled <= 0.4 * _EDGE_SAMPLES * len(ids)


def _grid_points(mesh):
    x0, _, y0, _ = mesh.box
    gx = x0 + mesh.dx * np.arange(mesh.nx + 1)
    gy = y0 + mesh.dy * np.arange(mesh.ny + 1)
    return np.stack(np.meshgrid(gx, gy, indexing="ij"), axis=-1).reshape(-1, 2)


def _classify_corner_offsets(monkeypatch, mesh, chart):
    """Classify; return the reach classify_elements passes to
    `_corner_offsets` and the corner offsets it gets back.  An error of the
    classification after the offsets is ignored."""
    seen = []

    def corner_offsets(*args, _orig=mesh_module._corner_offsets):
        seen.append((args[2], _orig(*args)))
        return seen[-1][1]

    monkeypatch.setattr(mesh_module, "_corner_offsets", corner_offsets)
    try:
        classify_elements(mesh, chart)
    except FrenetIfeError:
        pass
    monkeypatch.undo()
    ((reach, eta),) = seen
    return reach, eta.ravel()


def _assert_banded_offsets_match_the_full_query(monkeypatch, mesh, chart):
    """Within the band every corner offset has signed_distance_estimate's
    bits, beyond it its sign.  Returns the corner counts (in band, beyond)."""
    reach, eta = _classify_corner_offsets(monkeypatch, mesh, chart)
    points = _grid_points(mesh)
    full = chart.signed_distance_estimate(points)
    dist, _ = chart.curve.seed_polyline.tree.query(points)
    near, far = dist < reach, dist > reach
    assert near.sum() + far.sum() == len(points)
    assert eta[near].tobytes() == full[near].tobytes()
    assert np.all(np.abs(eta[far]) == reach)
    assert np.all(np.sign(eta[far]) == np.sign(full[far]))
    return int(near.sum()), int(far.sum())


BAND_CURVES = {"circle": circle(0.6), "off-centre circle": circle(0.55, (0.1, -0.07)),
               "ellipse": ellipse(0.7, 0.5), "flower": flower(0.5, 0.1, 5),
               "enclosing circle": circle(3.0)}


@pytest.mark.parametrize("name", sorted(BAND_CURVES))
def test_banded_corner_offsets_match_the_full_query(name, monkeypatch):
    curve = BAND_CURVES[name]
    for n in (8, 16, 32, 64, 128):
        mesh = build_mesh((-1, 1, -1, 1), n)
        chart = FrenetChart(curve, h=min(mesh.h, 0.5 / curve.max_curvature))
        near, far = _assert_banded_offsets_match_the_full_query(monkeypatch, mesh, chart)
        if name == "enclosing circle":
            assert near == 0
        elif n == 128:
            assert far > near > 0


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_banded_corner_offsets_match_the_full_query_on_random_placements(seed, monkeypatch):
    for mesh, chart in _random_placements(seed):
        _assert_banded_offsets_match_the_full_query(monkeypatch, mesh, chart)


class _RecordingTree:
    """A seed tree that records the points and keywords of every query."""

    def __init__(self, tree):
        self.tree, self.queries = tree, []

    def query(self, points, **kwargs):
        self.queries.append((np.array(points), kwargs))
        return self.tree.query(points, **kwargs)


def _tree_queries(monkeypatch, mesh, curve):
    """The seed tree queries of classifying mesh against curve."""
    seeds = curve.seed_polyline
    tree = _RecordingTree(seeds.tree)
    monkeypatch.setattr(curve, "_seed_polyline", seeds._replace(tree=tree))
    try:
        classify_elements(mesh, FrenetChart(curve, h=mesh.h))
    except FrenetIfeError:
        pass
    monkeypatch.undo()
    return tree.queries


def _grid_corners_queried(mesh, queries):
    corners = {p.tobytes() for p in _grid_points(mesh)}
    return len({p.tobytes() for q, _ in queries for p in q} & corners)


def test_no_unbounded_tree_query_covers_the_grid_of_a_closed_curve(monkeypatch):
    # only the far corners' side is needed, and a bounded query finds them
    mesh = build_mesh((-1, 1, -1, 1), 64)
    queries = _tree_queries(monkeypatch, mesh, circle(0.6))
    bounded = [q for q, kw in queries if "distance_upper_bound" in kw]
    assert [len(q) for q in bounded] == [(mesh.nx + 1) * (mesh.ny + 1)]
    unbounded = [(q, kw) for q, kw in queries if "distance_upper_bound" not in kw]
    assert _grid_corners_queried(mesh, unbounded) < 0.25 * len(bounded[0])


def test_an_open_curve_takes_the_full_corner_query(monkeypatch):
    curve = LineCurve([0.1, -0.05], [1.0, 0.37], -4.0, 0.4)
    for n in (8, 32):
        mesh = build_mesh((-1, 1, -1, 1), n)
        queries = _tree_queries(monkeypatch, mesh, curve)
        assert all("distance_upper_bound" not in kw for _, kw in queries)
        assert _grid_corners_queried(mesh, queries) == (n + 1) ** 2
        _, eta = _classify_corner_offsets(monkeypatch, mesh, FrenetChart(curve, h=mesh.h))
        assert eta.tobytes() == FrenetChart(curve, h=mesh.h).signed_distance_estimate(
            _grid_points(mesh)).tobytes()
