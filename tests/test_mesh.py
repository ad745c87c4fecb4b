import numpy as np
import pytest

from frenet_ife.curves import LineCurve, circle, ellipse, flower
from frenet_ife.errors import AmbiguousCut, FrenetIfeError, TangentialIntersection
from frenet_ife.frenet import FrenetChart
from frenet_ife.mesh import _bisect, _polish_root, build_mesh, classify_elements

from oracles import bisect_root, loop_classify, sign_sample_interface


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
    assert total == pytest.approx(m.area, abs=1e-12)


def test_edge_topology_consistency():
    m = build_mesh((0, 2, 0, 1), (4, 3))
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


def _inside_circle(r):
    return lambda x, y: np.hypot(x, y) < r


@pytest.mark.parametrize("n", [4, 8])
def test_classification_matches_sign_sampling_circle(n):
    chart = FrenetChart(circle(0.6), h=0.25)
    mesh = build_mesh((-1, 1, -1, 1), n)
    tags = classify_elements(mesh, chart)
    for e in range(mesh.n_elements):
        expected = sign_sample_interface(_inside_circle(0.6), mesh.elem_box(e))
        assert (tags.tags[e].kind == "interface") == expected, f"element {e}"


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
            assert (tags.tags[e].kind == "interface") == expected


def test_line_on_gridlines_gives_no_interface_elements():
    chart = FrenetChart(LineCurve([0.0, 0.0], [1.0, 0.0], -5, 5), h=1.5)
    mesh = build_mesh((-1, 1, -1, 1), 2)
    tags = classify_elements(mesh, chart)
    assert tags.n_interface == 0
    sides = [t.side for t in tags.tags]
    # normal (0,-1): below the line is the plus side
    assert sides == [1, 1, -1, -1]


def test_intersection_point_against_bisection_oracle():
    # spec case: circle r=0.6, edge x=0.5, y in [0, 0.5]
    y_star = bisect_root(lambda y: 0.25 + y * y - 0.36, 0.0, 0.5)
    assert y_star == pytest.approx(np.sqrt(0.11), abs=1e-12)

    chart = FrenetChart(circle(0.6), h=0.3)
    mesh = build_mesh((-1, 1, -1, 1), 4)
    tags = classify_elements(mesh, chart)
    pts = np.vstack([c.point for cuts in tags.edge_cuts.values() for c in cuts])
    d = np.linalg.norm(pts - np.array([0.5, y_star]), axis=1)
    assert d.min() <= 1e-10
    # every recorded crossing sits on the curve
    for cuts in tags.edge_cuts.values():
        for c in cuts:
            assert np.linalg.norm(c.point - chart.curve.point(np.asarray(c.xi))) <= 1e-12


def test_interface_tags_have_two_cuts_and_interval():
    chart = FrenetChart(circle(0.6), h=0.25)
    mesh = build_mesh((-1, 1, -1, 1), 8)
    tags = classify_elements(mesh, chart)
    assert tags.n_interface > 0
    for e in tags.interface_elements:
        t = tags.tags[e]
        assert len(t.cuts) == 2
        xi0, xi1 = t.interval
        assert xi0 < xi1
        for c in t.cuts:
            assert xi0 <= c.xi <= xi1


@pytest.mark.parametrize("n", [8, 16, 32])
def test_interval_band_and_finite_overlap(n):
    mesh = build_mesh((-1, 1, -1, 1), n)
    chart = FrenetChart(circle(0.6), h=mesh.h)
    tags = classify_elements(mesh, chart)
    x0, _, y0, _ = mesh.box
    for e in tags.interface_elements:
        xi0, xi1 = tags.tags[e].interval
        assert 0.2 <= (xi1 - xi0) / mesh.h <= 5.0
        # fictitious element touches at most 7x7 elements
        eta_s = np.linspace(-mesh.h, mesh.h, 12)
        xi_s = np.linspace(xi0, xi1, 12)
        E, X = np.meshgrid(eta_s, xi_s)
        pts = chart.map(E.ravel(), X.ravel())
        ix = np.clip(((pts[:, 0] - x0) / mesh.dx).astype(int), 0, mesh.nx - 1)
        iy = np.clip(((pts[:, 1] - y0) / mesh.dy).astype(int), 0, mesh.ny - 1)
        assert len(set(zip(ix, iy))) <= 49


def test_tangential_crossing_detected_directly():
    # interface crossing an edge at slope 1e-12: below the tangency threshold
    chart = FrenetChart(LineCurve([0.0, 0.0], [1.0, 1e-12], -5, 5), h=1.0)
    a, b = np.array([0.3, 3.5e-13]), np.array([0.7, 3.5e-13])
    f_lo = chart.signed_distance_estimate(a)
    f_hi = chart.signed_distance_estimate(b)
    assert f_lo * f_hi < 0
    (t,) = _bisect(chart, a[None], b[None], np.array([0.0]), np.array([1.0]), np.array([f_lo]))
    with pytest.raises(TangentialIntersection):
        _polish_root(chart, a, b, t)


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


def _cut_bits(c):
    return int(c.edge), _bits(c.t), _bits(c.xi), _bits(c.point)


def _assert_same_classification(got, ref):
    assert len(got.tags) == len(ref.tags)
    for e, (g, r) in enumerate(zip(got.tags, ref.tags)):
        assert (g.kind, g.side, _bits(g.interval)) == (r.kind, r.side, _bits(r.interval)), e
        assert [_cut_bits(c) for c in g.cuts] == [_cut_bits(c) for c in r.cuts], e
    assert [int(k) for k in got.edge_cuts] == [int(k) for k in ref.edge_cuts]
    for k, cuts in ref.edge_cuts.items():
        assert [_cut_bits(c) for c in got.edge_cuts[k]] == [_cut_bits(c) for c in cuts], k


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


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_classification_random_placements_bitwise_equal_to_loop_oracle(seed):
    # an under-resolved placement must raise the oracle's error instead
    rng = np.random.default_rng(seed)
    classified = 0
    for n in (8, 16, 32):
        for _ in range(3):
            center = rng.uniform(-0.15, 0.15, 2)
            if rng.uniform() < 0.5:
                curve = circle(rng.uniform(0.4, 0.7), center)
            else:
                curve = ellipse(rng.uniform(0.5, 0.75), rng.uniform(0.35, 0.55), center)
            mesh = build_mesh((-1, 1, -1, 1), n)
            chart = FrenetChart(curve, h=min(mesh.h, 0.9 / curve.max_curvature))
            try:
                ref = loop_classify(mesh, chart)
            except FrenetIfeError as exc:
                with pytest.raises(type(exc)):
                    classify_elements(mesh, chart)
                continue
            _assert_same_classification(classify_elements(mesh, chart), ref)
            classified += 1
    assert classified >= 6
