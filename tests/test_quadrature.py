import numpy as np
import pytest

from frenet_ife import quadrature
from frenet_ife.curves import LineCurve, circle, ellipse, flower
from frenet_ife.errors import AmbiguousCut, DegeneratePartition
from frenet_ife.frenet import FrenetChart
from frenet_ife.mesh import build_mesh, classify_elements
from frenet_ife.quadrature import (cut_cell_rules, cut_edge_rule, gauss_interval,
                                   gauss_rect, level_cut_cell_rules)

from oracles import (composite_simpson, disk_box_area, frame_at, loop_cut_cell_rules,
                     polyline_side)
from test_mesh import _random_placements


def test_gauss_rect_exactness():
    rule = gauss_rect((0, 0, 1, 1), 2)
    f = rule.points[:, 0] ** 3 * rule.points[:, 1] ** 3
    assert rule.weights @ f == pytest.approx(1.0 / 16.0, abs=1e-15)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-15)
    # x^4 needs q=3
    val2 = rule.weights @ rule.points[:, 0] ** 4
    assert abs(val2 - 0.2) > 1e-6
    rule3 = gauss_rect((0, 0, 1, 1), 3)
    assert rule3.weights @ rule3.points[:, 0] ** 4 == pytest.approx(0.2, abs=1e-15)
    assert np.all(rule3.weights > 0)


def test_cut_edge_rule_uncut_and_midpoint():
    a, b = np.array([0.0, 0.0]), np.array([2.0, 0.0])
    segs = cut_edge_rule(a, b, [], 4)
    assert len(segs) == 1
    assert segs[0].weights.sum() == pytest.approx(2.0, abs=1e-14)
    segs = cut_edge_rule(a, b, [0.5], 4)
    assert len(segs) == 2
    assert all(s.weights.sum() == pytest.approx(1.0, abs=1e-14) for s in segs)
    # piecewise-constant integrand: 1 on the first half, 2 on the second
    total = sum(s.weights.sum() * (1.0 if s.t1 <= 0.5 else 2.0) for s in segs)
    assert total == pytest.approx(1.5 * 2.0, abs=1e-14)


def test_interface_line_rule():
    q = 4
    rule = gauss_interval(0.2, 0.9, q)
    exact = (0.9 ** (2 * q) - 0.2 ** (2 * q)) / (2 * q)
    assert rule.weights @ rule.points ** (2 * q - 1) == pytest.approx(exact, abs=1e-15)
    assert rule.weights.sum() == pytest.approx(0.7, abs=1e-15)


def test_interface_line_rule_converges_on_smooth_integrand():
    # The unit circle cannot serve here: kappa == 1 makes kappa * xi^2 a
    # quadratic, which every rule with q >= 2 integrates exactly, so the
    # "errors" would be roundoff whose order depends on the numpy build.
    # On the ellipse kappa(xi) is smooth and not a polynomial.
    curve = ellipse(1.0, 0.6)

    def f(xi):
        return frame_at(curve, xi)[2] * xi**2

    # The Simpson reference agrees with a 100-panel composite 10-point Gauss
    # sum to about 1e-16 on this ellipse; halving its panels must leave it
    # well below the 1e-12 bound asserted on the finest rule.
    ref = composite_simpson(f, 0.1, 1.3, panels=10000)
    assert abs(ref - composite_simpson(f, 0.1, 1.3, panels=5000)) <= 1e-13

    errs = []
    for q in (2, 4, 8, 16):
        rule = gauss_interval(0.1, 1.3, q)
        errs.append(abs(rule.weights @ f(rule.points) - ref))
    assert errs[-1] <= 1e-12
    # Below about a hundred ulps of the integral (~0.68) the difference is
    # roundoff in the rule and the reference, so strict decrease is only
    # asserted while the coarser error is above this floor.
    floor = 1e-14
    assert errs[0] > 1e-6  # the integrand is not one the rules integrate exactly
    for coarse, fine in zip(errs[:-1], errs[1:]):
        if coarse > floor:
            assert fine < coarse


@pytest.fixture(scope="module")
def circle_setup():
    mesh = build_mesh((-1, 1, -1, 1), 4)
    chart = FrenetChart(circle(0.6), h=0.3)
    tags = classify_elements(mesh, chart)
    return mesh, chart, tags


def test_cut_cell_additivity_q5(circle_setup):
    mesh, chart, tags = circle_setup
    rng = np.random.default_rng(42)
    coef = rng.normal(size=(6, 6))

    def poly(pts):
        vx = np.vander(pts[:, 0], 6, increasing=True)
        vy = np.vander(pts[:, 1], 6, increasing=True)
        return np.einsum("ni,ij,nj->n", vx, coef, vy)

    for e in tags.interface.elements:
        rules = cut_cell_rules(mesh, e, tags.interface, chart, q=8)
        full = gauss_rect(mesh.elem_box(e), 6)
        split = sum(r.weights @ poly(r.points) for r in rules.values())
        whole = full.weights @ poly(full.points)
        assert split == pytest.approx(whole, abs=1e-12 * max(1.0, abs(whole)))
        for r in rules.values():
            assert np.all(r.weights > -1e-15)


def test_cut_cell_area_against_adaptive_subdivision_oracle():
    mesh = build_mesh((0.25, 0.75, 0.0, 0.5), 1)
    chart = FrenetChart(circle(0.6), h=0.3)
    tags = classify_elements(mesh, chart)
    assert tags.tags[0] == 0
    rules = cut_cell_rules(mesh, 0, tags.interface, chart, q=10)
    area_inside = rules[-1].weights.sum()
    oracle = disk_box_area(0.0, 0.0, 0.6, (0.25, 0.0, 0.75, 0.5))
    assert area_inside == pytest.approx(oracle, abs=1e-10)
    assert rules[1].weights.sum() + area_inside == pytest.approx(0.25, abs=1e-12)


def test_cut_cell_q_refinement_converges(circle_setup):
    mesh, chart, tags = circle_setup
    e = tags.interface.elements[0]
    box = mesh.elem_box(e)
    oracle = disk_box_area(0.0, 0.0, 0.6, (box[0], box[1], box[2], box[3]))
    errs = []
    for q in (2, 4, 8):
        rules = cut_cell_rules(mesh, e, tags.interface, chart, q=q)
        errs.append(abs(rules[-1].weights.sum() - oracle))
    assert errs[2] <= 1e-10
    assert errs[0] > errs[2]


def test_line_cut_trapezoids_exact():
    line = LineCurve([0.0, 0.1], [1.0, 0.3], -5, 5)
    chart = FrenetChart(line, h=2.0)
    mesh = build_mesh((0, 1, 0, 1), 1)
    tags = classify_elements(mesh, chart)
    assert tags.tags[0] == 0
    rules = cut_cell_rules(mesh, 0, tags.interface, chart, q=3)
    # below the line is the plus side (normal points downward)
    area_below = 0.5 * (0.1 + 0.4)
    assert rules[1].weights.sum() == pytest.approx(area_below, abs=1e-14)
    assert rules[-1].weights.sum() == pytest.approx(1.0 - area_below, abs=1e-14)


def test_cut_cell_tiling_with_edge_lune_and_corner_crossing():
    # the flower dips back through a single edge of one element and passes
    # exactly through a mesh node: the cut rules must still tile exactly
    curve = flower(0.5, 0.02, 5)
    mesh = build_mesh((-1, 1, -1, 1), 12)
    chart = FrenetChart(curve, h=mesh.h)
    tags = classify_elements(mesh, chart)
    rng = np.random.default_rng(5)
    coef = rng.normal(size=(4, 4))

    def poly(pts):
        vx = np.vander(pts[:, 0], 4, increasing=True)
        vy = np.vander(pts[:, 1], 4, increasing=True)
        return np.einsum("ni,ij,nj->n", vx, coef, vy)

    assert tags.n_interface > 0
    for e in tags.interface.elements:
        rules = cut_cell_rules(mesh, e, tags.interface, chart, q=8)
        full = gauss_rect(mesh.elem_box(e), 5)
        split = sum(r.weights @ poly(r.points) for r in rules.values())
        whole = full.weights @ poly(full.points)
        assert split == pytest.approx(whole, abs=1e-12 * max(1.0, abs(whole)))


def test_cut_cell_tiling_on_thin_crescents():
    # an off-center circle grazing element tops produces thin crescent
    # regions, which the level kernel's first two anchors see; on the
    # flower at n = 48 some regions are seen by no anchor and are split.
    # Both must keep the tiling exact
    for curve, n in ((circle(0.55, (0.137, -0.083)), 8), (flower(0.5, 0.1, 5), 48)):
        mesh = build_mesh((-1, 1, -1, 1), n)
        chart = FrenetChart(curve, h=mesh.h)
        tags = classify_elements(mesh, chart)
        area = mesh.dx * mesh.dy
        assert tags.n_interface > 0
        for e in tags.interface.elements:
            rules = cut_cell_rules(mesh, e, tags.interface, chart, q=8)
            total = sum(r.weights.sum() for r in rules.values())
            assert total == pytest.approx(area, abs=1e-13)
            for r in rules.values():
                assert np.all(r.weights > -1e-15)


def test_tangent_intersection_refuses_parallel_and_far_tangents():
    # a crescent's kernel point is where the arc's end tangents meet; near
    # parallel tangents, or tangents that meet more than ten spans away (an
    # arc with an inflection), give none; three arcs with the same ends, in
    # one call
    g = np.array([[0.0, 0.0], [1.0, 0.0]])
    v = np.array([[[1.0, 0.01], [1.0, -0.01]],
                  [[1.0, 0.0], [2.0, 0.0]],
                  [[1.0, 0.01], [1.0, 0.011]]])     # the last meet at (11, 0.11)
    meet, exists = quadrature._tangent_intersection(np.repeat(g[None], 3, axis=0), v)
    assert exists.tolist() == [True, False, False]
    assert np.allclose(meet[0], [0.5, 0.005], atol=1e-15)


def test_whole_mesh_cut_areas_sum_to_disk(circle_setup):
    mesh, chart, tags = circle_setup
    total_inside = 0.0
    for e in range(mesh.n_elements):
        if tags.tags[e] == 0:
            rules = cut_cell_rules(mesh, e, tags.interface, chart, q=10)
            total_inside += rules[-1].weights.sum()
            area = (mesh.dx * mesh.dy)
            assert rules[1].weights.sum() > 0
            assert rules[-1].weights.sum() > 0
            assert rules[1].weights.sum() + rules[-1].weights.sum() == \
                pytest.approx(area, abs=1e-11)
        elif tags.tags[e] == -1:
            total_inside += mesh.dx * mesh.dy
    assert total_inside == pytest.approx(np.pi * 0.36, abs=1e-9)


@pytest.mark.parametrize("failure", ["region", "sides"])
def test_degenerate_partition_names_the_element(monkeypatch, failure):
    mesh = build_mesh((-1, 1, -1, 1), 8)
    chart = FrenetChart(circle(0.6), h=mesh.h)
    tags = classify_elements(mesh, chart)
    e = tags.interface.elements[0]
    if failure == "region":
        # no anchor passes: every region is split to the depth limit of the
        # level kernel, which then gives up
        monkeypatch.setattr(quadrature, "_anchor_ok",
                            lambda A, *args: np.zeros(np.shape(A)[:-1], dtype=bool))
        message = "no star-shaped anchor found"
    else:
        # a chart whose inverse puts every point on the + side labels both
        # pieces +1
        def newton(pts, _orig=chart._newton):
            eta, xi, ok = _orig(pts)
            return np.abs(eta), xi, ok
        monkeypatch.setattr(chart, "_newton", newton)
        message = "both sub-regions landed on the same side"
    with pytest.raises(DegeneratePartition, match=rf"^element {e}: {message}"):
        level_cut_cell_rules(mesh, tags.interface, chart, 4)
    with pytest.raises(DegeneratePartition, match=rf"^element {e}: {message}"):
        cut_cell_rules(mesh, e, tags.interface, chart, 4)


# (curve, box, n, chart h) of the level oracle: thin crescents off the centre,
# a lune through one edge and a corner crossing on the flat flower, a flower
# whose chart needs a finer mesh, and a line cut into trapezoids
_RULE_CASES = {
    "circle": (circle(0.6), (-1, 1, -1, 1), 16, None),
    "crescents": (circle(0.55, (0.137, -0.083)), (-1, 1, -1, 1), 8, None),
    "ellipse": (ellipse(0.7, 0.5), (-1, 1, -1, 1), 16, None),
    "flower": (flower(0.5, 0.1, 5), (-1, 1, -1, 1), 48, None),
    "lune": (flower(0.5, 0.02, 5), (-1, 1, -1, 1), 12, None),
    "line": (LineCurve([0.0, 0.1], [1.0, 0.3], -5, 5), (0, 1, 0, 1), 7, 2.0),
}


def _regions_of(rules):
    """(points, weights, eta, xi) of each region of the output of
    level_cut_cell_rules, in turn."""
    *parts, count = rules
    return list(zip(*(np.split(a, np.cumsum(count)[:-1]) for a in parts)))


def test_level_rules_bitwise_equal_to_loop_oracle(monkeypatch):
    # which path each region takes: the first anchor, the second (tangent
    # intersection or first vertex), a vertex, or a split; a candidate is
    # accepted when it passes both the star test and the cone sign test,
    # which the level kernel runs once each per round
    stars, cones = [], []

    def anchor_ok(*args, _orig=quadrature._anchor_ok):
        stars.append(_orig(*args))
        return stars[-1]

    def cone_sign_ok(det, _orig=quadrature._cone_sign_ok):
        cones.append(_orig(det))
        return cones[-1]

    monkeypatch.setattr(quadrature, "_anchor_ok", anchor_ok)
    monkeypatch.setattr(quadrature, "_cone_sign_ok", cone_sign_ok)
    for name, (curve, box, n, h) in _RULE_CASES.items():
        mesh = build_mesh(box, n)
        chart = FrenetChart(curve, h=h or mesh.h)
        cuts = classify_elements(mesh, chart).interface
        for q in (3, 4, 5, 6):
            regions = _regions_of(level_cut_cell_rules(mesh, cuts, chart, q))
            assert len(regions) == 2 * len(cuts.elements)
            for i, e in enumerate(cuts.elements.tolist()):
                ref = loop_cut_cell_rules(mesh, e, cuts, chart, q)
                one = cut_cell_rules(mesh, e, cuts, chart, q)
                assert sorted(ref) == [-1, 1] and list(one) == [1, -1], (name, q, e)
                for r, side in enumerate((1, -1)):
                    for pts, w in (regions[2 * i + r][:2], (one[side].points, one[side].weights)):
                        assert np.array_equal(pts, ref[side].points), (name, q, e)
                        assert np.array_equal(w, ref[side].weights), (name, q, e)
    assert len(stars) == len(cones)
    paths = dict.fromkeys(("first", "second", "vertex", "split"), 0)
    for star, cone in zip(stars, cones):
        ok = star & cone                         # (regions, candidates) of one round
        paths["first"] += int(ok[:, 0].sum())
        paths["second"] += int((~ok[:, 0] & ok[:, 1]).sum())
        paths["vertex"] += int((~ok[:, :2].any(axis=1) & ok[:, 2:].any(axis=1)).sum())
        paths["split"] += int((~ok.any(axis=1)).sum())
    assert min(paths.values()) > 0, paths


def test_level_rules_put_each_plus_region_first():
    # the kernel's rows are, element by element, the oracle's plus rule and
    # then its minus rule, count giving their sizes, whichever of the two
    # regions of the boundary walk is the plus one
    swapped = 0
    for name, (curve, box, n, h) in _RULE_CASES.items():
        mesh = build_mesh(box, n)
        chart = FrenetChart(curve, h=h or mesh.h)
        cuts = classify_elements(mesh, chart).interface
        pts, w, eta, xi, count = level_cut_cell_rules(mesh, cuts, chart, 4)
        assert count.shape == (2 * len(cuts.elements),)
        assert len(pts) == len(w) == len(eta) == len(xi) == count.sum()
        start = 0
        for i, e in enumerate(cuts.elements.tolist()):
            ref = loop_cut_cell_rules(mesh, e, cuts, chart, 4)
            swapped += list(ref) == [-1, 1]
            for r, side in enumerate((1, -1)):
                n_pts = len(ref[side].points)
                assert count[2 * i + r] == n_pts, (name, e, side)
                assert np.array_equal(pts[start:start + n_pts], ref[side].points), (name, e, side)
                assert np.array_equal(w[start:start + n_pts], ref[side].weights), (name, e, side)
                start += n_pts
    assert swapped > 0


def _placements():
    """(name, mesh, chart) of every _RULE_CASES placement and of the seeded
    random placements of the classification tests that classify."""
    for name, (curve, box, n, h) in _RULE_CASES.items():
        mesh = build_mesh(box, n)
        yield name, mesh, FrenetChart(curve, h=h or mesh.h)
    for seed in (3, 11, 29):
        for i, (mesh, chart) in enumerate(_random_placements(seed)):
            yield f"random-{seed}-{i}", mesh, chart


def test_chart_labels_are_the_polyline_labels_and_rules_carry_the_inverse():
    # the kernel labels each region by the exact eta at its deepest point;
    # the seed polyline's estimate at its own deepest point gave the same
    # side on every placement, and the eta and xi a rule carries are the
    # chart inverse at its points, xi unwrapped at its element's interval
    # midpoint
    levels = 0
    for name, mesh, chart in _placements():
        try:
            tags = classify_elements(mesh, chart)
        except AmbiguousCut:                     # an under-resolved placement
            continue
        cuts = tags.interface
        try:
            regions = _regions_of(level_cut_cell_rules(mesh, cuts, chart, 4))
        except DegeneratePartition as exc:       # the per-element oracle gives up too
            e = int(str(exc).split(":")[0].split()[1])
            with pytest.raises(DegeneratePartition, match=str(exc)):
                loop_cut_cell_rules(mesh, e, cuts, chart, 4)
            continue
        levels += 1
        for i, (e, (xi0, xi1)) in enumerate(zip(cuts.elements, cuts.interval)):
            anchor = 0.5 * (xi0 + xi1)
            for side, (pts, _, rule_eta, rule_xi) in zip((1, -1), regions[2 * i:2 * i + 2]):
                assert side == polyline_side(chart, pts), (name, e)
                eta, xi = chart.inverse(pts, xi_anchor=anchor)
                assert eta.tobytes() == rule_eta.tobytes(), (name, e)
                assert xi.tobytes() == rule_xi.tobytes(), (name, e)
    assert levels >= len(_RULE_CASES) + 18
