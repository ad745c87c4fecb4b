import numpy as np
import pytest

from frenet_ife import curves, frenet
from frenet_ife.curves import LineCurve, TrigCurve, circle, ellipse, flower
from frenet_ife.errors import NewtonDivergence, OutsideValidityStrip
from frenet_ife.frenet import ChordChart, FrenetChart
from frenet_ife.mesh import build_mesh, classify_elements

from oracles import (chart_map, chord_map, chord_transition, fd_jacobian, frame_at,
                     loop_inverse)


@pytest.fixture
def circle_chart():
    return FrenetChart(circle(1.0), h=0.3)


def test_map_radial_offset(circle_chart):
    assert np.allclose(chart_map(circle_chart, np.asarray(0.1), 0.0), [1.1, 0.0], atol=1e-14)


def test_map_restricts_to_curve():
    for chart in (FrenetChart(circle(0.6), h=0.2), FrenetChart(ellipse(0.65, 0.5), h=0.15)):
        xi = np.linspace(0, 2 * np.pi, 17)
        assert np.allclose(chart_map(chart, np.zeros_like(xi), xi),
                           chart.curve.point(xi), atol=1e-15)


def test_jacobian_det_unit_circle(circle_chart):
    rng = np.random.default_rng(0)
    eta = rng.uniform(-0.3, 0.3, 50)
    xi = rng.uniform(0, 2 * np.pi, 50)
    det = np.linalg.det(circle_chart.jacobian(eta, xi))   # ||g'|| (1 + eta*kappa)
    assert np.allclose(det, 1.0 + eta, atol=1e-13)


def test_jacobian_matches_finite_differences():
    chart = FrenetChart(ellipse(0.65, 0.5), h=0.15)
    rng = np.random.default_rng(3)
    for _ in range(20):
        eta = rng.uniform(-0.15, 0.15)
        xi = rng.uniform(0, 2 * np.pi)
        J = chart.jacobian(np.asarray(eta), np.asarray(xi))
        J_fd = fd_jacobian(lambda p: chart_map(chart, np.asarray(p[0]), np.asarray(p[1])),
                           [eta, xi])
        assert np.allclose(J, J_fd, atol=1e-8)
        _, _, kappa, speed = frame_at(chart.curve, xi)
        det = speed * (1.0 + eta * kappa)
        assert np.linalg.det(J) == pytest.approx(det, abs=1e-12)


@pytest.mark.parametrize("curve", [ellipse(1.0, 0.6), flower(0.5, 0.1, 5)])
def test_jacobian_bitwise_equal_to_frame_columns(curve):
    chart = FrenetChart(curve, h=0.5 / curve.max_curvature)
    rng = np.random.default_rng(2)
    eta = rng.uniform(-chart.h, chart.h, 200)
    xi = rng.uniform(0.0, 2 * np.pi, 200)
    _, n, kappa, _ = frame_at(curve, xi)
    ref = np.stack([n, (1.0 + eta * kappa)[:, None] * curve.velocity(xi)], axis=-1)
    assert np.array_equal(chart.jacobian(eta, xi), ref)


def test_jacobian_det_positive_inside_half_curvature_strip():
    # whenever h*kappa_max <= 1/2 the determinant keeps a margin of s_min/2
    chart = FrenetChart(circle(0.6), h=0.25)  # h*kappa = 0.4167
    rng = np.random.default_rng(5)
    eta = rng.uniform(-0.25, 0.25, 400)
    xi = rng.uniform(0, 2 * np.pi, 400)
    s_min = np.min(frame_at(chart.curve, np.linspace(0, 2 * np.pi, 1000))[3])
    assert np.all(np.linalg.det(chart.jacobian(eta, xi)) >= s_min / 2)


def test_map_outside_strip_raises(circle_chart):
    with pytest.raises(OutsideValidityStrip):
        chart_map(circle_chart, np.asarray(1.5), 0.0)


def test_chart_construction_requires_invertible_strip():
    with pytest.raises(OutsideValidityStrip):
        FrenetChart(circle(0.5), h=0.75)


def test_inverse_radial(circle_chart):
    (eta,), (xi,) = circle_chart.inverse(np.array([[1.2, 0.0]]))
    assert eta == pytest.approx(0.2, abs=1e-12)
    assert xi == pytest.approx(0.0, abs=1e-12) or xi == pytest.approx(2 * np.pi, abs=1e-12)


def test_inverse_line():
    chart = FrenetChart(LineCurve([0.0, 0.0], [1.0, 0.0]), h=0.5)
    (eta,), (xi,) = chart.inverse(np.array([[0.3, -0.05]]))
    assert eta == pytest.approx(0.05, abs=1e-13)
    assert xi == pytest.approx(0.3, abs=1e-13)


@pytest.mark.parametrize("curve,h", [(circle(1.0), 0.3), (ellipse(0.65, 0.5), 0.12)])
def test_round_trip_random_points(curve, h):
    chart = FrenetChart(curve, h=h)
    rng = np.random.default_rng(11)
    eta = rng.uniform(-h, h, 100)
    xi = rng.uniform(0, 2 * np.pi, 100)
    pts = chart_map(chart, eta, xi)
    eta2, xi2 = chart.inverse(pts)
    assert np.max(np.abs(eta2 - eta)) <= 1e-12
    dxi = np.abs(np.remainder(xi2 - xi + np.pi, 2 * np.pi) - np.pi)
    assert np.max(dxi) <= 1e-11
    # forward of inverse reproduces the points too
    assert np.max(np.linalg.norm(chart_map(chart, eta2, xi2) - pts, axis=1)) <= 1e-12


def test_newton_divergence_on_iteration_cap(monkeypatch):
    monkeypatch.setattr(frenet, "_MAX_ITER", 1)
    monkeypatch.setattr(frenet, "_NEWTON_TOL", 1e-15)
    chart = FrenetChart(circle(1.0), h=0.3)
    with pytest.raises(NewtonDivergence):
        chart.inverse(np.array([[1.21, 0.13]]))


class _OffsetGuessChart(FrenetChart):
    """A chart whose Newton guess is moved off the polyline foot by up to
    `offset` in xi, so that full first steps can overshoot and backtrack."""

    offset = 0.3

    def nearest_parameter_estimate(self, points):
        xi = super().nearest_parameter_estimate(points)
        return xi + self.offset * np.sin(1e3 * np.atleast_2d(points)[:, 0])


def _same_bits(got, ref):
    return all(np.array_equal(a, b) for a, b in zip(got, ref))


# the seed polyline's guess is so close that no first step backtracks; with
# the guess moved off, some do on the ellipse and the flower (a circle's
# Newton map converges cubically and a line's is exact, so none there)
@pytest.mark.parametrize("curve, offset, backtracks", [
    (circle(0.6), 0.3, False), (ellipse(1.0, 0.6), 0.6, True),
    (flower(0.5, 0.1, 5), 0.3, True), (LineCurve([0.1, -0.2], [0.6, 0.8]), 0.3, False)])
def test_inverse_bitwise_equal_to_loop_oracle(curve, offset, backtracks):
    h = 0.5 / curve.max_curvature if curve.max_curvature > 0 else 0.5
    rng = np.random.default_rng(5)
    eta = rng.uniform(-h, h, 400)
    xi = rng.uniform(0.0, 2 * np.pi, 400) if curve.periodic else rng.uniform(-3.0, 3.0, 400)
    plain = FrenetChart(curve, h=h)
    offset_chart = _OffsetGuessChart(curve, h=h)
    offset_chart.offset = offset
    first_steps = []
    for chart in (plain, offset_chart):
        pts = chart_map(chart, eta, xi)
        for anchor in (None, 1.0):
            ref = loop_inverse(chart, pts, xi_anchor=anchor, first_step_backtracks=first_steps)
            assert _same_bits(chart.inverse(pts, xi_anchor=anchor), ref)
        assert _same_bits(chart.inverse(pts[7:8]), loop_inverse(chart, pts[7:8]))
    assert first_steps[:2] == [0, 0]
    assert (first_steps[2] > 0) == backtracks


class _ReversedVelocity(TrigCurve):
    """A circle whose g' has the wrong sign: every Newton step of the chart
    inverse points uphill, so its backtracking gives up."""

    def velocity(self, xi):
        return -super().velocity(xi)

    def jet(self, xi):
        g, v, a = super().jet(xi)
        return g, -v, a


def test_backtracking_give_up_matches_loop_oracle():
    chart = FrenetChart(_ReversedVelocity(ax=[0, 0.6], bx=[0, 0], ay=[0, 0], by=[0, 0.6]), h=0.3)
    pts = np.array([[0.7, 0.1], [0.5, -0.2], [0.0, 0.65]])
    with pytest.raises(NewtonDivergence) as ref:
        loop_inverse(chart, pts)
    with pytest.raises(NewtonDivergence) as got:
        chart.inverse(pts)
    assert str(got.value).startswith("2 point(s)") and str(ref.value).startswith("2 point(s)")


def test_inverse_far_outside_strip_raises_like_loop_oracle():
    # at |x| = 3000 roundoff in P is about _NEWTON_TOL, so Newton stalls at
    # some of these points and converges at others
    chart = FrenetChart(circle(0.6), h=0.2)
    th = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)
    raised = 0
    for p in 3000.0 * np.stack([np.cos(th), np.sin(th)], axis=1)[:, None]:
        try:
            ref = loop_inverse(chart, p)
        except NewtonDivergence:
            raised += 1
            with pytest.raises(NewtonDivergence):
                chart.inverse(p)
        else:
            assert _same_bits(chart.inverse(p), ref)
    assert 0 < raised < len(th)


def test_fictitious_interval_line_exact():
    chart = FrenetChart(LineCurve([0.0, 0.0], [1.0, 0.0]), h=1.5)
    corners = np.array([[0.0, -0.5], [1.0, -0.5], [1.0, 0.5], [0.0, 0.5]])
    (xi0,), (xi1,) = chart.fictitious_intervals(corners[None])
    assert xi0 == pytest.approx(0.0, abs=1e-9)
    assert xi1 == pytest.approx(1.0, abs=1e-9)


def test_fictitious_interval_containment_and_band():
    chart = FrenetChart(circle(1.0), h=0.25 * np.sqrt(2))
    corners = np.array([[0.55, -0.1], [0.8, -0.1], [0.8, 0.1], [0.55, 0.1]])
    (xi0,), (xi1,) = chart.fictitious_intervals(corners[None])
    diam = np.hypot(0.25, 0.2)
    assert 0.3 <= (xi1 - xi0) / diam <= 3.0
    rng = np.random.default_rng(2)
    pts = np.column_stack([rng.uniform(0.55, 0.8, 200), rng.uniform(-0.1, 0.1, 200)])
    _, xi = chart.inverse(pts, xi_anchor=0.5 * (xi0 + xi1))
    assert np.all(xi >= xi0 - 1e-12) and np.all(xi <= xi1 + 1e-12)


def test_fictitious_intervals_are_the_padded_loop_extremes():
    mesh = build_mesh((-1, 1, -1, 1), 16)
    chart = FrenetChart(ellipse(0.7, 0.5), h=mesh.h)
    tags = classify_elements(mesh, chart)
    corners = np.array([mesh.elem_corners(e) for e in tags.interface.elements])
    lo, hi = chart.fictitious_intervals(corners)
    ts = np.linspace(0.0, 1.0, 10)[1:-1]
    for c, xi0, xi1 in zip(corners, lo, hi):
        loop = np.vstack([[c[k], *(c[k] + t * (c[(k + 1) % 4] - c[k]) for t in ts)]
                          for k in range(4)])
        _, xi = chart.inverse(loop, xi_anchor=chart.inverse(c[:1])[1][0])
        pad = 1e-10 * max(xi.max() - xi.min(), 1e-30)
        assert (xi0, xi1) == (xi.min() - pad, xi.max() + pad)


def test_fictitious_intervals_invert_a_level_in_one_newton_batch(monkeypatch):
    mesh = build_mesh((-1, 1, -1, 1), 16)
    chart = FrenetChart(circle(0.6), h=mesh.h)
    corners = mesh.elem_corners(classify_elements(mesh, chart).interface.elements)
    batches, inverses = [], []
    newton, inverse = FrenetChart._newton, FrenetChart.inverse
    monkeypatch.setattr(FrenetChart, "_newton",
                        lambda self, pts: batches.append(len(pts)) or newton(self, pts))
    monkeypatch.setattr(FrenetChart, "inverse",
                        lambda self, *args, **kw: inverses.append(1) or inverse(self, *args, **kw))
    chart.fictitious_intervals(corners)
    assert inverses == [] and batches == [4 * (frenet._LOOP_SAMPLES + 1) * len(corners)]
    assert batches[0] <= frenet._BLOCK    # one block, so one call


@pytest.mark.parametrize("curve, box, n", [(ellipse(1.0, 0.6), 1.5, 32),
                                           (ellipse(1.0, 0.6), 1.5, 64),
                                           (flower(0.5, 0.1, 5), 1.0, 80),
                                           (flower(0.5, 0.1, 5), 1.0, 128)])
def test_xi_monotone_along_interface_element_edges(curve, box, n):
    # inside the tubular neighbourhood the xi level sets are straight normal
    # lines, so xi is monotone along each straight edge and the interval
    # extremes sit at corners
    mesh = build_mesh((-box, box, -box, box), n)
    chart = FrenetChart(curve, h=mesh.h)
    tags = classify_elements(mesh, chart)
    rng = np.random.default_rng(n)
    rows = rng.choice(tags.n_interface, size=12, replace=False)
    ts = np.linspace(0.0, 1.0, 65)
    for e, (xi0, xi1) in zip(tags.interface.elements[rows], tags.interface.interval[rows]):
        c = mesh.elem_corners(e)
        anchor = 0.5 * (xi0 + xi1)
        for k in range(4):
            pts = c[k] + np.multiply.outer(ts, c[(k + 1) % 4] - c[k])
            _, xi = chart.inverse(pts, xi_anchor=anchor)
            d = np.diff(xi)
            tol = 1e-12 * mesh.h
            assert np.all(d >= -tol) or np.all(d <= tol), (e, k)


def test_chord_chart_interpolates_and_inverts():
    chart = FrenetChart(circle(1.0), h=0.3)
    cc = ChordChart(chart, 0.1, 0.45)
    # the chord P_chord(0, xi) = A (0, xi)^T + b passes through g(xi0) and g(xi1)
    for xi in (0.1, 0.45):
        assert np.allclose(cc.b + xi * cc.A[:, 1], chart.curve.point(np.asarray(xi)), atol=1e-14)
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, size=(50, 2))
    assert np.max(np.linalg.norm(chord_map(cc, *cc.inverse(pts).T) - pts, axis=1)) <= 1e-13


def test_transition_identity_for_line():
    chart = FrenetChart(LineCurve([0.0, 0.0], [1.0, 0.0]), h=1.0)
    cc = ChordChart(chart, 0.2, 0.8)
    rng = np.random.default_rng(6)
    eta = rng.uniform(-0.5, 0.5, 40)
    xi = rng.uniform(0.2, 0.8, 40)
    T = chord_transition(cc, eta, xi)
    assert np.max(np.abs(T - np.column_stack([eta, xi]))) <= 1e-14
    DT = cc.transition_jacobian(eta, xi)
    assert np.max(np.abs(DT - np.eye(2))) <= 1e-14


def test_transition_near_identity_scales_with_h():
    # ||T - id|| should fall by ~4x when the interval is halved
    chart = FrenetChart(circle(1.0), h=0.3)
    devs = []
    for w in (0.2, 0.1):
        cc = ChordChart(chart, 0.3, 0.3 + w)
        eta = np.linspace(-w / 2, w / 2, 9)
        xi = np.linspace(0.3, 0.3 + w, 9)
        E, X = np.meshgrid(eta, xi)
        T = chord_transition(cc, E.ravel(), X.ravel())
        devs.append(np.max(np.linalg.norm(T - np.column_stack([E.ravel(), X.ravel()]), axis=1)))
    assert devs[1] <= devs[0] / 2.5


def test_charts_on_one_curve_share_its_seed_polyline(monkeypatch):
    # the polyline depends on the curve alone, so the charts of every level
    # query one tree
    builds = []

    def tree(points, _orig=curves.cKDTree):
        builds.append(len(points))
        return _orig(points)

    monkeypatch.setattr(curves, "cKDTree", tree)
    curve = ellipse(0.7, 0.5)
    coarse, fine = FrenetChart(curve, h=0.2), FrenetChart(curve, h=0.05)
    pts = np.array([[0.71, 0.02], [-0.1, 0.48], [0.3, -0.3]])
    eta = coarse.signed_distance_estimate(pts)
    assert fine.signed_distance_estimate(pts).tobytes() == eta.tobytes()
    assert fine.nearest_parameter_estimate(pts).tobytes() == \
        coarse.nearest_parameter_estimate(pts).tobytes()
    assert builds == [4096]


def test_row_norms_and_dots_round_as_lone_vectors():
    # _bnorm and _bdot give, row by row, what np.linalg.norm and np.dot give
    # a lone 2-vector (a BLAS dot), bit for bit, whatever the strides
    rng = np.random.default_rng(17)
    n = 20000
    v = rng.choice([-1.0, 1.0], (n, 2)) * 10.0 ** rng.uniform(-160, 150, (n, 2))
    v[:50] = 0.0
    v[50:100, 0] = -0.0
    v[100:150] = 5e-324 * rng.integers(1, 10**6, (50, 2))        # subnormals
    v[150:160, 0] = np.inf
    v[160:170, 1] = -np.inf
    v[170:180, 0] = np.nan
    v[180:190] = [np.inf, np.nan]
    w = rng.normal(size=(n, 2)) * 10.0 ** rng.uniform(-100, 100, (n, 1))

    def same(a, b):
        return np.array_equal(np.isnan(a), np.isnan(b)) and \
            a[~np.isnan(a)].tobytes() == b[~np.isnan(b)].tobytes()

    wide = np.zeros((n, 5))
    wide[:, 1:3] = v
    for rows in (v, wide[:, 1:3], v[::-3], v[::-1], np.asfortranarray(v)):
        ref = np.array([np.linalg.norm(np.array(r)) for r in rows])
        assert same(frenet._bnorm(rows), ref)
        stack = rows[: len(rows) // 4 * 4].reshape(-1, 4, 2)      # leading axes
        assert same(frenet._bnorm(stack), ref[: len(stack) * 4].reshape(-1, 4))
    for a, b in ((v, w), (v[::-1], w[::2][: n // 2].repeat(2, axis=0))):
        ref = np.array([np.dot(np.array(x), np.array(y)) for x, y in zip(a, b)])
        assert same(frenet._bdot(a, b), ref)
