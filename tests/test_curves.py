import numpy as np
import pytest

from frenet_ife.curves import LineCurve, TrigCurve, circle, curve_from_config, ellipse, flower
from frenet_ife.errors import DegenerateParametrization
from frenet_ife.frenet import ROT

from oracles import fd_derivative, frame_at


def test_unit_circle_frame_identities():
    c = circle(1.0)
    tau, n, kappa, speed = frame_at(c, 0.0)
    assert np.allclose(tau, [0.0, 1.0], atol=1e-15)
    assert np.allclose(n, [1.0, 0.0], atol=1e-15)
    assert kappa == pytest.approx(1.0, abs=1e-14)
    assert speed == pytest.approx(1.0, abs=1e-14)


def test_line_frame():
    c = LineCurve([0.0, 0.0], [1.0, 0.0])
    for xi in (-2.0, 0.0, 3.7):
        tau, n, kappa, speed = frame_at(c, xi)
        assert np.allclose(tau, [1.0, 0.0])
        assert np.allclose(n, [0.0, -1.0])
        assert kappa == 0.0
        assert speed == 1.0


def test_ellipse_curvature_against_finite_differences():
    c = ellipse(2.0, 1.0)
    assert frame_at(c, 0.0)[2] == pytest.approx(2.0, abs=1e-12)
    # independent check: curvature from finite-difference derivatives
    for xi in np.linspace(0.1, 6.0, 7):
        v = fd_derivative(lambda t: c.point(np.asarray(t)), xi, order=1)
        a = fd_derivative(lambda t: c.point(np.asarray(t)), xi, order=2)
        s = np.linalg.norm(v)
        kappa_fd = (v[0] * a[1] - v[1] * a[0]) / s**3
        assert frame_at(c, xi)[2] == pytest.approx(kappa_fd, rel=1e-4)


@pytest.mark.parametrize("curve", [circle(0.6), ellipse(0.65, 0.5),
                                   flower(0.5, 0.02, 5)])
def test_curve_invariants(curve):
    xi = np.linspace(curve.xi_start, curve.xi_end, 701)
    tau, n, kappa, speeds = frame_at(curve, xi)
    assert np.all(speeds > 0)
    assert np.allclose(curve.point(np.asarray(curve.xi_end)),
                       curve.point(np.asarray(curve.xi_start)), atol=1e-14)
    assert curve.max_curvature >= np.max(np.abs(kappa)) - 1e-12
    assert np.max(np.abs(np.linalg.norm(tau, axis=1) - 1.0)) <= 1e-14
    assert np.max(np.abs(np.linalg.norm(n, axis=1) - 1.0)) <= 1e-14
    assert np.max(np.abs(np.einsum("ij,ij->i", tau, n))) <= 1e-14
    assert np.allclose(n, tau @ ROT.T, atol=1e-15)


def test_flower_is_polar_graph():
    r0, amp, k = 0.5, 0.03, 4
    c = flower(r0, amp, k)
    th = np.linspace(0, 2 * np.pi, 57)
    r = np.linalg.norm(c.point(th), axis=1)
    assert np.allclose(r, r0 + amp * np.cos(k * th), atol=1e-14)


def test_degenerate_direction_rejected():
    with pytest.raises(DegenerateParametrization):
        LineCurve([0, 0], [0, 0])


def test_cusp_parametrization_rejected_pointwise():
    # x = cos t, y = cos(2t)/2 has g'(0) = 0 (a cusp)
    cusp = TrigCurve(ax=[0, 1], bx=[0], ay=[0, 0, 0.5], by=[0])
    with pytest.raises(DegenerateParametrization):
        frame_at(cusp, 0.0)
    frame_at(cusp, 0.4)   # regular elsewhere


def test_trig_curve_derivative_consistency():
    rng = np.random.default_rng(7)
    c = TrigCurve(ax=rng.normal(size=4), bx=rng.normal(size=4),
                  ay=rng.normal(size=4), by=rng.normal(size=4))
    for xi in rng.uniform(0, 2 * np.pi, 5):
        assert np.allclose(c.velocity(np.asarray(xi)),
                           fd_derivative(lambda t: c.point(np.asarray(t)), xi),
                           atol=1e-8)
        assert np.allclose(c.accel(np.asarray(xi)),
                           fd_derivative(lambda t: c.velocity(np.asarray(t)), xi),
                           atol=1e-8)
        assert np.allclose(c.jerk(np.asarray(xi)),
                           fd_derivative(lambda t: c.accel(np.asarray(t)), xi),
                           atol=1e-7)


@pytest.mark.parametrize("curve", [circle(0.6), ellipse(1.0, 0.6), flower(0.5, 0.1, 5),
                                   LineCurve([0.1, -0.2], [0.6, 0.8])])
def test_jet_is_point_velocity_accel_bitwise(curve):
    for xi in (np.linspace(-1.0, 7.0, 257), np.asarray(0.7)):
        jet = curve.jet(xi)
        assert len(jet) == 3
        for got, ref in zip(jet, (curve.point(xi), curve.velocity(xi), curve.accel(xi))):
            assert got.shape == ref.shape and np.array_equal(got, ref)


@pytest.mark.parametrize("curve", [circle(0.55, (0.13, -0.07)), ellipse(1.0, 0.6),
                                   flower(0.5, 0.1, 5),
                                   TrigCurve([0.1, 0.6, 0.05, -0.02], [0.0, 0.01, 0.03],
                                             [-0.1, 0.02, 0.0, 0.01], [0.0, 0.5, -0.04])])
def test_evaluation_independent_of_batch(curve):
    # a point's value must not depend on which points it is evaluated with:
    # the chart inverse subsets converged points instead of re-evaluating
    xi = np.linspace(-1.0, 7.0, 1001)
    for meth in (curve.point, curve.velocity, curve.accel, curve.jerk):
        full = meth(xi)
        assert np.array_equal(np.array([meth(np.asarray(x)) for x in xi]), full)
        assert np.array_equal(np.vstack([meth(xi[i:i + 7]) for i in range(0, 1001, 7)]), full)
        assert np.array_equal(meth(xi[::-1])[::-1], full)


def test_curve_from_config_round_trip():
    spec = {"kind": "circle", "radius": 0.6, "center": [0.1, -0.2]}
    c = curve_from_config(spec)
    assert np.allclose(c.point(np.asarray(0.0)), [0.7, -0.2])
    with pytest.raises(ValueError):
        curve_from_config({"kind": "hexagon"})
