import numpy as np
import pytest

from frenet_ife.curves import LineCurve, circle, ellipse
from frenet_ife.errors import OutsideValidityStrip
from frenet_ife.frenet import FrenetChart
from frenet_ife.laplacian import FrenetLaplacian

from oracles import chart_map, frame_at, laplacian_coefficients, map_second_xi_derivative


def analytic_test_functions():
    """(u, grad, hess, laplacian) triples used by the operator identity."""

    def poly(pts):
        x, y = pts[:, 0], pts[:, 1]
        return x**3 * y - 2 * x * y**2 + x

    def poly_grad(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.column_stack([3 * x**2 * y - 2 * y**2 + 1, x**3 - 4 * x * y])

    def poly_hess(pts):
        x, y = pts[:, 0], pts[:, 1]
        H = np.empty((len(pts), 2, 2))
        H[:, 0, 0] = 6 * x * y
        H[:, 0, 1] = H[:, 1, 0] = 3 * x**2 - 4 * y
        H[:, 1, 1] = -4 * x
        return H

    def poly_lap(pts):
        x, y = pts[:, 0], pts[:, 1]
        return 6 * x * y - 4 * x

    def trig(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.sin(2 * x) * np.cos(y)

    def trig_grad(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.column_stack([2 * np.cos(2 * x) * np.cos(y),
                                -np.sin(2 * x) * np.sin(y)])

    def trig_hess(pts):
        x, y = pts[:, 0], pts[:, 1]
        H = np.empty((len(pts), 2, 2))
        H[:, 0, 0] = -4 * np.sin(2 * x) * np.cos(y)
        H[:, 0, 1] = H[:, 1, 0] = -2 * np.cos(2 * x) * np.sin(y)
        H[:, 1, 1] = -np.sin(2 * x) * np.cos(y)
        return H

    def trig_lap(pts):
        return -5.0 * trig(pts)

    def radial(pts):
        r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        return r2**2

    def radial_grad(pts):
        r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        return 4 * r2[:, None] * pts

    def radial_hess(pts):
        x, y = pts[:, 0], pts[:, 1]
        r2 = x**2 + y**2
        H = np.empty((len(pts), 2, 2))
        H[:, 0, 0] = 4 * r2 + 8 * x**2
        H[:, 0, 1] = H[:, 1, 0] = 8 * x * y
        H[:, 1, 1] = 4 * r2 + 8 * y**2
        return H

    def radial_lap(pts):
        return 16 * (pts[:, 0] ** 2 + pts[:, 1] ** 2)

    return [(poly, poly_grad, poly_hess, poly_lap),
            (trig, trig_grad, trig_hess, trig_lap),
            (radial, radial_grad, radial_hess, radial_lap)]


def pullback_operator_error(chart, eta, xi, funcs):
    """Relative error of the coordinate-Laplacian identity, via chain rule."""
    lap = FrenetLaplacian(chart)
    a, b, c = laplacian_coefficients(lap, eta, xi)
    _, n, _, _ = frame_at(chart.curve, xi)
    J = chart.jacobian(eta, xi)
    P_xi = J[:, :, 1]
    P_xixi = map_second_xi_derivative(lap, eta, xi)
    x = chart_map(chart, eta, xi)
    errs = []
    for u, grad, hess, lapl in funcs:
        g = grad(x)
        H = hess(x)
        u_eta = np.einsum("pk,pk->p", g, n)
        u_etaeta = np.einsum("pk,pkl,pl->p", n, H, n)
        u_xi = np.einsum("pk,pk->p", g, P_xi)
        u_xixi = np.einsum("pk,pkl,pl->p", P_xi, H, P_xi) \
            + np.einsum("pk,pk->p", g, P_xixi)
        lhs = u_etaeta + a * u_eta + b * u_xixi + c * u_xi
        rhs = lapl(x)
        errs.append(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))))
    return max(errs)


def test_unit_circle_coefficients_match_polar_laplacian():
    lap = FrenetLaplacian(FrenetChart(circle(1.0), h=0.3))
    rng = np.random.default_rng(1)
    eta = rng.uniform(-0.3, 0.3, 60)
    xi = rng.uniform(0, 2 * np.pi, 60)
    a, b, c = laplacian_coefficients(lap, eta, xi)
    assert np.allclose(a, 1 / (1 + eta), atol=1e-14)
    assert np.allclose(b, 1 / (1 + eta) ** 2, atol=1e-14)
    assert np.allclose(c, 0.0, atol=1e-14)


def test_line_coefficients_are_flat():
    lap = FrenetLaplacian(FrenetChart(LineCurve([0, 0], [2.0, 1.0]), h=1.0))
    eta = np.array([-0.5, 0.0, 0.7])
    xi = np.array([0.1, 1.0, 2.0])
    a, b, c = laplacian_coefficients(lap, eta, xi)
    s = np.sqrt(5.0)
    assert np.allclose(a, 0.0, atol=1e-15)
    assert np.allclose(b, 1.0 / s**2, atol=1e-15)
    assert np.allclose(c, 0.0, atol=1e-15)


def test_quadratic_radial_forced_identity():
    # u = x^2 + y^2 pulled back to the unit-circle chart: result is 4 everywhere
    chart = FrenetChart(circle(1.0), h=0.3)
    lap = FrenetLaplacian(chart)
    eta = np.linspace(-0.25, 0.25, 11)
    xi = np.linspace(0, 2 * np.pi, 11)
    a, b, c = laplacian_coefficients(lap, eta, xi)
    u_eta = 2 * (1 + eta)
    u_etaeta = 2.0
    val = u_etaeta + a * u_eta
    assert np.allclose(val, 4.0, atol=1e-13)


@pytest.mark.parametrize("chart", [FrenetChart(circle(1.0), h=0.3),
                                   FrenetChart(ellipse(2.0, 1.0), h=0.2)])
def test_operator_identity_random_strip_points(chart):
    rng = np.random.default_rng(9)
    kmax = chart.curve.max_curvature
    eta = rng.uniform(-0.8 / kmax, 0.8 / kmax, 200)
    xi = rng.uniform(0, 2 * np.pi, 200)
    err = pullback_operator_error(chart, eta, xi, analytic_test_functions())
    assert err <= 1e-8


def test_jets_match_finite_differences():
    chart = FrenetChart(ellipse(0.65, 0.5), h=0.1)
    lap = FrenetLaplacian(chart)
    xi = np.array([0.3, 1.1, 4.0])
    A, B, C = lap.coefficient_jets(xi, 2)
    d = 1e-4
    for k, fac in ((0, 1.0), (1, 1.0), (2, 2.0)):
        stencil = np.array([-d, 0.0, d])
        vals = np.array([laplacian_coefficients(lap, np.full_like(xi, s), xi) for s in stencil])
        if k == 0:
            fd = vals[1]
        elif k == 1:
            fd = (vals[2] - vals[0]) / (2 * d)
        else:
            fd = (vals[2] - 2 * vals[1] + vals[0]) / d**2
        for comp in range(3):
            jet = (A, B, C)[comp][k] * fac
            assert np.allclose(jet, fd[comp], atol=2e-5), (k, comp)


def test_coefficients_outside_strip_raise():
    lap = FrenetLaplacian(FrenetChart(circle(1.0), h=0.3))
    with pytest.raises(OutsideValidityStrip):
        laplacian_coefficients(lap, np.array([1.2]), np.array([0.0]))
