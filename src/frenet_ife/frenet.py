"""Tubular (Frenet) coordinates around an interface curve.

The chart maps normal-offset coordinates (eta, xi) to physical points via
P(eta, xi) = g(xi) + eta*n(xi) and inverts the map with a damped Newton
iteration seeded from a dense polyline of the curve.  It also produces the
per-element parameter intervals of the fictitious boxes and the affine
chord charts used to probe how far P is from its linearization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .curves import InterfaceCurve
from .errors import (
    DegenerateChord,
    DegenerateParametrization,
    NewtonDivergence,
    OutsideValidityStrip,
)

# Rotation taking the unit tangent to the unit normal (tau rotated by -90 deg),
# so the normal points from the minus side toward the plus side.
ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])

# Points per seed-tree query and per Newton batch.  Results do not depend on
# it (every point is processed on its own); it bounds the temporaries of a
# whole-level call, which otherwise raise the peak RSS by several MB.
_BLOCK = 2048
_LOOP_SAMPLES = 8   # samples inside each edge of a fictitious-interval loop


@dataclass
class FrenetFrame:
    """Unit tangent, unit normal, signed curvature and speed at one parameter."""

    tau: np.ndarray
    n: np.ndarray
    kappa: float
    speed: float


def frenet_apparatus(curve: InterfaceCurve, xi) -> FrenetFrame:
    """Evaluate the Frenet frame of `curve` at parameter(s) `xi`.

    Returns tau = g'/||g'||, n = ROT tau, signed curvature
    kappa = det(g', g'')/||g'||^3 and speed ||g'||.  Vectorized: array
    input yields arrays with the trailing component axis.
    """
    xi = np.asarray(xi, dtype=float)
    tau, n, kappa, s = _frame(curve.velocity(xi), curve.accel(xi))
    if xi.ndim == 0:
        return FrenetFrame(tau=tau, n=n, kappa=float(kappa), speed=float(s))
    return FrenetFrame(tau=tau, n=n, kappa=kappa, speed=s)


def _frame(v, a):
    """(tau, n, kappa, speed) from g' and g''."""
    s = np.linalg.norm(v, axis=-1)
    if np.any(s < 1e-12):
        raise DegenerateParametrization("||g'(xi)|| < 1e-12")
    tau = v / s[..., None]
    kappa = (v[..., 0] * a[..., 1] - v[..., 1] * a[..., 0]) / s**3
    return tau, tau @ ROT.T, kappa, s


def unwrap_near(xi, anchor: float, period: float):
    """Shift xi by multiples of `period` into (anchor-period/2, anchor+period/2]."""
    return xi - period * np.round((xi - anchor) / period)


class FrenetChart:
    """Invertible tubular chart of half-width `h` around an interface curve.

    Parameters
    ----------
    curve : InterfaceCurve
    h : float
        Strip half-width; normally the mesh element diagonal.  Construction
        requires h * max_curvature < 1 so the Jacobian determinant
        ||g'||(1 + eta*kappa) stays positive on the strip |eta| <= h.
    newton_tol : float
        Absolute tolerance on ||P(eta, xi) - x|| for the inverse map.
    max_iter : int
        Newton iteration cap before reporting divergence.
    """

    def __init__(self, curve: InterfaceCurve, h: float,
                 newton_tol: float = 1e-13, max_iter: int = 40):
        if h <= 0:
            raise ValueError("strip half-width h must be positive")
        kmax = curve.max_curvature
        if h * kmax >= 1.0:
            raise OutsideValidityStrip(
                f"h*max_curvature = {h * kmax:.3f} >= 1: strip not invertible")
        self.curve = curve
        self.h = float(h)
        self.newton_tol = float(newton_tol)
        self.max_iter = int(max_iter)
        self._seed_tree = None
        self._seed_xi = None
        self._seed_pts = None
        self._seed_normals = None

    # -- forward map -------------------------------------------------------
    def map(self, eta, xi):
        """P(eta, xi) = g(xi) + eta n(xi).  Requires |eta|*max_curvature < 1."""
        eta = np.asarray(eta, dtype=float)
        if np.any(np.abs(eta) * self.curve.max_curvature >= 1.0):
            raise OutsideValidityStrip("|eta|*max_curvature >= 1")
        fr = frenet_apparatus(self.curve, xi)
        return self.curve.point(np.asarray(xi, dtype=float)) + eta[..., None] * fr.n

    def jacobian(self, eta, xi):
        """Jacobian of P: columns (n, (1 + eta*kappa) g').  Shape (..., 2, 2);
        its determinant is ||g'|| (1 + eta*kappa)."""
        eta = np.asarray(eta, dtype=float)
        _, v, a = self.curve.jet(np.asarray(xi, dtype=float))
        _, n, kappa, _ = _frame(v, a)
        return np.stack([n, (1.0 + eta * kappa)[..., None] * v], axis=-1)

    # -- polyline seed data --------------------------------------------------
    def _seeds(self):
        if self._seed_tree is None:
            c = self.curve
            m = 4096
            xi = np.linspace(c.xi_start, c.xi_end, m, endpoint=not c.periodic)
            pts = c.point(xi)
            fr = frenet_apparatus(c, xi)
            self._seed_xi = xi
            self._seed_pts = pts
            self._seed_normals = fr.n
            self._seed_tree = cKDTree(pts)
        return self._seed_tree, self._seed_xi, self._seed_pts, self._seed_normals

    def signed_distance_estimate(self, points):
        """Polyline-based signed normal offset; sign-exact near the curve.

        Well defined everywhere (including caustics where the exact inverse
        is singular), which is what element classification needs.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        tree, _, curve_pts, normals = self._seeds()
        eta = np.empty(len(pts))
        for s in range(0, len(pts), _BLOCK):
            block = pts[s:s + _BLOCK]
            _, idx = tree.query(block)
            eta[s:s + _BLOCK] = np.einsum("ij,ij->i", block - curve_pts[idx], normals[idx])
        return eta if np.asarray(points).ndim > 1 else float(eta[0])

    def nearest_parameter_estimate(self, points):
        """Chord-projection foot on the seed polyline (Newton initial guess)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        tree, xi, curve_pts, _ = self._seeds()
        _, idx = tree.query(pts)
        nseed = len(xi)
        c = self.curve
        if c.periodic:
            nxt = (idx + 1) % nseed
            dxi = c.period / nseed
        else:
            nxt = np.minimum(idx + 1, nseed - 1)
            dxi = xi[1] - xi[0]
        a = curve_pts[idx]
        b = curve_pts[nxt]
        ab = b - a
        denom = np.einsum("ij,ij->i", ab, ab)
        denom[denom == 0.0] = 1.0
        t = np.clip(np.einsum("ij,ij->i", pts - a, ab) / denom, 0.0, 1.0)
        return xi[idx] + t * dxi

    # -- inverse map ---------------------------------------------------------
    def inverse(self, points, xi_anchor: float | np.ndarray | None = None):
        """Invert P at one or many physical points.

        Returns (eta, xi) with ||P(eta, xi) - point|| <= newton_tol.  For a
        periodic curve the parameter is unwrapped near `xi_anchor` when given,
        a float or an array with one anchor per point, otherwise reduced to
        the principal interval.

        Raises
        ------
        NewtonDivergence
            If any point fails to converge within max_iter iterations.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        eta, xi, ok = self._newton(pts)
        if not np.all(ok):
            raise NewtonDivergence(
                f"{int(np.sum(~ok))} point(s) failed to invert; "
                "outside the tubular strip or mesh too coarse")
        xi = self._unwrap(xi, xi_anchor)
        if np.asarray(points).ndim == 1:
            return float(eta[0]), float(xi[0])
        return eta, xi

    def _newton(self, pts):
        """Damped Newton on P(eta, xi) = pts, (n, 2): (eta, xi, converged),
        with xi not yet unwrapped.  Each point runs as it would alone."""
        if len(pts) > _BLOCK:
            parts = [self._newton(pts[s:s + _BLOCK]) for s in range(0, len(pts), _BLOCK)]
            return tuple(np.concatenate(part) for part in zip(*parts))
        c = self.curve

        def residual(eta, xi, idx):
            # one curve jet per evaluation; its frame serves the next step
            g, v, a = c.jet(xi)
            _, n, kappa, _ = _frame(v, a)
            return g + eta[:, None] * n - pts[idx], v, n, kappa

        xi = self.nearest_parameter_estimate(pts)
        g, v, a = c.jet(xi)
        _, n, kappa, _ = _frame(v, a)
        eta = np.einsum("ij,ij->i", pts - g, n)
        res = g + eta[:, None] * n - pts

        ok = np.ones(len(pts), dtype=bool)
        active = np.arange(len(pts))
        for _ in range(self.max_iter):
            rnorm = np.linalg.norm(res, axis=1)
            done = rnorm <= self.newton_tol
            if np.any(done):
                keep = ~done
                active = active[keep]
                # curve values do not depend on the batch, so the subset is
                # what re-evaluating the remaining points would give
                res, v, n, kappa, rnorm = res[keep], v[keep], n[keep], kappa[keep], rnorm[keep]
            if len(active) == 0:
                break
            fac = 1.0 + eta[active] * kappa
            # solve [n | fac*g'] d = -res per point (2x2 closed form)
            a11, a21 = n[:, 0], n[:, 1]
            a12, a22 = fac * v[:, 0], fac * v[:, 1]
            det = a11 * a22 - a12 * a21
            det[np.abs(det) < 1e-300] = 1e-300
            d_eta = (-res[:, 0] * a22 + res[:, 1] * a12) / det
            d_xi = (res[:, 0] * a21 - res[:, 1] * a11) / det
            # damped update: backtrack while the residual grows
            step = np.ones(len(active))
            for _bt in range(30):
                eta_try = eta[active] + step * d_eta
                xi_try = xi[active] + step * d_xi
                res, v, n, kappa = residual(eta_try, xi_try, active)
                worse = np.linalg.norm(res, axis=1) > rnorm
                if not np.any(worse):
                    break
                step[worse] *= 0.5
            eta[active] += step * d_eta
            xi[active] += step * d_xi
            if np.any(worse):
                # backtracking gave up; its last halving was never evaluated
                res, v, n, kappa = residual(eta[active], xi[active], active)
        else:
            res = residual(eta[active], xi[active], active)[0]
            ok[active] = ~(np.linalg.norm(res, axis=1) > self.newton_tol)
        return eta, xi, ok

    def _unwrap(self, xi, xi_anchor):
        """Periodic parameters near `xi_anchor`, or in the principal interval."""
        c = self.curve
        if c.periodic:
            anchor = c.xi_start + 0.5 * c.period if xi_anchor is None else xi_anchor
            xi = unwrap_near(xi, anchor, c.period)
            if xi_anchor is None:
                xi = np.where(xi < c.xi_start, xi + c.period, xi)
        return xi

    # -- fictitious interval ---------------------------------------------------
    def fictitious_intervals(self, corners):
        """Parameter intervals [xi0, xi1] of the fictitious boxes containing elements.

        `corners` is the (E, 4, 2) array of element corners in boundary
        order; returns the arrays xi0 and xi1: the padded extremes of the
        inverse map's xi on an ordered loop around each boundary (corners
        plus edge samples), so the element stays inside P([-h, h] x [xi0,
        xi1]).  Inside the tubular neighbourhood the xi level sets are the
        straight normal lines, so xi is monotone along each straight edge and
        its extremes over the element are at sampled corners.
        """
        corners = np.asarray(corners, dtype=float)
        n_el = len(corners)
        ts = np.linspace(0.0, 1.0, _LOOP_SAMPLES + 2)[1:-1]
        a = corners[:, :, None, :]
        d = np.roll(corners, -1, axis=1)[:, :, None, :] - a
        n_loop = 4 * (_LOOP_SAMPLES + 1)
        loops = np.concatenate([a, a + ts[:, None] * d], axis=2).reshape(n_el, n_loop, 2)
        anchor = None
        if self.curve.periodic:
            _, anchor = self.inverse(corners[:, 0])
        _, xi = self.inverse(loops.reshape(-1, 2),
                             xi_anchor=None if anchor is None else np.repeat(anchor, n_loop))
        xi = xi.reshape(n_el, n_loop)
        lo, hi = xi.min(axis=1), xi.max(axis=1)
        pad = 1e-10 * np.maximum(hi - lo, 1e-30)
        return lo - pad, hi + pad

    def chord_chart(self, xi0: float, xi1: float) -> "ChordChart":
        """Affine chart through g(xi0), g(xi1); see ChordChart."""
        return ChordChart(self, xi0, xi1)


class ChordChart:
    """Affine stand-in for the Frenet chart on one fictitious interval.

    Interpolates the curve linearly between g(xi0) and g(xi1) and carries
    the exact closed-form inverse of the resulting affine map.  The
    transition map T = chord_inverse o P measures how far the true chart
    is from this linearization.
    """

    def __init__(self, chart: FrenetChart, xi0: float, xi1: float):
        if not xi1 > xi0:
            raise ValueError("need xi1 > xi0")
        self.chart = chart
        self.xi0, self.xi1 = float(xi0), float(xi1)
        curve = chart.curve
        g0 = curve.point(np.asarray(xi0, dtype=float))
        g1 = curve.point(np.asarray(xi1, dtype=float))
        if np.linalg.norm(g1 - g0) < 1e-12:
            raise DegenerateChord("||g(xi1) - g(xi0)|| < 1e-12")
        d = (g1 - g0) / (xi1 - xi0)
        tau = d / np.linalg.norm(d)
        n = ROT @ tau
        self.tau, self.n = tau, n
        # P_chord(eta, xi) = A (eta, xi)^T + b
        self.A = np.column_stack([n, d])
        self.b = g0 - xi0 * d
        self.Ainv = np.linalg.inv(self.A)

    def map(self, eta, xi):
        coords = np.stack([np.asarray(eta, dtype=float),
                           np.asarray(xi, dtype=float)], axis=-1)
        return coords @ self.A.T + self.b

    def inverse(self, points):
        pts = np.asarray(points, dtype=float)
        return (pts - self.b) @ self.Ainv.T

    def transition(self, eta, xi):
        """T(eta, xi) = chord_inverse(P(eta, xi)); identity for straight interfaces."""
        return self.inverse(self.chart.map(eta, xi))

    def transition_jacobian(self, eta, xi):
        """DT = A^{-1} DP, shape (..., 2, 2)."""
        J = self.chart.jacobian(eta, xi)
        return np.einsum("ab,...bc->...ac", self.Ainv, J)
