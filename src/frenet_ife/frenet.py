"""Tubular (Frenet) coordinates around an interface curve.

The chart maps normal-offset coordinates (eta, xi) to physical points via
P(eta, xi) = g(xi) + eta*n(xi) and inverts the map with a damped Newton
iteration seeded from a dense polyline of the curve.  It also produces the
per-element parameter intervals of the fictitious boxes and the affine
chord charts used to probe how far P is from its linearization.
"""

from __future__ import annotations

import numpy as np

from .curves import ROT, InterfaceCurve, frenet_frame
from .errors import DegenerateChord, NewtonDivergence, OutsideValidityStrip

# Points per seed-tree query and per Newton batch.  Results do not depend on
# it (every point is processed on its own); it bounds the temporaries of a
# whole-level call, which otherwise raise the peak RSS by several MB.
_BLOCK = 2048
_NEWTON_TOL = 1e-13   # absolute tolerance on ||P(eta, xi) - x|| of the inverse map
_MAX_ITER = 40        # Newton iterations before the inverse reports divergence
_LOOP_SAMPLES = 8     # samples inside each edge of a fictitious-interval loop


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
    """

    def __init__(self, curve: InterfaceCurve, h: float):
        if h <= 0:
            raise ValueError("strip half-width h must be positive")
        kmax = curve.max_curvature
        if h * kmax >= 1.0:
            raise OutsideValidityStrip(
                f"h*max_curvature = {h * kmax:.3f} >= 1: strip not invertible")
        self.curve = curve
        self.h = float(h)

    # -- Jacobian of the forward map P ------------------------------------
    def jacobian(self, eta, xi):
        """Jacobian of P: columns (n, (1 + eta*kappa) g').  Shape (..., 2, 2);
        its determinant is ||g'|| (1 + eta*kappa)."""
        eta = np.asarray(eta, dtype=float)
        _, v, a = self.curve.jet(np.asarray(xi, dtype=float))
        _, n, kappa, _ = frenet_frame(v, a)
        return np.stack([n, (1.0 + eta * kappa)[..., None] * v], axis=-1)

    # -- polyline seed data --------------------------------------------------
    def signed_distance_estimate(self, points):
        """Polyline-based signed normal offset; sign-exact near the curve.

        Well defined everywhere (including caustics where the exact inverse
        is singular), which is what element classification needs.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        seeds = self.curve.seed_polyline
        eta = np.empty(len(pts))
        for s in range(0, len(pts), _BLOCK):
            block = pts[s:s + _BLOCK]
            eta[s:s + _BLOCK] = seeds.offset(block, seeds.tree.query(block)[1])
        return eta

    def nearest_parameter_estimate(self, points):
        """Chord-projection foot on the seed polyline (Newton initial guess)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        seeds = self.curve.seed_polyline
        xi, curve_pts = seeds.xi, seeds.points
        _, idx = seeds.tree.query(pts)
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
        """Invert P at the physical points (n, 2).

        Returns (eta, xi) with ||P(eta, xi) - point|| <= _NEWTON_TOL.  For a
        periodic curve the parameter is unwrapped near `xi_anchor` when given,
        a float or an array with one anchor per point, otherwise reduced to
        the principal interval.

        Raises
        ------
        NewtonDivergence
            If any point fails to converge within _MAX_ITER iterations.
        """
        eta, xi = self._converged(np.atleast_2d(np.asarray(points, dtype=float)))
        return eta, self._unwrap(xi, xi_anchor)

    def _converged(self, pts):
        """_newton's (eta, xi) at pts, or NewtonDivergence."""
        eta, xi, ok = self._newton(pts)
        if not np.all(ok):
            raise NewtonDivergence(
                f"{int(np.sum(~ok))} point(s) failed to invert; "
                "outside the tubular strip or mesh too coarse")
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
            _, n, kappa, _ = frenet_frame(v, a)
            return g + eta[:, None] * n - pts[idx], v, n, kappa

        xi = self.nearest_parameter_estimate(pts)
        g, v, a = c.jet(xi)
        _, n, kappa, _ = frenet_frame(v, a)
        eta = np.einsum("ij,ij->i", pts - g, n)
        res = g + eta[:, None] * n - pts

        ok = np.ones(len(pts), dtype=bool)
        active = np.arange(len(pts))
        for _ in range(_MAX_ITER):
            rnorm = np.linalg.norm(res, axis=1)
            done = rnorm <= _NEWTON_TOL
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
            ok[active] = ~(np.linalg.norm(res, axis=1) > _NEWTON_TOL)
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
        its extremes over the element are at sampled corners.  One Newton
        batch inverts all loops; each unwraps near the principal xi of its
        first point, the element's corner 0.
        """
        corners = np.asarray(corners, dtype=float)
        n_el = len(corners)
        ts = np.linspace(0.0, 1.0, _LOOP_SAMPLES + 2)[1:-1]
        a = corners[:, :, None, :]
        d = np.roll(corners, -1, axis=1)[:, :, None, :] - a
        n_loop = 4 * (_LOOP_SAMPLES + 1)
        loops = np.concatenate([a, a + ts[:, None] * d], axis=2).reshape(-1, 2)
        _, xi = self._converged(loops)
        anchor = np.repeat(self._unwrap(xi[::n_loop], None), n_loop)
        xi = self._unwrap(xi, anchor).reshape(n_el, n_loop)
        lo, hi = xi.min(axis=1), xi.max(axis=1)
        pad = 1e-10 * np.maximum(hi - lo, 1e-30)
        return lo - pad, hi + pad


def _bdot(a, b):
    """np.dot of each pair of 2-vectors of a and b (..., 2) on its own: one
    BLAS dot per row, which may fuse a multiply into the add, so a sum of
    products rounds differently.  On C-contiguous rows np.vecdot calls that
    dot per row; on other strides it may sum the products itself."""
    return np.vecdot(np.ascontiguousarray(a), np.ascontiguousarray(b))


def _bnorm(v):
    """np.linalg.norm of each 2-vector of v (..., 2) on its own: the root of
    its BLAS dot, which a row-wise norm (a sum of squares) can miss."""
    return np.sqrt(_bdot(v, v))


class ChordChart:
    """Affine stand-ins for the Frenet chart on fictitious intervals.

    Interpolates the curve linearly between g(xi0) and g(xi1) and carries
    the exact closed-form inverse of the resulting affine map.  The
    transition map T = chord_inverse o P measures how far the true chart
    is from this linearization.  xi0 and xi1 are floats, or arrays (E,)
    for a stack of E charts: A and Ainv are then (E, 2, 2) and b (E, 2),
    and point arrays carry a leading axis E.
    """

    def __init__(self, chart: FrenetChart, xi0, xi1):
        xi0, xi1 = np.asarray(xi0, dtype=float), np.asarray(xi1, dtype=float)
        if not np.all(xi1 > xi0):
            raise ValueError("need xi1 > xi0")
        self.chart = chart
        g0, g1 = chart.curve.point(xi0), chart.curve.point(xi1)
        if np.any(_bnorm(g1 - g0) < 1e-12):
            raise DegenerateChord("||g(xi1) - g(xi0)|| < 1e-12")
        d = (g1 - g0) / (xi1 - xi0)[..., None]
        n = (d / _bnorm(d)[..., None]) @ ROT.T
        # P_chord(eta, xi) = A (eta, xi)^T + b
        self.A = np.stack([n, d], axis=-1)
        self.b = g0 - xi0[..., None] * d
        self.Ainv = np.linalg.inv(self.A)

    def inverse(self, points):
        pts = np.asarray(points, dtype=float)
        return (pts - self.b[..., None, :]) @ self.Ainv.mT

    def transition_jacobian(self, eta, xi):
        """DT = A^{-1} DP, shape (..., 2, 2)."""
        J = self.chart.jacobian(eta, xi)
        return np.einsum("...ab,...pbc->...pac", self.Ainv, J)
