"""Interface-curve parametrizations with analytic derivatives to third order.

All built-in interfaces are trigonometric polynomials in the parameter, so
every derivative needed by the tubular chart and the curvilinear Laplacian
is exact to roundoff.  User-defined curves are supplied as cosine/sine
coefficient tables of the same form.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateParametrization

_SPEED_TOL = 1e-12
_SEED_POINTS = 4096   # points of a curve's seed polyline

# Rotation taking the unit tangent to the unit normal (tau rotated by -90 deg),
# so the normal points from the minus side toward the plus side.
ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


def frenet_frame(v, a):
    """The Frenet apparatus (tau, n, kappa, speed) from g' and g'' (..., 2):
    tau = g'/||g'||, n = ROT tau, signed curvature kappa = det(g', g'')/||g'||^3
    and speed ||g'||.  Raises DegenerateParametrization where ||g'|| < 1e-12."""
    s = np.linalg.norm(v, axis=-1)
    if np.any(s < _SPEED_TOL):
        raise DegenerateParametrization("||g'(xi)|| < 1e-12")
    tau = v / s[..., None]
    kappa = (v[..., 0] * a[..., 1] - v[..., 1] * a[..., 0]) / s**3
    return tau, tau @ ROT.T, kappa, s


class SeedPolyline(NamedTuple):
    """Dense samples of a curve, evenly spaced in the parameter."""

    xi: np.ndarray        # (m,) parameters
    points: np.ndarray    # (m, 2) curve points g(xi)
    normals: np.ndarray   # (m, 2) unit normals there
    tree: cKDTree         # nearest-point tree of `points`
    max_gap: float        # largest distance between consecutive points, the
                          # closing pair of a closed curve included
    orientation: float    # sign of the closed chain's shoelace area, +1 counterclockwise

    def offset(self, points, idx):
        """The offsets of points (n, 2) along the normals of their seeds idx (n,)."""
        return np.einsum("ij,ij->i", points - self.points[idx], self.normals[idx])


class InterfaceCurve:
    """A planar parametrized curve g : [xi_start, xi_end] -> R^2.

    Subclasses implement ``point``, ``velocity``, ``accel`` and ``jerk``
    (g and its first three derivatives), each vectorized over the parameter,
    and may override ``jet`` to share work between the first three.

    Parameters
    ----------
    xi_start, xi_end : float
        Parameter interval.  For a closed (Jordan) curve the endpoints map
        to the same point and the parametrization extends periodically.
    periodic : bool
        Whether the curve is closed with period ``xi_end - xi_start``.
    """

    def __init__(self, xi_start: float, xi_end: float, periodic: bool):
        self.xi_start = float(xi_start)
        self.xi_end = float(xi_end)
        self.periodic = bool(periodic)
        self._max_curvature = None
        self._seed_polyline = None

    # -- derivatives, implemented by subclasses ---------------------------
    def point(self, xi):
        raise NotImplementedError

    def velocity(self, xi):
        raise NotImplementedError

    def accel(self, xi):
        raise NotImplementedError

    def jerk(self, xi):
        raise NotImplementedError

    def jet(self, xi):
        """(g, g', g'') at xi, bit-identical to point, velocity and accel."""
        return self.point(xi), self.velocity(xi), self.accel(xi)

    # ----------------------------------------------------------------------
    @property
    def period(self) -> float:
        return self.xi_end - self.xi_start

    @property
    def max_curvature(self) -> float:
        """Upper bound on |curvature|, sampled densely once and cached."""
        if self._max_curvature is None:
            xi = np.linspace(self.xi_start, self.xi_end, 8192, endpoint=False)
            _, _, kappa, _ = frenet_frame(self.velocity(xi), self.accel(xi))
            self._max_curvature = float(np.max(np.abs(kappa)))
        return self._max_curvature

    @property
    def seed_polyline(self) -> SeedPolyline:
        """The curve's seed polyline, built once: the sign field of element
        classification and the Newton seeds of every chart on this curve."""
        if self._seed_polyline is None:
            xi = np.linspace(self.xi_start, self.xi_end, _SEED_POINTS, endpoint=not self.periodic)
            pts = self.point(xi)
            _, normals, _, _ = frenet_frame(self.velocity(xi), self.accel(xi))
            chain = np.vstack([pts, pts[:1]]) if self.periodic else pts
            gap = float(np.max(np.linalg.norm(np.diff(chain, axis=0), axis=1)))
            area = np.sum(chain[:-1, 0] * chain[1:, 1] - chain[1:, 0] * chain[:-1, 1])
            self._seed_polyline = SeedPolyline(xi, pts, normals, cKDTree(pts), gap, np.sign(area))
        return self._seed_polyline


class TrigCurve(InterfaceCurve):
    """Closed curve whose components are trigonometric polynomials.

    x(xi) = sum_k ax[k] cos(k xi) + bx[k] sin(k xi), same for y with ay/by.
    Period is 2*pi.
    """

    def __init__(self, ax, bx, ay, by):
        super().__init__(0.0, 2.0 * np.pi, periodic=True)
        n = max(len(ax), len(bx), len(ay), len(by))

        def pad(c):
            out = np.zeros(n)
            out[: len(c)] = c
            return out

        self.ax, self.bx = pad(ax), pad(bx)
        self.ay, self.by = pad(ay), pad(by)
        self._k = np.arange(n, dtype=float)

    def _cos_sin(self, xi):
        th = np.multiply.outer(np.asarray(xi, dtype=float), self._k)
        return np.cos(th), np.sin(th)

    def _eval(self, cos_sin, order: int):
        cos, sin = cos_sin
        kp = self._k**order
        # d/dxi rotates (cos, sin) -> (-k sin, k cos); apply `order` times.
        if order % 4 == 0:
            cc, ss = cos, sin
        elif order % 4 == 1:
            cc, ss = -sin, cos
        elif order % 4 == 2:
            cc, ss = -cos, -sin
        else:
            cc, ss = sin, -cos
        # einsum sums each row in a fixed order; BLAS rounds a row differently
        # depending on the batch it sits in
        x = (np.einsum("...k,k->...", cc, kp * self.ax)
             + np.einsum("...k,k->...", ss, kp * self.bx))
        y = (np.einsum("...k,k->...", cc, kp * self.ay)
             + np.einsum("...k,k->...", ss, kp * self.by))
        return np.stack([x, y], axis=-1)

    def point(self, xi):
        return self._eval(self._cos_sin(xi), 0)

    def velocity(self, xi):
        return self._eval(self._cos_sin(xi), 1)

    def accel(self, xi):
        return self._eval(self._cos_sin(xi), 2)

    def jerk(self, xi):
        return self._eval(self._cos_sin(xi), 3)

    def jet(self, xi):
        cos_sin = self._cos_sin(xi)
        return tuple(self._eval(cos_sin, order) for order in range(3))


class LineCurve(InterfaceCurve):
    """Straight interface g(xi) = origin + xi * direction (not closed)."""

    def __init__(self, origin, direction, xi_start: float = -10.0, xi_end: float = 10.0):
        super().__init__(xi_start, xi_end, periodic=False)
        self.origin = np.asarray(origin, dtype=float)
        self.direction = np.asarray(direction, dtype=float)
        if np.linalg.norm(self.direction) < _SPEED_TOL:
            raise DegenerateParametrization("zero direction vector")
        self._max_curvature = 0.0

    def _broadcast(self, xi, vec):
        xi = np.asarray(xi, dtype=float)
        return np.broadcast_to(vec, xi.shape + (2,)).copy()

    def point(self, xi):
        xi = np.asarray(xi, dtype=float)
        return self.origin + np.multiply.outer(xi, self.direction)

    def velocity(self, xi):
        return self._broadcast(xi, self.direction)

    def accel(self, xi):
        return self._broadcast(xi, np.zeros(2))

    def jerk(self, xi):
        return self._broadcast(xi, np.zeros(2))


def circle(radius: float, center=(0.0, 0.0)) -> TrigCurve:
    """Circle of given radius traversed counterclockwise."""
    cx, cy = center
    return TrigCurve(ax=[cx, radius], bx=[0.0, 0.0], ay=[cy, 0.0], by=[0.0, radius])


def ellipse(a: float, b: float, center=(0.0, 0.0)) -> TrigCurve:
    """Axis-aligned ellipse with semi-axes a (x) and b (y)."""
    cx, cy = center
    return TrigCurve(ax=[cx, a], bx=[0.0, 0.0], ay=[cy, 0.0], by=[0.0, b])


def flower(r0: float, amp: float, petals: int, center=(0.0, 0.0)) -> TrigCurve:
    """Polar-graph curve r(theta) = r0 + amp*cos(petals*theta).

    Expanded into a trigonometric polynomial via product-to-sum identities,
    keeping all derivatives analytic.
    """
    k = int(petals)
    cx, cy = center
    n = k + 2
    ax = np.zeros(n)
    by = np.zeros(n)
    ax[0], ax[1] = cx, r0
    by[1] = r0
    # (amp cos(k t)) cos t = amp/2 (cos((k+1)t) + cos((k-1)t))
    ax[k + 1] += amp / 2.0
    ax[abs(k - 1)] += amp / 2.0
    # (amp cos(k t)) sin t = amp/2 (sin((k+1)t) - sin((k-1)t))
    by[k + 1] += amp / 2.0
    by[abs(k - 1)] -= amp / 2.0
    ay = np.zeros(n)
    ay[0] = cy
    return TrigCurve(ax=ax, bx=np.zeros(n), ay=ay, by=by)


_CURVE_KEYS = {"circle": {"radius", "center"}, "ellipse": {"a", "b", "center"},
               "flower": {"r0", "amp", "petals", "center"}, "trig": {"ax", "bx", "ay", "by"},
               "line": {"origin", "direction", "xi_start", "xi_end"}}


def curve_from_config(spec: dict) -> InterfaceCurve:
    """Build a curve from a config block {"kind": ..., parameters...}; raises
    ValueError on an unknown kind or on a key that its kind does not read."""
    kind = spec["kind"]
    if kind not in _CURVE_KEYS:
        raise ValueError(f"unknown interface kind {kind!r}")
    unknown = sorted(set(spec) - _CURVE_KEYS[kind] - {"kind"})
    if unknown:
        raise ValueError(f"unknown interface key {unknown[0]!r} for kind {kind!r}")
    if kind == "circle":
        return circle(spec["radius"], tuple(spec.get("center", (0.0, 0.0))))
    if kind == "ellipse":
        return ellipse(spec["a"], spec["b"], tuple(spec.get("center", (0.0, 0.0))))
    if kind == "flower":
        return flower(spec["r0"], spec["amp"], spec["petals"],
                      tuple(spec.get("center", (0.0, 0.0))))
    if kind == "trig":
        return TrigCurve(spec["ax"], spec["bx"], spec["ay"], spec["by"])
    return LineCurve(spec["origin"], spec["direction"],
                     spec.get("xi_start", -10.0), spec.get("xi_end", 10.0))
