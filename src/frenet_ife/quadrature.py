"""Quadrature rules: tensor Gauss on rectangles, split rules on cut edges,
curved-region rules on the two pieces of an interface element, and 1D rules
along the interface parameter.

Cut elements are partitioned into straight triangles plus one piece with a
single curved side lying exactly on the interface parametrization; every
piece is mapped from the unit square and integrated with tensor
Gauss-Legendre, so the two sides tile the element exactly.  The rules of
all interface elements of a level come from one kernel, with the arithmetic
of one element at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DegeneratePartition
from .frenet import FrenetChart, _bdot, _bnorm
from .mesh import InterfaceCuts, RectMesh


@dataclass
class QuadRule:
    """Points (physical or parameter coordinates) and weights."""

    points: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=64)
def _gauss01(q: int):
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = leggauss(q)
    return 0.5 * (x + 1.0), 0.5 * w


def gauss_interval(a: float, b: float, q: int) -> QuadRule:
    """1D Gauss rule on [a, b] (one per row for ends shaped (E, 1)), exact for degree 2q-1."""
    x, w = _gauss01(q)
    return QuadRule(points=a + (b - a) * x, weights=(b - a) * w)


def gauss_rect(box, q: int) -> QuadRule:
    """Tensor Gauss rule on a rectangle (xl, yl, xh, yh), exact on Q^{2q-1};
    with arrays of corners, one rule per rectangle, stacked on a leading axis.

    Point i*q + j sits at the i-th node in x and the j-th in y.
    """
    xl, yl, xh, yh = (np.asarray(c, dtype=float)[..., None] for c in box)
    x, wx = _gauss01(q)
    px = (xl + (xh - xl) * x)[..., :, None]
    py = (yl + (yh - yl) * x)[..., None, :]
    W = (wx * (xh - xl))[..., :, None] * (wx * (yh - yl))[..., None, :]
    lead = W.shape[:-2]
    return QuadRule(points=np.stack(np.broadcast_arrays(px, py), axis=-1).reshape(*lead, q * q, 2),
                    weights=W.reshape(*lead, q * q))


@dataclass
class EdgeSegment:
    """Sub-rule of an edge between two consecutive cut parameters."""

    points: np.ndarray
    weights: np.ndarray
    t0: float
    t1: float


def cut_edge_rule(a, b, cut_ts, q: int) -> list[EdgeSegment]:
    """Gauss rules on the pieces of edge a->b split at parameters `cut_ts`;
    a piece shorter than 1e-14 in t is dropped."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    length = np.linalg.norm(b - a)
    x, w = _gauss01(q)
    knots = [0.0] + sorted(float(t) for t in cut_ts) + [1.0]
    segs = []
    for t0, t1 in zip(knots[:-1], knots[1:]):
        if not t1 - t0 < 1e-14:
            tq = t0 + (t1 - t0) * x
            pts = a + tq[:, None] * (b - a)
            segs.append(EdgeSegment(points=pts, weights=(t1 - t0) * length * w, t0=t0, t1=t1))
    return segs


# ----------------------------------------------------------------------------
# cut-cell pieces
#
# Every helper below works on a stack of regions (leading axes) with the
# arithmetic of one region: the level kernel runs it on all pending regions
# of a level at once.


@lru_cache(maxsize=64)
def _square01(q: int):
    """Tensor Gauss nodes u, v and weights on the unit square, point i*q + j
    at the i-th node in u and the j-th in v."""
    x, w = _gauss01(q)
    U, V = np.meshgrid(x, x, indexing="ij")
    WU, WV = np.meshgrid(w, w, indexing="ij")
    return U.ravel(), V.ravel(), (WU * WV).ravel()


_SWEEP = np.linspace(0.0, 1.0, 33)   # arc samples of the star-shape test


def _arc(chart, xi_s, xi_e, u):
    """Points g and scaled tangents (xi_e - xi_s) g' of the arcs g([xi_s,
    xi_e]) (...) at xi_s + u (xi_e - xi_s): (..., len(u), 2) each, from one
    curve call each on the flattened parameters."""
    xi_s = np.asarray(xi_s, dtype=float)[..., None]
    d = np.asarray(xi_e, dtype=float)[..., None] - xi_s
    xi = (xi_s + u * d).ravel()
    shape = d.shape[:-1] + (len(u), 2)
    return (chart.curve.point(xi).reshape(shape),
            chart.curve.velocity(xi).reshape(shape) * d[..., None])


def _tri_rule(A, B, C, q):
    """Tensor Gauss on straight triangles via the collapsed-square map, one
    per row of the corners (..., 2): points (..., q*q, 2), weights and
    Jacobians (..., q*q)."""
    u, v, ww = _square01(q)
    A, B, C = (np.asarray(p, dtype=float)[..., None, :] for p in (A, B, C))
    du = (1.0 - v)[:, None] * (B - A) + v[:, None] * (C - A)
    dv = u[:, None] * (C - B)
    pts = A + u[:, None] * du
    det = du[..., 0] * dv[..., 1] - du[..., 1] * dv[..., 0]
    return pts, ww * np.abs(det), det


def _cone_rule(A, g, gp, q):
    """Tensor Gauss on the cones from apexes A (..., 2) over arcs given by
    their points g and scaled tangents gp at the nodes xi_s + u (xi_e - xi_s)
    of _square01 (..., q*q, 2), leading axes broadcast: points, weights and
    Jacobians over v."""
    u, v, ww = _square01(q)
    A = np.asarray(A, dtype=float)[..., None, :]
    du = v[:, None] * gp
    dv = g - A
    pts = (1.0 - v)[:, None] * A + v[:, None] * g
    det = du[..., 0] * dv[..., 1] - du[..., 1] * dv[..., 0]
    return pts, ww * np.abs(det), det / np.where(v > 0, v, 1.0)


def _cone_sign_ok(det):
    lo, hi = det.min(axis=-1), det.max(axis=-1)
    return lo * hi >= -1e-14 * np.maximum(abs(lo), abs(hi))


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _anchor_ok(A, verts, g, gp):
    """Certify that a region is star-shaped from each anchor A (..., C, 2).

    Every boundary segment of the polyline verts (..., nv, 2), padded by
    repeating its last vertex, and the arc, sampled by its points g and
    scaled tangents gp (..., 33, 2), must sweep counterclockwise around the
    anchor; that makes the polar fan a disjoint exact tiling.  The tolerance
    is 1e-13 of the squared longest side, each side's norm rounding as
    np.linalg.norm of a lone side and each square as a float's ** 2 (an
    array's ** 2 multiplies).  Returns (..., C).
    """
    longest = _bnorm(np.diff(verts, axis=-2)).max(axis=-1)
    scale = np.reshape([max(s, 1e-300) ** 2 for s in longest.ravel().tolist()], longest.shape)
    tol = (-1e-13 * scale)[..., None, None]
    A = np.asarray(A, dtype=float)[..., None, :]
    bad = _cross(verts[..., None, :-1, :] - A, verts[..., None, 1:, :] - A) < tol
    sweep = _cross(g[..., None, :, :] - A, gp[..., None, :, :])
    return ~np.any(bad, axis=-1) & np.all(sweep >= tol, axis=-1)


def _tangent_intersection(g, v):
    """Intersections of arcs' end tangent lines (crescent kernels), from their
    end points g and velocities v (R, 2, 2): points (R, 2) and whether each
    exists; none where the tangents are near parallel or meet far away."""
    det = v[:, 0, 0] * (-v[:, 1, 1]) - (-v[:, 1, 0]) * v[:, 0, 1]
    rhs = g[:, 1] - g[:, 0]
    span = _bnorm(rhs)
    speeds = _bnorm(v[:, 0]) * _bnorm(v[:, 1])
    parallel = np.abs(det) < 1e-10 * np.where(speeds > 1.0, speeds, 1.0)
    a = (rhs[:, 0] * (-v[:, 1, 1]) - (-v[:, 1, 0]) * rhs[:, 1]) / np.where(parallel, 1.0, det)
    p = g[:, 0] + a[:, None] * v[:, 0]
    far = _bnorm(p - g[:, 0]) > 10.0 * np.where(1e-30 > span, 1e-30, span)
    return p, ~(parallel | far)


def _first_candidates(verts, nv, xi_s, xi_e, chart):
    """The first two star anchors to try for each of R regions bounded by the
    first nv (R,) of its vertices verts (R, k, 2) and the arc g([xi_s, xi_e]):
    the centroid of those vertices and 9 arc points, summed row by row as
    np.mean sums, and the intersection of the arc's end tangents or, where
    there is none, the first vertex.  (R, 2, 2)."""
    nodes = xi_s[:, None] + np.arange(9.0) * ((xi_e - xi_s) / 8.0)[:, None]
    nodes[:, -1] = xi_e                          # np.linspace(xi_s, xi_e, 9)
    arc = chart.curve.point(nodes.ravel()).reshape(-1, 9, 2)
    total = verts[:, 0]
    for k in range(1, verts.shape[1]):           # -0.0 adds nothing, exactly
        total = total + np.where((k < nv)[:, None], verts[:, k], -0.0)
    for k in range(9):
        total = total + arc[:, k]
    ends = np.stack([xi_s, xi_e], axis=-1).ravel()
    tangent, meets = _tangent_intersection(chart.curve.point(ends).reshape(-1, 2, 2),
                                           chart.curve.velocity(ends).reshape(-1, 2, 2))
    return np.stack([total / (nv + 9)[:, None],
                     np.where(meets[:, None], tangent, verts[:, 0])], axis=1)


def _closest_on_polyline(verts, nv, p):
    """(segment index, point) of the point nearest to p (R, 2) on each
    polyline of the first nv (R,) of verts (R, k, 2), the first nearest
    segment winning as in a loop over them."""
    a, ab = verts[:, :-1], np.diff(verts, axis=1)
    denom = _bdot(ab, ab)
    t = np.where(denom == 0.0, 0.0, np.clip(_bdot(p[:, None] - a, ab)
                                            / np.where(denom == 0.0, 1.0, denom), 0.0, 1.0))
    near = a + t[..., None] * ab
    d = np.where(np.arange(ab.shape[1]) < (nv - 1)[:, None], _bnorm(near - p[:, None]), np.inf)
    j = np.argmin(d, axis=1)
    return j, near[np.arange(len(j)), j]


def _regions(mesh: RectMesh, cuts: InterfaceCuts):
    """The two regions of each interface element of the record, element by
    element: their boundary chains verts (2E, 6, 2), padded with the last
    vertex, their vertex counts nv and their arcs' ends xi_s, xi_e (2E,).
    The counterclockwise walk around an element passes each corner, then the
    cuts on the edge that starts there; its first cut to its second bounds
    region 0, and its second back to its first region 1.
    """
    side = np.argmax(mesh.elem_edges[cuts.elements][:, None, :] == cuts.edge[..., None], axis=2)
    # the order along the walk, on which the top and left edges run backwards
    first = np.lexsort((np.where(side >= 2, 1.0 - cuts.t, cuts.t), side))
    side, xi = np.take_along_axis(side, first, axis=1), np.take_along_axis(cuts.xi, first, axis=1)
    point = np.take_along_axis(cuts.point, first[..., None], 1)
    pool = np.concatenate([mesh.elem_corners(cuts.elements), point], axis=1)
    between = (side[:, 1] - side[:, 0])[:, None, None]
    inner = np.concatenate([between, 4 - between], axis=1)    # corners of each region
    i = np.arange(6)                                          # pool: corners 0..3, cuts 4, 5
    at = np.where(i == 0, [[4], [5]], np.where(i <= inner, (side[..., None] + i) % 4, [[5], [4]]))
    verts = np.take_along_axis(pool[:, None], at[..., None], axis=2).reshape(-1, 6, 2)
    return verts, (inner + 2).ravel(), xi[:, ::-1].ravel(), xi.ravel()


_MAX_SPLITS = 4   # halvings of a region before its element is given up


def level_cut_cell_rules(mesh: RectMesh, cuts: InterfaceCuts, chart: FrenetChart, q: int):
    """The rules of cut_cell_rules for every interface element of the
    record, built together: (points (P, 2), weights, eta, xi (P,), count
    (2E,)), the regions in turn, each element's plus region then its minus
    region, count[r] points each, with the chart coordinates eta and xi of
    every point.

    Each element has two regions, bounded by a chain of its boundary and
    the interface arc between its cuts; verts[0] of a chain coincides with
    g(xi_e) and verts[-1] with g(xi_s), so the counterclockwise boundary
    walks the polyline then the arc back.  Each round tries all pending
    regions at once.  A region's candidate anchors are the two of
    _first_candidates, then its vertices; the first that passes _anchor_ok
    and whose cone Jacobian keeps its sign anchors a fan of triangles plus
    one cone over the arc.  A region no candidate sees (a thin crescent) is
    split at its arc midpoint and the nearest polyline point, and both
    halves join the next round; a region's points are those of its leaves,
    first half first, each fan then cone.

    One chart inverse at the points of all regions, each xi unwrapped at
    its element's interval midpoint, labels each region by the sign of eta
    at its point of largest |eta|.  The region lies on one side of the
    interface, and that point lies farthest from it.  Raises
    DegeneratePartition naming the first element with a region no anchor
    sees after _MAX_SPLITS halvings, then NewtonDivergence when a point does
    not invert, then DegeneratePartition naming the first element with both
    regions on one side.
    """
    verts, nv, xi_s, xi_e = _regions(mesh, cuts)
    # each pending region's root region and the place of its leaf in a full
    # binary split: root * 2**_MAX_SPLITS + code orders leaves as their paths
    root, code = np.arange(len(nv)), np.zeros(len(nv), dtype=int)
    pieces, failed = [], np.zeros(len(nv), dtype=bool)    # per round: (key, points, weights)
    for depth in range(_MAX_SPLITS + 1):
        k = nv.max()
        verts = verts[:, :k]
        candidates = np.concatenate([_first_candidates(verts, nv, xi_s, xi_e, chart), verts],
                                    axis=1)
        g, gp = _arc(chart, xi_s, xi_e, _square01(q)[0])
        cone_pts, cone_w, det = _cone_rule(candidates, g[:, None], gp[:, None], q)
        ok = _anchor_ok(candidates, verts, *_arc(chart, xi_s, xi_e, _SWEEP)) & _cone_sign_ok(det)
        rows, pick = np.arange(len(nv)), np.argmax(ok, axis=1)
        tri_pts, tri_w, _ = _tri_rule(candidates[rows, pick][:, None], verts[:, :-1],
                                      verts[:, 1:], q)
        # a seen region's pieces: its nv - 1 triangles, then the cone
        seen, slot = ok.any(axis=1), np.arange(k)
        take = seen[:, None] & ((slot < (nv - 1)[:, None]) | (slot == k - 1))
        pieces.append((np.broadcast_to((root * 2**_MAX_SPLITS + code)[:, None], take.shape)[take],
                       np.concatenate([tri_pts, cone_pts[rows, pick][:, None]], axis=1)[take],
                       np.concatenate([tri_w, cone_w[rows, pick][:, None]], axis=1)[take]))
        if depth == _MAX_SPLITS or seen.all():
            failed[root[~seen]] = True
            break
        # the halves [m_pt, p_star, *vs[j + 1:]] on [s, xi_m] and
        # [*vs[:j + 1], p_star, m_pt] on [xi_m, t], padded as verts is
        vs, n, s, t = verts[~seen], nv[~seen], xi_s[~seen], xi_e[~seen]
        xi_m = 0.5 * (s + t)
        m_pt = chart.curve.point(xi_m)
        j, p_star = _closest_on_polyline(vs, n, m_pt)
        ext = np.concatenate([vs, p_star[:, None], m_pt[:, None]], axis=1)   # at k, k + 1
        i, jc, last = np.arange(k + 1), j[:, None], n[:, None] - 1
        lower = np.where(i == 0, k + 1, np.where(i == 1, k, np.minimum(jc + i - 1, last)))
        upper = np.where(i <= jc, i, np.where(i == jc + 1, k, k + 1))
        verts = np.take_along_axis(ext[:, None], np.stack([lower, upper], axis=1)[..., None],
                                   axis=2).reshape(-1, k + 1, 2)
        nv = np.stack([n - j + 1, j + 3], axis=1).ravel()
        xi_s, xi_e = np.stack([s, xi_m], axis=1).ravel(), np.stack([xi_m, t], axis=1).ravel()
        root = np.repeat(root[~seen], 2)
        code = (code[~seen, None] + [0, 2**(_MAX_SPLITS - 1 - depth)]).ravel()

    given_up = np.flatnonzero(failed.reshape(-1, 2).any(axis=1))
    if len(given_up):
        raise DegeneratePartition(f"element {cuts.elements[given_up[0]]}: "
                                  "no star-shaped anchor found for a cut region")
    key, pts, w = (np.concatenate(part) for part in zip(*pieces))
    order = np.argsort(key, kind="stable")               # each region's leaves in turn
    pts, w = pts[order].reshape(-1, 2), w[order].ravel()
    count = np.bincount(key // 2**_MAX_SPLITS, minlength=len(failed)) * (q * q)
    lo, hi = cuts.interval.T
    eta, xi = chart.inverse(pts, xi_anchor=np.repeat(0.5 * (lo + hi), count.reshape(-1, 2).sum(1)))
    # each region's first point of largest |eta|
    start, mag = np.cumsum(count) - count, np.abs(eta)
    region = np.repeat(np.arange(len(count)), count)
    deep = np.flatnonzero(mag == np.repeat(np.maximum.reduceat(mag, start), count))
    side = np.where(eta[deep[np.unique(region[deep], return_index=True)[1]]] > 0, 1, -1)
    same = np.flatnonzero(side[0::2] == side[1::2])
    if len(same):
        raise DegeneratePartition(
            f"element {cuts.elements[same[0]]}: both sub-regions landed on the same side")
    # the plus region of each element first, gathered from the region starts
    plus = np.arange(len(count)) ^ (side[0::2] < 0).repeat(2)
    count = count[plus]
    at = np.arange(len(pts)) + np.repeat(start[plus] - (np.cumsum(count) - count), count)
    return pts[at], w[at], eta[at], xi[at], count


def cut_cell_rules(mesh: RectMesh, e: int, cuts: InterfaceCuts,
                   chart: FrenetChart, q: int) -> dict:
    """Quadrature over the two curved sub-regions of interface element `e`
    of the record `cuts`.

    Returns {+1: QuadRule, -1: QuadRule} in physical coordinates.  Pieces:
    a fan of straight triangles from a star anchor plus one piece whose
    curved side lies on the interface arc between the cuts.
    """
    row = cuts._make(a[cuts.elements == e] for a in cuts)
    pts, w, _, _, (n, _) = level_cut_cell_rules(mesh, row, chart, q)
    return {1: QuadRule(pts[:n], w[:n]), -1: QuadRule(pts[n:], w[n:])}
