"""Quadrature rules: tensor Gauss on rectangles, split rules on cut edges,
curved-region rules on the two pieces of an interface element, and 1D rules
along the interface parameter.

Cut elements are partitioned into straight triangles plus one piece with a
single curved side lying exactly on the interface parametrization; every
piece is mapped from the unit square and integrated with tensor
Gauss-Legendre, so the two sides tile the element exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DegeneratePartition
from .frenet import FrenetChart
from .mesh import ElementTag, RectMesh


@dataclass
class QuadRule:
    """Points (physical or parameter coordinates), weights, exactness degree."""

    points: np.ndarray
    weights: np.ndarray
    degree: int


@lru_cache(maxsize=64)
def _gauss01(q: int):
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = leggauss(q)
    return 0.5 * (x + 1.0), 0.5 * w


def gauss_interval(a: float, b: float, q: int) -> QuadRule:
    """1D Gauss rule on [a, b], exact for degree 2q-1."""
    x, w = _gauss01(q)
    return QuadRule(points=a + (b - a) * x, weights=(b - a) * w, degree=2 * q - 1)


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
                    weights=W.reshape(*lead, q * q), degree=2 * q - 1)


@dataclass
class EdgeSegment:
    """Sub-rule of an edge between two consecutive cut parameters."""

    points: np.ndarray
    weights: np.ndarray
    t0: float
    t1: float


def edge_spans(cut_ts) -> list[tuple[float, float]]:
    """(t0, t1) of the pieces of an edge split at parameters `cut_ts`."""
    knots = [0.0] + sorted(float(t) for t in cut_ts) + [1.0]
    return [(t0, t1) for t0, t1 in zip(knots[:-1], knots[1:]) if not t1 - t0 < 1e-14]


def cut_edge_rule(a, b, cut_ts, q: int) -> list[EdgeSegment]:
    """Gauss rules on the pieces of edge a->b split at parameters `cut_ts`."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    length = np.linalg.norm(b - a)
    x, w = _gauss01(q)
    segs = []
    for t0, t1 in edge_spans(cut_ts):
        tq = t0 + (t1 - t0) * x
        pts = a + tq[:, None] * (b - a)
        segs.append(EdgeSegment(points=pts, weights=(t1 - t0) * length * w,
                                t0=t0, t1=t1))
    return segs


# ----------------------------------------------------------------------------
# cut-cell pieces


def _tri_rule(A, B, C, q):
    """Tensor Gauss on a straight triangle via the collapsed-square map."""
    x, w = _gauss01(q)
    U, V = np.meshgrid(x, x, indexing="ij")
    WU, WV = np.meshgrid(w, w, indexing="ij")
    u, v = U.ravel(), V.ravel()
    ww = (WU * WV).ravel()
    A, B, C = (np.asarray(p, dtype=float) for p in (A, B, C))
    du = (1.0 - v)[:, None] * (B - A) + v[:, None] * (C - A)
    dv = u[:, None] * (C - B)
    pts = A + u[:, None] * du
    det = du[:, 0] * dv[:, 1] - du[:, 1] * dv[:, 0]
    return pts, ww * np.abs(det), det


def _cone_rule(A, chart, xi_s, xi_e, q):
    """Tensor Gauss on the cone from apex A over the arc g([xi_s, xi_e])."""
    x, w = _gauss01(q)
    U, V = np.meshgrid(x, x, indexing="ij")
    WU, WV = np.meshgrid(w, w, indexing="ij")
    u, v = U.ravel(), V.ravel()
    ww = (WU * WV).ravel()
    A = np.asarray(A, dtype=float)
    xi = xi_s + u * (xi_e - xi_s)
    g = chart.curve.point(xi)
    gp = chart.curve.velocity(xi) * (xi_e - xi_s)
    du = v[:, None] * gp
    dv = g - A
    pts = (1.0 - v)[:, None] * A + v[:, None] * g
    det = du[:, 0] * dv[:, 1] - du[:, 1] * dv[:, 0]
    return pts, ww * np.abs(det), det / np.where(v > 0, v, 1.0)


def _cone_sign_ok(det):
    return det.min() * det.max() >= -1e-14 * max(abs(det.min()), abs(det.max()))


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _anchor_ok(A, verts, chart, xi_s, xi_e):
    """Certify that the region is star-shaped from A.

    Every boundary segment and the arc must sweep counterclockwise around
    the anchor; that makes the polar fan a disjoint exact tiling.
    """
    scale = max(float(np.linalg.norm(verts[i + 1] - verts[i]))
                for i in range(len(verts) - 1))
    scale = max(scale, 1e-300) ** 2
    for i in range(len(verts) - 1):
        if _cross(verts[i] - A, verts[i + 1] - A) < -1e-13 * scale:
            return False
    u = np.linspace(0.0, 1.0, 33)
    xi = xi_s + u * (xi_e - xi_s)
    g = chart.curve.point(xi)
    gp = chart.curve.velocity(xi) * (xi_e - xi_s)
    sweep = _cross(g - A, gp)
    return bool(np.all(sweep >= -1e-13 * scale))


def _curved_piece(apex, chart, xi_s, xi_e, q, depth=0):
    """Cone piece over an arc, splitting the arc if the Jacobian flips sign.

    The split replaces the cone by two sub-cones plus the straight triangle
    (apex, g(xi_s), g(xi_mid)), which tile the same region whenever each
    sub-piece is itself star-shaped from its apex.
    """
    pts, w, det = _cone_rule(apex, chart, xi_s, xi_e, q)
    if not _cone_sign_ok(det):
        if depth >= 3:
            raise DegeneratePartition("curved piece Jacobian changes sign")
        xi_m = 0.5 * (xi_s + xi_e)
        g_m = chart.curve.point(np.asarray(xi_m, dtype=float))
        p1, w1 = _curved_piece(g_m, chart, xi_s, xi_m, q, depth + 1)
        p2, w2 = _curved_piece(apex, chart, xi_m, xi_e, q, depth + 1)
        p3, w3, _ = _tri_rule(apex, chart.curve.point(np.asarray(xi_s, dtype=float)),
                              g_m, q)
        return np.vstack([p1, p2, p3]), np.concatenate([w1, w2, w3])
    return pts, w


def _tangent_intersection(chart, xi_s, xi_e):
    """Intersection of the arc's endpoint tangent lines (crescent kernel)."""
    g = chart.curve.point(np.asarray([xi_s, xi_e], dtype=float))
    v = chart.curve.velocity(np.asarray([xi_s, xi_e], dtype=float))
    det = v[0, 0] * (-v[1, 1]) - (-v[1, 0]) * v[0, 1]
    span = np.linalg.norm(g[1] - g[0])
    if abs(det) < 1e-10 * max(1.0, np.linalg.norm(v[0]) * np.linalg.norm(v[1])):
        return None
    rhs = g[1] - g[0]
    a = (rhs[0] * (-v[1, 1]) - (-v[1, 0]) * rhs[1]) / det
    p = g[0] + a * v[0]
    if np.linalg.norm(p - g[0]) > 10.0 * max(span, 1e-30):
        return None
    return p


def _closest_on_polyline(verts, p):
    """(segment index, parameter, point) of the polyline point nearest to p."""
    best = (0, 0.0, verts[0], np.inf)
    for j in range(len(verts) - 1):
        a, b = verts[j], verts[j + 1]
        ab = b - a
        denom = float(ab @ ab)
        t = 0.0 if denom == 0.0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
        q = a + t * ab
        d = float(np.linalg.norm(q - p))
        if d < best[3]:
            best = (j, t, q, d)
    return best[0], best[1], best[2]


def _region_rule(verts, xi_s, xi_e, chart, q, depth=0):
    """Quadrature over the region bounded by a polyline and one arc.

    Convention: verts[0] coincides with g(xi_e) and verts[-1] with g(xi_s);
    the counterclockwise boundary walks the polyline then the arc back.  A
    star-shaped anchor gives a polar fan; thin crescents, where no single
    anchor sees everything, are split at the arc midpoint and the nearest
    polyline point.
    """
    verts = [np.asarray(v, dtype=float) for v in verts]
    arc_pts = chart.curve.point(np.linspace(xi_s, xi_e, 9))
    candidates = [np.mean(np.vstack([verts, arc_pts]), axis=0)]
    ti = _tangent_intersection(chart, xi_s, xi_e)
    if ti is not None:
        candidates.append(ti)
    candidates.extend(verts)
    anchor = None
    for cand in candidates:
        if _anchor_ok(cand, verts, chart, xi_s, xi_e):
            anchor = cand
            break
    if anchor is None:
        if depth >= 4:
            raise DegeneratePartition(
                "no star-shaped anchor found for a cut region")
        xi_m = 0.5 * (xi_s + xi_e)
        m_pt = chart.curve.point(np.asarray(xi_m, dtype=float))
        j, t, p_star = _closest_on_polyline(verts, m_pt)
        verts1 = [m_pt, p_star, *verts[j + 1:]]
        verts2 = [*verts[:j + 1], p_star, m_pt]
        p1, w1 = _region_rule(verts1, xi_s, xi_m, chart, q, depth + 1)
        p2, w2 = _region_rule(verts2, xi_m, xi_e, chart, q, depth + 1)
        return np.vstack([p1, p2]), np.concatenate([w1, w2])
    pts_list, w_list = [], []
    for i in range(len(verts) - 1):
        p, w, _ = _tri_rule(anchor, verts[i], verts[i + 1], q)
        pts_list.append(p)
        w_list.append(w)
    p, w = _curved_piece(anchor, chart, xi_s, xi_e, q)
    pts_list.append(p)
    w_list.append(w)
    return np.vstack(pts_list), np.concatenate(w_list)


def _boundary_chains(mesh: RectMesh, e: int, tag: ElementTag):
    """Split the ccw boundary walk of element e at its two cut points.

    Returns two chains, each a dict with the ordered interior corners
    between the cuts, the start/end cut records, and the list of corner
    points.  Chain boundary order: cut_start -> corners... -> cut_end.
    """
    corners = mesh.elem_corners(e)
    edge_ids = mesh.elem_edges[e]          # bottom, right, top, left
    reversed_edge = [False, False, True, True]
    nodes = []                             # (point, cut_or_None)
    for k in range(4):
        nodes.append((corners[k], None))
        on_edge = [c for c in tag.cuts if c.edge == edge_ids[k]]
        t_ccw = [(1.0 - c.t if reversed_edge[k] else c.t, c) for c in on_edge]
        for _, c in sorted(t_ccw, key=lambda p: p[0]):
            nodes.append((c.point, c))
    cut_pos = [i for i, (_, c) in enumerate(nodes) if c is not None]
    assert len(cut_pos) == 2
    i1, i2 = cut_pos
    n = len(nodes)
    chain_a = [nodes[(i1 + k) % n] for k in range(0, (i2 - i1) % n + 1)]
    chain_b = [nodes[(i2 + k) % n] for k in range(0, (i1 - i2) % n + 1)]
    return chain_a, chain_b


def cut_cell_rules(mesh: RectMesh, e: int, tag: ElementTag,
                   chart: FrenetChart, q: int) -> dict:
    """Quadrature over the two curved sub-regions of interface element `e`.

    Returns {+1: QuadRule, -1: QuadRule} in physical coordinates.  Pieces:
    a fan of straight triangles from the first cut point plus one piece
    whose curved side lies on the interface arc between the cuts.
    """
    chains = _boundary_chains(mesh, e, tag)
    rules = {}
    for chain in chains:
        start_pt, start_cut = chain[0]
        end_pt, end_cut = chain[-1]
        inner = [p for p, c in chain[1:-1]]
        verts = [start_pt, *inner, end_pt]
        pts, w = _region_rule(verts, end_cut.xi, start_cut.xi, chart, q)
        # classify by the rule's own deepest point: quadrature points lie in
        # the region, and the farthest from the interface is sign-robust
        eta = chart.signed_distance_estimate(pts)
        side = 1 if eta[int(np.argmax(np.abs(eta)))] > 0 else -1
        rules[side] = QuadRule(points=pts, weights=w, degree=2 * q - 1)
    if len(rules) != 2:
        raise DegeneratePartition("both sub-regions landed on the same side")
    return rules
