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
from .frenet import FrenetChart
from .mesh import ElementTag, RectMesh


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


def _scale(verts):
    """Squared longest side of a polyline: the unit of _anchor_ok's
    tolerance.  One norm per side, as np.linalg.norm rounds it (a BLAS dot)."""
    scale = max(float(np.linalg.norm(verts[i + 1] - verts[i]))
                for i in range(len(verts) - 1))
    return max(scale, 1e-300) ** 2


def _anchor_ok(A, verts, g, gp, scale):
    """Certify that a region is star-shaped from each anchor A (..., C, 2).

    Every boundary segment of the polyline verts (..., nv, 2) and the arc,
    sampled by its points g and scaled tangents gp (..., 33, 2), must sweep
    counterclockwise around the anchor; that makes the polar fan a disjoint
    exact tiling.  `scale` (...) is _scale(verts).  Returns (..., C).
    """
    tol = (-1e-13 * np.asarray(scale))[..., None, None]
    A = np.asarray(A, dtype=float)[..., None, :]
    bad = _cross(verts[..., None, :-1, :] - A, verts[..., None, 1:, :] - A) < tol
    sweep = _cross(g[..., None, :, :] - A, gp[..., None, :, :])
    return ~np.any(bad, axis=-1) & np.all(sweep >= tol, axis=-1)


def _tangent_intersection(g, v):
    """Intersection of an arc's end tangent lines (crescent kernel), from its
    end points g and velocities v (2, 2); None if near parallel or far."""
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
    g = chart.curve.point(ends).reshape(-1, 2, 2)
    v = chart.curve.velocity(ends).reshape(-1, 2, 2)
    tangent = [_tangent_intersection(*gv) for gv in zip(g, v)]
    return np.stack([total / (nv + 9)[:, None],
                     [p if p is not None else vs[0] for p, vs in zip(tangent, verts)]], axis=1)


def _closest_on_polyline(verts, p):
    """(segment index, point) of the polyline point nearest to p."""
    best = (0, verts[0], np.inf)
    for j in range(len(verts) - 1):
        a, b = verts[j], verts[j + 1]
        ab = b - a
        denom = float(ab @ ab)
        t = 0.0 if denom == 0.0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
        q = a + t * ab
        d = float(np.linalg.norm(q - p))
        if d < best[2]:
            best = (j, q, d)
    return best[:2]


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


_MAX_SPLITS = 4   # halvings of a region before its element is given up


def level_cut_cell_rules(mesh: RectMesh, tags: dict, chart: FrenetChart,
                         q: int) -> dict:
    """The rules of cut_cell_rules for the interface elements {e: tag} of a
    level, built together: {e: {side: QuadRule}}.

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
    first half first, each fan then cone.  One chart query at the points of
    all regions labels their sides.  Raises DegeneratePartition naming the
    first failing element.
    """
    owner, pending = [], []                      # (leaf path, vertices, xi_s, xi_e)
    for e, tag in tags.items():
        for chain in _boundary_chains(mesh, e, tag):
            pending.append(((len(owner),), [p for p, _ in chain], chain[-1][1].xi, chain[0][1].xi))
            owner.append(e)
    leaves, failed = [], set()                   # (leaf path, [(points, weights)])
    for depth in range(_MAX_SPLITS + 1):
        if not pending:
            break
        nv = np.array([len(r[1]) for r in pending])
        verts = np.array([r[1] + r[1][-1:] * (nv.max() - len(r[1])) for r in pending], dtype=float)
        xi_s, xi_e = (np.array([r[k] for r in pending], dtype=float) for k in (2, 3))
        candidates = np.concatenate([_first_candidates(verts, nv, xi_s, xi_e, chart), verts],
                                    axis=1)
        scale = np.array([_scale(r[1]) for r in pending])
        g, gp = _arc(chart, xi_s, xi_e, _square01(q)[0])
        cone_pts, cone_w, det = _cone_rule(candidates, g[:, None], gp[:, None], q)
        ok = (_anchor_ok(candidates, verts, *_arc(chart, xi_s, xi_e, _SWEEP), scale)
              & _cone_sign_ok(det))
        rows, pick = np.arange(len(pending)), np.argmax(ok, axis=1)
        tri_pts, tri_w, _ = _tri_rule(candidates[rows, pick][:, None], verts[:, :-1],
                                      verts[:, 1:], q)
        for i in np.flatnonzero(ok.any(axis=1)):
            n = nv[i] - 1
            leaves.append((pending[i][0], [*zip(tri_pts[i, :n], tri_w[i, :n]),
                                           (cone_pts[i, pick[i]], cone_w[i, pick[i]])]))
        stuck = [pending[i] for i in np.flatnonzero(~ok.any(axis=1))]
        if depth == _MAX_SPLITS:
            failed.update(owner[path[0]] for path, *_ in stuck)
            break
        pending = []
        for path, vs, s, t in stuck:
            xi_m = 0.5 * (s + t)
            m_pt = chart.curve.point(np.asarray(xi_m, dtype=float))
            j, p_star = _closest_on_polyline(vs, m_pt)
            pending += [(path + (0,), [m_pt, p_star, *vs[j + 1:]], s, xi_m),
                        (path + (1,), [*vs[:j + 1], p_star, m_pt], xi_m, t)]

    regions = {}                                 # region: the pieces of its leaves, in order
    for path, pieces in sorted(leaves, key=lambda leaf: leaf[0]):
        regions.setdefault(path[0], []).extend(pieces)
    rules = {i: (np.concatenate([p for p, _ in pieces]), np.concatenate([w for _, w in pieces]))
             for i, pieces in regions.items()}
    # classify by each rule's own deepest point: quadrature points lie in
    # the region, and the farthest from the interface is sign-robust
    eta = chart.signed_distance_estimate(np.concatenate([np.zeros((0, 2)),
                                                         *(p for p, _ in rules.values())]))
    etas = iter(np.split(eta, np.cumsum([len(p) for p, _ in rules.values()])[:-1]))
    out = {}
    for i, (pts, w) in rules.items():
        eta = next(etas)
        side = 1 if eta[int(np.argmax(np.abs(eta)))] > 0 else -1
        out.setdefault(owner[i], {})[side] = QuadRule(points=pts, weights=w)
    for e in tags:
        if e in failed:
            raise DegeneratePartition(f"element {e}: no star-shaped anchor found for a cut region")
        if len(out[e]) != 2:
            raise DegeneratePartition(f"element {e}: both sub-regions landed on the same side")
    return out


def cut_cell_rules(mesh: RectMesh, e: int, tag: ElementTag,
                   chart: FrenetChart, q: int) -> dict:
    """Quadrature over the two curved sub-regions of interface element `e`.

    Returns {+1: QuadRule, -1: QuadRule} in physical coordinates.  Pieces:
    a fan of straight triangles from a star anchor plus one piece whose
    curved side lies on the interface arc between the cuts.
    """
    return level_cut_cell_rules(mesh, {e: tag}, chart, q)[e]
