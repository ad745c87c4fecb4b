"""Uniform rectangular meshes, edge topology and interface classification.

Elements are classified by the sign pattern of the normal offset to the
interface over their boundary: a cut element sees both strict signs.  The
sign field comes from a dense polyline of the curve (well defined even at
caustics); the actual crossing points are then polished to machine
precision by a Newton iteration on edge(t) = g(xi).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .curves import frenet_frame
from .errors import AmbiguousCut, TangentialIntersection
from .frenet import FrenetChart, _bdot, _bnorm, unwrap_near

_EDGE_SAMPLES = 33   # offset samples per candidate edge of the classifier


class RectMesh:
    """Axis-aligned uniform nx-by-ny rectangular mesh on a box.

    Element ids run row-major (iy*nx + ix); `h` is the element diagonal.
    Edges carry a fixed unit normal pointing from `elems[e, 0]` into
    `elems[e, 1]`; boundary edges keep the outward normal and -1 for the
    missing neighbour.
    """

    def __init__(self, box, nx: int, ny: int):
        x0, x1, y0, y1 = map(float, box)
        if nx < 1 or ny < 1 or x1 <= x0 or y1 <= y0:
            raise ValueError("invalid box or subdivisions")
        self.box = (x0, x1, y0, y1)
        self.nx, self.ny = int(nx), int(ny)
        self.dx = (x1 - x0) / nx
        self.dy = (y1 - y0) / ny
        self.h = float(np.hypot(self.dx, self.dy))
        self.n_elements = nx * ny

        nv = (nx + 1) * ny      # vertical edges, row by row, then horizontal ones
        self.n_edges = nv + nx * (ny + 1)
        k = np.arange(self.n_edges)
        vert = k < nv
        j, i = np.where(vert, np.divmod(k, nx + 1), np.divmod(k - nv, nx))
        self.edge_a = np.column_stack([x0 + i * self.dx, y0 + j * self.dy])
        self.edge_b = np.column_stack([x0 + (i + ~vert) * self.dx, y0 + (j + vert) * self.dy])
        # the grid vertices at a and b, numbered ix*(ny + 1) + iy
        self.edge_vertices = np.column_stack([i * (ny + 1) + j,
                                              (i + ~vert) * (ny + 1) + j + vert])
        # the grid line each edge lies on, of 0..count; lines 0 and count are the boundary
        p, count = np.where(vert, i, j), np.where(vert, nx, ny)
        self.edge_normal = np.where(np.column_stack([vert, ~vert]),
                                    np.where(p == 0, -1.0, 1.0)[:, None], 0.0)
        above = j * nx + i                     # the element above or right of the edge
        self.edge_elems = np.column_stack([
            np.where(p == 0, above, above - np.where(vert, 1, nx)),
            np.where((p > 0) & (p < count), above, -1)])
        self.edge_is_boundary = self.edge_elems[:, 1] < 0
        self.edge_length = np.linalg.norm(self.edge_b - self.edge_a, axis=1)

        e = np.arange(self.n_elements)
        west = e + e // nx                     # vertical edge left of element e
        self.elem_edges = np.column_stack([nv + e, west + 1, nv + e + nx, west])

    def elem_box(self, e):
        """(xl, yl, xh, yh) of element e, or arrays of them for an id array."""
        x0, _, y0, _ = self.box
        ix, iy = e % self.nx, e // self.nx
        return (x0 + ix * self.dx, y0 + iy * self.dy,
                x0 + (ix + 1) * self.dx, y0 + (iy + 1) * self.dy)

    def elem_corners(self, e):
        """Corners in counterclockwise boundary order, (4, 2), or (E, 4, 2)
        for an id array."""
        xl, yl, xh, yh = self.elem_box(e)
        return np.stack([np.stack(c, axis=-1) for c in ((xl, yl), (xh, yl), (xh, yh), (xl, yh))],
                        axis=-2)

    def face_rows(self, first, elems):
        """(index into elems, row) of every row of the four edges of each of
        elems (K,) in turn, edge k owning rows first[k]:first[k + 1]."""
        k = self.elem_edges[elems].ravel()
        count = first[k + 1] - first[k]
        slot = np.repeat(np.arange(len(k)), count)        # the (element, edge) of each row
        return slot // 4, first[k][slot] + np.arange(len(slot)) - (np.cumsum(count) - count)[slot]


def build_mesh(box, n: int) -> RectMesh:
    """Uniform n-by-n mesh."""
    return RectMesh(box, int(n), int(n))


class InterfaceCuts(NamedTuple):
    """The interface elements of a level, one row each in element order."""

    elements: np.ndarray       # (E,) element ids
    interval: np.ndarray       # (E, 2) fictitious [xi0, xi1]
    edge: np.ndarray           # (E, 2) the edge of each of the two cuts
    t: np.ndarray              # (E, 2) their edge parameters
    xi: np.ndarray             # (E, 2) their curve parameters, on a closed curve unwrapped
                               # at the interval midpoint
    point: np.ndarray          # (E, 2, 2) their points


class MeshTags:
    """Classification of a mesh against one interface chart."""

    def __init__(self, tags, interface: InterfaceCuts, crossings):
        self.tags = tags             # per element: its side +-1 if plain, 0 if cut
        self.interface = interface
        self.crossings = crossings   # (edge, t) of every edge crossing, by edge, then by t

    @property
    def n_interface(self):
        return len(self.interface.elements)

    def summary(self) -> dict:
        return {
            "elements": len(self.tags),
            "interface_elements": self.n_interface,
            "plain_elements": len(self.tags) - self.n_interface,
        }


def _bisect(chart: FrenetChart, a, b, t_lo, t_hi, f_lo):
    """24 bisection steps of the sign brackets [t_lo, t_hi] of edges a->b,
    all at once: a, b are (n, 2), the rest (n,), f_lo the offsets at t_lo.
    Returns the midpoints."""
    d = b - a
    for _ in range(24):
        t_mid = 0.5 * (t_lo + t_hi)
        f_mid = chart.signed_distance_estimate(a + t_mid[:, None] * d)
        left = f_lo * f_mid <= 0.0
        t_hi = np.where(left, t_mid, t_hi)
        t_lo, f_lo = np.where(left, t_lo, t_mid), np.where(left, f_lo, f_mid)
    return 0.5 * (t_lo + t_hi)


def _polish_roots(chart: FrenetChart, a, b, t, edges):
    """Newton polish of edge(t) = g(xi) on edges a->b from bisected t, all
    roots at once: a, b are (n, 2), t and the edge ids (n,).  Returns the
    polished t, xi and edge points.

    Each root runs the full-step Newton it would run alone; a step makes one
    curve point and one velocity call over the roots still active.  Raises,
    for the first failing root, TangentialIntersection when the interface is
    tangent to the edge there, else AmbiguousCut when the root did not
    converge or lies off its edge (t outside [0, 1] by more than 1e-12).
    """
    curve = chart.curve
    t = np.array(t, dtype=float)
    d = b - a
    xi = chart.nearest_parameter_estimate(a + t[:, None] * d)
    length = _bnorm(d)
    scale = np.maximum(1.0, length)
    active = np.arange(len(t))
    for _ in range(40):
        gape = a[active] + t[active, None] * d[active] - curve.point(xi[active])
        keep = ~(_bnorm(gape) <= 1e-14 * scale[active])
        active, gape = active[keep], gape[keep]
        if len(active) == 0:
            break
        gp, da = curve.velocity(xi[active]), d[active]
        # solve [d | -g'] (dt, dxi) = -gape by Cramer's rule
        det = -da[:, 0] * gp[:, 1] + da[:, 1] * gp[:, 0]
        keep = ~(np.abs(det) < 1e-300)
        active, gape, gp, da, det = active[keep], gape[keep], gp[keep], da[keep], det[keep]
        # full steps; the bracket start is already close
        t[active] += (gape[:, 0] * gp[:, 1] - gape[:, 1] * gp[:, 0]) / det
        xi[active] += (gape[:, 0] * da[:, 1] - gape[:, 1] * da[:, 0]) / det
    _, normal, _, _ = frenet_frame(curve.velocity(xi), curve.accel(xi))
    tangent = np.abs(_bdot(normal, d)) / length < 1e-10
    points = a + t[:, None] * d
    diverged = _bnorm(points - curve.point(xi)) > 1e-12 * scale
    failed = np.flatnonzero(tangent | diverged | (t < -1e-12) | (t > 1.0 + 1e-12))
    if len(failed):
        i = failed[0]
        if tangent[i]:
            raise TangentialIntersection(
                f"edge {edges[i]}: interface tangent to a mesh edge; perturb the mesh")
        why = ("edge crossing failed to converge" if diverged[i]
               else f"crossing at t = {t[i]:.6g} is off the edge")
        raise AmbiguousCut(f"edge {edges[i]}: {why}")
    return t, xi, points


def _one_sided(mesh: RectMesh, chart: FrenetChart, eta_grid, k, zero_tol):
    """Which of the edges k (an id array) keep one sign beyond zero_tol at
    every point, shown from the offsets at their ends alone.

    An edge a->b of length L passes when eta(a) and eta(b) have the same
    strict sign beyond zero_tol and |eta(a)| + |eta(b)| > L + 2*delta, with
    delta = 2*G + zero_tol and G the largest gap between consecutive seeds of
    the polyline.  Why that is enough:

    - eta(x) is the offset of x along the unit normal of its nearest seed, so
      |eta(x)| <= D(x), the distance from x to the nearest seed, and D is
      1-Lipschitz.  A point of the edge at distance s from a therefore has
      D >= max(|eta(a)| - s, |eta(b)| - (L - s)) >= (|eta(a)| + |eta(b)| - L)/2,
      which is more than delta.
    - Every curve point lies within G of a seed, so no curve point lies within
      D - G > G + zero_tol of such a point: the edge does not meet the curve
      and lies on one side of it.
    - The seeds on either side of the nearest seed p lie within G of p and
      are no nearer to x; so x - p has a component of at most about
      (1 + D*kappa)*G/2 along the tangent at p, and leaves p close to
      +-n(p).  Within G of p the curve stays close to its tangent line, and
      farther from p the segment from p to x lies within D - G of x, where
      there is no curve point; so the segment meets the curve only at p.
      For a closed curve that the polyline resolves (kappa*G small, no two
      arcs within a few G of each other) eta(x) then has the sign of x's
      side, and |eta(x)| is close to D, far above zero_tol.

    So every sample of the edge lies beyond zero_tol with the sign of its
    ends.  An open curve has no sides: past its end the nearest seed is the
    last one, and eta changes sign across the tangent line extended beyond
    it, where there is no curve.  So no edge passes for an open curve.
    """
    if not chart.curve.periodic:
        return np.zeros(len(k), dtype=bool)
    delta = 2.0 * chart.curve.seed_polyline.max_gap + zero_tol
    ends = eta_grid.ravel()[mesh.edge_vertices[k]]
    same = np.all(ends > zero_tol, axis=1) | np.all(ends < -zero_tol, axis=1)
    return same & (np.abs(ends).sum(axis=1) > mesh.edge_length[k] + 2.0 * delta)


def _repeats(group, close):
    """Mask of the rows that close pairs with an earlier row of their group.
    A group's rows are consecutive; close(d) compares rows d: with rows :-d."""
    out = np.zeros(len(group), dtype=bool)
    d = 1
    while d < len(group) and (same := group[d:] == group[:-d]).any():
        out[d:] |= same & close(d)
        d += 1
    return out


def classify_elements(mesh: RectMesh, chart: FrenetChart) -> MeshTags:
    """Tag every element as plain or interface and locate all edge crossings.

    Works in level-wide phases, each one chart call for the whole mesh: the
    corner offsets, the samples of the candidate edges whose sign can change
    along them, the bisection steps and the Newton polish of all sign
    brackets, the chart's feet of the zero-band samples of the elements that
    see fewer than two crossings (none when there are none), and the
    fictitious intervals of all interface elements.  A candidate edge is an
    edge of an element not rejected outright by its corners; one that
    `_one_sided` shows keeps its ends' sign is not sampled, and stands for 33
    samples of that sign.

    The crossings come out as arrays, and the interface elements as one
    InterfaceCuts record that reads its cuts off one table of crossings and
    feet.  Raises TangentialIntersection for grazing cuts and AmbiguousCut
    when an element does not see exactly two cuts (interface
    under-resolved, or through a mesh vertex).
    """
    curve = chart.curve
    zero_tol = 1e-10 * mesh.h

    # signed offsets at all grid corners, vectorized
    x0, _, y0, _ = mesh.box
    gx = x0 + mesh.dx * np.arange(mesh.nx + 1)
    gy = y0 + mesh.dy * np.arange(mesh.ny + 1)
    gridpts = np.stack(np.meshgrid(gx, gy, indexing="ij"), axis=-1).reshape(-1, 2)
    eta_grid = chart.signed_distance_estimate(gridpts).reshape(mesh.nx + 1, mesh.ny + 1)

    # corner offsets of every element in boundary order; quick reject: all
    # corners far on one side
    eta_c = np.stack([eta_grid[:-1, :-1], eta_grid[1:, :-1], eta_grid[1:, 1:],
                      eta_grid[:-1, 1:]], axis=-1).transpose(1, 0, 2).reshape(-1, 4)
    tags = np.where(eta_c[:, 0] > 0, 1, -1)
    candidates = np.flatnonzero(~(np.min(np.abs(eta_c), axis=1) > 1.000001 * mesh.h))

    # offsets at the samples of every candidate edge, one row per edge; the
    # row of a one-sided edge holds its offset at a, which has the sign of
    # all its samples
    ids = np.array(list(dict.fromkeys(mesh.elem_edges[candidates].ravel().tolist())), dtype=int)
    row = np.zeros(mesh.n_edges, dtype=int)
    row[ids] = np.arange(len(ids))
    ts = np.linspace(0.0, 1.0, _EDGE_SAMPLES)
    a, b = mesh.edge_a[ids], mesh.edge_b[ids]
    f = np.repeat(eta_grid.ravel()[mesh.edge_vertices[ids, 0]][:, None], _EDGE_SAMPLES, axis=1)
    sampled = np.flatnonzero(~_one_sided(mesh, chart, eta_grid, ids, zero_tol))
    f[sampled] = chart.signed_distance_estimate(
        (a[sampled, None, :] + ts[:, None] * (b - a)[sampled, None, :]).reshape(-1, 2)
    ).reshape(len(sampled), _EDGE_SAMPLES)

    # brackets between consecutive strict-sign samples (skip near-zeros), on
    # the edges that see both strict signs
    both = np.flatnonzero(np.any(f > zero_tol, axis=1) & np.any(f < -zero_tol, axis=1))
    r, i = np.nonzero(np.abs(f[both]) > zero_tol)
    r = both[r]
    br = np.flatnonzero((r[1:] == r[:-1]) & (f[r[:-1], i[:-1]] * f[r[1:], i[1:]] < 0.0))
    r, i1, i2 = r[br], i[br], i[br + 1]
    t_mid = _bisect(chart, a[r], b[r], ts[i1], ts[i2], f[r, i1])
    t, xi, p = _polish_roots(chart, a[r], b[r], t_mid, ids[r])
    # the crossings: a root within 1e-9 in t of an earlier root of its edge
    # (the roots of an edge are consecutive) is a repeat
    keep = np.flatnonzero(~_repeats(r, lambda d: np.abs(t[d:] - t[:-d]) < 1e-9))
    keep = keep[np.lexsort((t[keep], ids[r[keep]]))]
    cut_edge, cut_t, xi, p = ids[r[keep]], t[keep], xi[keep], p[keep]

    # the samples of each candidate's four edges; a candidate that sees one
    # strict sign at most is plain
    eta_all = f[row[mesh.elem_edges[candidates]]].reshape(len(candidates), 4 * _EDGE_SAMPLES)
    has_pos = np.any(eta_all > zero_tol, axis=1)
    two_signs = has_pos & np.any(eta_all < -zero_tol, axis=1)
    plain = candidates[~two_signs]
    tags[plain] = np.where(has_pos[~two_signs] | (eta_c[plain].mean(axis=1) > 0), 1, -1)

    # each interface element's cuts: the crossings of its four edges in
    # turn, less those within 1e-12 h of an earlier one of the element (a
    # point lies on two of the edges at most)
    elements, eta_cut = candidates[two_signs], eta_all[two_signs]
    owner, rows = mesh.face_rows(np.searchsorted(cut_edge, np.arange(mesh.n_edges + 1)), elements)
    kept = ~_repeats(owner, lambda d: _bnorm(p[rows[d:]] - p[rows[:-d]]) < 1e-12 * mesh.h)
    rows, owner = rows[kept], owner[kept]
    # an element left with fewer than two may be cut at a corner, inside the
    # zero band of the sign filter: each of its zero-band samples adds the
    # chart's foot of the sample on the curve when the foot lies within
    # zero_tol of the sample and of one of the element's edges (the first)
    few = np.flatnonzero(np.bincount(owner, minlength=len(elements)) < 2)
    i, j = np.nonzero(np.abs(eta_cut[few]) <= zero_tol)
    i = few[i]
    k = mesh.elem_edges[elements[i]]                 # the four edges of each sample's element
    a, d = mesh.edge_a[k], mesh.edge_b[k] - mesh.edge_a[k]
    at = (np.arange(len(i)), j // _EDGE_SAMPLES)
    sample = a[at] + ts[j % _EDGE_SAMPLES][:, None] * d[at]
    foot_xi = chart._newton(sample)[1] if len(i) else np.zeros(0)
    g = curve.point(foot_xi) if len(i) else sample
    t_on = np.clip(_bdot(g[:, None] - a, d) / mesh.edge_length[k] ** 2, 0.0, 1.0)
    near = _bnorm(a + t_on[..., None] * d - g[:, None]) < zero_tol
    hit = np.flatnonzero(near.any(axis=1) & (_bnorm(sample - g) <= zero_tol))
    first = (hit, near[hit].argmax(axis=1))         # each foot's first edge within zero_tol
    # the candidate table: each element's crossings, then its feet, less a
    # foot within 1e-9 h of an earlier cut of the element
    group = np.concatenate([owner, i[hit]])
    order = np.argsort(group, kind="stable")
    group, foot = group[order], order >= len(owner)
    cuts = [np.concatenate(c)[order] for c in (
        (cut_edge[rows], k[first]), (cut_t[rows], t_on[first]), (xi[rows], foot_xi[hit]),
        (p[rows], g[hit]))]
    kept = ~_repeats(group, lambda d: foot[d:] & (
        _bnorm(cuts[3][d:] - cuts[3][:-d]) < 1e-9 * mesh.h))
    count = np.bincount(group[kept], minlength=len(elements))
    if np.any(count != 2):
        i = np.flatnonzero(count != 2)[0]
        # a mesh vertex on the interface stays on it under refinement
        corners = mesh.elem_corners(elements[i])
        eta_v, _, inverted = chart._newton(corners)
        on = corners[inverted & (np.abs(eta_v) <= zero_tol)]
        advice = (f"the interface passes through the mesh vertex ({on[0, 0]:.6g}, "
                  f"{on[0, 1]:.6g}), which every refinement keeps; perturb the domain or "
                  "the interface" if len(on) else
                  "the mesh is too coarse for the interface here, refine the mesh")
        raise AmbiguousCut(
            f"element {elements[i]}: {count[i]} interface crossings, expected 2; {advice}")
    cuts = [c[kept].reshape(len(elements), 2, *c.shape[1:]) for c in cuts]   # edge, t, xi, point

    tags[elements] = 0
    lo, hi = chart.fictitious_intervals(mesh.elem_corners(elements))
    if curve.periodic:
        cuts[2] = unwrap_near(cuts[2], 0.5 * (lo + hi)[:, None], curve.period)
    for x in cuts[2].T:    # widen an interval to a cut outside it, as float min/max do
        lo, hi = np.where(x < lo, x, lo), np.where(x > hi, x, hi)
    interface = InterfaceCuts(elements, np.stack([lo, hi], axis=1), *cuts)
    return MeshTags(tags, interface, (cut_edge, cut_t))
