"""Uniform rectangular meshes, edge topology and interface classification.

Elements are classified by the sign pattern of the normal offset to the
interface over their boundary: a cut element sees both strict signs.  The
sign field comes from a dense polyline of the curve (well defined even at
caustics); the actual crossing points are then polished to machine
precision by a Newton iteration on edge(t) = g(xi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousCut, TangentialIntersection
from .frenet import FrenetChart, frenet_apparatus, unwrap_near

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

    def elem_corners(self, e: int):
        """Corners in counterclockwise boundary order."""
        xl, yl, xh, yh = self.elem_box(e)
        return np.array([[xl, yl], [xh, yl], [xh, yh], [xl, yh]])


def build_mesh(box, n) -> RectMesh:
    """Uniform mesh; `n` is either an int (both axes) or (nx, ny)."""
    if np.isscalar(n):
        return RectMesh(box, int(n), int(n))
    return RectMesh(box, int(n[0]), int(n[1]))


@dataclass
class EdgeCut:
    """One transversal interface crossing of a mesh edge."""

    edge: int
    t: float
    xi: float
    point: np.ndarray


@dataclass
class ElementTag:
    """Classification record of one interface element."""

    interval: tuple                # fictitious [xi0, xi1]
    cuts: list


class MeshTags:
    """Classification of a mesh against one interface chart."""

    def __init__(self, tags, interface, edge_cuts, chart):
        self.tags = tags             # per element: its side +-1 if plain, 0 if cut
        self.interface = interface   # interface element -> ElementTag, in element order
        self.edge_cuts = edge_cuts   # edge id -> sorted list of EdgeCut
        self.chart = chart

    def interior_cuts(self, k) -> list:
        """Crossing parameters strictly inside edge k; corner crossings split nothing."""
        return [c.t for c in self.edge_cuts.get(k, []) if 1e-12 < c.t < 1.0 - 1e-12]

    @property
    def interface_elements(self):
        return list(self.interface)

    @property
    def n_interface(self):
        return len(self.interface)

    def summary(self) -> dict:
        return {
            "elements": len(self.tags),
            "interface_elements": self.n_interface,
            "plain_elements": len(self.tags) - self.n_interface,
        }


def _edge_point(a, b, t):
    return a + np.multiply.outer(np.asarray(t, dtype=float), b - a)


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


def _norms(v):
    """np.linalg.norm of each row on its own: a lone 2-vector's norm goes
    through BLAS dot and rounds differently from a row-wise norm."""
    return np.array([np.linalg.norm(row) for row in v])


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
    length = _norms(d)
    scale = np.maximum(1.0, length)
    active = np.arange(len(t))
    for _ in range(40):
        gape = a[active] + t[active, None] * d[active] - curve.point(xi[active])
        keep = ~(_norms(gape) <= 1e-14 * scale[active])
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
    normal = frenet_apparatus(curve, xi).n
    tangent = np.array([abs(float(np.dot(n, dk))) for n, dk in zip(normal, d)]) / length < 1e-10
    points = a + t[:, None] * d
    diverged = _norms(points - curve.point(xi)) > 1e-12 * scale
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


def _projected_cut(mesh: RectMesh, e: int, chart: FrenetChart, p, tol):
    """Exact curve point nearest to a boundary sample lying in the zero band."""
    curve = chart.curve
    xi = float(chart.nearest_parameter_estimate(p[None, :])[0])
    for _ in range(30):
        g = curve.point(np.asarray(xi, dtype=float))
        gp = curve.velocity(np.asarray(xi, dtype=float))
        ga = curve.accel(np.asarray(xi, dtype=float))
        r = p - g
        grad = float(r @ gp)
        hess = float(r @ ga) - float(gp @ gp)
        if abs(hess) < 1e-300:
            break
        step = grad / hess
        xi -= step
        if abs(step) < 1e-16:
            break
    g = curve.point(np.asarray(xi, dtype=float))
    if np.linalg.norm(p - g) > tol:
        return None
    for kid in mesh.elem_edges[e]:
        a, b = mesh.edge_a[kid], mesh.edge_b[kid]
        t = float(np.clip((g - a) @ (b - a) / mesh.edge_length[kid] ** 2, 0.0, 1.0))
        if np.linalg.norm(a + t * (b - a) - g) < tol:
            return EdgeCut(edge=int(kid), t=t, xi=xi, point=np.asarray(g))
    return None


def classify_elements(mesh: RectMesh, chart: FrenetChart) -> MeshTags:
    """Tag every element as plain or interface and locate all edge crossings.

    Works in level-wide phases, each one chart call for the whole mesh: the
    corner offsets, the samples of every edge of an element not rejected
    outright, the bisection steps and the Newton polish of all sign
    brackets, and the fictitious intervals of all interface elements.  Only
    the candidates that see both strict signs are checked one by one.

    Raises TangentialIntersection for grazing cuts and AmbiguousCut when an
    element sees more than two crossings (interface under-resolved).
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

    # offsets at the samples of every candidate edge, one row per edge
    edges = list(dict.fromkeys(mesh.elem_edges[candidates].ravel().tolist()))
    row = np.zeros(mesh.n_edges, dtype=int)
    row[edges] = np.arange(len(edges))
    ts = np.linspace(0.0, 1.0, _EDGE_SAMPLES)
    a, b = mesh.edge_a[edges], mesh.edge_b[edges]
    f = chart.signed_distance_estimate(
        (a[:, None, :] + ts[:, None] * (b - a)[:, None, :]).reshape(-1, 2)
    ).reshape(len(edges), _EDGE_SAMPLES)

    # brackets between consecutive strict-sign samples (skip near-zeros), on
    # the edges that see both strict signs
    both = np.flatnonzero(np.any(f > zero_tol, axis=1) & np.any(f < -zero_tol, axis=1))
    r, i = np.nonzero(np.abs(f[both]) > zero_tol)
    r = both[r]
    br = np.flatnonzero((r[1:] == r[:-1]) & (f[r[:-1], i[:-1]] * f[r[1:], i[1:]] < 0.0))
    r, i1, i2 = r[br], i[br], i[br + 1]
    t_mid = _bisect(chart, a[r], b[r], ts[i1], ts[i2], f[r, i1])
    edge_cuts: dict[int, list[EdgeCut]] = {k: [] for k in edges}
    for j, t, xi, p in zip(r, *_polish_roots(chart, a[r], b[r], t_mid, np.array(edges)[r])):
        found = edge_cuts[edges[j]]
        if not any(abs(t - c.t) < 1e-9 for c in found):
            found.append(EdgeCut(edge=edges[j], t=float(t), xi=float(xi), point=p))
    for found in edge_cuts.values():
        found.sort(key=lambda c: c.t)

    # the samples of each candidate's four edges; a candidate that sees one
    # strict sign at most is plain
    eta_all = f[row[mesh.elem_edges[candidates]]].reshape(len(candidates), 4 * _EDGE_SAMPLES)
    has_pos = np.any(eta_all > zero_tol, axis=1)
    two_signs = has_pos & np.any(eta_all < -zero_tol, axis=1)
    plain = candidates[~two_signs]
    tags[plain] = np.where(has_pos[~two_signs] | (eta_c[plain].mean(axis=1) > 0), 1, -1)

    interface = []
    for e, eta_e in zip(candidates[two_signs].tolist(), eta_all[two_signs]):
        cuts = [c for k in mesh.elem_edges[e] for c in edge_cuts[k]]
        # merge crossings that coincide at a shared corner
        unique = []
        for c in cuts:
            if not any(np.linalg.norm(c.point - u.point) < 1e-12 * mesh.h for u in unique):
                unique.append(c)
        if len(unique) < 2:
            # a crossing can sit exactly on a corner/node, inside the zero
            # band of the sign filter; recover it by projecting onto the curve
            edge_pts = np.vstack([_edge_point(mesh.edge_a[k], mesh.edge_b[k], ts)
                                  for k in mesh.elem_edges[e]])
            for idx in np.where(np.abs(eta_e) <= zero_tol)[0]:
                cut = _projected_cut(mesh, e, chart, edge_pts[idx], zero_tol)
                if cut is not None and not any(
                        np.linalg.norm(cut.point - u.point) < 1e-9 * mesh.h
                        for u in unique):
                    unique.append(cut)
        if len(unique) != 2:
            raise AmbiguousCut(
                f"element {e}: {len(unique)} interface crossings, expected 2; "
                "the mesh is too coarse for the interface here, refine the mesh")
        interface.append((e, unique))

    corners = np.array([mesh.elem_corners(e) for e, _ in interface]).reshape(-1, 4, 2)
    tags[[e for e, _ in interface]] = 0
    records = {}
    for (e, unique), xi0, xi1 in zip(interface, *chart.fictitious_intervals(corners)):
        xi0, xi1 = float(xi0), float(xi1)
        if curve.periodic:
            # per-element copies: cut records are shared across elements
            anchor = 0.5 * (xi0 + xi1)
            local = [EdgeCut(edge=c.edge, t=c.t,
                             xi=float(unwrap_near(c.xi, anchor, curve.period)),
                             point=c.point) for c in unique]
        else:
            local = list(unique)
        for c in local:
            if not (xi0 <= c.xi <= xi1):
                xi0, xi1 = min(xi0, c.xi), max(xi1, c.xi)
        records[e] = ElementTag(interval=(xi0, xi1), cuts=local)

    return MeshTags(tags, records, edge_cuts, chart)
