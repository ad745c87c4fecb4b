"""Uniform rectangular meshes, edge topology and interface classification.

Elements are classified by the sign pattern of the normal offset to the
interface over their boundary: a cut element sees both strict signs.  The
sign field comes from a dense polyline of the curve (well defined even at
caustics); the actual crossing points are then polished to machine
precision by a Newton iteration on edge(t) = g(xi).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AmbiguousCut, TangentialIntersection
from .frenet import FrenetChart, frenet_apparatus, unwrap_near


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

        nv = (nx + 1) * ny      # vertical edges
        nh = nx * (ny + 1)      # horizontal edges
        self.n_edges = nv + nh
        a = np.zeros((self.n_edges, 2))
        b = np.zeros((self.n_edges, 2))
        normal = np.zeros((self.n_edges, 2))
        elems = np.full((self.n_edges, 2), -1, dtype=int)

        def vid(i, j):
            return j * (nx + 1) + i

        def hid(i, j):
            return nv + j * nx + i

        for j in range(ny):
            for i in range(nx + 1):
                k = vid(i, j)
                a[k] = (x0 + i * self.dx, y0 + j * self.dy)
                b[k] = (x0 + i * self.dx, y0 + (j + 1) * self.dy)
                if i == 0:
                    normal[k] = (-1.0, 0.0)
                    elems[k, 0] = self.elem_id(0, j)
                elif i == nx:
                    normal[k] = (1.0, 0.0)
                    elems[k, 0] = self.elem_id(nx - 1, j)
                else:
                    normal[k] = (1.0, 0.0)
                    elems[k] = (self.elem_id(i - 1, j), self.elem_id(i, j))
        for j in range(ny + 1):
            for i in range(nx):
                k = hid(i, j)
                a[k] = (x0 + i * self.dx, y0 + j * self.dy)
                b[k] = (x0 + (i + 1) * self.dx, y0 + j * self.dy)
                if j == 0:
                    normal[k] = (0.0, -1.0)
                    elems[k, 0] = self.elem_id(i, 0)
                elif j == ny:
                    normal[k] = (0.0, 1.0)
                    elems[k, 0] = self.elem_id(i, ny - 1)
                else:
                    normal[k] = (0.0, 1.0)
                    elems[k] = (self.elem_id(i, j - 1), self.elem_id(i, j))

        self.edge_a, self.edge_b = a, b
        self.edge_normal = normal
        self.edge_elems = elems
        self.edge_is_boundary = elems[:, 1] < 0
        self.edge_length = np.linalg.norm(b - a, axis=1)

        self.elem_edges = np.zeros((self.n_elements, 4), dtype=int)
        for j in range(ny):
            for i in range(nx):
                e = self.elem_id(i, j)
                self.elem_edges[e] = (hid(i, j), vid(i + 1, j),
                                      hid(i, j + 1), vid(i, j))

    def elem_id(self, ix: int, iy: int) -> int:
        return iy * self.nx + ix

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

    @property
    def area(self) -> float:
        x0, x1, y0, y1 = self.box
        return (x1 - x0) * (y1 - y0)


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
    """Classification record for one element."""

    kind: str                      # "plain" or "interface"
    side: int = 0                  # +1/-1 for plain elements
    interval: tuple | None = None  # fictitious [xi0, xi1] for interface elements
    cuts: list = field(default_factory=list)


class MeshTags:
    """Classification of a mesh against one interface chart."""

    def __init__(self, tags, edge_cuts, chart):
        self.tags = tags
        self.edge_cuts = edge_cuts   # edge id -> sorted list of EdgeCut
        self.chart = chart

    def interior_cuts(self, k) -> list:
        """Crossing parameters strictly inside edge k; corner crossings split nothing."""
        return [c.t for c in self.edge_cuts.get(k, []) if 1e-12 < c.t < 1.0 - 1e-12]

    @property
    def interface_elements(self):
        return [e for e, t in enumerate(self.tags) if t.kind == "interface"]

    @property
    def n_interface(self):
        return sum(1 for t in self.tags if t.kind == "interface")

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


def _polish_root(chart: FrenetChart, a, b, t):
    """Newton polish of edge(t) = g(xi) from a bisected t on edge a->b."""
    curve = chart.curve
    p = _edge_point(a, b, t)
    xi = float(chart.nearest_parameter_estimate(p[None, :])[0])
    d = b - a
    scale = max(1.0, np.linalg.norm(d))
    for _ in range(40):
        gape = _edge_point(a, b, t) - curve.point(np.asarray(xi, dtype=float))
        if np.linalg.norm(gape) <= 1e-14 * scale:
            break
        gp = curve.velocity(np.asarray(xi, dtype=float))
        # solve [d | -g'] (dt, dxi) = -gape by Cramer's rule
        det = -d[0] * gp[1] + d[1] * gp[0]
        if abs(det) < 1e-300:
            break
        dt = (gape[0] * gp[1] - gape[1] * gp[0]) / det
        dxi = (gape[0] * d[1] - gape[1] * d[0]) / det
        # full steps; the bracket start is already close
        t += dt
        xi += dxi
    fr = frenet_apparatus(curve, xi)
    tangency = abs(float(np.dot(fr.n, d))) / np.linalg.norm(d)
    if tangency < 1e-10:
        raise TangentialIntersection(
            "interface tangent to a mesh edge; perturb the mesh")
    gape = _edge_point(a, b, t) - curve.point(np.asarray(xi, dtype=float))
    if np.linalg.norm(gape) > 1e-12 * scale:
        raise AmbiguousCut("edge crossing failed to converge")
    return float(t), float(xi), _edge_point(a, b, t)


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


def classify_elements(mesh: RectMesh, chart: FrenetChart,
                      edge_samples: int = 33) -> MeshTags:
    """Tag every element as plain or interface and locate all edge crossings.

    Works in level-wide phases, each one chart call for the whole mesh: the
    corner offsets, the samples of every edge of an element not rejected
    outright, the bisection steps of all sign brackets, and the fictitious
    intervals of all interface elements.

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

    tags: list[ElementTag | None] = [None] * mesh.n_elements
    candidates = []
    for e in range(mesh.n_elements):
        ix, iy = e % mesh.nx, e // mesh.nx
        eta_c = np.array([eta_grid[ix, iy], eta_grid[ix + 1, iy],
                          eta_grid[ix + 1, iy + 1], eta_grid[ix, iy + 1]])
        # quick reject: all corners far on one side
        if np.min(np.abs(eta_c)) > 1.000001 * mesh.h:
            tags[e] = ElementTag(kind="plain", side=1 if eta_c[0] > 0 else -1)
        else:
            candidates.append((e, eta_c))

    # offsets at the samples of every candidate edge, one row per edge
    edges = list(dict.fromkeys(int(k) for e, _ in candidates for k in mesh.elem_edges[e]))
    row = {k: i for i, k in enumerate(edges)}
    ts = np.linspace(0.0, 1.0, edge_samples)
    a, b = mesh.edge_a[edges], mesh.edge_b[edges]
    f = chart.signed_distance_estimate(
        (a[:, None, :] + ts[:, None] * (b - a)[:, None, :]).reshape(-1, 2)
    ).reshape(len(edges), edge_samples)

    # brackets between consecutive strict-sign samples (skip near-zeros), on
    # the edges that see both strict signs
    both = np.flatnonzero(np.any(f > zero_tol, axis=1) & np.any(f < -zero_tol, axis=1))
    r, i = np.nonzero(np.abs(f[both]) > zero_tol)
    r = both[r]
    br = np.flatnonzero((r[1:] == r[:-1]) & (f[r[:-1], i[:-1]] * f[r[1:], i[1:]] < 0.0))
    r, i1, i2 = r[br], i[br], i[br + 1]
    t_mid = _bisect(chart, a[r], b[r], ts[i1], ts[i2], f[r, i1])
    edge_cuts: dict[int, list[EdgeCut]] = {k: [] for k in edges}
    for j, t0 in zip(r, t_mid):
        k = edges[j]
        found = edge_cuts[k]
        t, xi, p = _polish_root(chart, a[j], b[j], t0)
        if not any(abs(t - c.t) < 1e-9 for c in found):
            found.append(EdgeCut(edge=k, t=t, xi=xi, point=p))
    for found in edge_cuts.values():
        found.sort(key=lambda c: c.t)

    interface = []
    for e, eta_c in candidates:
        cuts = [c for k in mesh.elem_edges[e] for c in edge_cuts[k]]
        # merge crossings that coincide at a shared corner
        unique = []
        for c in cuts:
            if not any(np.linalg.norm(c.point - u.point) < 1e-12 * mesh.h for u in unique):
                unique.append(c)

        eta_all = f[[row[k] for k in mesh.elem_edges[e]]].ravel()
        has_pos = bool(np.any(eta_all > zero_tol))
        has_neg = bool(np.any(eta_all < -zero_tol))

        if not (has_pos and has_neg):
            side = 1 if (has_pos or eta_c.mean() > 0) else -1
            tags[e] = ElementTag(kind="plain", side=side)
            continue
        if len(unique) < 2:
            # a crossing can sit exactly on a corner/node, inside the zero
            # band of the sign filter; recover it by projecting onto the curve
            edge_pts = np.vstack([_edge_point(mesh.edge_a[k], mesh.edge_b[k], ts)
                                  for k in mesh.elem_edges[e]])
            for idx in np.where(np.abs(eta_all) <= zero_tol)[0]:
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
        tags[e] = ElementTag(kind="interface", interval=(xi0, xi1), cuts=local)

    return MeshTags(tags, edge_cuts, chart)
