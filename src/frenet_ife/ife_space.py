"""Local finite element spaces.

Plain elements carry the usual tensor-product Lagrange basis on
Gauss-Lobatto nodes.  Interface elements carry the immersed basis built in
tubular coordinates on the fictitious box [-h, h] x [xi0, xi1]: the direct
sum of the continuous constrained polynomials (X0, one per trace degree)
and the eta-vanishing monomials weighted by 1/beta per side (X1).  Both
families satisfy the value and flux matching across the interface exactly;
X0 additionally satisfies the operator moment conditions weakly.

All interface polynomials are stored in shifted/scaled coordinates
etabar = eta/h, xibar = (xi - xi_c)/h_xi for conditioning at small h.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import legval

from .errors import DimensionMismatch
from .frenet import FrenetChart
from .laplacian import FrenetLaplacian
from .mesh import MeshTags, RectMesh
# cut_cell_rules is unused here, but perfbench/tracer.py patches ife_space.cut_cell_rules
from .quadrature import (_gauss01, cut_cell_rules, gauss_interval, gauss_rect,  # noqa: F401
                         level_cut_cell_rules)


def _scalings(intervals):
    """Centres xi_c and half-widths h_xi of intervals (E, 2), (E,) each."""
    xi0, xi1 = intervals.T
    return 0.5 * (xi0 + xi1), 0.5 * (xi1 - xi0)


def series_factors(h_eta, h_xi, n):
    """h_eta^-l * (1, 1/h_xi, 1/h_xi^2) for l < n and each of h_xi (E,), (E,
    3, n): the scales of the eta-series of p, p_xi and p_xixi.  Scalar powers
    per element on purpose: an array's ** 2 multiplies, and a rounding of
    pow can differ."""
    s = [h_eta ** (-l) for l in range(n)]
    return np.array([[s, [v / hx for v in s], [v / hx**2 for v in s]]
                     for hx in h_xi.tolist()]).reshape(-1, 3, n)


def _legendre_rows(deg_max, xbar):
    rows = np.zeros((deg_max + 1,) + np.shape(xbar))
    for d in range(deg_max + 1):
        coef = np.zeros(d + 1)
        coef[d] = 1.0
        rows[d] = legval(xbar, coef)
    return rows


def _poly_line_series(C, factors, xbar, n_terms):
    """eta-series of p, p_xi, p_xixi on the interface line at given nodes.

    C stacks (m+1, m+1) coefficient matrices over etabar^j xibar^i, (..., m+1,
    m+1); factors holds series_factors(h_eta, h_xi, m+1), (..., 3, m+1), and
    xbar the nodes, (..., n_nodes), both broadcasting against C's leading
    axes.  Returns three arrays shaped (..., n_terms, n_nodes).  Each row is
    one stacked (1, m+1) @ (m+1, n_nodes) product, laid out as
    np.vander(xbar).T: a product over the stack would round differently.
    """
    m = C.shape[-1] - 1
    i_idx = np.arange(m + 1)
    L = min(n_terms, m + 1)
    V = np.ones(np.shape(xbar) + (m + 1,))
    V[..., 1:] = xbar[..., None]
    V = np.swapaxes(np.multiply.accumulate(V, axis=-1), -1, -2)[..., None, :, :]
    D = [C, np.roll(C * i_idx, -1, axis=-1), np.roll(C * i_idx * (i_idx - 1), -2, axis=-1)]
    out = np.zeros((3,) + np.broadcast_shapes(C.shape[:-2], factors.shape[:-2], xbar.shape[:-1])
                   + (n_terms, np.shape(xbar)[-1]))
    for k in range(min(m, 2) + 1):
        out[k, ..., :L, :] = factors[..., k, :L, None] * (D[k][..., :L, None, :] @ V)[..., 0, :]
    return out


def _l_operator_series(C, factors, jets, xbar, n_out):
    """eta-series of L(p) on the line: coefficients of eta^l, l < n_out.
    Arguments as for _poly_line_series, jets (..., n_out, n_nodes) each."""
    A, B, Cc = jets
    P, P1, P2 = _poly_line_series(C, factors, xbar, n_out + 2)
    out = np.zeros(P.shape[:-2] + (n_out, P.shape[-1]))
    for l in range(n_out):
        acc = (l + 1) * (l + 2) * P[..., l + 2, :]
        for k in range(l + 1):
            acc = acc + A[..., k, :] * (l - k + 1) * P[..., l - k + 1, :]
            acc = acc + B[..., k, :] * P2[..., l - k, :]
            acc = acc + Cc[..., k, :] * P1[..., l - k, :]
        out[..., l, :] = acc
    return out


def _line_terms(chart, intervals, xi_c, h_xi, m: int, q: int):
    """What the moments of L(p)(0, .) need on every interval (E, 2) at once,
    with its q-point Gauss rule and its centre xi_c and half-width h_xi (E,):
    the series factors (E, 1, 3, m+1), xibar at the nodes (E, 1, q), the jets
    up to eta^(m-2) from one coefficient_jets call ((E, 1, m-1, q) each) and
    the weights times the Legendre tests up to degree m (E, m+1, q)."""
    rule = gauss_interval(*intervals.T[..., None], q)
    xbar = (rule.points - xi_c[:, None]) / h_xi[:, None]
    jets = FrenetLaplacian(chart).coefficient_jets(rule.points.ravel(), m - 2)
    return (series_factors(chart.h, h_xi, m + 1)[:, None], xbar[:, None],
            tuple(np.moveaxis(j.reshape(m - 1, *xbar.shape), 0, 1)[:, None] for j in jets),
            np.moveaxis(_legendre_rows(m, xbar) * rule.weights, 0, 1))


def build_x0(chart: FrenetChart, elements, intervals, m: int, line_q: int | None = None):
    """Constrained continuous polynomials: nullspace of the trace conditions.

    Rows: the m+1 coefficients of p_eta(0, .) plus, for each eta-derivative
    order j <= m-2, the moments of L(p)(0, .) against Legendre tests up to
    degree m.  `intervals` (E, 2) holds the (xi0, xi1) of the elements
    `elements` (E,), all built at once.  Returns the vectors (E, m+1, m+1,
    m+1), one per row.

    Raises DimensionMismatch, naming the first such element, if the
    nullspace dimension is not m+1.
    """
    spans = np.asarray(intervals, dtype=float).reshape(-1, 2)
    nb = (m + 1) ** 2
    M = np.zeros((len(spans), m * (m + 1), nb))
    M[:, range(m + 1), range(m + 1, 2 * (m + 1))] = 1.0
    if m >= 2:
        q = line_q if line_q is not None else m + 3
        factors, xbar, jets, tests = _line_terms(chart, spans, *_scalings(spans), m, q)
        units = np.eye(nb).reshape(nb, m + 1, m + 1)
        series = _l_operator_series(units, factors, jets, xbar, m - 1)   # (E, nb, m-1, q)
        M[:, m + 1:] = (np.swapaxes(series, 1, 2)[:, :, None]   # (nb, q) @ (q,) per row
                        @ tests[:, None, :, :, None]).reshape(len(spans), m * m - 1, nb)
    _, s, vt = np.linalg.svd(M)
    null_dim = nb - np.sum(s > 1e-10 * s[:, :1], axis=1)
    for e, d in zip(elements, null_dim):
        if d != m + 1:
            raise DimensionMismatch(
                f"element {e}: X0 nullspace dimension {d}, expected {m + 1}; "
                "raise the line quadrature order or check the chart")
    return vt[:, nb - m - 1:].reshape(-1, m + 1, m + 1, m + 1)


def weak_condition_residuals(bases, line_q: int | None = None):
    """Moment residuals of the operator jump conditions, all orders j <= m-2,
    of every row of the interface bases at once: (E, n_basis, (m-1)(m+1)).
    Each moment is one stacked dot product, as per function.  Its default
    line order m+6 is finer than build_x0's, so it cross-checks the X0
    constraints."""
    m, nb, E = bases.m, bases.n_basis, len(bases.interval)
    if m < 2:
        return np.zeros((E, nb, 0))
    q = line_q if line_q is not None else m + 6
    factors, xbar, jets, tests = _line_terms(bases.chart, bases.interval, bases.xi_c,
                                             bases.h_xi, m, q)
    sp, sm = (_l_operator_series(bases.coef[s], factors, jets, xbar, m - 1) for s in (1, -1))
    jump = bases.beta[1] * sp - bases.beta[-1] * sm
    moments = jump[..., None, None, :] @ tests[:, None, None, :, :, None]
    return moments.reshape(E, nb, m * m - 1)


def _ref_values(bases, rows, sides, eta, xi):
    """Values and (d/deta, d/dxi) gradients in tubular coordinates of the
    interface basis of row rows[g] on side sides[g] at the points (eta[g],
    xi[g]), (G, P) each: three (G, n_basis, P) arrays, one einsum each over
    all rows, each row with the arithmetic of a call on its own."""
    m, rows, sides = bases.m, np.asarray(rows), np.asarray(sides)
    C = np.empty((len(rows),) + bases.coef[1].shape[1:])
    for s in (1, -1):
        C[sides == s] = bases.coef[s][rows[sides == s]]
    h_eta, xi_c, h_xi = bases.chart.h, bases.xi_c[rows, None], bases.h_xi[rows, None]
    ebar, xbar = eta / h_eta, (xi - xi_c) / h_xi
    Ve, Vx = (np.vander(x.ravel(), m + 1, increasing=True).reshape(*x.shape, m + 1)
              for x in (ebar, xbar))
    j = np.arange(m + 1)
    dVe = np.zeros_like(Ve)
    dVe[..., 1:] = Ve[..., :-1] * j[1:]
    dVx = np.zeros_like(Vx)
    dVx[..., 1:] = Vx[..., :-1] * j[1:]
    g_eta = np.einsum("ebji,epj,epi->ebp", C, dVe, Vx)
    g_eta /= h_eta
    g_xi = np.einsum("ebji,epj,epi->ebp", C, Ve, dVx)
    g_xi /= h_xi[..., None]
    return np.einsum("ebji,epj,epi->ebp", C, Ve, Vx), g_eta, g_xi


def _physical(vals, g_eta, g_xi, J):
    """(values, physical gradients (..., n_basis, P, 2)) from tubular ones
    (..., n_basis, P) and the chart Jacobians J (..., P, 2, 2) there, in
    place where that rounds the same, to keep the level's peak memory low."""
    J = J[..., None, :, :, :]
    det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    grads = np.empty(g_eta.shape + (2,))
    gx, gy = grads[..., 0], grads[..., 1]
    np.multiply(J[..., 1, 1], g_eta, out=gx)
    gx -= J[..., 1, 0] * g_xi
    gx /= det
    np.multiply(-J[..., 0, 1], g_eta, out=gy)
    gy += J[..., 0, 0] * g_xi
    gy /= det
    return vals, grads


def interface_jumps(bases, xi):
    """Value and flux (beta * d_eta) jumps of every function of every row of
    the interface bases on the interface at parameters xi, (E, n): two (E,
    n_basis, n) arrays."""
    rows, zeros = np.arange(len(xi)), np.zeros_like(xi)
    vp, gp, _ = _ref_values(bases, rows, np.ones_like(rows), zeros, xi)
    vm, gm, _ = _ref_values(bases, rows, -np.ones_like(rows), zeros, xi)
    return vp - vm, bases.beta[1] * gp - bases.beta[-1] * gm


class IfeBasis:
    """Immersed bases of the interface elements of a level, one row per
    element: (m+1)^2 piecewise functions each.

    Each function is a pair of coefficient matrices over (etabar, xibar),
    one per side of the interface; X0 members coincide on both sides, X1
    members are the same monomial divided by the side's beta.
    """

    def __init__(self, chart: FrenetChart, intervals, beta_minus: float, beta_plus: float, x0):
        """intervals (E, 2): the elements' (xi0, xi1); x0 (E, m+1, m+1, m+1):
        their X0 vectors from build_x0."""
        m = x0.shape[-1] - 1
        self.chart = chart
        self.m = m
        self.beta = {-1: float(beta_minus), 1: float(beta_plus)}
        self.interval = np.asarray(intervals, dtype=float).reshape(-1, 2)
        self.xi_c, self.h_xi = _scalings(self.interval)
        self.n_basis = (m + 1) ** 2
        # the eta-vanishing monomials etabar^j xibar^i, j >= 1
        x1 = np.eye(self.n_basis).reshape(-1, m + 1, m + 1)[None, m + 1:].repeat(len(x0), 0)
        self.coef = {1: np.concatenate([x0, x1 / beta_plus], axis=1),
                     -1: np.concatenate([x0, x1 / beta_minus], axis=1)}

    def evaluate(self, rows, sides, eta, xi, J):
        """Physical values (G, n_basis, P) and gradients (G, n_basis, P, 2) of
        the basis of row rows[g] on side sides[g] at the points (eta[g],
        xi[g]), (G, P) each, with chart Jacobians J (G, P, 2, 2) there."""
        return _physical(*_ref_values(self, rows, sides, eta, xi), J)


def _lobatto_nodes(m: int):
    if m == 1:
        return np.array([-1.0, 1.0])
    if m == 2:
        return np.array([-1.0, 0.0, 1.0])
    if m == 3:
        s = 1.0 / np.sqrt(5.0)
        return np.array([-1.0, -s, s, 1.0])
    raise ValueError("degree must be 1, 2 or 3")


def _lagrange_1d(nodes, x):
    """Values and derivatives of the Lagrange basis at points x."""
    n = len(nodes)
    vals = np.ones((n, len(x)))
    ders = np.zeros((n, len(x)))
    for a in range(n):
        for b in range(n):
            if b == a:
                continue
            vals[a] *= (x - nodes[b]) / (nodes[a] - nodes[b])
        for c in range(n):
            if c == a:
                continue
            term = np.ones_like(x) / (nodes[a] - nodes[c])
            for b in range(n):
                if b in (a, c):
                    continue
                term *= (x - nodes[b]) / (nodes[a] - nodes[b])
            ders[a] += term
    return vals, ders


def _reference_coords(box, pts):
    """Points mapped onto [-1, 1]^2 from the rectangle (xl, yl, xh, yh), or
    from each of a stack of them given as arrays: xr, yr."""
    xl, yl, xh, yh = (np.asarray(c, dtype=float)[..., None] for c in box)
    return (2.0 * (pts[..., 0] - xl) / (xh - xl) - 1.0,
            2.0 * (pts[..., 1] - yl) / (yh - yl) - 1.0)


def at_points(fn, groups):
    """fn(points, side) at every point (E, nq, 2) of each of groups [(points,
    sides (E,))], in one call over all of them: [(E, nq, ...)] per group."""
    out = fn(np.concatenate([p.reshape(-1, 2) for p, _ in groups]),
             np.concatenate([np.repeat(s, p.shape[1]) for p, s in groups]))
    at = np.cumsum([p.shape[0] * p.shape[1] for p, _ in groups])[:-1]
    return [o.reshape(p.shape[:2] + out.shape[1:]) for o, (p, _) in zip(np.split(out, at), groups)]


class TensorBasis:
    """Q^m Lagrange basis on Gauss-Lobatto nodes of an uncut element, or of
    each of a stack of them: a box (xl, yl, xh, yh) of scalars or of (K,)
    arrays."""

    def __init__(self, box, m: int):
        self.box = box
        self.n_basis = (m + 1) ** 2
        self.nodes = _lobatto_nodes(m)

    def evaluate(self, pts, side=None):
        """Values (nl, P) and gradients (nl, P, 2) at pts (P, 2) of the one
        element, or (K, nl, P) and (K, nl, P, 2) at pts (K, P, 2) of a stack,
        from one 1D Lagrange evaluation at all their reference coordinates;
        side is ignored."""
        x, y = _reference_coords(self.box, np.atleast_2d(np.asarray(pts, dtype=float)))
        (vx, vy), (dx_, dy_) = (np.moveaxis(a.reshape(len(a), 2, *x.shape), 0, -2) for a in
                                _lagrange_1d(self.nodes, np.concatenate([x.ravel(), y.ravel()])))
        xl, yl, xh, yh = (np.asarray(c, dtype=float)[..., None, None] for c in self.box)
        shape = vx.shape[:-2] + (self.n_basis, vx.shape[-1])
        vals = (vx[..., :, None, :] * vy[..., None, :, :]).reshape(shape)
        gx = (dx_[..., :, None, :] * vy[..., None, :, :]).reshape(shape) * (2.0 / (xh - xl))
        gy = (vx[..., :, None, :] * dy_[..., None, :, :]).reshape(shape) * (2.0 / (yh - yl))
        return vals, np.stack([gx, gy], axis=-1)


class SpaceSet:
    """The bases of a classified mesh, the coefficient layout (contiguous
    per-element blocks of n_local = (m+1)^2 of the n_dofs coefficients) and
    the level's quadrature table at the level's Gauss orders: q_vol points
    per axis on volumes (default m+2) and q_edge on edges (default m+3).
    Each part of the table is built once for the whole level on its first
    read; volume_groups, edge_groups and gradients read it, bit-identical to
    per-element evaluation:

    - the segment table: every segment of every edge, edge by edge in
      cut_edge_rule order; the one segment of an edge between plain
      elements of one side takes their side, every other row the sign of
      eta at its point of largest |eta|, from one chart Newton pass;
    - the interface stacks: the pieces of the interface elements, from
      quadrature.level_cut_cell_rules, and the segment rows of their edges,
      as arrays with their basis values;
    - the groups that assembly and error norms loop over: the plain groups
      (plain elements, and one-segment edges between plain elements, grouped
      by the bytes their blocks read), then the interface pieces stacked by
      size and the other segment rows stacked by member count.  Values have
      a leading axis L of 1 on a plain group, whose rows share them, else
      one per row.
    """

    def __init__(self, mesh: RectMesh, tags: MeshTags, chart: FrenetChart,
                 m: int, beta_minus: float, beta_plus: float, quad: dict | None = None):
        """quad: the config's {"volume", "edge", "interface"} Gauss orders; a
        missing or None order takes its default (the interface's is build_x0's)."""
        quad = {k: v for k, v in (quad or {}).items() if v is not None}
        self.mesh = mesh
        self.tags = tags
        self.chart = chart
        self.m = m
        self.beta_minus = float(beta_minus)
        self.beta_plus = float(beta_plus)
        self.q_vol, self.q_edge = quad.get("volume", m + 2), quad.get("edge", m + 3)
        cuts = tags.interface       # one basis row per row of the record
        x0 = build_x0(chart, cuts.elements, cuts.interval, m, quad.get("interface"))
        self.bases = IfeBasis(chart, cuts.interval, beta_minus, beta_plus, x0)
        self.n_local = (m + 1) ** 2
        self.n_dofs = mesh.n_elements * self.n_local
        self._table = {}

    def beta_of(self, side) -> float:
        return np.where(np.asarray(side) > 0, self.beta_plus, self.beta_minus)

    # -- quadrature table --------------------------------------------------------
    def _cached(self, key, build):
        if key not in self._table:
            self._table[key] = build()
        return self._table[key]

    def _segments(self):
        """The segment table: every segment of every edge, edge by edge in
        cut_edge_rule order and with its arithmetic at order q_edge: (edge,
        first row of each edge, side, points (R, q, 2), weights (R, q), the
        asked rows (A,), and eta and raw xi (A, q) at their points).  The one
        segment of an edge whose elements are plain and agree takes their
        side; every other row is asked: one chart Newton pass over them all
        gives it the sign of eta at its point of largest |eta|, the rule of
        level_cut_cell_rules for regions."""
        def build():
            mesh, (k, t) = self.mesh, self.tags.crossings
            # the spans of each edge join its knots, 0, its interior crossings
            # and 1, in turn, but for those shorter than 1e-14
            inner = (t > 1e-12) & (t < 1.0 - 1e-12)
            k, t, ends = k[inner], t[inner], np.arange(mesh.n_edges)
            start = np.searchsorted(k, ends)
            edge, t0 = np.insert(k, start, ends), np.insert(t, start, 0.0)
            t1 = np.insert(t, np.searchsorted(k, ends, side="right"), 1.0)
            keep = ~(t1 - t0 < 1e-14)
            edge, t0, t1 = edge[keep], t0[keep, None], t1[keep, None]
            first = np.searchsorted(edge, np.arange(mesh.n_edges + 1))
            (x, w), a, b = _gauss01(self.q_edge), mesh.edge_a[edge, None], mesh.edge_b[edge, None]
            pts = a + (t0 + (t1 - t0) * x)[..., None] * (b - a)
            elems = mesh.edge_elems[edge]          # a boundary edge reads its one element twice
            both = self.tags.tags[np.where(elems < 0, elems[:, :1], elems)]
            side = np.where((np.diff(first)[edge] == 1) & (both[:, 0] == both[:, 1]), both[:, 0], 0)
            ask = np.flatnonzero(side == 0)
            eta, xi = (v.reshape(len(ask), self.q_edge)
                       for v in self.chart._converged(pts[ask].reshape(-1, 2)))
            side[ask] = np.where(eta[np.arange(len(ask)), np.abs(eta).argmax(axis=1)] > 0, 1, -1)
            return (edge, first, side, pts, ((t1 - t0) * mesh.edge_length[edge, None]) * w,
                    ask, eta, xi)
        return self._cached("segments", build)

    def interface_stacks(self, volume: bool):
        """The pieces of the interface elements (volume) or the segment-table
        rows of their four edges, element by element, as one array record
        per size P of piece or segment (a fan piece has 2 to 6 cells of q*q
        points; every segment has q_edge): [(elements (G,), keys (G,),
        points (G, P, 2), weights (G, P), sides (G,), vals (G, nl, P), grads
        (G, nl, P, 2))].  keys is the piece index (0: the plus piece, 1: the
        minus one) or the segment-table row.  Built on the first read and kept:
        the chart coordinates of the pieces from level_cut_cell_rules' inverse
        and of the segments from the segment table's Newton pass, each xi
        unwrapped at its element's interval midpoint, then one chart Jacobian
        and one stacked evaluation per size."""
        def build():
            elems = self.tags.interface.elements
            if not len(elems):
                return []
            if volume:
                pts, w, eta, xi, sizes = level_cut_cell_rules(self.mesh, self.tags.interface,
                                                              self.chart, self.q_vol)
                at, keys = np.repeat(np.arange(len(elems)), 2), np.tile([0, 1], len(elems))
                sides = np.tile([1, -1], len(elems))
            else:
                _, first, labels, seg_pts, seg_w, ask, eta, xi = self._segments()
                at, keys = self.mesh.face_rows(first, elems)
                sides, sizes = labels[keys], np.full(len(keys), self.q_edge)
                pts, w = seg_pts[keys].reshape(-1, 2), seg_w[keys].ravel()
                eta, xi = (a[np.searchsorted(ask, keys)] for a in (eta, xi))   # face rows are asked
                eta, xi = eta.ravel(), self.chart._unwrap(xi, self.bases.xi_c[at, None]).ravel()
            J = self.chart.jacobian(eta, xi)
            first = np.cumsum(sizes) - sizes
            stacks = []
            for n in np.unique(sizes):
                rows = np.flatnonzero(sizes == n)
                take = first[rows, None] + np.arange(n)
                vals, grads = self.bases.evaluate(at[rows], sides[rows], eta[take], xi[take],
                                                  J[take])
                stacks.append((elems[at[rows]], keys[rows], pts[take], w[take], sides[rows],
                               vals, grads))
            return stacks
        return self._cached(("stacks", volume), build)

    def _plain_groups(self, volume: bool):
        """[(ids, points (E, nq, 2), weights (E, nq), sides (E,))]: the plain
        elements (volume) or the segment rows the tags label, grouped by the
        bytes of everything their blocks read (weights, side, the reference
        coordinates and box widths of their elements and, on edges, the
        normal and boundary flag), in their lexicographic order."""
        mesh = self.mesh
        if volume:
            ids = np.flatnonzero(self.tags.tags)
            rule = gauss_rect(mesh.elem_box(ids), self.q_vol)
            pts, w, elems, head = rule.points, rule.weights, ids[:, None], []
            sides = self.tags.tags[ids]
        else:
            edge, _, labels, seg_pts, seg_w, ask, *_ = self._segments()
            ids = np.delete(np.arange(len(edge)), ask)
            pts, w, sides, k = seg_pts[ids], seg_w[ids], labels[ids], edge[ids]
            elems, head = mesh.edge_elems[k], [mesh.edge_normal[k], mesh.edge_is_boundary[k]]
        key = [w, *head, sides]
        for p in range(elems.shape[1]):
            there = elems[:, p, None] >= 0
            xl, yl, xh, yh = mesh.elem_box(elems[:, p])
            key += [np.where(there, c, 0.0) for c in (*_reference_coords((xl, yl, xh, yh), pts),
                                                      np.column_stack([xh - xl, yh - yl]))]
        key = np.column_stack(key).view(np.int64)
        order = np.lexsort(key.T[::-1])                  # first column first, stable
        new = np.flatnonzero(np.any(key[order[1:]] != key[order[:-1]], axis=1)) + 1
        return [(ids[mem], pts[mem], w[mem], sides[mem])
                for mem in np.split(order, new) if len(mem)]

    def volume_groups(self):
        """Every element piece of the level in groups: [(elements (E,),
        points (E, nq, 2), weights (E, nq), sides (E,), vals (L, nl, nq),
        grads (L, nl, nq, 2))], one per group of plain elements, then one per
        size of interface piece."""
        def build():
            plain = self._plain_groups(True)
            first = np.array([ids[0] for ids, *_ in plain], dtype=int)
            vals, grads = TensorBasis(self.mesh.elem_box(first), self.m).evaluate(
                np.reshape([p[0] for _, p, *_ in plain], (len(plain), self.q_vol**2, 2)))
            return [(*group, vals[g:g + 1], grads[g:g + 1]) for g, group in enumerate(plain)] + \
                [(elems, pts, w, sides, vals, grads)
                 for elems, _, pts, w, sides, vals, grads in self.interface_stacks(True)]
        return self._cached(("groups", True), build)

    def edge_groups(self):
        """Every edge segment of the level in groups: [(edges, segment-table
        rows, points, weights, sides, members)], members [(sign, vals,
        grads)] of element mesh.edge_elems[edges, j] for member j, sign +1 on
        the element the normal points out of and -1 on the neighbour; one
        per group of plain edges, then one per member count of the others.
        The values of a plain group have a leading axis of 1."""
        def build():
            edge, _, sides, pts, w, cut, *_ = self._segments()
            elems, plain = self.mesh.edge_elems, self._plain_groups(False)
            inner = elems[edge[cut], 1] >= 0
            groups = plain + [(rows, pts[rows], w[rows], sides[rows])
                              for rows in (cut[~inner], cut[inner]) if len(rows)]
            # every member's values on the rows that carry them, member by
            # member: the plain ones from one Lagrange evaluation, the others
            # gathered from the kept interface stack (one: all segments have
            # q_edge points)
            count = [1 + (elems[edge[rows[0]], 1] >= 0) for rows, *_ in groups]
            slots = [(rows[:1] if g < len(plain) else rows, j)
                     for g, ((rows, *_), n) in enumerate(zip(groups, count)) for j in range(n)]
            f = np.concatenate([elems[edge[rows], j] for rows, j in slots])
            r = np.concatenate([rows for rows, _ in slots])
            vals = np.empty((len(f), self.n_local, self.q_edge))
            grads = np.empty(vals.shape + (2,))
            flat = self.tags.tags[f] != 0
            vals[flat], grads[flat] = TensorBasis(self.mesh.elem_box(f[flat]),
                                                  self.m).evaluate(pts[r[flat]])
            if not flat.all():
                ((owner, keys, _, _, _, v, g),) = self.interface_stacks(False)
                known = owner * len(edge) + keys
                order = np.argsort(known)
                take = order[np.searchsorted(known[order], (f * len(edge) + r)[~flat])]
                vals[~flat], grads[~flat] = v[take], g[take]
            at = np.cumsum([len(rows) for rows, _ in slots])[:-1]
            members = iter(zip(np.split(vals, at), np.split(grads, at)))
            return [(edge[rows], rows, p, wk, s, [(sign, *next(members)) for sign in (1.0, -1.0)[:n]])
                    for (rows, p, wk, s), n in zip(groups, count)]
        return self._cached(("groups", False), build)

    def gradients(self, elems, volume: bool):
        """Gradients of the bases of elements elems (K,) on their pieces
        (volume) or on the segment rows of their faces: [(index into elems,
        -1 for an element not in it, sides, weights, grads)], one entry per
        interface stack, read whole without a copy, then, if elems holds
        plain elements, one for them, evaluated on their own rule or rows,
        each element's in turn."""
        tags, at = self.tags.tags, np.full(self.mesh.n_elements, -1)
        at[elems] = np.arange(len(elems))
        stacks = self.interface_stacks(volume) if (tags[elems] == 0).any() else []
        out = [(at[owner], sides, w, grads) for owner, _, _, w, sides, _, grads in stacks]
        plain = elems[tags[elems] != 0]
        if not len(plain):
            return out
        if volume:
            rule = gauss_rect(self.mesh.elem_box(plain), self.q_vol)
            f, sides, pts, w = plain, tags[plain], rule.points, rule.weights
        else:
            _, first, labels, seg_pts, seg_w, *_ = self._segments()
            i, rows = self.mesh.face_rows(first, plain)
            f, sides, pts, w = plain[i], labels[rows], seg_pts[rows], seg_w[rows]
        _, grads = TensorBasis(self.mesh.elem_box(f), self.m).evaluate(pts)
        return out + [(at[f], sides, w, grads)]


def build_spaces(mesh, tags, chart, m, beta_minus, beta_plus, quad=None) -> SpaceSet:
    return SpaceSet(mesh, tags, chart, m, beta_minus, beta_plus, quad)


_JUMP_SAMPLES = 24   # interface points of the diagnostics' jump maxima


def gram_fictitious(bases):
    """Exact L2 Grams over the fictitious boxes (both sides) of every row of
    the interface bases: (E, n_basis, n_basis)."""
    m = bases.m
    a = np.arange(m + 1)
    apb = a[:, None] + a[None, :]
    m_neg = ((-1.0) ** apb) / (apb + 1.0)
    m_pos = 1.0 / (apb + 1.0)
    m_xi = np.where(apb % 2 == 0, 2.0 / (apb + 1.0), 0.0)
    c = bases.coef
    g = np.einsum("efab,egcd,ac,bd->efg", c[-1], c[-1], m_neg, m_xi)
    g = g + np.einsum("efab,egcd,ac,bd->efg", c[1], c[1], m_pos, m_xi)
    return (bases.chart.h * bases.h_xi)[:, None, None] * g


def space_diagnostics(spaces: SpaceSet):
    """Per-interface-element conditioning and conformity residuals.

    One row per interface element: normalized Gram condition number and
    smallest singular value, plus the maxima of the value/flux jumps on the
    interface and of the weak moment residuals; each from one kernel over
    all interface elements.
    """
    bases = spaces.bases
    if not len(bases.interval):
        return []
    weak = weak_condition_residuals(bases)
    jumps = interface_jumps(bases, np.linspace(*bases.interval.T, _JUMP_SAMPLES, axis=1))
    g = gram_fictitious(bases)
    d = np.sqrt(np.diagonal(g, axis1=1, axis2=2))
    sv = np.linalg.svd(g / (d[:, :, None] * d[:, None, :]), compute_uv=False)
    columns = (sv[:, 0] / sv[:, -1], sv[:, -1], *(np.abs(j).max(axis=(1, 2)) for j in jumps),
               np.abs(weak).max(axis=(1, 2), initial=0.0))
    keys = ("gram_cond", "gram_min_sv", "max_value_jump", "max_flux_jump", "max_weak_residual")
    return [{"element": e, **{k: float(v) for k, v in zip(keys, row)}}
            for e, *row in zip(spaces.tags.interface.elements.tolist(), *columns)]
