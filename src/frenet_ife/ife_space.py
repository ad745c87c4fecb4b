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

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legval

from .errors import DimensionMismatch
from .frenet import FrenetChart
from .laplacian import FrenetLaplacian
from .mesh import MeshTags, RectMesh
# cut_cell_rules is unused here, but perfbench/tracer.py patches ife_space.cut_cell_rules
from .quadrature import (_gauss01, cut_cell_rules, edge_spans, gauss_interval,  # noqa: F401
                         gauss_rect, level_cut_cell_rules)


@dataclass
class LocalScaling:
    """Affine normalization of (eta, xi) onto the unit box of one element."""

    h_eta: float
    xi_c: float
    h_xi: float

    def xibar(self, xi):
        return (np.asarray(xi, dtype=float) - self.xi_c) / self.h_xi

    def etabar(self, eta):
        return np.asarray(eta, dtype=float) / self.h_eta

    def series_factors(self, n):
        """h_eta^-l * (1, 1/h_xi, 1/h_xi^2) for l < n, (3, n): the scales of
        the eta-series of p, p_xi and p_xixi.  Scalar powers on purpose: an
        array's ** 2 multiplies, and a rounding of pow can differ."""
        s = [self.h_eta ** (-l) for l in range(n)]
        return np.array([s, [v / self.h_xi for v in s], [v / self.h_xi**2 for v in s]])


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
    m+1); factors holds LocalScaling.series_factors(m+1), (..., 3, m+1), and
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


def _line_terms(chart, intervals, scalings, m: int, q: int):
    """What the moments of L(p)(0, .) need on every interval (xi0, xi1) at
    once, with its q-point Gauss rule: the series factors (E, 1, 3, m+1),
    xibar at the nodes (E, 1, q), the jets up to eta^(m-2) from one
    coefficient_jets call ((E, 1, m-1, q) each) and the weights times the
    Legendre tests up to degree m (E, m+1, q)."""
    rule = gauss_interval(*np.array(intervals, dtype=float).reshape(-1, 2).T[..., None], q)
    xi_c, h_xi = np.array([[s.xi_c, s.h_xi] for s in scalings]).reshape(-1, 2).T[..., None]
    xbar = (rule.points - xi_c) / h_xi
    jets = FrenetLaplacian(chart).coefficient_jets(rule.points.ravel(), m - 2)
    factors = np.array([s.series_factors(m + 1) for s in scalings]).reshape(-1, 1, 3, m + 1)
    return (factors, xbar[:, None],
            tuple(np.moveaxis(j.reshape(m - 1, *xbar.shape), 0, 1)[:, None] for j in jets),
            np.moveaxis(_legendre_rows(m, xbar) * rule.weights, 0, 1))


def build_x0(chart: FrenetChart, intervals, m: int, line_q: int | None = None):
    """Constrained continuous polynomials: nullspace of the trace conditions.

    Rows: the m+1 coefficients of p_eta(0, .) plus, for each eta-derivative
    order j <= m-2, the moments of L(p)(0, .) against Legendre tests up to
    degree m.  `intervals` is {element: interval (xi0, xi1)}, all built at
    once.  Returns (vectors (E, m+1, m+1, m+1), [scaling]) in key order.

    Raises DimensionMismatch, naming the first such element, if the
    nullspace dimension is not m+1.
    """
    scalings = [LocalScaling(h_eta=chart.h, xi_c=0.5 * (xi0 + xi1), h_xi=0.5 * (xi1 - xi0))
                for xi0, xi1 in intervals.values()]
    nb = (m + 1) ** 2
    M = np.zeros((len(intervals), m * (m + 1), nb))
    M[:, range(m + 1), range(m + 1, 2 * (m + 1))] = 1.0
    if m >= 2:
        q = line_q if line_q is not None else m + 3
        factors, xbar, jets, tests = _line_terms(chart, list(intervals.values()), scalings, m, q)
        units = np.eye(nb).reshape(nb, m + 1, m + 1)
        series = _l_operator_series(units, factors, jets, xbar, m - 1)   # (E, nb, m-1, q)
        M[:, m + 1:] = (np.swapaxes(series, 1, 2)[:, :, None]   # (nb, q) @ (q,) per row
                        @ tests[:, None, :, :, None]).reshape(len(intervals), m * m - 1, nb)
    _, s, vt = np.linalg.svd(M)
    null_dim = nb - np.sum(s > 1e-10 * s[:, :1], axis=1)
    for e, d in zip(intervals, null_dim):
        if d != m + 1:
            raise DimensionMismatch(
                f"element {e}: X0 nullspace dimension {d}, expected {m + 1}; "
                "raise the line quadrature order or check the chart")
    return vt[:, nb - m - 1:].reshape(-1, m + 1, m + 1, m + 1), scalings


def weak_condition_residuals(chart, m: int, bases, line_q: int | None = None):
    """Moment residuals of the operator jump conditions, all orders j <= m-2,
    of every interface basis in `bases` at once: (E, n_basis, (m-1)(m+1)).
    Each moment is one stacked dot product, as per function.  Its default
    line order m+6 is finer than build_x0's, so it cross-checks the X0
    constraints."""
    nb = (m + 1) ** 2
    if m < 2:
        return np.zeros((len(bases), nb, 0))
    q = line_q if line_q is not None else m + 6
    factors, xbar, jets, tests = _line_terms(chart, [b.interval for b in bases],
                                             [b.scaling for b in bases], m, q)
    sp, sm = (_l_operator_series(np.array([b.coef[s] for b in bases]).reshape(-1, nb, m + 1, m + 1),
                                 factors, jets, xbar, m - 1) for s in (1, -1))
    beta = np.array([[b.beta[1], b.beta[-1]] for b in bases]).reshape(-1, 2, 1, 1, 1)
    jump = beta[:, 0] * sp - beta[:, 1] * sm
    moments = jump[..., None, None, :] @ tests[:, None, None, :, :, None]
    return moments.reshape(len(bases), nb, m * m - 1)


def _ref_values(bases, sides, eta, xi):
    """Values and (d/deta, d/dxi) gradients in tubular coordinates of
    interface basis bases[g] on side sides[g] at the points (eta[g], xi[g]),
    (G, P) each: three (G, n_basis, P) arrays, one einsum each over all rows,
    each row with the arithmetic of a call on its own."""
    m = bases[0].m
    C = np.array([b.coef[s] for b, s in zip(bases, sides)])
    h_eta, xi_c, h_xi = np.array([[b.scaling.h_eta, b.scaling.xi_c, b.scaling.h_xi]
                                  for b in bases]).T[..., None]
    ebar, xbar = eta / h_eta, (xi - xi_c) / h_xi
    Ve, Vx = (np.vander(x.ravel(), m + 1, increasing=True).reshape(*x.shape, m + 1)
              for x in (ebar, xbar))
    j = np.arange(m + 1)
    dVe = np.zeros_like(Ve)
    dVe[..., 1:] = Ve[..., :-1] * j[1:]
    dVx = np.zeros_like(Vx)
    dVx[..., 1:] = Vx[..., :-1] * j[1:]
    g_eta = np.einsum("ebji,epj,epi->ebp", C, dVe, Vx)
    g_eta /= h_eta[..., None]
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
    """Value and flux (beta * d_eta) jumps of every function of bases[g] on
    the interface at parameters xi[g], (G, n): two (G, n_basis, n) arrays."""
    zeros = np.zeros_like(xi)
    vp, gp, _ = _ref_values(bases, [1] * len(bases), zeros, xi)
    vm, gm, _ = _ref_values(bases, [-1] * len(bases), zeros, xi)
    beta = np.array([[b.beta[1], b.beta[-1]] for b in bases]).T[..., None, None]
    return vp - vm, beta[0] * gp - beta[1] * gm


class IfeBasis:
    """Immersed basis of one interface element: (m+1)^2 piecewise functions.

    Each function is a pair of coefficient matrices over (etabar, xibar),
    one per side of the interface; X0 members coincide on both sides, X1
    members are the same monomial divided by the side's beta.
    """

    def __init__(self, chart: FrenetChart, interval, beta_minus: float, beta_plus: float,
                 x0, scaling: LocalScaling):
        """interval: the element's (xi0, xi1); x0, scaling: its X0 vectors
        (m+1, m+1, m+1) and scaling from build_x0."""
        m = x0.shape[0] - 1
        self.chart = chart
        self.m = m
        self.beta = {-1: float(beta_minus), 1: float(beta_plus)}
        self.scaling = scaling
        self.interval = interval
        self.n_basis = (m + 1) ** 2
        # the eta-vanishing monomials etabar^j xibar^i, j >= 1
        x1 = np.eye(self.n_basis).reshape(-1, m + 1, m + 1)[m + 1:]
        self.origins = ["x0"] * (m + 1) + ["x1"] * len(x1)
        self.coef = {1: np.concatenate([x0, x1 / beta_plus]),
                     -1: np.concatenate([x0, x1 / beta_minus])}

    # -- evaluation ------------------------------------------------------------
    def evaluate_ref(self, eta, xi, side):
        """Values and (d/deta, d/dxi) gradients in tubular coordinates."""
        eta, xi = (np.atleast_1d(np.asarray(a, dtype=float))[None].repeat(2, 0) for a in (eta, xi))
        plus = np.broadcast_to(np.asarray(side), eta.shape[1:]) > 0
        return tuple(np.where(plus, r[1], r[0]) for r in _ref_values([self, self], [-1, 1], eta, xi))

    def evaluate(self, pts, side=None):
        """Physical values and gradients at points of the element.

        `side` may be +-1 (scalar or array) to force the branch, e.g. on
        points lying exactly on the interface; by default the sign of eta
        decides.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        eta, xi = self.chart.inverse(pts, xi_anchor=self.scaling.xi_c)
        if side is None:
            side = np.where(eta >= 0.0, 1, -1)
        return _physical(*self.evaluate_ref(eta, xi, side), self.chart.jacobian(eta, xi))

    # -- diagnostics -------------------------------------------------------------
    def gram_fictitious(self):
        """Exact L2 Gram over the fictitious box (both sides)."""
        m = self.m
        a = np.arange(m + 1)
        apb = a[:, None] + a[None, :]
        m_neg = ((-1.0) ** apb) / (apb + 1.0)
        m_pos = 1.0 / (apb + 1.0)
        m_xi = np.where(apb % 2 == 0, 2.0 / (apb + 1.0), 0.0)
        scale = self.scaling.h_eta * self.scaling.h_xi
        g = np.einsum("fab,gcd,ac,bd->fg", self.coef[-1], self.coef[-1], m_neg, m_xi)
        g = g + np.einsum("fab,gcd,ac,bd->fg", self.coef[1], self.coef[1], m_pos, m_xi)
        return scale * g


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


def at_points(fn, pts, sides):
    """fn(points, side) at every point (E, nq, 2) of a group with sides (E,),
    in one call: (E, nq, ...)."""
    out = fn(pts.reshape(-1, 2), np.repeat(sides, pts.shape[1]))
    return out.reshape(pts.shape[:2] + out.shape[1:])


class TensorBasis:
    """Q^m Lagrange basis on Gauss-Lobatto nodes of one uncut element."""

    def __init__(self, box, m: int):
        self.box = box
        self.m = m
        self.n_basis = (m + 1) ** 2
        self.nodes = _lobatto_nodes(m)

    def evaluate(self, pts, side=None):
        xr, yr = _reference_coords(self.box, np.atleast_2d(np.asarray(pts, dtype=float)))
        return self.combine(_lagrange_1d(self.nodes, xr), _lagrange_1d(self.nodes, yr))

    def combine(self, x, y):
        """Values and gradients from 1D Lagrange (values, derivatives) at xr,
        yr, (..., n, P) each; a box of arrays stands for a stack of elements."""
        (vx, dx_), (vy, dy_) = x, y
        xl, yl, xh, yh = (np.asarray(c, dtype=float)[..., None, None] for c in self.box)
        shape = vx.shape[:-2] + (self.n_basis, vx.shape[-1])
        vals = (vx[..., :, None, :] * vy[..., None, :, :]).reshape(shape)
        gx = (dx_[..., :, None, :] * vy[..., None, :, :]).reshape(shape) * (2.0 / (xh - xl))
        gy = (vx[..., :, None, :] * dy_[..., None, :, :]).reshape(shape) * (2.0 / (yh - yl))
        return vals, np.stack([gx, gy], axis=-1)


@dataclass
class DofLayout:
    """Contiguous per-element blocks of (m+1)^2 coefficients."""

    n_elements: int
    n_local: int

    @property
    def total(self) -> int:
        return self.n_elements * self.n_local


class SpaceSet:
    """The bases of a classified mesh, the coefficient layout and the
    level's quadrature table at the level's Gauss orders: q_vol points per
    axis on volumes (default m+2) and q_edge on edges (default m+3).  Each
    part of the table is built once for the whole level on its first read;
    volume_groups, edge_groups and gradients read it, bit-identical to
    per-element evaluation:

    - the interface pieces, from quadrature.level_cut_cell_rules;
    - the segment table: every segment of every edge, edge by edge in
      cut_edge_rule order; the one segment of an edge between plain
      elements of one side takes their side, the others one chart query at
      their midpoints;
    - the interface values on those pieces and on the rows of the interface
      elements' edges, from one chart inverse, one chart Jacobian and one
      stacked evaluation per size of piece or segment;
    - the groups that assembly and error norms loop over: the plain groups
      (plain elements, and one-segment edges between plain elements, grouped
      by the bytes their blocks read), then the interface pieces stacked by
      size and the other segment rows stacked by member count.  Values have
      a leading axis L of 1 on a plain group, whose rows share them, else
      one per row, and pos (L,) numbers them in the order of a loop over the
      plain groups, then the interface pieces or the segment rows.
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
        intervals = {e: t.interval for e, t in tags.interface.items()}
        self.bases = {}                  # interface element -> IfeBasis, in element order
        for e, x0, scaling in zip(intervals, *build_x0(chart, intervals, m, quad.get("interface"))):
            self.bases[e] = IfeBasis(chart, intervals[e], beta_minus, beta_plus, x0, scaling)
        self.layout = DofLayout(mesh.n_elements, (m + 1) ** 2)
        self._table = {}

    def beta_of(self, side) -> float:
        return np.where(np.asarray(side) > 0, self.beta_plus, self.beta_minus)

    # -- quadrature table --------------------------------------------------------
    def _cached(self, key, build):
        if key not in self._table:
            self._table[key] = build()
        return self._table[key]

    def pieces(self, e: int):
        """[(rule, side)] of the two pieces of interface element e at order
        q_vol; those of all interface elements are built on the first read of
        any and kept."""
        return self._cached("rules", lambda: {
            f: [(r[1], 1), (r[-1], -1)] for f, r in level_cut_cell_rules(
                self.mesh, self.tags.interface, self.chart, self.q_vol).items()})[e]

    def _segments(self):
        """The segment table: every segment of every edge, edge by edge in
        cut_edge_rule order and with its arithmetic at order q_edge: (edge,
        first row of each edge, side, points (R, q, 2), weights (R, q)), the
        sides from the tags or from one chart query at the other segments'
        midpoints."""
        def build():
            mesh = self.mesh
            spans = {k: edge_spans(self.tags.interior_cuts(k)) for k in self.tags.edge_cuts}
            count = np.ones(mesh.n_edges, dtype=int)
            count[list(spans)] = [len(s) for s in spans.values()]
            first = np.concatenate([[0], np.cumsum(count)])
            edge = np.repeat(np.arange(mesh.n_edges), count)
            t = np.tile([0.0, 1.0], (len(edge), 1))          # an uncut edge is one segment
            for k, s in spans.items():
                t[first[k]:first[k + 1]] = s
            a, b, t0, t1 = mesh.edge_a[edge], mesh.edge_b[edge], t[:, :1], t[:, 1:]
            # the one segment of an edge whose elements are plain on one side
            # lies on that side; the other rows ask the chart at their midpoints
            elems = mesh.edge_elems[edge]
            side = self.tags.tags[elems[:, 0]]
            other = np.where(elems[:, 1] < 0, side, self.tags.tags[elems[:, 1]])
            side = np.where((count[edge] == 1) & (side == other), side, 0)
            ask = np.flatnonzero(side == 0)
            eta = self.chart.signed_distance_estimate(a[ask] + 0.5 * (t0 + t1)[ask] * (b - a)[ask])
            side[ask] = np.where(eta > 0, 1, -1)
            (x, w), a, b = _gauss01(self.q_edge), a[:, None], b[:, None]
            return (edge, first, side,
                    a + (t0 + (t1 - t0) * x)[..., None] * (b - a),
                    ((t1 - t0) * mesh.edge_length[edge, None]) * w)
        return self._cached("segments", build)

    def segment_sides(self, k: int):
        """Branch labels of the segments of edge k, in cut_edge_rule order."""
        _, first, sides, _, _ = self._segments()
        return sides[first[k]:first[k + 1]].tolist()

    def _interface_values(self, volume: bool):
        """(parts, stacks), built on first read and kept: parts the _items of
        every interface element in element order; their values from one chart
        inverse at all their points, each anchored at its interval midpoint,
        one chart Jacobian and one stacked evaluation per size of piece or
        segment (a fan piece has 2 to 6 cells of q*q points), held in stacks
        [(part indices, vals, grads)]."""
        def build():
            parts = self._items(self.tags.interface_elements, volume)
            if not parts:
                return parts, []
            sizes = [len(p[1]) for p in parts]
            eta, xi = self.chart.inverse(np.concatenate([p[1] for p in parts]), xi_anchor=np.repeat(
                [self.bases[e].scaling.xi_c for (e, _), *_ in parts], sizes))
            J = self.chart.jacobian(eta, xi)
            at = np.split(np.arange(len(eta)), np.cumsum(sizes)[:-1])
            stacks = []
            for n in sorted(set(sizes)):
                idx = np.array([i for i, size in enumerate(sizes) if size == n])
                take = np.array([at[i] for i in idx])
                vals, grads = _physical(*_ref_values([self.bases[parts[i][0][0]] for i in idx],
                                                     [parts[i][3] for i in idx], eta[take],
                                                     xi[take]), J[take])
                stacks.append((idx, vals, grads))
            return parts, stacks
        return self._cached(("values", volume), build)

    def _plain_values(self, elems, pts):
        """Values (K, nl, nq) and gradients (K, nl, nq, 2) of the tensor bases
        of elements elems (K,) at pts (K, nq, 2), from one 1D Lagrange
        evaluation at all their reference coordinates."""
        basis = TensorBasis(self.mesh.elem_box(elems), self.m)
        x, y = _reference_coords(basis.box, pts)
        v, d = (np.moveaxis(a.reshape(len(a), 2, *x.shape), 0, -2) for a in
                _lagrange_1d(basis.nodes, np.concatenate([x.ravel(), y.ravel()])))
        return basis.combine((v[0], d[0]), (v[1], d[1]))

    def _grouped_rows(self):
        """Mask of the segment rows of the one-segment edges whose elements
        are all plain: the rows of the plain edge groups."""
        edge, first, _, _, _ = self._segments()
        plain = np.append(self.tags.tags != 0, True)   # [-1]: no element
        return (plain[self.mesh.edge_elems].all(axis=1) & (np.diff(first) == 1))[edge]

    def _plain_groups(self, volume: bool):
        """[(ids, points (E, nq, 2), weights (E, nq), sides (E,), pos (1,))]:
        the plain elements (volume) or the segment rows of _grouped_rows,
        grouped by the bytes of everything their blocks read (weights, side,
        the reference coordinates and box widths of their elements and, on
        edges, the normal and boundary flag), in their lexicographic order,
        which pos numbers."""
        mesh = self.mesh
        if volume:
            ids = np.flatnonzero(self.tags.tags)
            rule = gauss_rect(mesh.elem_box(ids), self.q_vol)
            pts, w, elems, head = rule.points, rule.weights, ids[:, None], []
            sides = self.tags.tags[ids]
        else:
            edge, _, labels, seg_pts, seg_w = self._segments()
            ids = np.flatnonzero(self._grouped_rows())
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
        return [(ids[mem], pts[mem], w[mem], sides[mem], np.array([g]))
                for g, mem in enumerate(np.split(order, new)) if len(mem)]

    def volume_groups(self):
        """Every element piece of the level in groups: [(elements (E,),
        points (E, nq, 2), weights (E, nq), sides (E,), vals (L, nl, nq),
        grads (L, nl, nq, 2), pos (L,))], one per group of plain elements,
        then one per size of interface piece."""
        def build():
            plain = self._plain_groups(True)
            vals, grads = self._plain_values(np.array([ids[0] for ids, *_ in plain], dtype=int),
                                             np.reshape([p[0] for _, p, *_ in plain],
                                                        (len(plain), self.q_vol**2, 2)))
            groups = [(*group[:4], vals[g:g + 1], grads[g:g + 1], group[4])
                      for g, group in enumerate(plain)]
            parts, stacks = self._interface_values(True)
            for idx, vals, grads in stacks:
                keys, pts, w, sides = zip(*[parts[i] for i in idx])
                groups.append((np.array([e for e, _ in keys]), np.array(pts), np.array(w),
                               np.array(sides), vals, grads, len(plain) + idx))
            return groups
        return self._cached(("groups", True), build)

    def edge_groups(self):
        """Every edge segment of the level in groups: [(edges, segment-table
        rows, points, weights, sides, members, pos)], members [(sign, vals,
        grads)] of element mesh.edge_elems[edges, j] for member j, sign +1 on
        the element the normal points out of and -1 on the neighbour; one
        per group of plain edges, then one per member count of the others."""
        def build():
            edge, _, sides, pts, w = self._segments()
            elems, plain = self.mesh.edge_elems, self._plain_groups(False)
            cut = np.flatnonzero(~self._grouped_rows())
            inner = elems[edge[cut], 1] >= 0
            groups = plain + [(rows, pts[rows], w[rows], sides[rows], len(plain) + rows)
                              for rows in (cut[~inner], cut[inner]) if len(rows)]
            # every member's values on the rows that carry them, member by
            # member: the plain ones from one Lagrange evaluation, the others
            # gathered from the kept interface stack (one: all segments have
            # q_edge points)
            count = [1 + (elems[edge[rows[0]], 1] >= 0) for rows, *_ in groups]
            slots = [(rows[:len(pos)], j) for (rows, *_, pos), n in zip(groups, count)
                     for j in range(n)]
            f = np.concatenate([elems[edge[rows], j] for rows, j in slots])
            r = np.concatenate([rows for rows, _ in slots])
            vals = np.empty((len(f), self.layout.n_local, self.q_edge))
            grads = np.empty(vals.shape + (2,))
            flat = self.tags.tags[f] != 0
            vals[flat], grads[flat] = self._plain_values(f[flat], pts[r[flat]])
            if not flat.all():
                parts, ((_, v, g),) = self._interface_values(False)
                known = np.array([e * len(edge) + row for (e, row), *_ in parts])
                order = np.argsort(known)
                take = order[np.searchsorted(known[order], (f * len(edge) + r)[~flat])]
                vals[~flat], grads[~flat] = v[take], g[take]
            at = np.cumsum([len(rows) for rows, _ in slots])[:-1]
            members = iter(zip(np.split(vals, at), np.split(grads, at)))
            return [(edge[rows], rows, p, wk, s, [(sign, *next(members)) for sign in (1.0, -1.0)[:n]],
                     pos) for (rows, p, wk, s, pos), n in zip(groups, count)]
        return self._cached(("groups", False), build)

    def _items(self, elems, volume: bool):
        """[((element, piece or row), points, weights, side)] on the pieces of
        interface elements elems (volume) or on the segment-table rows of the
        four edges of each of elems in turn."""
        if volume:
            return [((e, i), rule.points, rule.weights, side)
                    for e in elems for i, (rule, side) in enumerate(self.pieces(e))]
        _, first, sides, pts, w = self._segments()
        return [((e, r), pts[r], w[r], int(sides[r])) for e in elems
                for k in self.mesh.elem_edges[e] for r in range(first[k], first[k + 1])]

    def gradients(self, elems, volume: bool):
        """Gradients of the bases of elements elems (K,) on their pieces
        (volume) or on their _items rows: [(index into elems, -1 for an element
        not in it, sides, weights, grads)], each element's rows in one entry
        and in their order.  The kept interface stacks are read whole, without
        a copy; the plain elements are evaluated on their own rule or rows."""
        tags, at = self.tags.tags, np.full(self.mesh.n_elements, -1)
        at[elems] = np.arange(len(elems))
        parts, stacks = self._interface_values(volume) if (tags[elems] == 0).any() else ([], [])
        out = [(at[[parts[i][0][0] for i in idx]], np.array([parts[i][3] for i in idx]),
                np.array([parts[i][2] for i in idx]), grads) for idx, _, grads in stacks]
        plain = elems[tags[elems] != 0]
        if volume:
            rule = gauss_rect(self.mesh.elem_box(plain), self.q_vol)
            f, sides, pts, w = plain, tags[plain], rule.points, rule.weights
        else:
            _, _, labels, seg_pts, seg_w = self._segments()
            f, rows = np.array([key for key, *_ in self._items(plain, False)],
                               dtype=int).reshape(-1, 2).T
            sides, pts, w = labels[rows], seg_pts[rows], seg_w[rows]
        return out + [(at[f], sides, w, self._plain_values(f, pts)[1])]


def build_spaces(mesh, tags, chart, m, beta_minus, beta_plus, quad=None) -> SpaceSet:
    return SpaceSet(mesh, tags, chart, m, beta_minus, beta_plus, quad)


_JUMP_SAMPLES = 24   # interface points of the diagnostics' jump maxima


def space_diagnostics(spaces: SpaceSet):
    """Per-interface-element conditioning and conformity residuals.

    One row per interface element: normalized Gram condition number and
    smallest singular value, plus the maxima of the value/flux jumps on the
    interface and of the weak moment residuals.
    """
    if not spaces.bases:
        return []
    bases = list(spaces.bases.values())
    weak = weak_condition_residuals(spaces.chart, spaces.m, bases)
    jumps = interface_jumps(bases, np.array([np.linspace(*b.interval, _JUMP_SAMPLES)
                                             for b in bases]))
    rows = []
    for e, b, w, jv, jf in zip(spaces.bases, bases, weak, *jumps):
        g = b.gram_fictitious()
        d = np.sqrt(np.diag(g))
        sv = np.linalg.svd(g / np.outer(d, d), compute_uv=False)
        rows.append({
            "element": e,
            "gram_cond": float(sv[0] / sv[-1]),
            "gram_min_sv": float(sv[-1]),
            "max_value_jump": float(np.max(np.abs(jv))),
            "max_flux_jump": float(np.max(np.abs(jf))),
            "max_weak_residual": float(np.max(np.abs(w))) if w.size else 0.0,
        })
    return rows

