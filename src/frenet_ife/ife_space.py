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

from .errors import DimensionMismatch, SingularMass
from .frenet import FrenetChart
from .laplacian import FrenetLaplacian
from .mesh import ElementTag, MeshTags, RectMesh
from .quadrature import _gauss01, cut_cell_rules, edge_spans, gauss_interval, gauss_rect


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


def monomials_x1(m: int):
    """(j, i) exponent pairs spanning the eta-vanishing block."""
    return [(j, i) for j in range(1, m + 1) for i in range(m + 1)]


def _legendre_rows(deg_max, xbar):
    rows = np.zeros((deg_max + 1, len(xbar)))
    for d in range(deg_max + 1):
        coef = np.zeros(d + 1)
        coef[d] = 1.0
        rows[d] = legval(xbar, coef)
    return rows


def _poly_line_series(C, scaling: LocalScaling, xbar, n_terms):
    """eta-series of p, p_xi, p_xixi on the interface line at given nodes.

    C is the (m+1, m+1) coefficient matrix over etabar^j xibar^i; returns
    three arrays shaped (n_terms, n_nodes).
    """
    m = C.shape[0] - 1
    nq = len(xbar)
    V = np.vander(xbar, m + 1, increasing=True).T       # V[i] = xibar^i
    P = np.zeros((n_terms, nq))
    P1 = np.zeros((n_terms, nq))
    P2 = np.zeros((n_terms, nq))
    i_idx = np.arange(m + 1)
    for l in range(min(n_terms, m + 1)):
        scale = scaling.h_eta ** (-l)
        P[l] = scale * (C[l] @ V)
        d1 = C[l] * i_idx
        P1[l] = scale / scaling.h_xi * (np.roll(d1, -1)[: m + 1] @ V) if m >= 1 else 0.0
        d2 = C[l] * i_idx * (i_idx - 1)
        P2[l] = scale / scaling.h_xi**2 * (np.roll(d2, -2)[: m + 1] @ V) if m >= 2 else 0.0
    return P, P1, P2


def _l_operator_series(C, scaling, jets, xbar, n_out):
    """eta-series of L(p) on the line: coefficients of eta^l, l < n_out."""
    A, B, Cc = jets
    P, P1, P2 = _poly_line_series(C, scaling, xbar, n_out + 2)
    out = np.zeros((n_out, P.shape[1]))
    for l in range(n_out):
        acc = (l + 1) * (l + 2) * P[l + 2]
        for k in range(l + 1):
            acc = acc + A[k] * (l - k + 1) * P[l - k + 1]
            acc = acc + B[k] * P2[l - k]
            acc = acc + Cc[k] * P1[l - k]
        out[l] = acc
    return out


def build_x0(chart: FrenetChart, interval, m: int, line_q: int | None = None):
    """Constrained continuous polynomials: nullspace of the trace conditions.

    Rows: the m+1 coefficients of p_eta(0, .) plus, for each eta-derivative
    order j <= m-2, the moments of L(p)(0, .) against Legendre tests up to
    degree m.  Returns (vectors (m+1, m+1, m+1), scaling).

    Raises DimensionMismatch if the nullspace dimension is not m+1.
    """
    xi0, xi1 = interval
    scaling = LocalScaling(h_eta=chart.h, xi_c=0.5 * (xi0 + xi1), h_xi=0.5 * (xi1 - xi0))
    nb = (m + 1) ** 2
    rows = []
    for i in range(m + 1):
        r = np.zeros(nb)
        r[1 * (m + 1) + i] = 1.0
        rows.append(r)
    if m >= 2:
        q = line_q if line_q is not None else m + 3
        rule = gauss_interval(xi0, xi1, q)
        xbar = scaling.xibar(rule.points)
        jets = FrenetLaplacian(chart).coefficient_jets(rule.points, m - 2)
        tests = _legendre_rows(m, xbar)
        series = np.zeros((nb, m - 1, len(xbar)))
        for j in range(m + 1):
            for i in range(m + 1):
                C = np.zeros((m + 1, m + 1))
                C[j, i] = 1.0
                series[j * (m + 1) + i] = _l_operator_series(C, scaling, jets, xbar, m - 1)
        for jj in range(m - 1):
            for d in range(m + 1):
                rows.append(series[:, jj, :] @ (rule.weights * tests[d]))
    M = np.vstack(rows)
    u, s, vt = np.linalg.svd(M)
    rank = int(np.sum(s > 1e-10 * s[0]))
    null_dim = nb - rank
    if null_dim != m + 1:
        raise DimensionMismatch(
            f"X0 nullspace dimension {null_dim}, expected {m + 1}; "
            "raise the line quadrature order or check the chart")
    vecs = vt[rank:]
    return vecs.reshape(m + 1, m + 1, m + 1), scaling


class IfeBasis:
    """Immersed basis of one interface element: (m+1)^2 piecewise functions.

    Each function is a pair of coefficient matrices over (etabar, xibar),
    one per side of the interface; X0 members coincide on both sides, X1
    members are the same monomial divided by the side's beta.
    """

    kind = "interface"

    def __init__(self, chart: FrenetChart, tag: ElementTag, m: int,
                 beta_minus: float, beta_plus: float, line_q: int | None = None):
        self.chart = chart
        self.tag = tag
        self.m = m
        self.beta = {-1: float(beta_minus), 1: float(beta_plus)}
        x0, scaling = build_x0(chart, tag.interval, m, line_q)
        self.scaling = scaling
        self.interval = tag.interval
        self.n_basis = (m + 1) ** 2
        c_plus = []
        c_minus = []
        self.origins = []
        for k in range(m + 1):
            c_plus.append(x0[k])
            c_minus.append(x0[k])
            self.origins.append("x0")
        for j, i in monomials_x1(m):
            C = np.zeros((m + 1, m + 1))
            C[j, i] = 1.0
            c_plus.append(C / beta_plus)
            c_minus.append(C / beta_minus)
            self.origins.append("x1")
        self.coef = {1: np.array(c_plus), -1: np.array(c_minus)}

    # -- evaluation ------------------------------------------------------------
    def _powers(self, ebar, xbar):
        m = self.m
        Ve = np.vander(ebar, m + 1, increasing=True)
        Vx = np.vander(xbar, m + 1, increasing=True)
        j = np.arange(m + 1)
        dVe = np.zeros_like(Ve)
        dVe[:, 1:] = Ve[:, :-1] * j[1:]
        dVx = np.zeros_like(Vx)
        dVx[:, 1:] = Vx[:, :-1] * j[1:]
        return Ve, Vx, dVe, dVx

    def evaluate_ref(self, eta, xi, side):
        """Values and (d/deta, d/dxi) gradients in tubular coordinates."""
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        side = np.broadcast_to(np.asarray(side), eta.shape)
        Ve, Vx, dVe, dVx = self._powers(self.scaling.etabar(eta), self.scaling.xibar(xi))
        vals = np.empty((self.n_basis, len(eta)))
        g_eta = np.empty_like(vals)
        g_xi = np.empty_like(vals)
        for s in (-1, 1):
            mask = side == s
            if not np.any(mask):
                continue
            C = self.coef[s]
            vals[:, mask] = np.einsum("bji,pj,pi->bp", C, Ve[mask], Vx[mask])
            g_eta[:, mask] = np.einsum("bji,pj,pi->bp", C, dVe[mask], Vx[mask]) \
                / self.scaling.h_eta
            g_xi[:, mask] = np.einsum("bji,pj,pi->bp", C, Ve[mask], dVx[mask]) \
                / self.scaling.h_xi
        return vals, g_eta, g_xi

    def evaluate(self, pts, side=None):
        """Physical values and gradients at points of the element.

        `side` may be +-1 (scalar or array) to force the branch, e.g. on
        points lying exactly on the interface; by default the sign of eta
        decides.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        eta, xi = self.chart.inverse(pts, xi_anchor=self.scaling.xi_c)
        return self.combine(eta, xi, self.chart.jacobian(eta, xi), side)

    def combine(self, eta, xi, J, side=None):
        """Values and gradients at the points with tubular coordinates (eta, xi),
        where the chart has Jacobian J (chart.jacobian(eta, xi))."""
        if side is None:
            side = np.where(eta >= 0.0, 1, -1)
        else:
            side = np.broadcast_to(np.asarray(side), eta.shape)
        vals, g_eta, g_xi = self.evaluate_ref(eta, xi, side)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        gx = (J[:, 1, 1] * g_eta - J[:, 1, 0] * g_xi) / det
        gy = (-J[:, 0, 1] * g_eta + J[:, 0, 0] * g_xi) / det
        return vals, np.stack([gx, gy], axis=-1)

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

    def interface_jumps(self, xi):
        """Pointwise value and flux mismatch of every basis function on the
        interface: (jump values, jump of beta * d_eta) at parameters xi."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        zeros = np.zeros_like(xi)
        vp, gp, _ = self.evaluate_ref(zeros, xi, np.ones_like(xi, dtype=int))
        vm, gm, _ = self.evaluate_ref(zeros, xi, -np.ones_like(xi, dtype=int))
        return vp - vm, self.beta[1] * gp - self.beta[-1] * gm

    def weak_condition_residuals(self, line_q: int | None = None):
        """Moment residuals of the operator jump conditions, all orders j <= m-2.

        Uses its own (refinable) quadrature so it can cross-check the
        constraint assembly.
        """
        m = self.m
        if m < 2:
            return np.zeros((self.n_basis, 0))
        xi0, xi1 = self.interval
        q = line_q if line_q is not None else m + 6
        rule = gauss_interval(xi0, xi1, q)
        xbar = self.scaling.xibar(rule.points)
        jets = FrenetLaplacian(self.chart).coefficient_jets(rule.points, m - 2)
        tests = _legendre_rows(m, xbar)
        out = np.zeros((self.n_basis, (m - 1) * (m + 1)))
        for bfun in range(self.n_basis):
            sp = _l_operator_series(self.coef[1][bfun], self.scaling, jets, xbar, m - 1)
            sm = _l_operator_series(self.coef[-1][bfun], self.scaling, jets, xbar, m - 1)
            jump = self.beta[1] * sp - self.beta[-1] * sm
            k = 0
            for jj in range(m - 1):
                for d in range(m + 1):
                    out[bfun, k] = jump[jj] @ (rule.weights * tests[d])
                    k += 1
        return out


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


class TensorBasis:
    """Q^m Lagrange basis on Gauss-Lobatto nodes of one uncut element."""

    kind = "plain"

    def __init__(self, box, m: int, side: int):
        self.box = box
        self.m = m
        self.side = int(side)
        self.n_basis = (m + 1) ** 2
        self.nodes = _lobatto_nodes(m)

    def reference_coords(self, pts):
        """Points mapped onto [-1, 1]^2: xr, yr."""
        return _reference_coords(self.box, np.atleast_2d(np.asarray(pts, dtype=float)))

    def evaluate(self, pts, side=None):
        return self.combine(*(_lagrange_1d(self.nodes, r) for r in self.reference_coords(pts)))

    def combine(self, x, y):
        """Values and gradients from 1D Lagrange (values, derivatives) at xr, yr."""
        (vx, dx_), (vy, dy_) = x, y
        xl, yl, xh, yh = self.box
        vals = (vx[:, None, :] * vy[None, :, :]).reshape(self.n_basis, -1)
        gx = (dx_[:, None, :] * vy[None, :, :]).reshape(self.n_basis, -1) * (2.0 / (xh - xl))
        gy = (vx[:, None, :] * dy_[None, :, :]).reshape(self.n_basis, -1) * (2.0 / (yh - yl))
        return vals, np.stack([gx, gy], axis=-1)


@dataclass
class DofLayout:
    """Contiguous per-element blocks of (m+1)^2 coefficients."""

    n_elements: int
    n_local: int

    @property
    def total(self) -> int:
        return self.n_elements * self.n_local

    def dofs(self, e: int):
        return np.arange(e * self.n_local, (e + 1) * self.n_local)


def _one_call(groups, call, axis=0):
    """One call over all the parts of groups, {key: {k: [part]}}, each part a
    tuple of arrays of equal length: call gets each position's arrays
    concatenated, and each of its outputs is split back along `axis` into
    the same layout, {key: {k: [outputs on part]}}."""
    flat = [part for g in groups.values() for parts in g.values() for part in parts]
    out = call(*(np.concatenate(arrays) for arrays in zip(*flat)))
    cuts = np.cumsum([len(part[0]) for part in flat])[:-1]
    split = iter(zip(*(np.split(o, cuts, axis=axis) for o in out)))
    return {key: {k: [next(split) for _ in parts] for k, parts in g.items()}
            for key, g in groups.items()}


class SpaceSet:
    """All local bases of a classified mesh, the coefficient layout and the
    level's quadrature table, filled on first use and keyed by Gauss order
    (default m+2 points per axis on volumes, m+3 on edges).

    The table keeps, built once, the pieces of interface elements, the
    segments of their edges and the basis values of both: on first read of
    any interface element's values (assembly, error norms, the trace probe
    or the L2 projection), those of every interface element come from one
    chart inverse and one chart Jacobian per level for the pieces and one of
    each for the edge segments.  Plain pieces and segments cost less to
    rebuild than to keep.  Segment side labels come from one chart query per
    level.  Plain elements, and the uncut edges between them, are grouped by
    the bytes of everything their blocks read, on first use; each group's
    basis values are computed once, and with the plain values on other edges
    they come from one 1D Lagrange evaluation per level, bit-identical to
    per-element ones.
    """

    def __init__(self, mesh: RectMesh, tags: MeshTags, chart: FrenetChart,
                 m: int, beta_minus: float, beta_plus: float,
                 line_q: int | None = None):
        self.mesh = mesh
        self.tags = tags
        self.chart = chart
        self.m = m
        self.beta_minus = float(beta_minus)
        self.beta_plus = float(beta_plus)
        self.bases = []
        for e in range(mesh.n_elements):
            t = tags.tags[e]
            if t.kind == "interface":
                try:
                    self.bases.append(IfeBasis(chart, t, m, beta_minus, beta_plus, line_q))
                except DimensionMismatch as exc:
                    raise DimensionMismatch(f"element {e}: {exc}") from exc
            else:
                self.bases.append(TensorBasis(mesh.elem_box(e), m, t.side))
        self.layout = DofLayout(mesh.n_elements, (m + 1) ** 2)
        self._table = {}

    def beta_of(self, side) -> float:
        return np.where(np.asarray(side) > 0, self.beta_plus, self.beta_minus)

    def element_rules(self, e: int, q: int):
        """[(rule, side)] covering element e with the right branch labels."""
        t = self.tags.tags[e]
        if t.kind == "interface":
            rules = cut_cell_rules(self.mesh, e, t, self.chart, q)
            return [(rules[1], 1), (rules[-1], -1)]
        return [(gauss_rect(self.mesh.elem_box(e), q), t.side)]

    # -- quadrature table --------------------------------------------------------
    def _cached(self, key, build, keep):
        if not keep:
            return build()
        if key not in self._table:
            self._table[key] = build()
        return self._table[key]

    def pieces(self, e: int, q: int | None = None):
        """element_rules(e, q), kept for interface elements."""
        q = q if q is not None else self.m + 2
        return self._cached(("rules", e, q), lambda: self.element_rules(e, q),
                            self.bases[e].kind != "plain")

    def _interface_values(self, q: int, volume: bool):
        """(vals, grads) of every interface element on its pieces (volume) or
        on the segments of its four edges, from one chart inverse at all their
        points, each anchored at its interval midpoint, and one chart Jacobian
        there: per element, {None: [per piece]} or {edge: [per segment]}."""
        def part(e, pts, side):
            return pts, np.full(len(pts), self.bases[e].scaling.xi_c), np.full(len(pts), side)

        def chart(pts, anchors, sides):
            eta, xi = self.chart.inverse(pts, xi_anchor=anchors)
            return eta, xi, self.chart.jacobian(eta, xi), sides

        groups = {}
        for e in self.tags.interface_elements:
            if volume:
                groups[e] = {None: [part(e, rule.points, side) for rule, side in self.pieces(e, q)]}
            else:
                groups[e] = {k: [part(e, pts, side) for pts, _, side in self._segments(k, q)]
                             for k in self.mesh.elem_edges[e]}
        return {e: {k: [self.bases[e].combine(*c) for c in parts] for k, parts in g.items()}
                for e, g in _one_call(groups, chart).items()}

    def _tables(self, q: int, volume: bool):
        """1D Lagrange tables, from one evaluation, at the reference
        coordinates of the plain values the groups need: the first member of
        each plain group and the plain elements of the edges outside the
        groups.  Per element, {None: [per piece]} or {edge: [per segment]},
        each (x values, x derivatives, y values, y derivatives)."""
        groups = {}
        if volume:
            for ids, *_ in self._groups(q, True):
                groups[ids[0]] = {None: [rule.points for rule, _ in self.pieces(ids[0], q)]}
        else:
            firsts = [ks[0] for ks, *_ in self._groups(q, False)]
            for k in [*firsts, *self._ungrouped_edges(q)]:
                for f in self.mesh.edge_elems[k]:
                    if f >= 0 and self.bases[f].kind == "plain":
                        groups.setdefault(f, {})[k] = [pts for pts, _, _ in self._segments(k, q)]

        def lagrange(x, y):
            vals, ders = _lagrange_1d(_lobatto_nodes(self.m), np.concatenate([x, y]))
            return vals[:, :len(x)], ders[:, :len(x)], vals[:, len(x):], ders[:, len(x):]

        return _one_call({e: {k: [self.bases[e].reference_coords(pts) for pts in part]
                              for k, part in g.items()} for e, g in groups.items()},
                         lagrange, axis=1)

    def _values(self, e: int, q: int, k, items):
        """(vals, grads) of basis e at each (points, side) of `items`: the
        pieces of element e (k None) or the segments of its edge k."""
        basis = self.bases[e]
        if basis.kind != "plain":
            return self._cached(("values", q, k is None),
                                lambda: self._interface_values(q, k is None), True)[e][k]
        tables = self._cached(("tables", q, k is None), lambda: self._tables(q, k is None), True)
        if k in tables.get(e, {}):
            return [basis.combine(t[:2], t[2:]) for t in tables[e][k]]
        return [basis.evaluate(pts) for pts, _ in items]

    def volume(self, e: int, q: int | None = None):
        """[(rule, side, vals, grads)]: basis e on the pieces of element e."""
        q = q if q is not None else self.m + 2
        pieces = self.pieces(e, q)
        values = self._values(e, q, None, [(rule.points, side) for rule, side in pieces])
        return [(rule, side, *vg) for (rule, side), vg in zip(pieces, values)]

    def _segments(self, k: int, q: int):
        from .assembly import edge_segments   # assembly imports this module

        keep = any(self.bases[f].kind != "plain" for f in self.mesh.edge_elems[k] if f >= 0)
        return self._cached(("segments", k, q), lambda: edge_segments(self, k, q), keep)

    def segment_sides(self, k: int):
        """Branch labels of the segments of edge k, in cut_edge_rule order."""
        sides, split = self._cached("sides", self._label_segments, True)
        return [sides[i] for i in split.get(k, [k])]

    def _label_segments(self):
        """One chart query at the segment midpoints of every edge: the labels,
        uncut edges first by id, and the label range of each split edge."""
        a, b = self.mesh.edge_a, self.mesh.edge_b
        n = len(a)
        mids, split = [a + 0.5 * (b - a)], {}   # an uncut edge is one segment
        for k in self.tags.edge_cuts:
            spans = edge_spans(self.tags.interior_cuts(k))
            if len(spans) > 1:
                split[k] = range(n, n + len(spans))
                n += len(spans)
                mids += [a[k] + 0.5 * (t0 + t1) * (b[k] - a[k]) for t0, t1 in spans]
        eta = self.chart.signed_distance_estimate(np.vstack(mids))
        return np.where(eta > 0, 1, -1).tolist(), split

    def _plain_groups(self, q: int, volume: bool):
        """The plain elements (volume) or the uncut edges whose neighbours are
        all plain, at Gauss order q, grouped by the bytes of everything their
        blocks read: the weights, the side, the reference coordinates and box
        widths of their elements and, on edges, the normal and whether the
        edge is on the boundary.  [(ids, points (E, nq, 2), weights (E, nq),
        side)]: members of a group have bit-identical basis values."""
        mesh = self.mesh
        plain = np.array([b.kind == "plain" for b in self.bases])
        if volume:
            ids = np.flatnonzero(plain)
            rule = gauss_rect(mesh.elem_box(ids), q)
            pts, w, elems, head = rule.points, rule.weights, ids[:, None], []
            sides = np.array([self.tags.tags[e].side for e in ids], dtype=int)
        else:
            labels, split = self._cached("sides", self._label_segments, True)
            e1, e2 = mesh.edge_elems.T
            keep = plain[e1] & ((e2 < 0) | plain[e2])
            keep[list(split)] = False
            ids = np.flatnonzero(keep)
            a, b = mesh.edge_a[ids, None], mesh.edge_b[ids, None]
            x, wq = _gauss01(q)
            pts = a + x[:, None] * (b - a)      # cut_edge_rule on the one segment 0 <= t <= 1
            w = np.linalg.norm(b - a, axis=-1) * wq
            elems, sides = mesh.edge_elems[ids], np.array(labels, dtype=int)[ids]
            head = [mesh.edge_normal[ids], mesh.edge_is_boundary[ids]]
        key = [w, *head, sides]
        for p in range(elems.shape[1]):
            there = elems[:, p, None] >= 0
            xl, yl, xh, yh = mesh.elem_box(elems[:, p])
            key += [np.where(there, c, 0.0) for c in (*_reference_coords((xl, yl, xh, yh), pts),
                                                      np.column_stack([xh - xl, yh - yl]))]
        group = np.unique(np.column_stack(key).view(np.int64), axis=0,
                          return_inverse=True)[1].reshape(-1)
        members = np.split(np.argsort(group, kind="stable"), np.cumsum(np.bincount(group))[:-1])
        return [(ids[mem], pts[mem], w[mem], int(sides[mem[0]])) for mem in members if len(mem)]

    def _groups(self, q: int, volume: bool):
        return self._cached(("plain", q, volume), lambda: self._plain_groups(q, volume), True)

    def _ungrouped_edges(self, q: int):
        return np.setdiff1d(np.arange(self.mesh.n_edges),
                            [k for ks, *_ in self._groups(q, False) for k in ks])

    def volume_groups(self, q: int | None = None):
        """Every element piece of the level, in groups sharing basis values:
        [(elements, points (E, nq, 2), weights (E, nq), side, vals, grads)],
        one per group of plain elements, then one per piece of each interface
        element in element order."""
        q = q if q is not None else self.m + 2
        groups = [(ids, pts, w, side, *self.volume(ids[0], q)[0][2:])
                  for ids, pts, w, side in self._groups(q, True)]
        for e in self.tags.interface_elements:
            groups += [([e], rule.points[None], rule.weights[None], side, vals, grads)
                       for rule, side, vals, grads in self.volume(e, q)]
        return groups

    def edge_groups(self, q: int | None = None):
        """Every edge segment of the level, in groups sharing basis values:
        [(edges, points (E, nq, 2), weights (E, nq), side, members)], members
        [(element, sign, vals, grads)] as in `edge` for the first edge; member
        j of each edge is its element mesh.edge_elems[edge, j].  One per group
        of plain uncut edges, then one per segment of every other edge in edge
        order."""
        q = q if q is not None else self.m + 3
        groups = [(ks, pts, w, side, self.edge(ks[0], q)[0][3])
                  for ks, pts, w, side in self._groups(q, False)]
        for k in self._ungrouped_edges(q):
            groups += [([k], pts[None], w[None], side, members)
                       for pts, w, side, members in self.edge(k, q)]
        return groups

    def face(self, k: int, e: int, q: int | None = None):
        """[(points, weights, side, vals, grads)]: basis e on edge k's segments."""
        q = q if q is not None else self.m + 3
        segs = self._segments(k, q)
        values = self._values(e, q, k, [(pts, side) for pts, _, side in segs])
        return [(*seg, *vg) for seg, vg in zip(segs, values)]

    def edge(self, k: int, q: int | None = None):
        """[(points, weights, side, [(e, sign, vals, grads)])] on edge k: sign +1
        on the element its normal points out of, -1 on the neighbour if any."""
        q = q if q is not None else self.m + 3
        segs = self._segments(k, q)
        items = [(pts, side) for pts, _, side in segs]
        members = [(e, sign, self._values(e, q, k, items))
                   for e, sign in zip(self.mesh.edge_elems[k], (1.0, -1.0)) if e >= 0]
        return [(*seg, [(e, sign, *values[i]) for e, sign, values in members])
                for i, seg in enumerate(segs)]


def build_spaces(mesh, tags, chart, m, beta_minus, beta_plus, line_q=None) -> SpaceSet:
    return SpaceSet(mesh, tags, chart, m, beta_minus, beta_plus, line_q)


def space_diagnostics(spaces: SpaceSet, n_samples: int = 24):
    """Per-interface-element conditioning and conformity residuals.

    One row per interface element: normalized Gram condition number and
    smallest singular value, plus the maxima of the value/flux jumps on the
    interface and of the weak moment residuals.
    """
    rows = []
    for e in spaces.tags.interface_elements:
        b = spaces.bases[e]
        g = b.gram_fictitious()
        d = np.sqrt(np.diag(g))
        sv = np.linalg.svd(g / np.outer(d, d), compute_uv=False)
        xi0, xi1 = b.interval
        xs = np.linspace(xi0, xi1, n_samples)
        jv, jf = b.interface_jumps(xs)
        weak = b.weak_condition_residuals()
        rows.append({
            "element": e,
            "gram_cond": float(sv[0] / sv[-1]),
            "gram_min_sv": float(sv[-1]),
            "max_value_jump": float(np.max(np.abs(jv))),
            "max_flux_jump": float(np.max(np.abs(jf))),
            "max_weak_residual": float(np.max(np.abs(weak))) if weak.size else 0.0,
        })
    return rows


def project_l2(u, spaces: SpaceSet, q: int | None = None):
    """Per-element L2 projection; u(points, side) -> values.

    Block-diagonal mass solve with cut-aware quadrature on interface
    elements.  Raises SingularMass if a local mass matrix is unusable.
    """
    n = spaces.layout.n_local
    M = np.zeros((spaces.mesh.n_elements, n, n))
    rhs = np.zeros((spaces.mesh.n_elements, n))
    for elems, pts, w, side, vals, _ in spaces.volume_groups(q):
        M[elems] += (vals * w[0]) @ vals.T
        rhs[elems] += (w * u(pts.reshape(-1, 2), side).reshape(w.shape)) @ vals.T
    bad = np.flatnonzero(np.linalg.cond(M) > 1e12)
    if len(bad):
        raise SingularMass(f"element {bad[0]}: mass condition number > 1e12")
    return np.linalg.solve(M, rhs[..., None]).ravel()
