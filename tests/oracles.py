"""Independent reference computations used by the test suite.

Everything here is deliberately written against exact geometry (circle
algebra, finite differences, composite Simpson, dense sign sampling)
rather than the library's own charts and rules, so it can serve as an
oracle for them.
"""

from dataclasses import dataclass

import numpy as np


def fd_derivative(f, x, order=1, h=1e-5):
    """Central finite-difference derivative of a vector-valued f at scalar x."""
    if order == 1:
        return (f(x + h) - f(x - h)) / (2 * h)
    if order == 2:
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / h**2
    raise ValueError(order)


def fd_jacobian(f, x, h=1e-6):
    """Finite-difference Jacobian of f: R^2 -> R^2 at point x."""
    x = np.asarray(x, dtype=float)
    J = np.zeros((2, 2))
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        J[:, k] = (np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * h)
    return J


def composite_simpson(f, a, b, panels=10000):
    """Composite Simpson rule with `panels` even subdivisions."""
    n = 2 * panels
    x = np.linspace(a, b, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (b - a) / (3 * n) * float(w @ f(x))


# ----------------------------------------------------------------------------
# the Frenet frame at parameters, and the chart maps and operator
# coefficients that no command evaluates


def frame_at(curve, xi):
    """(tau, n, kappa, speed) of `curve` at parameter(s) xi."""
    from frenet_ife.curves import frenet_frame

    xi = np.asarray(xi, dtype=float)
    return frenet_frame(curve.velocity(xi), curve.accel(xi))


def chart_map(chart, eta, xi):
    """P(eta, xi) = g(xi) + eta n(xi) of a FrenetChart.  Requires
    |eta|*max_curvature < 1."""
    from frenet_ife.errors import OutsideValidityStrip

    eta = np.asarray(eta, dtype=float)
    if np.any(np.abs(eta) * chart.curve.max_curvature >= 1.0):
        raise OutsideValidityStrip("|eta|*max_curvature >= 1")
    _, n, _, _ = frame_at(chart.curve, xi)
    return chart.curve.point(np.asarray(xi, dtype=float)) + eta[..., None] * n


def chord_map(cc, eta, xi):
    """P_chord(eta, xi) = A (eta, xi)^T + b of a ChordChart."""
    coords = np.stack([np.asarray(eta, dtype=float),
                       np.asarray(xi, dtype=float)], axis=-1)
    return coords @ cc.A.mT + cc.b[..., None, :]


def chord_transition(cc, eta, xi):
    """T(eta, xi) = chord_inverse(P(eta, xi)); identity for straight interfaces."""
    return cc.inverse(chart_map(cc.chart, eta, xi))


def laplacian_coefficients(lap, eta, xi):
    """(a, b, c) of a FrenetLaplacian at strip points; raises outside
    |eta|*kappa_max < 1."""
    from frenet_ife.errors import OutsideValidityStrip

    eta = np.asarray(eta, dtype=float)
    if np.any(np.abs(eta) * lap.curve.max_curvature >= 1.0):
        raise OutsideValidityStrip("|eta|*max_curvature >= 1")
    s, kappa, sp, kappa_p = lap.curve_data(xi)
    J = s * (1.0 + eta * kappa)
    J_xi = sp * (1.0 + eta * kappa) + s * eta * kappa_p
    return s * kappa / J, 1.0 / J**2, -J_xi / J**3


def map_second_xi_derivative(lap, eta, xi):
    """P_xixi = eta*kappa'*g' + (1 + eta*kappa)*g'' (for chain-rule checks)."""
    eta = np.asarray(eta, dtype=float)
    xi = np.asarray(xi, dtype=float)
    _, kappa, _, kappa_p = lap.curve_data(xi)
    return (eta * kappa_p)[..., None] * lap.curve.velocity(xi) \
        + (1.0 + eta * kappa)[..., None] * lap.curve.accel(xi)


def case_jump_residuals(case, chart, n_pts=100):
    """Value/flux mismatch of a manufactured case's exact solution across
    the interface."""
    xi = np.linspace(chart.curve.xi_start, chart.curve.xi_end, n_pts, endpoint=False)
    pts = chart.curve.point(xi)
    _, n, _, _ = frame_at(chart.curve, xi)
    ju = case.u(pts, 1) - case.u(pts, -1)
    flux_p = case.beta_plus * np.einsum("pk,pk->p", case.grad(pts, 1), n)
    flux_m = case.beta_minus * np.einsum("pk,pk->p", case.grad(pts, -1), n)
    return ju, flux_p - flux_m


# ----------------------------------------------------------------------------
# exact circle-vs-box area by adaptive subdivision


def _circle_edge_crossings(cx, cy, r, x0, y0, x1, y1):
    """All intersection points of the circle with the box boundary, in
    counterclockwise boundary order starting at (x0, y0)."""
    out = []

    def on_h(y, xa, xb, walk_dir):
        d2 = r * r - (y - cy) ** 2
        pts = []
        if d2 > 0:
            for xc in (cx - np.sqrt(d2), cx + np.sqrt(d2)):
                if min(xa, xb) < xc < max(xa, xb):
                    pts.append((xc, y))
        pts.sort(key=lambda p: walk_dir * p[0])
        return pts

    def on_v(x, ya, yb, walk_dir):
        d2 = r * r - (x - cx) ** 2
        pts = []
        if d2 > 0:
            for yc in (cy - np.sqrt(d2), cy + np.sqrt(d2)):
                if min(ya, yb) < yc < max(ya, yb):
                    pts.append((x, yc))
        pts.sort(key=lambda p: walk_dir * p[1])
        return pts

    out += on_h(y0, x0, x1, +1)   # bottom, left->right
    out += on_v(x1, y0, y1, +1)   # right, up
    out += on_h(y1, x1, x0, -1)   # top, right->left
    out += on_v(x0, y1, y0, -1)   # left, down
    return out


def disk_box_area(cx, cy, r, box, depth=9):
    """Area of {|x - c| <= r} intersected with `box`.

    Adaptive quadtree: cells entirely inside/outside are resolved by corner
    distances; at the finest level a boundary cell is finished with the
    chord polygon plus the exact circular-segment correction, so the result
    is exact up to roundoff once every boundary cell is simply crossed.
    """

    def cell_area(x0, y0, x1, y1, level):
        corners = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
        d = np.hypot(corners[:, 0] - cx, corners[:, 1] - cy)
        if np.max(d) <= r:
            return (x1 - x0) * (y1 - y0)
        nearest = np.hypot(np.clip(cx, x0, x1) - cx, np.clip(cy, y0, y1) - cy)
        if nearest >= r:
            return 0.0
        cross = _circle_edge_crossings(cx, cy, r, x0, y0, x1, y1)
        if level < depth or len(cross) != 2:
            if level > depth + 30:
                raise RuntimeError("subdivision failed to simplify the cut")
            xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
            return (cell_area(x0, y0, xm, ym, level + 1)
                    + cell_area(xm, y0, x1, ym, level + 1)
                    + cell_area(x0, ym, xm, y1, level + 1)
                    + cell_area(xm, ym, x1, y1, level + 1))
        # boundary walk: corners inside the disk plus the two crossings
        verts = []
        walk = [(corners[0], "c"), *[(np.array(p), "x") for p in cross if _between(p, corners[0], corners[1])],
                (corners[1], "c"), *[(np.array(p), "x") for p in cross if _between(p, corners[1], corners[2])],
                (corners[2], "c"), *[(np.array(p), "x") for p in cross if _between(p, corners[2], corners[3])],
                (corners[3], "c"), *[(np.array(p), "x") for p in cross if _between(p, corners[3], corners[0])]]
        if sum(1 for _, kind in walk if kind == "x") != 2:
            # crossing landed on a corner; subdivide to move it off
            xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
            return (cell_area(x0, y0, xm, ym, level + 1)
                    + cell_area(xm, y0, x1, ym, level + 1)
                    + cell_area(x0, ym, xm, y1, level + 1)
                    + cell_area(xm, ym, x1, y1, level + 1))
        for p, kind in walk:
            if kind == "x" or np.hypot(p[0] - cx, p[1] - cy) <= r:
                verts.append(p)
        v = np.array(verts)
        x, y = v[:, 0], v[:, 1]
        poly = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        (ax, ay), (bx, by) = cross
        chord = np.hypot(bx - ax, by - ay)
        theta = 2.0 * np.arcsin(min(1.0, chord / (2.0 * r)))
        segment = 0.5 * r * r * (theta - np.sin(theta))
        return poly + segment

    x0, y0, x1, y1 = box[0], box[1], box[2], box[3]
    return cell_area(x0, y0, x1, y1, 0)


def _between(p, a, b):
    """Is p strictly inside segment a->b (axis-aligned)?"""
    eps = 1e-14
    if abs(a[0] - b[0]) < eps:  # vertical
        return abs(p[0] - a[0]) < eps and min(a[1], b[1]) + eps < p[1] < max(a[1], b[1]) - eps
    return abs(p[1] - a[1]) < eps and min(a[0], b[0]) + eps < p[0] < max(a[0], b[0]) - eps


# ----------------------------------------------------------------------------
# dense sign sampling for classification


def sign_sample_interface(inside_fn, box, n=64):
    """True if an n-by-n midpoint sampling of `box` sees both signs."""
    x0, y0, x1, y1 = box
    xs = x0 + (x1 - x0) * (np.arange(n) + 0.5) / n
    ys = y0 + (y1 - y0) * (np.arange(n) + 0.5) / n
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    s = inside_fn(X.ravel(), Y.ravel())
    return bool(np.any(s) and np.any(~s))


def bisect_root(f, a, b, iters=200):
    """Plain bisection for the spec'd 1D oracle computations."""
    fa, fb = f(a), f(b)
    assert fa * fb < 0
    for _ in range(iters):
        m = 0.5 * (a + b)
        fm = f(m)
        if fa * fm <= 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


# ----------------------------------------------------------------------------
# per-element reference loops for the level quadrature table
#
# These walk every element and edge, rebuild its cut-aware rules and
# re-evaluate its basis at every quadrature point, with no shared table.
# Assembly, error norms and the trace probe, which read one quadrature
# table per level, must reproduce them; the L2 projection is computed only
# here, for the projection-order checks.


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


class LoopIfeBasis:
    """Immersed basis of one interface element: (m+1)^2 piecewise functions,
    as ife_space held it, one object per element, before its level record.

    Each function is a pair of coefficient matrices over (etabar, xibar),
    one per side of the interface; X0 members coincide on both sides, X1
    members are the same monomial divided by the side's beta.
    """

    def __init__(self, chart, interval, beta_minus, beta_plus, x0, scaling):
        """interval: the element's (xi0, xi1); x0, scaling: its X0 vectors
        (m+1, m+1, m+1) and scaling."""
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

    def evaluate_ref(self, eta, xi, side):
        """Values and (d/deta, d/dxi) gradients in tubular coordinates: the
        level kernel on this element's one-row record, both sides at every
        point, each point's side kept."""
        from frenet_ife.ife_space import IfeBasis, _ref_values

        row = IfeBasis(self.chart, [self.interval], self.beta[-1], self.beta[1],
                       self.coef[1][None, :self.m + 1])
        eta, xi = (np.atleast_1d(np.asarray(a, dtype=float))[None].repeat(2, 0) for a in (eta, xi))
        plus = np.broadcast_to(np.asarray(side), eta.shape[1:]) > 0
        return tuple(np.where(plus, r[1], r[0]) for r in _ref_values(row, [0, 0], [-1, 1], eta, xi))

    def evaluate(self, pts, side=None):
        """Physical values and gradients at points of the element.

        `side` may be +-1 (scalar or array) to force the branch, e.g. on
        points lying exactly on the interface; by default the sign of eta
        decides.
        """
        from frenet_ife.ife_space import _physical

        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        eta, xi = self.chart.inverse(pts, xi_anchor=self.scaling.xi_c)
        if side is None:
            side = np.where(eta >= 0.0, 1, -1)
        return _physical(*self.evaluate_ref(eta, xi, side), self.chart.jacobian(eta, xi))


def element_basis(spaces, e):
    """The basis of element e: a LoopIfeBasis from its row of the level's
    interface bases if it is an interface element, else its tensor basis,
    built on the call."""
    from frenet_ife.ife_space import TensorBasis

    if e not in spaces.tags.interface.elements:
        return TensorBasis(spaces.mesh.elem_box(e), spaces.m)
    b, i = spaces.bases, spaces.tags.interface.elements.tolist().index(e)
    xi0, xi1 = b.interval[i]
    return LoopIfeBasis(b.chart, (xi0, xi1), b.beta[-1], b.beta[1], b.coef[1][i, :b.m + 1],
                        LocalScaling(h_eta=b.chart.h, xi_c=0.5 * (xi0 + xi1),
                                     h_xi=0.5 * (xi1 - xi0)))


def element_rules(spaces, e, q):
    """[(rule, side)] covering element e with the right branch labels."""
    from frenet_ife.quadrature import cut_cell_rules, gauss_rect

    side = int(spaces.tags.tags[e])
    if side:
        return [(gauss_rect(spaces.mesh.elem_box(e), q), side)]
    rules = cut_cell_rules(spaces.mesh, e, spaces.tags.interface, spaces.chart, q)
    return [(rules[1], 1), (rules[-1], -1)]


def smallest_eigenvalue(S):
    """Smallest eigenvalue of a sparse symmetric matrix, from a dense solve."""
    return float(np.linalg.eigvalsh(S.toarray())[0])


def _triplet_matrix(blocks, n):
    import scipy.sparse as sp

    rows, cols, vals = [], [], []
    for block, row_dofs, col_dofs in blocks:
        r, c = np.meshgrid(row_dofs, col_dofs, indexing="ij")
        rows.append(r.ravel())
        cols.append(c.ravel())
        vals.append(np.asarray(block).ravel())
    return sp.coo_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n)).tocsr()


def loop_assemble(spaces, sigma0, f_source, g_dirichlet):
    """(S, F, norm Gram, energy Gram) of the SIPDG form, element by element,
    at the level's quadrature orders."""
    from frenet_ife.assembly import edge_segments

    mesh = spaces.mesh
    nl, q_vol, q_edge = spaces.n_local, spaces.q_vol, spaces.q_edge
    gamma = spaces.beta_plus**2 / spaces.beta_minus
    pen = sigma0 * gamma / mesh.h
    trip, trip_jump, trip_flux, trip_vol = [], [], [], []
    F = np.zeros(spaces.n_dofs)

    for e in range(mesh.n_elements):
        basis = element_basis(spaces, e)
        dofs = np.arange(e * nl, (e + 1) * nl)
        K = np.zeros((basis.n_basis, basis.n_basis))
        Fe = np.zeros(basis.n_basis)
        for rule, side in element_rules(spaces, e, q_vol):
            beta = float(spaces.beta_of(side))
            vals, grads = basis.evaluate(rule.points, side=side)
            K += beta * np.einsum("bpk,p,cpk->bc", grads, rule.weights, grads)
            Fe += vals @ (rule.weights * f_source(rule.points, side))
        trip.append((K, dofs, dofs))
        trip_vol.append((K, dofs, dofs))
        F[dofs] += Fe

    for k in range(mesh.n_edges):
        n_e = mesh.edge_normal[k]
        e1, e2 = mesh.edge_elems[k]
        interior = e2 >= 0
        members = [(e1, 1.0)] + ([(e2, -1.0)] if interior else [])
        avg = 0.5 if interior else 1.0
        for pts, w, side in edge_segments(spaces, k, q_edge):
            beta = float(spaces.beta_of(side))
            V, B, D = [], [], []
            for e, _sign in members:
                vals, grads = element_basis(spaces, e).evaluate(pts, side=side)
                V.append(vals)
                B.append(beta * np.einsum("bpk,k->bp", grads, n_e))
                D.append(np.arange(e * nl, (e + 1) * nl))
            for ia, (ea, sa) in enumerate(members):
                for ib, (eb, sb) in enumerate(members):
                    blk = (-avg * sa * (V[ia] * w) @ B[ib].T
                           - avg * sb * (B[ia] * w) @ V[ib].T
                           + pen * sa * sb * (V[ia] * w) @ V[ib].T)
                    trip.append((blk, D[ia], D[ib]))
                    trip_jump.append((pen * sa * sb * (V[ia] * w) @ V[ib].T,
                                      D[ia], D[ib]))
                    trip_flux.append(((avg * avg / pen) * (B[ia] * w) @ B[ib].T,
                                      D[ia], D[ib]))
            if not interior:
                g = g_dirichlet(pts, side)
                F[D[0]] += (-B[0] + pen * V[0]) @ (w * g)

    n = spaces.n_dofs
    # the broken-norm Gram sums its volume and jump blocks in one pass, and
    # the energy Gram adds the flux blocks to it as a second matrix
    G_norm = _triplet_matrix(trip_vol + trip_jump, n)
    return _triplet_matrix(trip, n), F, G_norm, G_norm + _triplet_matrix(trip_flux, n)


def _loop_uh(spaces, coef, e, pts, side):
    vals, grads = element_basis(spaces, e).evaluate(pts, side=side)
    nl = spaces.n_local
    c = coef[e * nl:(e + 1) * nl]
    return c @ vals, np.einsum("b,bpk->pk", c, grads)


def loop_error_norms(coef, case, spaces, sigma0):
    """L2, broken and energy errors, element by element and edge by edge, at
    the level's quadrature orders."""
    from frenet_ife.assembly import edge_segments

    mesh = spaces.mesh
    q_vol, q_edge = spaces.q_vol, spaces.q_edge
    pen = sigma0 * (spaces.beta_plus**2 / spaces.beta_minus) / mesh.h
    l2_sq = grad_sq = 0.0
    for e in range(mesh.n_elements):
        for rule, side in element_rules(spaces, e, q_vol):
            beta = float(spaces.beta_of(side))
            uh, guh = _loop_uh(spaces, coef, e, rule.points, side)
            du = case.u(rule.points, side) - uh
            dg = case.grad(rule.points, side) - guh
            l2_sq += rule.weights @ du**2
            grad_sq += beta * rule.weights @ np.einsum("pk,pk->p", dg, dg)
    jump_sq = flux_sq = 0.0
    for k in range(mesh.n_edges):
        n_e = mesh.edge_normal[k]
        e1, e2 = mesh.edge_elems[k]
        for pts, w, side in edge_segments(spaces, k, q_edge):
            beta = float(spaces.beta_of(side))
            u1, g1 = _loop_uh(spaces, coef, e1, pts, side)
            err1 = case.u(pts, side) - u1
            flux1 = beta * np.einsum("pk,k->p", case.grad(pts, side) - g1, n_e)
            if e2 >= 0:
                u2, g2 = _loop_uh(spaces, coef, e2, pts, side)
                err2 = case.u(pts, side) - u2
                flux2 = beta * np.einsum("pk,k->p", case.grad(pts, side) - g2, n_e)
                jump_sq += w @ (err1 - err2) ** 2
                flux_sq += w @ (0.5 * (flux1 + flux2)) ** 2
            else:
                jump_sq += w @ err1**2
                flux_sq += w @ flux1**2
    norm_h_sq = grad_sq + pen * jump_sq
    return {"l2": float(np.sqrt(l2_sq)), "norm_h": float(np.sqrt(norm_h_sq)),
            "energy": float(np.sqrt(norm_h_sq + flux_sq / pen))}


def loop_trace_constant(spaces, e):
    """Normalized trace constant of element e from its own rules, at the
    level's quadrature orders."""
    import scipy.linalg

    from frenet_ife.assembly import edge_segments

    mesh = spaces.mesh
    q_vol, q_edge = spaces.q_vol, spaces.q_edge
    basis = element_basis(spaces, e)
    A = np.zeros((basis.n_basis, basis.n_basis))
    B = np.zeros_like(A)
    for rule, side in element_rules(spaces, e, q_vol):
        beta = float(spaces.beta_of(side))
        _, grads = basis.evaluate(rule.points, side=side)
        A += beta * np.einsum("bpk,p,cpk->bc", grads, rule.weights, grads)
    for k in mesh.elem_edges[e]:
        for pts, w, side in edge_segments(spaces, k, q_edge):
            beta = float(spaces.beta_of(side))
            _, grads = basis.evaluate(pts, side=side)
            B += beta**2 * np.einsum("bpk,p,cpk->bc", grads, w, grads)
    lam, vecs = np.linalg.eigh(A)
    W = vecs[:, lam > 1e-10 * lam[-1]]
    lam_max = scipy.linalg.eigh(W.T @ B @ W, W.T @ A @ W, eigvals_only=True)[-1]
    return float(np.sqrt(lam_max * mesh.h) * np.sqrt(spaces.beta_minus)
                 / spaces.beta_plus)


def loop_project_l2(u, spaces):
    """Per-element L2 projection by local mass solves, at the level's volume
    order."""
    q, nl = spaces.q_vol, spaces.n_local
    out = np.zeros(spaces.n_dofs)
    for e in range(spaces.mesh.n_elements):
        basis = element_basis(spaces, e)
        M = np.zeros((basis.n_basis, basis.n_basis))
        rhs = np.zeros(basis.n_basis)
        for rule, side in element_rules(spaces, e, q):
            vals, _ = basis.evaluate(rule.points, side=side)
            M += (vals * rule.weights) @ vals.T
            rhs += vals @ (rule.weights * u(rule.points, side))
        out[e * nl:(e + 1) * nl] = np.linalg.solve(M, rhs)
    return out


def loop_projection_study(case, m, ns, box=(-1, 1, -1, 1)):
    """L2-projection errors, L2 and broken H1, of the case on each level of a
    refinement chain at volume order m+3, and their pairwise log2 rates."""
    from frenet_ife.analysis import setup_level

    rows = []
    for n in ns:
        spaces = setup_level(case, box, n, m, {"volume": m + 3})
        coef = loop_project_l2(case.u, spaces)
        l2_sq = h1_sq = 0.0
        for e in range(spaces.mesh.n_elements):
            for rule, side in element_rules(spaces, e, spaces.q_vol):
                uh, guh = _loop_uh(spaces, coef, e, rule.points, side)
                du = case.u(rule.points, side) - uh
                dg = case.grad(rule.points, side) - guh
                l2_sq += rule.weights @ du**2
                h1_sq += rule.weights @ np.einsum("pk,pk->p", dg, dg)
        rows.append({"n": n, "l2": float(np.sqrt(l2_sq)), "h1": float(np.sqrt(h1_sq))})
    out = {"rows": rows}
    for key in ("l2", "h1"):
        es = [r[key] for r in rows]
        out[f"rates_{key}"] = [float(np.log2(es[i] / es[i + 1])) for i in range(len(es) - 1)]
    return out


def loop_inverse(chart, points, xi_anchor=None, first_step_backtracks=None):
    """FrenetChart.inverse as it was before the one-jet Newton loop: every
    step re-evaluates the curve point by point, derivative by derivative.

    If a list is given as `first_step_backtracks`, the number of points
    whose first Newton step had to be damped is appended to it.
    """
    from frenet_ife import frenet
    from frenet_ife.errors import NewtonDivergence
    from frenet_ife.frenet import unwrap_near

    pts = np.atleast_2d(np.asarray(points, dtype=float))
    c = chart.curve

    xi = chart.nearest_parameter_estimate(pts)
    _, n, _, _ = frame_at(c, xi)
    eta = np.einsum("ij,ij->i", pts - c.point(xi), n)

    active = np.arange(len(pts))
    for it in range(frenet._MAX_ITER):
        g = c.point(xi[active])
        _, n, kappa, _ = frame_at(c, xi[active])
        res = g + eta[active, None] * n - pts[active]
        rnorm = np.linalg.norm(res, axis=1)
        done = rnorm <= frenet._NEWTON_TOL
        if np.any(done):
            active = active[~done]
            if len(active) == 0:
                break
            g = c.point(xi[active])
            _, n, kappa, _ = frame_at(c, xi[active])
            res = g + eta[active, None] * n - pts[active]
            rnorm = np.linalg.norm(res, axis=1)
        v = c.velocity(xi[active])
        fac = 1.0 + eta[active] * kappa
        a11, a21 = n[:, 0], n[:, 1]
        a12, a22 = fac * v[:, 0], fac * v[:, 1]
        det = a11 * a22 - a12 * a21
        det[np.abs(det) < 1e-300] = 1e-300
        d_eta = (-res[:, 0] * a22 + res[:, 1] * a12) / det
        d_xi = (res[:, 0] * a21 - res[:, 1] * a11) / det
        step = np.ones(len(active))
        for _bt in range(30):
            eta_try = eta[active] + step * d_eta
            xi_try = xi[active] + step * d_xi
            res_try = c.point(xi_try) + eta_try[:, None] * frame_at(c, xi_try)[1] - pts[active]
            worse = np.linalg.norm(res_try, axis=1) > rnorm
            if not np.any(worse):
                break
            step[worse] *= 0.5
        if it == 0 and first_step_backtracks is not None:
            first_step_backtracks.append(int(np.sum(step < 1.0)))
        eta[active] += step * d_eta
        xi[active] += step * d_xi
    else:
        res = c.point(xi) + eta[:, None] * frame_at(c, xi)[1] - pts
        bad = np.linalg.norm(res, axis=1) > frenet._NEWTON_TOL
        if np.any(bad):
            raise NewtonDivergence(f"{int(bad.sum())} point(s) failed to invert")

    if c.periodic:
        anchor = c.xi_start + 0.5 * c.period if xi_anchor is None else xi_anchor
        xi = unwrap_near(xi, anchor, c.period)
        if xi_anchor is None:
            xi = np.where(xi < c.xi_start, xi + c.period, xi)
    return eta, xi


def loop_fictitious_interval(chart, corners, samples_per_edge=8):
    """FrenetChart.fictitious_intervals of one element as it was before the
    batched intervals: one inverse for the first corner, one for the boundary loop
    and one per refined extremum, each on its own."""
    from frenet_ife.errors import NewtonDivergence

    corners = np.asarray(corners, dtype=float)
    ts = np.linspace(0.0, 1.0, samples_per_edge + 2)[1:-1]
    loop = []
    for k in range(4):
        a, b = corners[k], corners[(k + 1) % 4]
        loop.append(a)
        loop.extend(a + t * (b - a) for t in ts)
    loop = np.asarray(loop)
    anchor = None
    if chart.curve.periodic:
        anchor = float(chart.inverse(corners[:1])[1][0])
    _, xi = chart.inverse(loop, xi_anchor=anchor)

    def refine(i, sign):
        n = len(loop)
        prv, nxt = (i - 1) % n, (i + 1) % n
        y0, y1, y2 = xi[prv], xi[i], xi[nxt]
        a = 0.5 * (y0 + y2) - y1
        b = 0.5 * (y2 - y0)
        best = y1
        if abs(a) > 1e-300:
            t_v = float(np.clip(-b / (2.0 * a), -1.0, 1.0))
            if t_v >= 0.0:
                p = loop[i] + t_v * (loop[nxt] - loop[i])
            else:
                p = loop[i] - t_v * (loop[prv] - loop[i])
            try:
                xv = float(chart.inverse(p[None], xi_anchor=anchor)[1][0])
                best = max(best, xv) if sign > 0 else min(best, xv)
            except NewtonDivergence:
                pass
        return best

    lo = refine(int(np.argmin(xi)), -1.0)
    hi = refine(int(np.argmax(xi)), +1.0)
    pad = 1e-10 * max(hi - lo, 1e-30)
    return lo - pad, hi + pad


def _edge_point(a, b, t):
    """The points at parameters t of the edge a->b."""
    return a + np.multiply.outer(np.asarray(t, dtype=float), b - a)


def _loop_root_on_edge(chart, a, b, t_lo, t_hi, f_lo, f_hi):
    from frenet_ife.errors import AmbiguousCut, TangentialIntersection

    def edge_point(t):
        return a + np.multiply.outer(np.asarray(t, dtype=float), b - a)

    curve = chart.curve
    for _ in range(24):
        t_mid = 0.5 * (t_lo + t_hi)
        f_mid = float(chart.signed_distance_estimate(edge_point(t_mid)[None])[0])
        if f_lo * f_mid <= 0.0:
            t_hi, f_hi = t_mid, f_mid
        else:
            t_lo, f_lo = t_mid, f_mid
    t = 0.5 * (t_lo + t_hi)
    p = edge_point(t)
    xi = float(chart.nearest_parameter_estimate(p[None, :])[0])
    d = b - a
    scale = max(1.0, np.linalg.norm(d))
    for _ in range(40):
        gape = edge_point(t) - curve.point(np.asarray(xi, dtype=float))
        if np.linalg.norm(gape) <= 1e-14 * scale:
            break
        gp = curve.velocity(np.asarray(xi, dtype=float))
        det = -d[0] * gp[1] + d[1] * gp[0]
        if abs(det) < 1e-300:
            break
        dt = (gape[0] * gp[1] - gape[1] * gp[0]) / det
        dxi = (gape[0] * d[1] - gape[1] * d[0]) / det
        t += dt
        xi += dxi
    _, n, _, _ = frame_at(curve, xi)
    if abs(float(np.dot(n, d))) / np.linalg.norm(d) < 1e-10:
        raise TangentialIntersection("interface tangent to a mesh edge")
    gape = edge_point(t) - curve.point(np.asarray(xi, dtype=float))
    if np.linalg.norm(gape) > 1e-12 * scale:
        raise AmbiguousCut("edge crossing failed to converge")
    return float(t), float(xi), edge_point(t)


def loop_polish_root(chart, a, b, t):
    """Newton polish of edge(t) = g(xi) from a bisected t on edge a->b."""
    from frenet_ife.errors import AmbiguousCut, TangentialIntersection

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
    _, n, _, _ = frame_at(curve, xi)
    tangency = abs(float(np.dot(n, d))) / np.linalg.norm(d)
    if tangency < 1e-10:
        raise TangentialIntersection(
            "interface tangent to a mesh edge; perturb the mesh")
    gape = _edge_point(a, b, t) - curve.point(np.asarray(xi, dtype=float))
    if np.linalg.norm(gape) > 1e-12 * scale:
        raise AmbiguousCut("edge crossing failed to converge")
    if not -1e-12 <= t <= 1.0 + 1e-12:
        raise AmbiguousCut(f"crossing at t = {t:.6g} is off the edge")
    return float(t), float(xi), _edge_point(a, b, t)


def loop_rect_mesh(box, nx, ny):
    """RectMesh's edge and element-edge arrays as they were built before the
    index arithmetic: one Python loop over every edge and every element."""
    from types import SimpleNamespace

    self = SimpleNamespace()
    x0, x1, y0, y1 = map(float, box)
    self.nx, self.ny = int(nx), int(ny)
    self.dx = (x1 - x0) / nx
    self.dy = (y1 - y0) / ny
    self.n_elements = nx * ny

    def elem_id(ix, iy):
        return iy * self.nx + ix

    self.elem_id = elem_id

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
    return self


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


@dataclass
class LoopTags:
    """loop_classify's output, one record per interface element."""

    tags: np.ndarray               # per element: its side +-1 if plain, 0 if cut
    interface: dict                # interface element -> ElementTag, in element order
    edge_cuts: dict                # candidate edge id -> sorted list of EdgeCut

    @property
    def n_interface(self):
        return len(self.interface)


def loop_classify(mesh, chart, edge_samples=33):
    """classify_elements as it was before the level-wide phases: every edge,
    element, bisection step and fictitious interval queries the chart on its
    own, and each element samples its four edges once more.  Returns the
    per-element records of a LoopTags; as_level_record turns them into the
    arrays of classify_elements."""
    from frenet_ife.errors import AmbiguousCut
    from frenet_ife.frenet import unwrap_near

    def projected_cut(e, p):
        # the chart's foot of the zero-band sample p, from a chart call on p
        # alone, as a cut of the first of e's edges within zero_tol of it
        _, xi, _ = chart._newton(p[None, :])
        g = curve.point(xi)[0]
        if not np.linalg.norm(p - g) <= zero_tol:
            return None
        for kid in mesh.elem_edges[e]:
            a, b = mesh.edge_a[kid], mesh.edge_b[kid]
            t = float(np.clip((g - a) @ (b - a) / mesh.edge_length[kid] ** 2, 0.0, 1.0))
            if np.linalg.norm(a + t * (b - a) - g) < zero_tol:
                return EdgeCut(edge=int(kid), t=t, xi=float(xi[0]), point=g)
        return None

    curve = chart.curve
    zero_tol = 1e-10 * mesh.h
    x0, _, y0, _ = mesh.box
    gx = x0 + mesh.dx * np.arange(mesh.nx + 1)
    gy = y0 + mesh.dy * np.arange(mesh.ny + 1)
    gridpts = np.stack(np.meshgrid(gx, gy, indexing="ij"), axis=-1).reshape(-1, 2)
    eta_grid = chart.signed_distance_estimate(gridpts).reshape(mesh.nx + 1, mesh.ny + 1)

    edge_cuts = {}
    tags, interface = [], {}
    ts = np.linspace(0.0, 1.0, edge_samples)

    def cuts_of_edge(k):
        if k in edge_cuts:
            return edge_cuts[k]
        a, b = mesh.edge_a[k], mesh.edge_b[k]
        f = chart.signed_distance_estimate(_edge_point(a, b, ts))
        found = []
        strict = [i for i in range(edge_samples) if abs(f[i]) > zero_tol]
        for i1, i2 in zip(strict[:-1], strict[1:]):
            if f[i1] * f[i2] < 0.0:
                t, xi, p = _loop_root_on_edge(chart, a, b, ts[i1], ts[i2], f[i1], f[i2])
                if not any(abs(t - c.t) < 1e-9 for c in found):
                    found.append(EdgeCut(edge=k, t=t, xi=xi, point=p))
        found.sort(key=lambda c: c.t)
        edge_cuts[k] = found
        return found

    for e in range(mesh.n_elements):
        ix, iy = e % mesh.nx, e // mesh.nx
        eta_c = np.array([eta_grid[ix, iy], eta_grid[ix + 1, iy],
                          eta_grid[ix + 1, iy + 1], eta_grid[ix, iy + 1]])
        if np.min(np.abs(eta_c)) > 1.000001 * mesh.h:
            tags.append(1 if eta_c[0] > 0 else -1)
            continue
        cuts = []
        for k in mesh.elem_edges[e]:
            cuts.extend(cuts_of_edge(k))
        unique = []
        for c in cuts:
            if not any(np.linalg.norm(c.point - u.point) < 1e-12 * mesh.h for u in unique):
                unique.append(c)
        edge_pts = np.vstack([_edge_point(mesh.edge_a[k], mesh.edge_b[k], ts)
                              for k in mesh.elem_edges[e]])
        eta_all = chart.signed_distance_estimate(edge_pts)
        has_pos = bool(np.any(eta_all > zero_tol))
        has_neg = bool(np.any(eta_all < -zero_tol))
        if not (has_pos and has_neg):
            side = 1 if (has_pos or eta_c.mean() > 0) else -1
            tags.append(side)
            continue
        if len(unique) < 2:
            for idx in np.where(np.abs(eta_all) <= zero_tol)[0]:
                cut = projected_cut(e, edge_pts[idx])
                if cut is not None and not any(
                        np.linalg.norm(cut.point - u.point) < 1e-9 * mesh.h
                        for u in unique):
                    unique.append(cut)
        if len(unique) != 2:
            raise AmbiguousCut(f"element {e}: {len(unique)} interface crossings")
        xi0, xi1 = loop_fictitious_interval(chart, mesh.elem_corners(e))
        if curve.periodic:
            anchor = 0.5 * (xi0 + xi1)
            local = [EdgeCut(edge=c.edge, t=c.t,
                             xi=float(unwrap_near(c.xi, anchor, curve.period)),
                             point=c.point) for c in unique]
        else:
            local = list(unique)
        for c in local:
            if not (xi0 <= c.xi <= xi1):
                xi0, xi1 = min(xi0, c.xi), max(xi1, c.xi)
        tags.append(0)
        interface[e] = ElementTag(interval=(xi0, xi1), cuts=local)
    return LoopTags(np.array(tags), interface, edge_cuts)


def as_level_record(ref):
    """The per-element records of a LoopTags as classify_elements holds them:
    (the InterfaceCuts record, {edge: sorted crossing parameters t})."""
    from frenet_ife.mesh import InterfaceCuts

    tags = list(ref.interface.values())
    cuts = [c for tag in tags for c in tag.cuts]
    record = InterfaceCuts(
        np.array(list(ref.interface), dtype=int),
        np.array([tag.interval for tag in tags], dtype=float).reshape(-1, 2),
        np.array([c.edge for c in cuts], dtype=int).reshape(-1, 2),
        *(np.array([getattr(c, k) for c in cuts], dtype=float).reshape(-1, 2) for k in ("t", "xi")),
        np.array([c.point for c in cuts], dtype=float).reshape(-1, 2, 2))
    return record, {k: [c.t for c in found] for k, found in ref.edge_cuts.items()}


# per-element reference loops for the X0 block and the weak residuals
#
# The constraint rows of one interface element, one unit coefficient matrix
# at a time, and the weak moment residuals of one basis, one function at a
# time.  The level kernel in ife_space, which builds them for every interface
# element of a level at once, must reproduce them bit for bit.


def _loop_legendre_rows(deg_max, xbar):
    from numpy.polynomial.legendre import legval

    rows = np.zeros((deg_max + 1, len(xbar)))
    for d in range(deg_max + 1):
        coef = np.zeros(d + 1)
        coef[d] = 1.0
        rows[d] = legval(xbar, coef)
    return rows


def _loop_poly_line_series(C, scaling, xbar, n_terms):
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


def _loop_l_operator_series(C, scaling, jets, xbar, n_out):
    A, B, Cc = jets
    P, P1, P2 = _loop_poly_line_series(C, scaling, xbar, n_out + 2)
    out = np.zeros((n_out, P.shape[1]))
    for l in range(n_out):
        acc = (l + 1) * (l + 2) * P[l + 2]
        for k in range(l + 1):
            acc = acc + A[k] * (l - k + 1) * P[l - k + 1]
            acc = acc + B[k] * P2[l - k]
            acc = acc + Cc[k] * P1[l - k]
        out[l] = acc
    return out


def loop_build_x0(chart, interval, m, line_q=None):
    """(vectors (m+1, m+1, m+1), scaling) of one interface interval."""
    from frenet_ife.errors import DimensionMismatch
    from frenet_ife.laplacian import FrenetLaplacian
    from frenet_ife.quadrature import gauss_interval

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
        tests = _loop_legendre_rows(m, xbar)
        series = np.zeros((nb, m - 1, len(xbar)))
        for j in range(m + 1):
            for i in range(m + 1):
                C = np.zeros((m + 1, m + 1))
                C[j, i] = 1.0
                series[j * (m + 1) + i] = _loop_l_operator_series(C, scaling, jets, xbar, m - 1)
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


def loop_weak_residuals(basis, line_q=None):
    """Weak moment residuals (n_basis, (m-1)(m+1)) of one interface basis."""
    from frenet_ife.laplacian import FrenetLaplacian
    from frenet_ife.quadrature import gauss_interval

    m = basis.m
    if m < 2:
        return np.zeros((basis.n_basis, 0))
    xi0, xi1 = basis.interval
    q = line_q if line_q is not None else m + 6
    rule = gauss_interval(xi0, xi1, q)
    xbar = basis.scaling.xibar(rule.points)
    jets = FrenetLaplacian(basis.chart).coefficient_jets(rule.points, m - 2)
    tests = _loop_legendre_rows(m, xbar)
    out = np.zeros((basis.n_basis, (m - 1) * (m + 1)))
    for bfun in range(basis.n_basis):
        sp = _loop_l_operator_series(basis.coef[1][bfun], basis.scaling, jets, xbar, m - 1)
        sm = _loop_l_operator_series(basis.coef[-1][bfun], basis.scaling, jets, xbar, m - 1)
        jump = basis.beta[1] * sp - basis.beta[-1] * sm
        k = 0
        for jj in range(m - 1):
            for d in range(m + 1):
                out[bfun, k] = jump[jj] @ (rule.weights * tests[d])
                k += 1
    return out


# ----------------------------------------------------------------------------
# the cut-cell rules of one interface element, region by region, as
# quadrature built them before its level kernel: that kernel, which builds
# the rules of every interface element of a level at once, must reproduce
# them bit for bit

from frenet_ife.errors import DegeneratePartition  # noqa: E402
from frenet_ife.quadrature import QuadRule  # noqa: E402


def _loop_gauss01(q):
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(q)
    return 0.5 * (x + 1.0), 0.5 * w


def _loop_tri_rule(A, B, C, q):
    """Tensor Gauss on a straight triangle via the collapsed-square map."""
    x, w = _loop_gauss01(q)
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


def _loop_cone_rule(A, chart, xi_s, xi_e, q):
    """Tensor Gauss on the cone from apex A over the arc g([xi_s, xi_e])."""
    x, w = _loop_gauss01(q)
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


def _loop_cone_sign_ok(det):
    return det.min() * det.max() >= -1e-14 * max(abs(det.min()), abs(det.max()))


def _loop_cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _loop_anchor_ok(A, verts, chart, xi_s, xi_e):
    """Certify that the region is star-shaped from A.

    Every boundary segment and the arc must sweep counterclockwise around
    the anchor; that makes the polar fan a disjoint exact tiling.
    """
    scale = max(float(np.linalg.norm(verts[i + 1] - verts[i]))
                for i in range(len(verts) - 1))
    scale = max(scale, 1e-300) ** 2
    for i in range(len(verts) - 1):
        if _loop_cross(verts[i] - A, verts[i + 1] - A) < -1e-13 * scale:
            return False
    u = np.linspace(0.0, 1.0, 33)
    xi = xi_s + u * (xi_e - xi_s)
    g = chart.curve.point(xi)
    gp = chart.curve.velocity(xi) * (xi_e - xi_s)
    sweep = _loop_cross(g - A, gp)
    return bool(np.all(sweep >= -1e-13 * scale))


def _loop_curved_piece(apex, chart, xi_s, xi_e, q, depth=0):
    """Cone piece over an arc, splitting the arc if the Jacobian flips sign.

    The split replaces the cone by two sub-cones plus the straight triangle
    (apex, g(xi_s), g(xi_mid)), which tile the same region whenever each
    sub-piece is itself star-shaped from its apex.
    """
    pts, w, det = _loop_cone_rule(apex, chart, xi_s, xi_e, q)
    if not _loop_cone_sign_ok(det):
        if depth >= 3:
            raise DegeneratePartition("curved piece Jacobian changes sign")
        xi_m = 0.5 * (xi_s + xi_e)
        g_m = chart.curve.point(np.asarray(xi_m, dtype=float))
        p1, w1 = _loop_curved_piece(g_m, chart, xi_s, xi_m, q, depth + 1)
        p2, w2 = _loop_curved_piece(apex, chart, xi_m, xi_e, q, depth + 1)
        p3, w3, _ = _loop_tri_rule(apex, chart.curve.point(np.asarray(xi_s, dtype=float)),
                              g_m, q)
        return np.vstack([p1, p2, p3]), np.concatenate([w1, w2, w3])
    return pts, w


def _loop_tangent_intersection(chart, xi_s, xi_e):
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


def _loop_closest_on_polyline(verts, p):
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


def _loop_region_rule(verts, xi_s, xi_e, chart, q, depth=0):
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
    ti = _loop_tangent_intersection(chart, xi_s, xi_e)
    if ti is not None:
        candidates.append(ti)
    candidates.extend(verts)
    anchor = None
    for cand in candidates:
        if _loop_anchor_ok(cand, verts, chart, xi_s, xi_e):
            anchor = cand
            break
    if anchor is None:
        if depth >= 4:
            raise DegeneratePartition(
                "no star-shaped anchor found for a cut region")
        xi_m = 0.5 * (xi_s + xi_e)
        m_pt = chart.curve.point(np.asarray(xi_m, dtype=float))
        j, t, p_star = _loop_closest_on_polyline(verts, m_pt)
        verts1 = [m_pt, p_star, *verts[j + 1:]]
        verts2 = [*verts[:j + 1], p_star, m_pt]
        p1, w1 = _loop_region_rule(verts1, xi_s, xi_m, chart, q, depth + 1)
        p2, w2 = _loop_region_rule(verts2, xi_m, xi_e, chart, q, depth + 1)
        return np.vstack([p1, p2]), np.concatenate([w1, w2])
    pts_list, w_list = [], []
    for i in range(len(verts) - 1):
        p, w, _ = _loop_tri_rule(anchor, verts[i], verts[i + 1], q)
        pts_list.append(p)
        w_list.append(w)
    p, w = _loop_curved_piece(anchor, chart, xi_s, xi_e, q)
    pts_list.append(p)
    w_list.append(w)
    return np.vstack(pts_list), np.concatenate(w_list)


def _loop_boundary_chains(mesh, e, tag):
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


def polyline_side(chart, pts):
    """The side of a cut-cell region from the seed polyline, as the level
    kernel took it before it inverted the chart there: the sign of
    signed_distance_estimate at the region's point where it is largest in
    magnitude (quadrature points lie in the region, and the farthest from
    the interface is sign-robust)."""
    eta = chart.signed_distance_estimate(pts)
    return 1 if eta[int(np.argmax(np.abs(eta)))] > 0 else -1


def loop_cut_cell_rules(mesh, e, cuts, chart, q):
    """Quadrature over the two curved sub-regions of interface element `e`
    of the record `cuts`, read into one ElementTag.

    Returns {+1: QuadRule, -1: QuadRule} in physical coordinates, in region
    order.  Pieces: a fan of straight triangles from the first cut point
    plus one piece whose curved side lies on the interface arc between the
    cuts.
    """
    i = cuts.elements.tolist().index(e)
    tag = ElementTag(interval=tuple(cuts.interval[i].tolist()), cuts=[
        EdgeCut(int(cuts.edge[i, j]), float(cuts.t[i, j]), float(cuts.xi[i, j]), cuts.point[i, j])
        for j in range(2)])
    chains = _loop_boundary_chains(mesh, e, tag)
    rules = {}
    for chain in chains:
        start_pt, start_cut = chain[0]
        end_pt, end_cut = chain[-1]
        inner = [p for p, c in chain[1:-1]]
        verts = [start_pt, *inner, end_pt]
        try:
            pts, w = _loop_region_rule(verts, end_cut.xi, start_cut.xi, chart, q)
        except DegeneratePartition as exc:
            raise DegeneratePartition(f"element {e}: {exc}") from exc
        rules[polyline_side(chart, pts)] = QuadRule(points=pts, weights=w)
    if len(rules) != 2:
        raise DegeneratePartition(f"element {e}: both sub-regions landed on the same side")
    return rules


# ----------------------------------------------------------------------------
# the physical values and gradients of one interface basis, one side at a
# time, as IfeBasis evaluated them before its stacked kernel: the kernel,
# which evaluates every (element, side) of a level at once, must reproduce
# them bit for bit


def _loop_powers(m, ebar, xbar):
    Ve = np.vander(ebar, m + 1, increasing=True)
    Vx = np.vander(xbar, m + 1, increasing=True)
    j = np.arange(m + 1)
    dVe = np.zeros_like(Ve)
    dVe[:, 1:] = Ve[:, :-1] * j[1:]
    dVx = np.zeros_like(Vx)
    dVx[:, 1:] = Vx[:, :-1] * j[1:]
    return Ve, Vx, dVe, dVx


def loop_evaluate_ref(basis, eta, xi, side):
    """Values and (d/deta, d/dxi) gradients in tubular coordinates."""
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    side = np.broadcast_to(np.asarray(side), eta.shape)
    Ve, Vx, dVe, dVx = _loop_powers(basis.m, basis.scaling.etabar(eta), basis.scaling.xibar(xi))
    vals = np.empty((basis.n_basis, len(eta)))
    g_eta = np.empty_like(vals)
    g_xi = np.empty_like(vals)
    for s in (-1, 1):
        mask = side == s
        if not np.any(mask):
            continue
        C = basis.coef[s]
        vals[:, mask] = np.einsum("bji,pj,pi->bp", C, Ve[mask], Vx[mask])
        g_eta[:, mask] = np.einsum("bji,pj,pi->bp", C, dVe[mask], Vx[mask]) \
            / basis.scaling.h_eta
        g_xi[:, mask] = np.einsum("bji,pj,pi->bp", C, Ve[mask], dVx[mask]) \
            / basis.scaling.h_xi
    return vals, g_eta, g_xi


def loop_evaluate(basis, pts, side=None):
    """Physical values and gradients of an interface basis at points."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    eta, xi = basis.chart.inverse(pts, xi_anchor=basis.scaling.xi_c)
    J = basis.chart.jacobian(eta, xi)
    if side is None:
        side = np.where(eta >= 0.0, 1, -1)
    else:
        side = np.broadcast_to(np.asarray(side), eta.shape)
    vals, g_eta, g_xi = loop_evaluate_ref(basis, eta, xi, side)
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    gx = (J[:, 1, 1] * g_eta - J[:, 1, 0] * g_xi) / det
    gy = (-J[:, 0, 1] * g_eta + J[:, 0, 0] * g_xi) / det
    return vals, np.stack([gx, gy], axis=-1)


def loop_interface_jumps(basis, xi):
    """(value jumps, flux jumps) of every basis function at parameters xi."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    zeros = np.zeros_like(xi)
    vp, gp, _ = loop_evaluate_ref(basis, zeros, xi, np.ones_like(xi, dtype=int))
    vm, gm, _ = loop_evaluate_ref(basis, zeros, xi, -np.ones_like(xi, dtype=int))
    return vp - vm, basis.beta[1] * gp - basis.beta[-1] * gm


# ----------------------------------------------------------------------------
# per-element geometry probe and space diagnostics, as the library computed
# them before their level kernels: one chord chart, one chart Jacobian and
# one Gram with its SVD per interface element.  The level kernels must
# reproduce them bit for bit.


class LoopChordChart:
    """Affine stand-in for the Frenet chart on one fictitious interval."""

    def __init__(self, chart, xi0: float, xi1: float):
        from frenet_ife.errors import DegenerateChord
        from frenet_ife.frenet import ROT

        if not xi1 > xi0:
            raise ValueError("need xi1 > xi0")
        self.chart = chart
        self.xi0, self.xi1 = float(xi0), float(xi1)
        curve = chart.curve
        g0 = curve.point(np.asarray(xi0, dtype=float))
        g1 = curve.point(np.asarray(xi1, dtype=float))
        if np.linalg.norm(g1 - g0) < 1e-12:
            raise DegenerateChord("||g(xi1) - g(xi0)|| < 1e-12")
        d = (g1 - g0) / (xi1 - xi0)
        tau = d / np.linalg.norm(d)
        n = ROT @ tau
        self.tau, self.n = tau, n
        # P_chord(eta, xi) = A (eta, xi)^T + b
        self.A = np.column_stack([n, d])
        self.b = g0 - xi0 * d
        self.Ainv = np.linalg.inv(self.A)

    def inverse(self, points):
        pts = np.asarray(points, dtype=float)
        return (pts - self.b) @ self.Ainv.T

    def transition_jacobian(self, eta, xi):
        """DT = A^{-1} DP, shape (..., 2, 2)."""
        J = self.chart.jacobian(eta, xi)
        return np.einsum("ab,...bc->...ac", self.Ainv, J)


def loop_geometry_probes(curve, ns, box=(-1, 1, -1, 1)):
    """Per-level maxima of the chart-vs-chord deviations and interval band,
    one chord chart per interface element."""
    from frenet_ife.frenet import FrenetChart
    from frenet_ife.mesh import build_mesh, classify_elements

    _PROBE_GRID = 6
    levels = []
    for n in ns:
        mesh = build_mesh(box, n)
        chart = FrenetChart(curve, h=mesh.h)
        tags = classify_elements(mesh, chart)
        t_dev = dt_dev = det_dev = 0.0
        band_lo, band_hi = np.inf, -np.inf
        # one chart inverse for the grids of all interface elements
        grid, size = _PROBE_GRID, _PROBE_GRID**2
        intervals = tags.interface.interval.tolist()
        grids = []
        for e in tags.interface.elements.tolist():
            xl, yl, xh, yh = mesh.elem_box(e)
            X, Y = np.meshgrid(np.linspace(xl, xh, grid), np.linspace(yl, yh, grid))
            grids.append(np.column_stack([X.ravel(), Y.ravel()]))
        if intervals:
            mids = [0.5 * (lo + hi) for lo, hi in intervals]
            eta_all, xi_all = chart.inverse(np.concatenate(grids),
                                            xi_anchor=np.repeat(mids, size))
        for j, (pts, (xi0, xi1)) in enumerate(zip(grids, intervals)):
            eta, xi = eta_all[j * size:(j + 1) * size], xi_all[j * size:(j + 1) * size]
            band = (xi1 - xi0) / mesh.h
            band_lo, band_hi = min(band_lo, band), max(band_hi, band)
            cc = LoopChordChart(chart, xi0, xi1)
            hat = np.column_stack([eta, xi])
            t_dev = max(t_dev, np.max(np.linalg.norm(cc.inverse(pts) - hat, axis=1)))
            DT = cc.transition_jacobian(eta, xi)
            dt_dev = max(dt_dev, np.max(np.linalg.norm(DT - np.eye(2), axis=(1, 2))))
            det = DT[:, 0, 0] * DT[:, 1, 1] - DT[:, 0, 1] * DT[:, 1, 0]
            det_dev = max(det_dev, np.max(np.abs(det - 1.0)))
        levels.append({"n": n, "h": mesh.h, "t_dev": t_dev, "dt_dev": dt_dev,
                       "det_dev": det_dev, "band_lo": band_lo, "band_hi": band_hi,
                       "n_interface": tags.n_interface})

    hs = np.array([lv["h"] for lv in levels])
    out = {"levels": levels}
    for key in ("t_dev", "dt_dev", "det_dev"):
        vals = np.array([lv[key] for lv in levels])
        if np.all(vals > 0) and len(set(hs.tolist())) > 1:
            out[f"slope_{key}"] = float(np.polyfit(np.log(hs), np.log(vals), 1)[0])
        else:
            out[f"slope_{key}"] = float("nan")
    return out


def loop_gram_fictitious(basis):
    """Exact L2 Gram over the fictitious box (both sides) of one basis."""
    m = basis.m
    a = np.arange(m + 1)
    apb = a[:, None] + a[None, :]
    m_neg = ((-1.0) ** apb) / (apb + 1.0)
    m_pos = 1.0 / (apb + 1.0)
    m_xi = np.where(apb % 2 == 0, 2.0 / (apb + 1.0), 0.0)
    scale = basis.scaling.h_eta * basis.scaling.h_xi
    g = np.einsum("fab,gcd,ac,bd->fg", basis.coef[-1], basis.coef[-1], m_neg, m_xi)
    g = g + np.einsum("fab,gcd,ac,bd->fg", basis.coef[1], basis.coef[1], m_pos, m_xi)
    return scale * g


def loop_space_diagnostics(spaces):
    """Per-interface-element conditioning and conformity residuals, one Gram
    and one SVD per element."""
    from frenet_ife.ife_space import interface_jumps, weak_condition_residuals

    elems = spaces.tags.interface.elements.tolist()
    if not elems:
        return []
    weak = weak_condition_residuals(spaces.bases)
    jumps = interface_jumps(spaces.bases, np.array(
        [np.linspace(*interval, 24) for interval in spaces.tags.interface.interval]))
    rows = []
    for e, w, jv, jf in zip(elems, weak, *jumps):
        g = loop_gram_fictitious(element_basis(spaces, e))
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
