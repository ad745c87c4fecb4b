"""Independent reference computations used by the test suite.

Everything here is deliberately written against exact geometry (circle
algebra, finite differences, composite Simpson, dense sign sampling)
rather than the library's own charts and rules, so it can serve as an
oracle for them.
"""

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
# Assembly, error norms, the trace probe and the L2 projection, which read
# one quadrature table per level, must reproduce them.


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


def loop_assemble(spaces, sigma0, f_source, g_dirichlet, q_vol=None, q_edge=None):
    """(S, F, norm Gram, energy Gram) of the SIPDG form, element by element."""
    from frenet_ife.assembly import edge_segments

    mesh, layout = spaces.mesh, spaces.layout
    m = spaces.m
    q_vol = q_vol if q_vol is not None else m + 2
    q_edge = q_edge if q_edge is not None else m + 3
    gamma = spaces.beta_plus**2 / spaces.beta_minus
    pen = sigma0 * gamma / mesh.h
    trip, trip_jump, trip_flux, trip_vol = [], [], [], []
    F = np.zeros(layout.total)

    for e in range(mesh.n_elements):
        basis = spaces.bases[e]
        dofs = layout.dofs(e)
        K = np.zeros((basis.n_basis, basis.n_basis))
        Fe = np.zeros(basis.n_basis)
        for rule, side in spaces.element_rules(e, q_vol):
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
                vals, grads = spaces.bases[e].evaluate(pts, side=side)
                V.append(vals)
                B.append(beta * np.einsum("bpk,k->bp", grads, n_e))
                D.append(layout.dofs(e))
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

    n = layout.total
    # the broken-norm Gram sums its volume and jump blocks in one pass, and
    # the energy Gram adds the flux blocks to it as a second matrix
    G_norm = _triplet_matrix(trip_vol + trip_jump, n)
    return _triplet_matrix(trip, n), F, G_norm, G_norm + _triplet_matrix(trip_flux, n)


def _loop_uh(spaces, coef, e, pts, side):
    vals, grads = spaces.bases[e].evaluate(pts, side=side)
    c = coef[spaces.layout.dofs(e)]
    return c @ vals, np.einsum("b,bpk->pk", c, grads)


def loop_error_norms(coef, case, spaces, sigma0, q_vol=None, q_edge=None):
    """L2, broken and energy errors, element by element and edge by edge."""
    from frenet_ife.assembly import edge_segments

    mesh = spaces.mesh
    m = spaces.m
    q_vol = q_vol if q_vol is not None else m + 2
    q_edge = q_edge if q_edge is not None else m + 3
    pen = sigma0 * (spaces.beta_plus**2 / spaces.beta_minus) / mesh.h
    l2_sq = grad_sq = 0.0
    for e in range(mesh.n_elements):
        for rule, side in spaces.element_rules(e, q_vol):
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


def loop_trace_constant(spaces, e, q_vol=None, q_edge=None):
    """Normalized trace constant of element e from its own rules."""
    import scipy.linalg

    from frenet_ife.assembly import edge_segments

    mesh = spaces.mesh
    m = spaces.m
    q_vol = q_vol if q_vol is not None else m + 2
    q_edge = q_edge if q_edge is not None else m + 3
    basis = spaces.bases[e]
    A = np.zeros((basis.n_basis, basis.n_basis))
    B = np.zeros_like(A)
    for rule, side in spaces.element_rules(e, q_vol):
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


def loop_project_l2(u, spaces, q=None):
    """Per-element L2 projection by local mass solves."""
    q = q if q is not None else spaces.m + 2
    out = np.zeros(spaces.layout.total)
    for e in range(spaces.mesh.n_elements):
        basis = spaces.bases[e]
        M = np.zeros((basis.n_basis, basis.n_basis))
        rhs = np.zeros(basis.n_basis)
        for rule, side in spaces.element_rules(e, q):
            vals, _ = basis.evaluate(rule.points, side=side)
            M += (vals * rule.weights) @ vals.T
            rhs += vals @ (rule.weights * u(rule.points, side))
        out[spaces.layout.dofs(e)] = np.linalg.solve(M, rhs)
    return out


def loop_inverse(chart, points, xi_anchor=None, first_step_backtracks=None):
    """FrenetChart.inverse as it was before the one-jet Newton loop: every
    step re-evaluates the curve point by point, derivative by derivative.

    If a list is given as `first_step_backtracks`, the number of points
    whose first Newton step had to be damped is appended to it.
    """
    from frenet_ife.errors import NewtonDivergence
    from frenet_ife.frenet import frenet_apparatus, unwrap_near

    pts = np.atleast_2d(np.asarray(points, dtype=float))
    single = np.asarray(points).ndim == 1
    c = chart.curve

    xi = chart.nearest_parameter_estimate(pts)
    fr = frenet_apparatus(c, xi)
    eta = np.einsum("ij,ij->i", pts - c.point(xi), np.atleast_2d(fr.n))

    active = np.arange(len(pts))
    for it in range(chart.max_iter):
        g = c.point(xi[active])
        fr = frenet_apparatus(c, xi[active])
        n = np.atleast_2d(fr.n)
        res = g + eta[active, None] * n - pts[active]
        rnorm = np.linalg.norm(res, axis=1)
        done = rnorm <= chart.newton_tol
        if np.any(done):
            active = active[~done]
            if len(active) == 0:
                break
            g, fr = c.point(xi[active]), frenet_apparatus(c, xi[active])
            n = np.atleast_2d(fr.n)
            res = g + eta[active, None] * n - pts[active]
            rnorm = np.linalg.norm(res, axis=1)
        v = np.atleast_2d(c.velocity(xi[active]))
        fac = 1.0 + eta[active] * np.asarray(fr.kappa)
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
            res_try = (c.point(xi_try)
                       + eta_try[:, None] * np.atleast_2d(frenet_apparatus(c, xi_try).n)
                       - pts[active])
            worse = np.linalg.norm(res_try, axis=1) > rnorm
            if not np.any(worse):
                break
            step[worse] *= 0.5
        if it == 0 and first_step_backtracks is not None:
            first_step_backtracks.append(int(np.sum(step < 1.0)))
        eta[active] += step * d_eta
        xi[active] += step * d_xi
    else:
        res = (c.point(xi) + eta[:, None]
               * np.atleast_2d(frenet_apparatus(c, xi).n) - pts)
        bad = np.linalg.norm(res, axis=1) > chart.newton_tol
        if np.any(bad):
            raise NewtonDivergence(f"{int(bad.sum())} point(s) failed to invert")

    if c.periodic:
        anchor = c.xi_start + 0.5 * c.period if xi_anchor is None else xi_anchor
        xi = unwrap_near(xi, anchor, c.period)
        if xi_anchor is None:
            xi = np.where(xi < c.xi_start, xi + c.period, xi)
    if single:
        return float(eta[0]), float(xi[0])
    return eta, xi


def loop_fictitious_interval(chart, corners, samples_per_edge=8):
    """FrenetChart.fictitious_interval as it was before the batched
    intervals: one inverse for the first corner, one for the boundary loop
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
        _, anchor = chart.inverse(corners[0])
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
                _, xv = chart.inverse(p, xi_anchor=anchor)
                best = max(best, xv) if sign > 0 else min(best, xv)
            except NewtonDivergence:
                pass
        return best

    lo = refine(int(np.argmin(xi)), -1.0)
    hi = refine(int(np.argmax(xi)), +1.0)
    pad = 1e-10 * max(hi - lo, 1e-30)
    return lo - pad, hi + pad


def _loop_root_on_edge(chart, a, b, t_lo, t_hi, f_lo, f_hi):
    from frenet_ife.errors import AmbiguousCut, TangentialIntersection
    from frenet_ife.frenet import frenet_apparatus

    def edge_point(t):
        return a + np.multiply.outer(np.asarray(t, dtype=float), b - a)

    curve = chart.curve
    for _ in range(24):
        t_mid = 0.5 * (t_lo + t_hi)
        f_mid = chart.signed_distance_estimate(edge_point(t_mid))
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
    fr = frenet_apparatus(curve, xi)
    if abs(float(np.dot(fr.n, d))) / np.linalg.norm(d) < 1e-10:
        raise TangentialIntersection("interface tangent to a mesh edge")
    gape = edge_point(t) - curve.point(np.asarray(xi, dtype=float))
    if np.linalg.norm(gape) > 1e-12 * scale:
        raise AmbiguousCut("edge crossing failed to converge")
    return float(t), float(xi), edge_point(t)


def loop_classify(mesh, chart, edge_samples=33):
    """classify_elements as it was before the level-wide phases: every edge,
    element, bisection step and fictitious interval queries the chart on its
    own, and each element samples its four edges once more."""
    from frenet_ife.errors import AmbiguousCut
    from frenet_ife.frenet import unwrap_near
    from frenet_ife.mesh import EdgeCut, ElementTag, MeshTags, _projected_cut

    def edge_point(a, b, t):
        return a + np.multiply.outer(np.asarray(t, dtype=float), b - a)

    curve = chart.curve
    zero_tol = 1e-10 * mesh.h
    x0, _, y0, _ = mesh.box
    gx = x0 + mesh.dx * np.arange(mesh.nx + 1)
    gy = y0 + mesh.dy * np.arange(mesh.ny + 1)
    gridpts = np.stack(np.meshgrid(gx, gy, indexing="ij"), axis=-1).reshape(-1, 2)
    eta_grid = chart.signed_distance_estimate(gridpts).reshape(mesh.nx + 1, mesh.ny + 1)

    edge_cuts = {}
    tags = []
    ts = np.linspace(0.0, 1.0, edge_samples)

    def cuts_of_edge(k):
        if k in edge_cuts:
            return edge_cuts[k]
        a, b = mesh.edge_a[k], mesh.edge_b[k]
        f = chart.signed_distance_estimate(edge_point(a, b, ts))
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
            tags.append(ElementTag(kind="plain", side=1 if eta_c[0] > 0 else -1))
            continue
        cuts = []
        for k in mesh.elem_edges[e]:
            cuts.extend(cuts_of_edge(k))
        unique = []
        for c in cuts:
            if not any(np.linalg.norm(c.point - u.point) < 1e-12 * mesh.h for u in unique):
                unique.append(c)
        edge_pts = np.vstack([edge_point(mesh.edge_a[k], mesh.edge_b[k], ts)
                              for k in mesh.elem_edges[e]])
        eta_all = chart.signed_distance_estimate(edge_pts)
        has_pos = bool(np.any(eta_all > zero_tol))
        has_neg = bool(np.any(eta_all < -zero_tol))
        if not (has_pos and has_neg):
            side = 1 if (has_pos or eta_c.mean() > 0) else -1
            tags.append(ElementTag(kind="plain", side=side))
            continue
        if len(unique) < 2:
            for idx in np.where(np.abs(eta_all) <= zero_tol)[0]:
                cut = _projected_cut(mesh, e, chart, edge_pts[idx], zero_tol)
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
        tags.append(ElementTag(kind="interface", interval=(xi0, xi1), cuts=local))
    return MeshTags(tags, edge_cuts, chart)
