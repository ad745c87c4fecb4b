import numpy as np
import pytest

from frenet_ife import ife_space
from frenet_ife.analysis import manufactured_circle, setup_level
from frenet_ife.curves import LineCurve, circle, ellipse, flower
from frenet_ife.errors import DimensionMismatch
from frenet_ife.frenet import FrenetChart
from frenet_ife.ife_space import (IfeBasis, TensorBasis, build_spaces, build_x0,
                                  gram_fictitious, interface_jumps, series_factors,
                                  space_diagnostics, weak_condition_residuals,
                                  _l_operator_series, _legendre_rows)
from frenet_ife.laplacian import FrenetLaplacian
from frenet_ife.mesh import build_mesh, classify_elements

from oracles import (LoopIfeBasis, composite_simpson, element_basis, element_rules, frame_at,
                     loop_build_x0, loop_evaluate, loop_evaluate_ref, loop_gram_fictitious,
                     loop_interface_jumps, loop_project_l2, loop_space_diagnostics,
                     loop_weak_residuals)


@pytest.fixture(scope="module")
def circle_spaces():
    mesh = build_mesh((-1, 1, -1, 1), 8)
    chart = FrenetChart(circle(0.6), h=mesh.h)
    tags = classify_elements(mesh, chart)
    return build_spaces(mesh, tags, chart, m=2, beta_minus=1.0, beta_plus=10.0)


def _basis(chart, interval, m, beta_minus, beta_plus):
    """The one-row interface bases of one element with fictitious interval
    `interval`."""
    return IfeBasis(chart, [interval], beta_minus, beta_plus, build_x0(chart, [0], [interval], m))


def _x1_exponents(m):
    """(j, i) of the one monomial etabar^j xibar^i of each X1 member of a basis."""
    x1 = _basis(FrenetChart(circle(1.0), h=0.3), (0.1, 0.4), m, 2.0, 5.0).coef[1][0, m + 1:]
    return [tuple(int(v) for v in ji) for (ji,) in map(np.argwhere, x1)]


def test_x1_monomials():
    assert _x1_exponents(1) == [(1, 0), (1, 1)]
    for m in (1, 2, 3):
        mons = _x1_exponents(m)
        assert len(mons) == m * (m + 1)
        assert all(j >= 1 for j, _ in mons)   # all vanish at eta = 0


def test_x0_m1_is_trace_polynomials():
    chart = FrenetChart(circle(1.0), h=0.3)
    (vecs,) = build_x0(chart, [0], [(0.1, 0.4)], 1)
    assert vecs.shape == (2, 2, 2)
    # no eta dependence at all for m=1
    assert np.max(np.abs(vecs[:, 1, :])) == 0.0
    assert np.linalg.matrix_rank(vecs[:, 0, :]) == 2


def test_x0_line_m2_against_explicit_matrix():
    # straight interface: L = d2/deta2 + d2/dxi2 / s^2; constraints reduce to
    # polynomial identities with analytic moments
    line = LineCurve([0.0, 0.0], [1.0, 0.0], -5, 5)
    chart = FrenetChart(line, h=0.5)
    xi0, xi1 = 0.2, 0.9
    (vecs,) = build_x0(chart, [0], [(xi0, xi1)], 2)
    assert vecs.shape[0] == 3

    # independent 6x9 constraint matrix over raw monomials eta^j xi^i
    def moment(k):
        return (xi1 ** (k + 1) - xi0 ** (k + 1)) / (k + 1)

    rows = []
    for i in range(3):       # p_eta(0, xi) == 0 coefficient-wise
        r = np.zeros(9)
        r[3 + i] = 1.0       # flat index j*3+i with j=1
        rows.append(r)
    for d in range(3):       # moments of L(p)(0, xi) = 2*p20(xi) + p0''(xi)
        r = np.zeros(9)
        for i in range(3):
            r[6 + i] += 2.0 * moment(d + i)         # 2 eta^2 xi^i term
            if i >= 2:
                r[0 + (i - 2)] += i * (i - 1) * moment(d + i - 2)
        rows.append(r)
    M = np.vstack(rows)
    assert np.linalg.matrix_rank(M) == 6            # nullspace dim 3

    # production vectors satisfy the constraints: check via finite differences
    # of the evaluated polynomial plus Simpson moments
    basis = _basis(chart, (xi0, xi1), 2, 1.0, 1.0)
    for k in range(3):
        coef_fn = k            # X0 members come first

        def lap_on_line(xi):
            d = 1e-5
            vals = []
            for eta in (-d, 0.0, d):
                v, _, _ = basis.evaluate_ref(np.full_like(xi, eta), xi,
                                             np.ones_like(xi, dtype=int))
                vals.append(v[coef_fn])
            p_etaeta = (vals[0] - 2 * vals[1] + vals[2]) / d**2
            vxx = []
            for dx in (-d, 0.0, d):
                v, _, _ = basis.evaluate_ref(np.zeros_like(xi), xi + dx,
                                             np.ones_like(xi, dtype=int))
                vxx.append(v[coef_fn])
            p_xixi = (vxx[0] - 2 * vxx[1] + vxx[2]) / d**2
            return p_etaeta + p_xixi

        for dtest in range(3):
            mom = composite_simpson(
                lambda s: lap_on_line(np.atleast_1d(s)) * s**dtest, xi0, xi1,
                panels=400)
            assert abs(mom) < 5e-4   # FD-limited accuracy


def _origins(basis):
    """"x0" or "x1" per function of a one-row basis: X0 members coincide on
    both sides, X1 members are divided by the side's beta."""
    plus, minus = basis.coef[1][0], basis.coef[-1][0]
    return ["x0" if np.array_equal(p, q) else "x1" for p, q in zip(plus, minus)]


def test_x0_circle_m2_dimension_and_residuals():
    chart = FrenetChart(circle(1.0), h=0.3)
    basis = _basis(chart, (0.0, 0.25), 2, 1.0, 7.0)
    assert sum(1 for o in _origins(basis) if o == "x0") == 3
    # residuals evaluated with an independent, much finer line rule
    res = weak_condition_residuals(basis, line_q=20)
    assert np.max(np.abs(res)) <= 1e-10
    # the strong eta-derivative condition holds coefficient-wise
    for k in range(3):
        assert np.max(np.abs(basis.coef[1][0, k, 1, :])) <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_interface_basis_count_and_x1_member(m):
    chart = FrenetChart(circle(1.0), h=0.3)
    basis = _basis(chart, (0.3, 0.55), m, 2.0, 5.0)
    assert basis.n_basis == (m + 1) ** 2
    # eta/beta is in the basis: X1 monomial (1, 0)
    idx = m + 1   # first X1 member
    assert _origins(basis)[idx] == "x1"
    jv, jf = interface_jumps(basis, np.linspace(0.3, 0.55, 9)[None])
    assert np.max(np.abs(jv)) <= 1e-13
    assert np.max(np.abs(jf)) <= 1e-12


def test_line_interface_eta_over_beta_shape():
    # straight interface y = 0: the first X1 member is eta/beta_hat up to the
    # conditioning scale, i.e. -y/beta(side) with gradient (0, -1/beta(side))
    line = LineCurve([0.0, 0.0], [1.0, 0.0], -5, 5)
    chart = FrenetChart(line, h=1.2)
    mesh = build_mesh((0, 1, -0.4, 0.6), 1)
    tags = classify_elements(mesh, chart)
    assert tags.tags[0] == 0
    bm, bp = 2.0, 5.0
    spaces = build_spaces(mesh, tags, chart, 1, bm, bp)
    b = spaces.bases             # one interface element: a one-row record
    idx = 2                      # first X1 member: the (1, 0) monomial
    assert _origins(b)[idx] == "x1"
    rng = np.random.default_rng(1)
    pts = np.column_stack([rng.uniform(0, 1, 40), rng.uniform(-0.4, 0.6, 40)])
    vals, grads = b.evaluate(pts)
    beta = np.where(pts[:, 1] < 0.0, bp, bm)   # below the line is the plus side
    h_eta = b.chart.h
    assert np.allclose(vals[idx] * h_eta, -pts[:, 1] / beta, atol=1e-12)
    assert np.allclose(grads[idx, :, 0] * h_eta, 0.0, atol=1e-12)
    assert np.allclose(grads[idx, :, 1] * h_eta, -1.0 / beta, atol=1e-12)


def test_equal_beta_spans_full_tensor_space():
    chart = FrenetChart(circle(1.0), h=0.3)
    for m in (1, 2):
        basis = _basis(chart, (0.1, 0.4), m, 3.0, 3.0)
        flat = basis.coef[1][0].reshape(basis.n_basis, -1)
        assert np.linalg.matrix_rank(flat, tol=1e-10) == (m + 1) ** 2
        flat_minus = basis.coef[-1][0].reshape(basis.n_basis, -1)
        assert np.allclose(flat, flat_minus)


def test_direct_sum_gram_well_conditioned(circle_spaces):
    grams = gram_fictitious(circle_spaces.bases)
    assert len(grams) == circle_spaces.tags.n_interface
    for g in grams:
        d = np.sqrt(np.diag(g))
        gn = g / np.outer(d, d)
        w = np.linalg.eigvalsh(gn)
        assert w[0] > 1e-8
        assert w[-1] / w[0] < 1e8


def test_full_constraint_system_cross_check():
    # the decomposition-built basis spans the nullspace of the full
    # two-sided constraint system
    chart = FrenetChart(circle(1.0), h=0.3)
    m, bm, bp = 2, 1.0, 10.0
    interval = (0.2, 0.5)
    basis = _basis(chart, interval, m, bm, bp)
    from frenet_ife.quadrature import gauss_interval

    rule = gauss_interval(*interval, 8)
    xbar = (rule.points - basis.xi_c[0]) / basis.h_xi[0]
    jets = FrenetLaplacian(chart).coefficient_jets(rule.points, m - 2)
    tests = _legendre_rows(m, xbar)
    nb = (m + 1) ** 2
    rows = []
    for i in range(m + 1):   # value jump: trace coefficients match
        r = np.zeros(2 * nb)
        r[0 * (m + 1) + i] = 1.0
        r[nb + 0 * (m + 1) + i] = -1.0
        rows.append(r)
    for i in range(m + 1):   # flux jump: beta-weighted eta-coefficients match
        r = np.zeros(2 * nb)
        r[1 * (m + 1) + i] = bp
        r[nb + 1 * (m + 1) + i] = -bm
        rows.append(r)
    series = []
    for j in range(m + 1):
        for i in range(m + 1):
            C = np.zeros((m + 1, m + 1))
            C[j, i] = 1.0
            series.append(_l_operator_series(C, series_factors(chart.h, basis.h_xi, m + 1)[0],
                                             jets, xbar, m - 1))
    for jj in range(m - 1):
        for d in range(m + 1):
            r = np.zeros(2 * nb)
            for k in range(nb):
                mom = series[k][jj] @ (rule.weights * tests[d])
                r[k] = bp * mom
                r[nb + k] = -bm * mom
            rows.append(r)
    M = np.vstack(rows)
    ns_dim = 2 * nb - np.linalg.matrix_rank(M, tol=1e-10)
    assert ns_dim == nb
    # every constructed basis function satisfies the full system
    row_norm = np.linalg.norm(M, axis=1, keepdims=True)
    for k in range(basis.n_basis):
        vec = np.concatenate([basis.coef[1][0, k].ravel(), basis.coef[-1][0, k].ravel()])
        assert np.max(np.abs((M / row_norm) @ vec)) <= 1e-9


def test_physical_conformity(circle_spaces):
    spaces = circle_spaces
    chart = spaces.chart
    for e, cut_xi in zip(spaces.tags.interface.elements[:6], spaces.tags.interface.xi):
        b = element_basis(spaces, e)
        xa, xb = sorted(cut_xi)
        xs = np.linspace(xa + 1e-9, xb - 1e-9, 50)
        pts = chart.curve.point(xs)
        _, n, _, _ = frame_at(chart.curve, xs)
        vp, gp = b.evaluate(pts, side=1)
        vm, gm = b.evaluate(pts, side=-1)
        flux_p = spaces.beta_plus * np.einsum("bpk,pk->bp", gp, n)
        flux_m = spaces.beta_minus * np.einsum("bpk,pk->bp", gm, n)
        assert np.max(np.abs(vp - vm)) <= 1e-10
        assert np.max(np.abs(flux_p - flux_m)) <= 1e-9


def test_small_cut_sliver_robustness():
    # element whose inside piece has relative area ~1e-6
    from oracles import bisect_root, disk_box_area

    s = 0.25
    r0 = 0.6
    target = 1e-6 * s * s

    def cap_area(eps):
        d = r0 - eps
        return r0**2 * np.arccos(d / r0) - d * np.sqrt(r0**2 - d**2)

    eps = bisect_root(lambda t: cap_area(t) - target, 1e-9, 1e-3)
    box = (r0 - eps, r0 - eps + s, -s / 2, s / 2)
    mesh = build_mesh(box, 1)
    chart = FrenetChart(circle(r0), h=0.25 * np.sqrt(2))
    tags = classify_elements(mesh, chart)
    assert tags.tags[0] == 0
    spaces = build_spaces(mesh, tags, chart, 2, 1.0, 10.0)
    (g,) = gram_fictitious(spaces.bases)
    d = np.sqrt(np.diag(g))
    w = np.linalg.eigvalsh(g / np.outer(d, d))
    assert w[0] > 1e-8 and w[-1] / w[0] < 1e8
    # the tiny piece is still integrated consistently
    from frenet_ife.quadrature import cut_cell_rules

    rules = cut_cell_rules(mesh, 0, tags.interface, chart, q=8)
    oracle = disk_box_area(0, 0, r0, (box[0], box[2], box[1], box[3]))
    assert rules[-1].weights.sum() == pytest.approx(oracle, rel=1e-6)
    assert rules[-1].weights.sum() / (s * s) == pytest.approx(1e-6, rel=1e-3)


def test_tensor_basis_partition_of_unity_and_gradients():
    basis = TensorBasis((0.2, -0.1, 0.7, 0.4), m=2)
    rng = np.random.default_rng(3)
    pts = np.column_stack([rng.uniform(0.2, 0.7, 40), rng.uniform(-0.1, 0.4, 40)])
    vals, grads = basis.evaluate(pts)
    assert np.allclose(vals.sum(axis=0), 1.0, atol=1e-13)
    assert np.allclose(grads.sum(axis=0), 0.0, atol=1e-12)
    d = 1e-6
    vx, _ = basis.evaluate(pts + [d, 0.0])
    vx2, _ = basis.evaluate(pts - [d, 0.0])
    assert np.allclose(grads[..., 0], (vx - vx2) / (2 * d), atol=1e-7)


def test_projection_reproduces_members_and_constants(circle_spaces):
    spaces = circle_spaces
    rng = np.random.default_rng(8)
    e = spaces.tags.interface.elements[0]
    b = element_basis(spaces, e)

    # local mass solve reproduces a member of the local space exactly
    M = np.zeros((b.n_basis, b.n_basis))
    rhs = np.zeros(b.n_basis)
    for rule, side in element_rules(spaces, e, 5):
        vals, _ = b.evaluate(rule.points, side=side)
        M += (vals * rule.weights) @ vals.T
        rhs += vals @ (rule.weights * vals[4])
    coef_loc = np.linalg.solve(M, rhs)
    box = spaces.mesh.elem_box(e)
    pts = np.column_stack([rng.uniform(box[0], box[2], 30),
                           rng.uniform(box[1], box[3], 30)])
    vals, _ = b.evaluate(pts)
    assert np.max(np.abs(coef_loc @ vals - vals[4])) <= 1e-11

    # constants live in every local space (through the trace block)
    ones = loop_project_l2(lambda p, s: np.ones(len(np.atleast_2d(p))), spaces)
    nl = spaces.n_local
    for ee in (0, e):
        pts = np.column_stack([rng.uniform(*spaces.mesh.elem_box(ee)[0::2], 10),
                               rng.uniform(*spaces.mesh.elem_box(ee)[1::2], 10)])
        vals, _ = element_basis(spaces, ee).evaluate(pts)
        assert np.max(np.abs(ones[ee * nl:(ee + 1) * nl] @ vals - 1.0)) <= 1e-11


def test_setup_builds_per_element_objects_for_cut_elements_only(monkeypatch):
    # plain elements are rows of arrays, with no tensor basis of their own,
    # and the interface elements are the rows of one record
    from frenet_ife.mesh import InterfaceCuts

    built = []

    def counted(self, *args, _orig=TensorBasis.__init__, **kwargs):
        built.append(1)
        _orig(self, *args, **kwargs)

    monkeypatch.setattr(TensorBasis, "__init__", counted)
    spaces = setup_level(manufactured_circle(0.6, 1.0, 10.0, p=4), (-1, 1, -1, 1), 32, 2)
    tags = spaces.tags
    assert tags.n_interface > 0 and built == []
    assert isinstance(tags.interface, InterfaceCuts)
    assert [len(a) for a in tags.interface] == [tags.n_interface] * 6
    assert len(spaces.bases.interval) == tags.n_interface


def test_dimension_mismatch_names_the_element():
    # one line quadrature point cannot pose the m=2 moment conditions
    mesh = build_mesh((-1, 1, -1, 1), 8)
    chart = FrenetChart(circle(0.6), h=mesh.h)
    tags = classify_elements(mesh, chart)
    first = tags.interface.elements[0]
    with pytest.raises(DimensionMismatch, match=rf"^element {first}: X0 nullspace dimension"):
        build_spaces(mesh, tags, chart, 2, 1.0, 10.0, {"interface": 1})


_LEVEL_CURVES = {
    "circle": (circle(0.6), (-1, 1, -1, 1), 16),
    "off-centre circle": (circle(0.55, (0.13, -0.07)), (-1, 1, -1, 1), 16),
    "ellipse": (ellipse(0.7, 0.5), (-1, 1, -1, 1), 16),
    "flower": (flower(0.5, 0.1, 5), (-0.8, 0.8, -0.8, 0.8), 32),
    "line": (LineCurve([0.0, 0.013], [1.0, 0.21], -5, 5), (-1, 1, -1, 1), 16),
}


@pytest.fixture(scope="module", params=list(_LEVEL_CURVES))
def level(request):
    curve, box, n = _LEVEL_CURVES[request.param]
    mesh = build_mesh(box, n)
    chart = FrenetChart(curve, h=mesh.h)
    tags = classify_elements(mesh, chart)
    cuts = tags.interface
    return mesh, chart, tags, dict(zip(cuts.elements.tolist(), map(tuple, cuts.interval.tolist())))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("line_q", [None, 20])
def test_level_x0_and_weak_residuals_bitwise_equal_to_loop_oracle(level, m, line_q):
    mesh, chart, tags, intervals = level
    vecs = build_x0(chart, tags.interface.elements, tags.interface.interval, m, line_q)
    assert vecs.shape == (len(intervals), m + 1, m + 1, m + 1)
    spaces = build_spaces(mesh, tags, chart, m, 1.0, 10.0, {"interface": line_q})
    for i, (e, interval) in enumerate(intervals.items()):
        ref, ref_scaling = loop_build_x0(chart, interval, m, line_q)
        assert np.array_equal(vecs[i], ref)
        assert (chart.h, spaces.bases.xi_c[i], spaces.bases.h_xi[i]) == \
            (ref_scaling.h_eta, ref_scaling.xi_c, ref_scaling.h_xi)
    assert np.array_equal(spaces.bases.coef[1][:, :m + 1], vecs)
    weak = weak_condition_residuals(spaces.bases, line_q)
    for i, e in enumerate(intervals):
        assert np.array_equal(weak[i], loop_weak_residuals(element_basis(spaces, e), line_q))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_space_diagnostics_jumps_from_one_stacked_kernel_like_the_loop_oracle(
        level, m, monkeypatch):
    mesh, chart, tags, intervals = level
    spaces = build_spaces(mesh, tags, chart, m, 1.0, 10.0)
    calls = []

    def counted(*args, _orig=ife_space._ref_values):
        calls.append(1)
        return _orig(*args)

    monkeypatch.setattr(ife_space, "_ref_values", counted)
    rows = space_diagnostics(spaces)
    monkeypatch.undo()
    assert len(calls) == 2              # one per side, whatever the mesh
    assert [row["element"] for row in rows] == list(intervals)
    for row in rows:
        b = element_basis(spaces, row["element"])
        jv, jf = loop_interface_jumps(b, np.linspace(*b.interval, 24))
        assert row["max_value_jump"] == float(np.max(np.abs(jv)))
        assert row["max_flux_jump"] == float(np.max(np.abs(jf)))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_space_diagnostics_bitwise_equal_to_loop_oracle(level, m):
    # one stacked Gram and one stacked SVD against one of each per element
    mesh, chart, tags, intervals = level
    spaces = build_spaces(mesh, tags, chart, m, 1.0, 10.0)
    grams = gram_fictitious(spaces.bases)
    assert len(grams) == len(intervals)
    assert all(np.array_equal(g, loop_gram_fictitious(element_basis(spaces, e)))
               for g, e in zip(grams, intervals))
    rows = space_diagnostics(spaces)
    assert len(rows) == len(intervals) and rows == loop_space_diagnostics(spaces)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_level_bases_are_one_record_bitwise_equal_to_the_per_element_oracle(level, m):
    # SpaceSet.bases is one IfeBasis with a row per interface element, in
    # element order; each row and every level kernel on the record match the
    # per-element basis it replaced (LoopIfeBasis on loop_build_x0) bit for bit
    mesh, chart, tags, intervals = level
    spaces = build_spaces(mesh, tags, chart, m, 1.0, 10.0)
    bases, nb = spaces.bases, (m + 1) ** 2
    assert isinstance(bases, IfeBasis) and (bases.m, bases.n_basis) == (m, nb)
    assert np.array_equal(bases.interval, list(intervals.values()))
    assert all(c.shape == (len(intervals), nb, m + 1, m + 1) for c in bases.coef.values())
    factors = series_factors(chart.h, bases.h_xi, m + 1)
    xi = np.linspace(*bases.interval.T, 24, axis=1)
    jumps = interface_jumps(bases, xi)
    weak = weak_condition_residuals(bases)
    grams = gram_fictitious(bases)
    rng = np.random.default_rng(m)
    rows = np.repeat(np.arange(len(intervals)), 2)
    sides = np.tile([1, -1], len(intervals))
    eta = rng.uniform(-mesh.h, mesh.h, (len(rows), 7))
    pts_xi = bases.interval[rows, :1] + rng.uniform(0, 1, eta.shape) * np.diff(bases.interval[rows])
    values = ife_space._ref_values(bases, rows, sides, eta, pts_xi)
    for i, (e, interval) in enumerate(intervals.items()):
        ref = LoopIfeBasis(chart, interval, 1.0, 10.0, *loop_build_x0(chart, interval, m))
        assert all(np.array_equal(bases.coef[s][i], ref.coef[s]) for s in (1, -1))
        assert (chart.h, bases.xi_c[i], bases.h_xi[i]) == \
            (ref.scaling.h_eta, ref.scaling.xi_c, ref.scaling.h_xi)
        assert np.array_equal(factors[i], ref.scaling.series_factors(m + 1))
        assert all(np.array_equal(a[i], b) for a, b in zip(jumps, loop_interface_jumps(ref, xi[i])))
        assert np.array_equal(weak[i], loop_weak_residuals(ref))
        assert np.array_equal(grams[i], loop_gram_fictitious(ref))
        for g in (2 * i, 2 * i + 1):
            assert all(np.array_equal(a[g], b) for a, b in
                       zip(values, loop_evaluate_ref(ref, eta[g], pts_xi[g], sides[g])))
        # the one-row record's own evaluation, as read by the reference loops
        xl, yl, xh, yh = mesh.elem_box(e)
        pts = np.column_stack([rng.uniform(xl, xh, 5), rng.uniform(yl, yh, 5)])
        row = IfeBasis(chart, [interval], 1.0, 10.0, bases.coef[1][i:i + 1, :m + 1])
        assert all(np.array_equal(a, b) for a, b in zip(row.evaluate(pts), loop_evaluate(ref, pts)))


def test_space_diagnostics_on_a_level_without_interface_elements():
    mesh = build_mesh((-1, 1, -1, 1), 8)
    chart = FrenetChart(circle(0.6, (5.0, 5.0)), h=mesh.h)
    spaces = build_spaces(mesh, classify_elements(mesh, chart), chart, 2, 1.0, 10.0)
    assert space_diagnostics(spaces) == loop_space_diagnostics(spaces) == []


@pytest.mark.parametrize("line_q", [1, 2, 3])
def test_level_x0_names_the_first_failing_element_like_the_loop_oracle(level, line_q):
    _, chart, tags, intervals = level
    first = None
    for e, interval in intervals.items():
        try:
            loop_build_x0(chart, interval, 3, line_q)
        except DimensionMismatch:
            first = e
            break
    assert first is not None
    with pytest.raises(DimensionMismatch, match=rf"^element {first}: X0 nullspace dimension"):
        build_x0(chart, tags.interface.elements, tags.interface.interval, 3, line_q)


@pytest.mark.parametrize("m", [2, 3])
def test_coefficient_jets_called_once_per_level_for_x0_and_residuals(m, monkeypatch):
    calls = []

    def counted(self, *args, _orig=FrenetLaplacian.coefficient_jets):
        calls.append(1)
        return _orig(self, *args)

    monkeypatch.setattr(FrenetLaplacian, "coefficient_jets", counted)
    case = manufactured_circle(0.6, 1.0, 10.0)
    for n in (16, 32):
        calls.clear()
        spaces = setup_level(case, (-1, 1, -1, 1), n, m)
        assert len(calls) == 1
        space_diagnostics(spaces)
        assert len(calls) == 2
