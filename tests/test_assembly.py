import numpy as np
import pytest
import scipy.linalg

from frenet_ife.analysis import manufactured_circle, setup_level
from frenet_ife.assembly import (assemble, auto_sigma0, coercivity_ratio,
                                 edge_segments, solve, trace_constant)
from frenet_ife.curves import circle
from frenet_ife.errors import NotPositiveDefinite, SingularGram
from frenet_ife.frenet import FrenetChart
from frenet_ife.ife_space import SpaceSet, build_spaces
from frenet_ife.mesh import build_mesh, classify_elements

from oracles import element_basis, element_rules
from plaindg import PlainDG


@pytest.fixture(scope="module")
def bench():
    case = manufactured_circle(0.6, 1.0, 10.0, p=4)
    spaces = setup_level(case, (-1, 1, -1, 1), 8, 1)
    system = assemble(spaces, 6.0, case.f, case.dirichlet, with_norm_grams=True)
    return case, spaces, system


def test_symmetry(bench):
    _, _, system = bench
    S = system.S
    asym = np.max(np.abs((S - S.T).toarray()))
    assert asym <= 1e-12 * np.max(np.abs(S.toarray()))


def test_gamma_value(bench):
    _, spaces, system = bench
    assert system.gamma == pytest.approx(100.0)
    assert system.penalty == pytest.approx(6.0 * 100.0 / spaces.mesh.h)


def test_sparsity_is_edge_local(bench):
    _, spaces, system = bench
    mesh = spaces.mesh
    nloc = spaces.layout.n_local
    neighbours = [set([e]) for e in range(mesh.n_elements)]
    for k in range(mesh.n_edges):
        e1, e2 = mesh.edge_elems[k]
        if e2 >= 0:
            neighbours[e1].add(e2)
            neighbours[e2].add(e1)
    S = system.S.tocoo()
    for r, c, v in zip(S.row, S.col, S.data):
        if v != 0.0:
            assert (c // nloc) in neighbours[r // nloc]


def test_matches_plain_dg_when_interface_outside_domain():
    # beta constant, interface far outside the box: every element is plain
    # and the assembled matrix must equal an independent SIPDG assembly
    case = manufactured_circle(2.5, 1.0, 1.0, p=4)
    mesh = build_mesh((-1, 1, -1, 1), 8)
    chart = FrenetChart(case.curve, h=mesh.h)
    tags = classify_elements(mesh, chart)
    assert tags.n_interface == 0
    spaces = build_spaces(mesh, tags, chart, 1, 1.0, 1.0)
    system = assemble(spaces, 10.0, case.f, case.dirichlet)

    oracle = PlainDG(mesh, 1, beta=1.0, sigma0=10.0, gamma=1.0)
    S2, F2 = oracle.assemble(lambda p: case.f(p, -1), lambda p: case.u(p, -1))
    dS = np.max(np.abs((system.S - S2).toarray()))
    assert dS <= 1e-12 * np.max(np.abs(S2.toarray()))
    assert np.max(np.abs(system.F - F2)) <= 1e-12 * max(1.0, np.max(np.abs(F2)))


def test_exact_reproduction_of_linear_solution():
    # u = x with constant beta and no interface in the domain: DG reproduces it
    case = manufactured_circle(2.5, 1.0, 1.0, p=4)
    spaces = setup_level(case, (-1, 1, -1, 1), 4, 1)

    def f(pts, side):
        return np.zeros(len(np.atleast_2d(pts)))

    def g(pts, side):
        return np.atleast_2d(pts)[:, 0]

    system = assemble(spaces, 8.0, f, g)
    coef = solve(system)
    rng, nl = np.random.default_rng(0), spaces.layout.n_local
    for e in range(spaces.mesh.n_elements):
        box = spaces.mesh.elem_box(e)
        pts = np.column_stack([rng.uniform(box[0], box[2], 8),
                               rng.uniform(box[1], box[3], 8)])
        vals, _ = element_basis(spaces, e).evaluate(pts)
        uh = coef[e * nl:(e + 1) * nl] @ vals
        assert np.max(np.abs(uh - pts[:, 0])) <= 1e-10


def test_solver_residual_contract(bench):
    case, spaces, system = bench
    coef = solve(system, pd_check=False)
    resid = np.linalg.norm(system.S @ coef - system.F) / np.linalg.norm(system.F)
    assert resid <= 1e-11
    # same contract on the n=16 benchmark
    spaces16 = setup_level(case, (-1, 1, -1, 1), 16, 1)
    system16 = assemble(spaces16, 6.0, case.f, case.dirichlet)
    coef16 = solve(system16, pd_check=False)
    resid16 = np.linalg.norm(system16.S @ coef16 - system16.F) \
        / np.linalg.norm(system16.F)
    assert resid16 <= 1e-11


def test_tiny_penalty_not_positive_definite(bench):
    case, spaces, _ = bench
    system = assemble(spaces, 0.01, case.f, case.dirichlet)
    with pytest.raises(NotPositiveDefinite):
        solve(system, pd_check=True)


def test_galerkin_consistency(bench):
    # the exact solution satisfies the discrete weak form: assembling
    # a_h(u, phi_i) from the analytic solution reproduces the load vector
    # (both sides integrated with the same high-order rules, the level's)
    case, _, _ = bench
    spaces = setup_level(case, (-1, 1, -1, 1), 8, 1, {"volume": 6, "edge": 6})
    system = assemble(spaces, 6.0, case.f, case.dirichlet)
    mesh, layout = spaces.mesh, spaces.layout
    nl, action = layout.n_local, np.zeros(layout.total)
    pen = system.penalty
    for e in range(mesh.n_elements):
        dofs = slice(e * nl, (e + 1) * nl)
        for rule, side in element_rules(spaces, e, 6):
            beta = float(spaces.beta_of(side))
            _, grads = element_basis(spaces, e).evaluate(rule.points, side=side)
            gu = case.grad(rule.points, side)
            action[dofs] += beta * np.einsum("bpk,p,pk->b", grads, rule.weights, gu)
    for k in range(mesh.n_edges):
        n_e = mesh.edge_normal[k]
        e1, e2 = mesh.edge_elems[k]
        interior = e2 >= 0
        members = [(e1, 1.0)] + ([(e2, -1.0)] if interior else [])
        for pts, w, side in edge_segments(spaces, k, q=6):
            beta = float(spaces.beta_of(side))
            u_ex = case.u(pts, side)
            # exact solution: zero jump, flux average equals the trace
            flux_ex = beta * np.einsum("pk,k->p", case.grad(pts, side), n_e)
            for e, sgn in members:
                vals, grads = element_basis(spaces, e).evaluate(pts, side=side)
                dofs = slice(e * nl, (e + 1) * nl)
                action[dofs] += -sgn * vals @ (w * flux_ex)
                if not interior:
                    Bn = beta * np.einsum("bpk,k->bp", grads, n_e)
                    action[dofs] += (-Bn + pen * vals) @ (w * u_ex)
    scale = np.linalg.norm(system.F)
    assert np.linalg.norm(action - system.F) <= 1e-9 * scale


def test_trace_constant_h_independent_on_plain_elements():
    case = manufactured_circle(0.6, 1.0, 10.0, p=4)
    cts = []
    for n in (8, 16):
        spaces = setup_level(case, (-1, 1, -1, 1), n, 1)
        e_plain = next(e for e in range(spaces.mesh.n_elements)
                       if spaces.tags.tags[e] != 0)
        cts.append(trace_constant(spaces, [e_plain])[0])
    assert cts[0] == pytest.approx(cts[1], rel=1e-9)

    # oracle: dense generalized eigenproblem on one reference element,
    # built with its own quadrature loops
    mesh = build_mesh((0, 1, 0, 1), 1)
    chart = FrenetChart(circle(9.0), h=0.25)
    tags = classify_elements(mesh, chart)
    assert tags.tags[0] == -1               # unit box lies inside the circle
    spaces = build_spaces(mesh, tags, chart, 1, 1.0, 10.0)
    ct_ref = trace_constant(spaces, [0])[0]
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(6)
    x01 = 0.5 * (x + 1)
    w01 = 0.5 * w
    basis = element_basis(spaces, 0)
    X, Y = np.meshgrid(x01, x01, indexing="ij")
    W = np.multiply.outer(w01, w01).ravel()
    pts = np.column_stack([X.ravel(), Y.ravel()])
    _, grads = basis.evaluate(pts)
    A0 = np.einsum("bpk,p,cpk->bc", grads, W, grads)
    B0 = np.zeros_like(A0)
    for a, b in (((0, 0), (1, 0)), ((1, 0), (1, 1)), ((1, 1), (0, 1)), ((0, 1), (0, 0))):
        seg = np.array(a) + x01[:, None] * (np.array(b, dtype=float) - np.array(a))
        _, gs = basis.evaluate(seg)
        B0 += np.einsum("bpk,p,cpk->bc", gs, w01, gs)
    lam, vecs = np.linalg.eigh(A0)
    Wd = vecs[:, lam > 1e-10 * lam[-1]]
    lam_max = scipy.linalg.eigh(Wd.T @ B0 @ Wd, Wd.T @ A0 @ Wd, eigvals_only=True)[-1]
    # with A = beta*A0 and B = beta^2*B0 the eigenvalue scales by beta (=1 here)
    beta_side = spaces.beta_minus
    expected = np.sqrt(lam_max * beta_side * mesh.h) * np.sqrt(spaces.beta_minus) \
        / spaces.beta_plus
    assert ct_ref == pytest.approx(float(expected), rel=1e-9)


def test_singular_stiffness_names_the_first_such_element(monkeypatch):
    # zero gradients on the pieces of a plain element and of an interface
    # element: the probe names the one that comes first in its list
    case = manufactured_circle(0.6, 1.0, 10.0, p=4)
    spaces = setup_level(case, (-1, 1, -1, 1), 8, 1)
    elems = spaces.tags.interface_elements + np.flatnonzero(spaces.tags.tags)[:1].tolist()
    zeroed = [elems[-1], elems[2]]

    def gradients(self, asked, volume, _orig=SpaceSet.gradients):
        out = _orig(self, asked, volume)
        if volume:
            out = [(owner, sides, w, np.where(np.isin(asked[owner], zeroed)[:, None, None, None],
                                              0.0, grads))
                   for owner, sides, w, grads in out]
        return out

    monkeypatch.setattr(SpaceSet, "gradients", gradients)
    with pytest.raises(SingularGram, match=rf"^element {elems[2]}: "):
        trace_constant(spaces, elems)
    with pytest.raises(SingularGram, match=rf"^element {elems[-1]}: "):
        trace_constant(spaces, elems[::-1])
    with pytest.raises(SingularGram, match=rf"^element {elems[2]}: "):
        auto_sigma0(spaces)


def test_auto_sigma0_exceeds_coercivity_threshold(bench):
    case, spaces, _ = bench
    sig, ct = auto_sigma0(spaces)
    assert sig > ct**2 + 0.5
    system = assemble(spaces, sig, case.f, case.dirichlet, with_norm_grams=True)
    assert coercivity_ratio(system) >= 0.25


def test_coercivity_fails_below_threshold(bench):
    case, spaces, _ = bench
    system = assemble(spaces, 0.01, case.f, case.dirichlet, with_norm_grams=True)
    assert coercivity_ratio(system) < 0.25
