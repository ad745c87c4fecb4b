"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantities (run with -s to see them all)."""

import time

import numpy as np
import pytest

from frenet_ife.analysis import (convergence_study, error_norms, geometry_probes,
                                 manufactured_circle, setup_level)
from frenet_ife.assembly import (assemble, auto_sigma0, coercivity_ratio, solve,
                                 trace_constant)
from frenet_ife.curves import circle, ellipse
from frenet_ife.frenet import FrenetChart
from frenet_ife.ife_space import build_spaces, gram_fictitious
from frenet_ife.mesh import build_mesh, classify_elements
from frenet_ife.quadrature import cut_cell_rules, gauss_rect

from oracles import bisect_root, disk_box_area, element_basis, frame_at, loop_projection_study
from plaindg import PlainDG
from test_laplacian import analytic_test_functions, pullback_operator_error

BOX = (-1, 1, -1, 1)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d} [{status}] {name}  {detail}")
    assert ok, f"criterion {num}: {name} ({detail})"


@pytest.fixture(scope="module")
def benchmark_case():
    return manufactured_circle(0.6, 1.0, 10.0, p=4)


@pytest.fixture(scope="module")
def chains(benchmark_case):
    t0 = time.time()
    rep1 = convergence_study(benchmark_case, 1, [8, 16, 32, 64], BOX, "auto")
    rep2 = convergence_study(benchmark_case, 2, [8, 16, 32], BOX, "auto")
    return rep1, rep2, time.time() - t0


def test_criterion_1_convergence(chains):
    rep1, rep2, elapsed = chains
    r1_l2, r1_en = rep1["rates_l2"][-1], rep1["rates_energy"][-1]
    r2_l2, r2_en = rep2["rates_l2"][-1], rep2["rates_energy"][-1]
    ok = (r1_l2 >= 1.8 and r1_en >= 0.85 and r2_l2 >= 2.7 and r2_en >= 1.8
          and elapsed <= 300.0)
    # asymptotic-range stability: consecutive rate estimates drift <= 0.4
    drift = abs(rep1["rates_l2"][-1] - rep1["rates_l2"][-2])
    ok = ok and drift <= 0.4
    _report(1, "optimal convergence", ok,
            f"m=1 L2 {r1_l2:.2f} energy {r1_en:.2f}; "
            f"m=2 L2 {r2_l2:.2f} energy {r2_en:.2f}; {elapsed:.0f}s")


@pytest.fixture(scope="module")
def spaces16(benchmark_case):
    return {m: setup_level(benchmark_case, BOX, 16, m) for m in (1, 2, 3)}


def test_criterion_2_exact_conformity(spaces16):
    worst_v = worst_f = 0.0
    for m, spaces in spaces16.items():
        chart = spaces.chart
        for e, cut_xi in zip(spaces.tags.interface.elements, spaces.tags.interface.xi):
            b = element_basis(spaces, e)
            xa, xb = sorted(cut_xi)
            xs = np.linspace(xa + 1e-10, xb - 1e-10, 50)
            pts = chart.curve.point(xs)
            _, n, _, _ = frame_at(chart.curve, xs)
            vp, gp = b.evaluate(pts, side=1)
            vm, gm = b.evaluate(pts, side=-1)
            fp = spaces.beta_plus * np.einsum("bpk,pk->bp", gp, n)
            fm = spaces.beta_minus * np.einsum("bpk,pk->bp", gm, n)
            worst_v = max(worst_v, np.max(np.abs(vp - vm)))
            worst_f = max(worst_f, np.max(np.abs(fp - fm)))
    ok = worst_v <= 1e-9 and worst_f <= 1e-9
    _report(2, "exact interface conformity", ok,
            f"max value jump {worst_v:.2e}, max flux jump {worst_f:.2e}")


def test_criterion_3_space_dimension(benchmark_case):
    worst = np.inf
    for m in (1, 2, 3):
        spaces = setup_level(benchmark_case, BOX, 16, m)
        bases = spaces.bases
        assert bases.n_basis == (m + 1) ** 2
        assert bases.coef[1].shape[:2] == (spaces.tags.n_interface, (m + 1) ** 2)
        for g in gram_fictitious(bases):
            d = np.sqrt(np.diag(g))
            sv = np.linalg.svd(g / np.outer(d, d), compute_uv=False)
            worst = min(worst, sv[-1])
    ok = worst > 1e-8
    _report(3, "local dimension (m+1)^2, m=1,2,3", ok,
            f"smallest normalized Gram singular value {worst:.2e}")


def test_criterion_4_operator_identity():
    rng = np.random.default_rng(123)
    worst = 0.0
    for chart in (FrenetChart(circle(1.0), h=0.3),
                  FrenetChart(ellipse(2.0, 1.0), h=0.2)):
        eta = rng.uniform(-chart.h, chart.h, 1000)
        xi = rng.uniform(0, 2 * np.pi, 1000)
        worst = max(worst, pullback_operator_error(
            chart, eta, xi, analytic_test_functions()))
    ok = worst <= 1e-8
    _report(4, "coordinate Laplacian identity", ok, f"max rel err {worst:.2e}")


def test_criterion_5_symmetry_and_coercivity(benchmark_case):
    details = []
    ok = True
    for m in (1, 2):
        spaces = setup_level(benchmark_case, BOX, 8, m)
        sig, ct = auto_sigma0(spaces)
        system = assemble(spaces, sig, benchmark_case.f, benchmark_case.dirichlet,
                          with_norm_grams=True)
        S = system.S.toarray()
        asym = np.max(np.abs(S - S.T)) / np.max(np.abs(S))
        ratio = coercivity_ratio(system)
        details.append(f"m={m}: asym {asym:.1e} ratio {ratio:.3f} sigma0 {sig:.2f}")
        ok = ok and asym <= 1e-12 and ratio >= 0.25
    _report(5, "symmetry and coercivity", ok, "; ".join(details))


def test_criterion_6_trace_constant_bounded(benchmark_case):
    maxima = []
    medians = []
    for n in (8, 16, 32, 64):
        spaces = setup_level(benchmark_case, BOX, n, 1)
        cts = trace_constant(spaces, spaces.tags.interface.elements)
        maxima.append(max(cts))
        medians.append(float(np.median(cts)))
    variation = max(maxima) / min(maxima)

    # handcrafted sliver element: inside piece has relative area 1e-6
    s, r0 = 0.25, 0.6
    target = 1e-6 * s * s

    def cap_area(eps):
        d = r0 - eps
        return r0**2 * np.arccos(d / r0) - d * np.sqrt(r0**2 - d**2)

    eps = bisect_root(lambda t: cap_area(t) - target, 1e-9, 1e-3)
    mesh = build_mesh((r0 - eps, r0 - eps + s, -s / 2, s / 2), 1)
    chart = FrenetChart(circle(r0), h=s * np.sqrt(2))
    tags = classify_elements(mesh, chart)
    spaces = build_spaces(mesh, tags, chart, 1, 1.0, 10.0)
    ct_sliver = trace_constant(spaces, [0])[0]
    med = medians[0]
    ok = variation <= 2.0 and med / 3.0 <= ct_sliver <= 3.0 * med
    _report(6, "trace constant bounded", ok,
            f"max drift x{variation:.2f} over n=8..64; sliver {ct_sliver:.3f} "
            f"vs median {med:.3f}")


def test_criterion_7_geometry_lemmas():
    probes = geometry_probes(circle(0.6), [8, 16, 32, 64, 128], BOX)
    s_t = probes["slope_t_dev"]
    s_dt = probes["slope_dt_dev"]
    bands_ok = all(0.2 <= lv["band_lo"] and lv["band_hi"] <= 5.0
                   for lv in probes["levels"])
    ok = abs(s_t - 2.0) <= 0.3 and abs(s_dt - 1.0) <= 0.3 and bands_ok
    _report(7, "chart-vs-chord lemmas", ok,
            f"slope(T-id) {s_t:.2f}, slope(DT-I) {s_dt:.2f}, bands ok {bands_ok}")


def test_criterion_8_projection_orders(benchmark_case):
    out1 = loop_projection_study(benchmark_case, 1, [8, 16, 32, 64], BOX)
    out2 = loop_projection_study(benchmark_case, 2, [8, 16, 32], BOX)
    r = (out1["rates_l2"][-1], out1["rates_h1"][-1],
         out2["rates_l2"][-1], out2["rates_h1"][-1])
    ok = (abs(r[0] - 2) <= 0.2 and abs(r[1] - 1) <= 0.2
          and abs(r[2] - 3) <= 0.2 and abs(r[3] - 2) <= 0.2)
    _report(8, "projection orders", ok,
            f"m=1: L2 {r[0]:.2f} H1 {r[1]:.2f}; m=2: L2 {r[2]:.2f} H1 {r[3]:.2f}")


def test_criterion_9_degeneracy_oracle():
    # equal coefficients and interface outside the domain: the pipeline must
    # match an independently assembled plain SIPDG run to solver precision
    case = manufactured_circle(2.5, 1.0, 1.0, p=4)
    sigma0 = 10.0
    diffs = []
    coef_diffs = []
    for n in (8, 16):
        spaces = setup_level(case, BOX, n, 1)
        assert spaces.tags.n_interface == 0
        system = assemble(spaces, sigma0, case.f, case.dirichlet)
        coef = solve(system)
        # both error integrals at the same high quadrature order: the IFE
        # one on the level rebuilt at that order
        fine = setup_level(case, BOX, n, 1, {"volume": 6, "edge": 6})
        err_ife = error_norms(coef, case, fine, sigma0)["l2"]

        oracle = PlainDG(spaces.mesh, 1, beta=1.0, sigma0=sigma0, gamma=1.0)
        coef2 = oracle.solve(lambda p: case.f(p, -1), lambda p: case.u(p, -1))
        err_plain = oracle.l2_error(coef2, lambda p: case.u(p, -1), q=6)
        diffs.append(abs(err_ife - err_plain))
        coef_diffs.append(np.max(np.abs(coef - coef2)) / np.max(np.abs(coef2)))
    ok = max(diffs) <= 1e-9 and max(coef_diffs) <= 1e-9
    _report(9, "degenerate-coefficient oracle", ok,
            f"error diffs {[f'{d:.1e}' for d in diffs]}, "
            f"coefficient diffs {[f'{d:.1e}' for d in coef_diffs]}")


def test_criterion_10_quadrature_integrity():
    mesh = build_mesh(BOX, 4)
    chart = FrenetChart(circle(0.6), h=0.3)
    tags = classify_elements(mesh, chart)
    rng = np.random.default_rng(42)
    coef = rng.normal(size=(6, 6))

    def poly(pts):
        vx = np.vander(pts[:, 0], 6, increasing=True)
        vy = np.vander(pts[:, 1], 6, increasing=True)
        return np.einsum("ni,ij,nj->n", vx, coef, vy)

    worst_add = 0.0
    for e in tags.interface.elements:
        rules = cut_cell_rules(mesh, e, tags.interface, chart, q=8)
        full = gauss_rect(mesh.elem_box(e), 6)
        split = sum(r.weights @ poly(r.points) for r in rules.values())
        whole = full.weights @ poly(full.points)
        worst_add = max(worst_add, abs(split - whole) / max(1.0, abs(whole)))

    mesh1 = build_mesh((0.25, 0.75, 0.0, 0.5), 1)
    tags1 = classify_elements(mesh1, chart)
    rules = cut_cell_rules(mesh1, 0, tags1.interface, chart, q=10)
    oracle = disk_box_area(0.0, 0.0, 0.6, (0.25, 0.0, 0.75, 0.5))
    area_err = abs(rules[-1].weights.sum() - oracle)
    ok = worst_add <= 1e-12 and area_err <= 1e-10
    _report(10, "cut-cell quadrature integrity", ok,
            f"additivity {worst_add:.1e}, area vs oracle {area_err:.1e}")
