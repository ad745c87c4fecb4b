"""The per-level quadrature table against per-element reference loops.

Assembly, error norms, the trace probe and the L2 projection read one table
of cut-aware rules and basis values per level; `oracles.loop_*` rebuild the
rules and re-evaluate every basis at every point instead.  Both must agree
to roundoff on the circle benchmark (beta- = 1, beta+ = 10).  The table also
keeps the tubular coordinates of interface points, so each interface element
is inverted through the chart once for its volume and once for its edges.
"""

import numpy as np
import pytest

from frenet_ife.analysis import error_norms, manufactured_circle, setup_level
from frenet_ife.assembly import assemble, auto_sigma0, solve, trace_constant
from frenet_ife.frenet import FrenetChart
from frenet_ife.ife_space import build_spaces, project_l2
from frenet_ife.mesh import ElementTag, build_mesh, classify_elements

from oracles import (loop_assemble, loop_error_norms, loop_project_l2,
                     loop_trace_constant)

BOX = (-1, 1, -1, 1)
RTOL = 1e-12


def _relabelled_spaces(case, n, m):
    # one cut element carries the plain Q^m basis, so plain values are also
    # needed on the segments of cut faces, at points no whole face has
    mesh = build_mesh(BOX, n)
    chart = FrenetChart(case.curve, h=mesh.h)
    tags = classify_elements(mesh, chart)
    tags.tags[tags.interface_elements[0]] = ElementTag(kind="plain", side=1)
    return build_spaces(mesh, tags, chart, m, case.beta_minus, case.beta_plus)


def _rel_max(a, b):
    a, b = (x.toarray() if hasattr(x, "toarray") else np.asarray(x) for x in (a, b))
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


# n=24 cells differ in width by roundoff, so plain values come in several
# bit patterns there
@pytest.mark.parametrize("n, m, relabel", [(8, 1, False), (8, 2, False), (8, 3, False),
                                           (16, 1, False), (24, 1, False), (8, 1, True)])
def test_table_matches_element_loops(n, m, relabel):
    case = manufactured_circle(0.6, 1.0, 10.0, p=4)
    spaces = _relabelled_spaces(case, n, m) if relabel else setup_level(case, BOX, n, m)
    sigma0 = 6.0

    system = assemble(spaces, sigma0, case.f, case.dirichlet, with_norm_grams=True)
    S, F, G_norm, G_energy = loop_assemble(spaces, sigma0, case.f, case.dirichlet)
    assert _rel_max(system.S, S) <= RTOL
    assert _rel_max(system.F, F) <= RTOL
    # bit for bit, too: a cubic solve at n=24 turns 1e-16 changes in S into
    # 1e-8 relative changes of its L2 error
    assert (system.S != S).nnz == 0 and np.array_equal(system.F, F)
    assert _rel_max(system.norm_gram, G_norm) <= RTOL
    assert _rel_max(system.energy_gram, G_energy) <= RTOL

    coef = solve(system, pd_check=False)
    errs = error_norms(coef, case, spaces, sigma0)
    ref = loop_error_norms(coef, case, spaces, sigma0)
    for key in ("l2", "norm_h", "energy"):
        assert errs[key] == pytest.approx(ref[key], rel=RTOL, abs=0.0), key

    mesh = spaces.mesh
    plain = [e for e in range(mesh.n_elements) if spaces.bases[e].kind == "plain"]
    cut_faced = [e for e in plain
                 if any(spaces.tags.edge_cuts.get(k) for k in mesh.elem_edges[e])]
    assert len(cut_faced) == int(relabel)
    for e in [*spaces.tags.interface_elements, plain[0], *cut_faced]:
        assert trace_constant(spaces, e) == pytest.approx(
            loop_trace_constant(spaces, e), rel=RTOL, abs=0.0), e

    proj = project_l2(case.u, spaces)
    assert _rel_max(proj, loop_project_l2(case.u, spaces)) <= RTOL


@pytest.mark.parametrize("m", [1, 2, 3])
def test_table_interface_values_bitwise_equal_to_evaluate(m):
    case = manufactured_circle(0.6, 1.0, 10.0, p=4)
    spaces = setup_level(case, BOX, 8, m)
    mesh = spaces.mesh

    def same(got, pts, side, e):
        ref = spaces.bases[e].evaluate(pts, side=side)
        return all(np.array_equal(a, b) for a, b in zip(got, ref))

    for e in spaces.tags.interface_elements:
        for rule, side, vals, grads in spaces.volume(e):
            assert same((vals, grads), rule.points, side, e)
        for k in mesh.elem_edges[e]:
            for pts, _, side, vals, grads in spaces.face(k, e):
                assert same((vals, grads), pts, side, e)
            for pts, _, side, members in spaces.edge(k):
                for f, _, vals, grads in members:
                    assert same((vals, grads), pts, side, f)


def test_table_inverts_each_interface_element_twice_per_level(monkeypatch):
    case = manufactured_circle(0.6, 1.0, 10.0, p=4)
    spaces = setup_level(case, BOX, 16, 2)
    chart = spaces.chart
    calls = []

    def inverse(points, xi_anchor=None):
        calls.append(len(points))
        return FrenetChart.inverse(chart, points, xi_anchor)

    monkeypatch.setattr(chart, "inverse", inverse)
    sigma0, _ = auto_sigma0(spaces)
    system = assemble(spaces, sigma0, case.f, case.dirichlet)
    error_norms(solve(system, pd_check=False), case, spaces, sigma0)
    # one call for the volume pieces, one for the four edges' segments
    assert 0 < len(calls) <= 2 * len(spaces.tags.interface_elements)
