"""The per-level quadrature table against per-element reference loops.

Assembly, error norms, the trace probe and the L2 projection read one table
of cut-aware rules and basis values per level; `oracles.loop_*` rebuild the
rules and re-evaluate every basis at every point instead.  Both must agree
to roundoff on the circle benchmark (beta- = 1, beta+ = 10).  The table also
keeps the tubular coordinates of interface points, from one chart inverse
for the volume pieces of all interface elements and one for their edges.
"""

import numpy as np
import pytest

from frenet_ife.analysis import error_norms, manufactured_circle, setup_level
from frenet_ife.assembly import assemble, auto_sigma0, solve, trace_constant
from frenet_ife.curves import circle, ellipse
from frenet_ife.frenet import FrenetChart
from frenet_ife.ife_space import build_spaces, project_l2
from frenet_ife.mesh import ElementTag, build_mesh, classify_elements
from frenet_ife.quadrature import cut_edge_rule

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
    # one call for the volume pieces of all interface elements, one for the
    # segments of their edges
    assert len(calls) == 2
    volume = sum(len(rule.points) for e in spaces.tags.interface_elements
                 for rule, _ in spaces.pieces(e))
    assert volume in calls


def _chart_calls(monkeypatch, n):
    """Chart inverse and signed-distance calls of one m=2 level: setup,
    auto penalty, assembly and error norms."""
    counts = dict.fromkeys(("inverse", "signed_distance_estimate"), 0)
    for name in counts:
        def counted(self, *args, _name=name, _orig=getattr(FrenetChart, name), **kwargs):
            counts[_name] += 1
            return _orig(self, *args, **kwargs)
        monkeypatch.setattr(FrenetChart, name, counted)
    case = manufactured_circle(0.6, 1.0, 10.0, p=4)
    spaces = setup_level(case, BOX, n, 2)
    sigma0, _ = auto_sigma0(spaces)
    system = assemble(spaces, sigma0, case.f, case.dirichlet)
    error_norms(solve(system, pd_check=False), case, spaces, sigma0)
    monkeypatch.undo()
    return counts, spaces.tags.n_interface


def test_chart_calls_per_level_do_not_grow_with_the_mesh(monkeypatch):
    (c16, n16), (c32, n32) = (_chart_calls(monkeypatch, n) for n in (16, 32))
    assert n32 > n16
    # anchors, boundary loops, table volume, table edges
    assert c16["inverse"] == c32["inverse"] <= 5
    # only cut_cell_rules labels its two pieces per interface element
    assert c32["signed_distance_estimate"] - c16["signed_distance_estimate"] == 2 * (n32 - n16)


@pytest.mark.parametrize("curve", [circle(0.6), ellipse(0.7, 0.5)])
def test_segment_sides_match_one_query_per_segment(curve):
    # the level-wide labels against the sign of the chart's offset at each
    # segment's own midpoint, queried one segment at a time
    mesh = build_mesh(BOX, 16)
    chart = FrenetChart(curve, h=mesh.h)
    tags = classify_elements(mesh, chart)
    spaces = build_spaces(mesh, tags, chart, 1, 1.0, 10.0)
    split = 0
    for k in range(mesh.n_edges):
        a, b = mesh.edge_a[k], mesh.edge_b[k]
        ts = [c.t for c in tags.edge_cuts.get(k, []) if 1e-12 < c.t < 1.0 - 1e-12]
        segs = cut_edge_rule(a, b, ts, 2)
        ref = [1 if chart.signed_distance_estimate(a + 0.5 * (s.t0 + s.t1) * (b - a)) > 0 else -1
               for s in segs]
        assert spaces.segment_sides(k) == ref, k
        split += len(segs) > 1
    assert split > 0
