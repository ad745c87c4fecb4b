"""The per-level quadrature table against per-element reference loops.

Assembly, error norms and the trace probe read one table of cut-aware rules
and basis values per level; `oracles.loop_*` rebuild the rules and
re-evaluate every basis at every point instead, through the per-element
reads `oracles.element_basis` and `oracles.element_rules`.  Assembly and the
trace constants must agree bit for bit, the rest to roundoff (beta- = 1,
beta+ = 10).  Plain elements and the edges between them come in groups
whose blocks are computed once; the interface pieces and the other segment
rows come in a few stacked groups, computed row by row.  The trace probe is
one kernel call per level over a list of elements: it reads the kept
interface stacks whole and evaluates the plain elements it probes on their
own rules and face rows, without building the groups.  The table keeps the
segments of every edge (the rules of one cut_edge_rule call per edge), the
interface basis values, built on first read by any of them from one chart
inverse and one chart Jacobian for the volume pieces of all interface
elements and one of each for their edges, and the plain values from one 1D
Lagrange evaluation each.
"""

import inspect

import numpy as np
import pytest

from frenet_ife import analysis, assembly, cli, ife_space, quadrature
from frenet_ife.analysis import error_norms, manufactured_circle, setup_level
from frenet_ife.assembly import assemble, auto_sigma0, solve, trace_constant
from frenet_ife.curves import circle, ellipse, flower
from frenet_ife.errors import FrenetIfeError
from frenet_ife.frenet import FrenetChart
from frenet_ife.ife_space import SpaceSet, build_spaces
from frenet_ife.mesh import build_mesh, classify_elements
from frenet_ife.quadrature import cut_edge_rule

from oracles import (element_basis, loop_assemble, loop_error_norms, loop_evaluate,
                     loop_trace_constant)

BOX = (-1, 1, -1, 1)
RTOL = 1e-12


def _spaces(curve, n, m, relabel=False):
    mesh = build_mesh(BOX, n)
    chart = FrenetChart(curve, h=mesh.h)
    tags = classify_elements(mesh, chart)
    if relabel:
        # one cut element carries the plain Q^m basis, so plain values are
        # also needed on the segments of cut faces, at points no whole face has
        e = tags.interface.elements[0]
        tags.interface = tags.interface._make(a[tags.interface.elements != e]
                                              for a in tags.interface)
        tags.tags[e] = 1
    return build_spaces(mesh, tags, chart, m, 1.0, 10.0)


def _assert_assembly_bitwise_equal(spaces, case, sigma0):
    system = assemble(spaces, sigma0, case.f, case.dirichlet, with_norm_grams=True)
    S, F, G_norm, G_energy = loop_assemble(spaces, sigma0, case.f, case.dirichlet)
    # bit for bit: a cubic solve at n=24 turns 1e-16 changes in S into 1e-8
    # relative changes of its L2 error
    assert (system.S != S).nnz == 0 and np.array_equal(system.F, F)
    assert (system.norm_gram != G_norm).nnz == 0
    assert (system.energy_gram != G_energy).nnz == 0
    return system


# n=24 cells differ in width by roundoff, so plain blocks come in many groups
# there (118 volume and 228 edge groups at m=1 on the circle, against 7 and
# 40 at n=32)
@pytest.mark.parametrize("curve", [circle(0.6), ellipse(0.7, 0.5)], ids=["circle", "ellipse"])
@pytest.mark.parametrize("n, m", [(8, 1), (32, 1), (8, 2), (24, 2), (16, 3), (24, 3), (32, 3)])
def test_assembly_bitwise_equal_to_element_loops(curve, n, m):
    _assert_assembly_bitwise_equal(_spaces(curve, n, m),
                                   manufactured_circle(0.6, 1.0, 10.0, p=4), 6.0)


@pytest.mark.parametrize("m", [1, 2])
def test_table_on_a_level_without_plain_elements(m):
    # one element on an arc of the circle: no plain group and no plain value
    case = manufactured_circle(0.6, 1.0, 10.0, p=4)
    mesh = build_mesh((0.5, 0.7, -0.1, 0.1), 1)
    chart = FrenetChart(case.curve, h=mesh.h)
    spaces = build_spaces(mesh, classify_elements(mesh, chart), chart, m, 1.0, 10.0)
    assert spaces.tags.n_interface == mesh.n_elements == 1
    system = _assert_assembly_bitwise_equal(spaces, case, 6.0)
    coef = solve(system)
    assert error_norms(coef, case, spaces, 6.0) == pytest.approx(
        loop_error_norms(coef, case, spaces, 6.0), rel=RTOL, abs=0.0)
    assert trace_constant(spaces, [0])[0] == loop_trace_constant(spaces, 0)


# relabel: stacked cut-edge rows mix plain members on cut faces with
# interface members
@pytest.mark.parametrize("n, m, relabel", [(8, 1, False), (8, 2, False), (8, 3, False),
                                           (16, 1, False), (24, 1, False), (8, 1, True),
                                           (8, 3, True)])
def test_table_matches_element_loops(n, m, relabel):
    case = manufactured_circle(0.6, 1.0, 10.0, p=4)
    spaces = _spaces(case.curve, n, m, relabel)
    sigma0 = 6.0

    system = _assert_assembly_bitwise_equal(spaces, case, sigma0)
    coef = solve(system)
    errs = error_norms(coef, case, spaces, sigma0)
    ref = loop_error_norms(coef, case, spaces, sigma0)
    for key in ("l2", "norm_h", "energy"):
        assert errs[key] == pytest.approx(ref[key], rel=RTOL, abs=0.0), key
    _assert_trace_constants_bitwise_equal(spaces, relabel)


def _table_sides(spaces, k):
    # the segment table's labels of the segments of edge k, in turn
    _, first, labels, _, _ = spaces._segments()
    return labels[first[k]:first[k + 1]].tolist()


def _interior_cuts(tags, k):
    # the crossing parameters of edge k strictly inside it, by t
    cut_edge, cut_t = tags.crossings
    return [t for t in cut_t[cut_edge == k].tolist() if 1e-12 < t < 1.0 - 1e-12]


def _assert_trace_constants_bitwise_equal(spaces, relabel):
    # trace constants bit for bit: sigma0 = 4 C_t^2 + 1 enters S.  Every
    # interface element, and plain elements: the first, those with cut faces
    # and those that are not the first member of their group, which the probe
    # evaluates on their own points; in one call, and one element a call
    mesh = spaces.mesh
    plain = np.flatnonzero(spaces.tags.tags).tolist()
    cut_faced = [e for e in plain
                 if np.isin(mesh.elem_edges[e], spaces.tags.crossings[0]).any()]
    assert len(cut_faced) == int(relabel)
    later = [e for ids, _, _, _, vals, *_ in spaces.volume_groups() if len(vals) < len(ids)
             for e in ids[1:]]
    assert later
    elems = list(dict.fromkeys([*spaces.tags.interface.elements.tolist(), plain[0], *cut_faced,
                                *later]))
    ref = [loop_trace_constant(spaces, e) for e in elems]
    assert trace_constant(spaces, elems).tolist() == ref
    for e, ct in zip(elems, ref):
        assert trace_constant(spaces, [e]).tolist() == [ct], e


@pytest.mark.parametrize("curve", [ellipse(0.7, 0.5), circle(0.55, (0.1, -0.07))],
                         ids=["ellipse", "shifted-circle"])
@pytest.mark.parametrize("n, m, relabel", [(8, 1, False), (16, 1, False), (8, 2, False),
                                           (16, 3, False), (8, 1, True), (8, 3, True)])
def test_trace_constants_bitwise_equal_to_element_loops(curve, n, m, relabel):
    _assert_trace_constants_bitwise_equal(_spaces(curve, n, m, relabel), relabel)


def test_trace_constant_refuses_repeated_elements():
    # one Gram row per element: a repeat must not leave a healthy element
    # with the zero stiffness of an unfilled row
    spaces = _spaces(circle(0.6), 8, 1)
    e, f = spaces.tags.interface.elements[:2]
    with pytest.raises(ValueError, match=rf"^element {f} is repeated"):
        trace_constant(spaces, [e, f, 0, f, e])
    assert trace_constant(spaces, [e, f, 0]).tolist() == [
        loop_trace_constant(spaces, k) for k in (e, f, 0)]


@pytest.mark.parametrize("m", [1, 2])
def test_trace_probe_is_one_kernel_call_per_level(monkeypatch, m):
    # the penalty probe and the trace study read the level's table in one
    # call each and build no group; each call evaluates the interface bases
    # once per interface stack and the plain ones once per gradients read
    # that asks for a plain element, as often at every n
    case = manufactured_circle(0.6, 1.0, 10.0, p=4)
    calls, reads, counts = [], [], []

    def counted(spaces, elems, _orig=trace_constant):
        calls.append(len(elems))
        reads.clear()
        out = _orig(spaces, elems)
        counts.append((reads.count("IfeBasis.evaluate"), reads.count("TensorBasis.evaluate"),
                       reads.count("SpaceSet.gradients"),
                       sum(len(spaces.interface_stacks(v)) for v in (True, False))))
        return out

    for owner in (assembly, analysis):
        monkeypatch.setattr(owner, "trace_constant", counted)
    for owner, name in ((SpaceSet, "volume_groups"), (SpaceSet, "edge_groups")):
        def recorded(*args, _name=f"{owner.__name__}.{name}", **kwargs):
            calls.append(_name)
        monkeypatch.setattr(owner, name, recorded)
    for owner, name in ((ife_space.TensorBasis, "evaluate"), (ife_space.IfeBasis, "evaluate"),
                        (SpaceSet, "gradients")):
        def read(*args, _name=f"{owner.__name__}.{name}", _orig=getattr(owner, name), **kwargs):
            reads.append(_name)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(owner, name, read)
    spaces = setup_level(case, BOX, 16, m)
    auto_sigma0(spaces)
    assert calls == [spaces.tags.n_interface + 1]
    calls.clear()
    study = analysis.trace_probe_study(case, m, (8, 16))
    assert calls == [lv["count"] for lv in study["levels"]]
    # (IfeBasis.evaluate calls, TensorBasis.evaluate calls, gradients reads,
    # interface stacks) of n=16, then of the study's n=8 and n=16, which ask
    # for no plain element
    ife, plain, grads, stacks = counts[0]
    assert ife == stacks > 0 and plain == grads == 2
    assert counts[1:] == [(ife, 0, grads, stacks)] * 2


@pytest.mark.parametrize("n", [16, 32, 64])
def test_cut_pieces_and_cut_edge_rows_come_in_a_few_stacked_groups(monkeypatch, n):
    # beyond the plain groups, assembly and error norms loop over one group
    # per size of fan piece (2 to 6 cells) and one per member count of the
    # other segment rows, however many cut elements the level has
    case = manufactured_circle(0.6, 1.0, 10.0, p=4)
    spaces = setup_level(case, BOX, n, 2)
    mesh = spaces.mesh
    read = []
    for name in ("volume_groups", "edge_groups"):
        def recorded(self, _name=name, _orig=getattr(SpaceSet, name)):
            read.append((_name, _orig(self)))
            return read[-1][1]
        monkeypatch.setattr(SpaceSet, name, recorded)
    assemble(spaces, 6.0, case.f, case.dirichlet)
    error_norms(np.zeros(spaces.n_dofs), case, spaces, 6.0)
    monkeypatch.undo()
    assert [name for name, _ in read] == ["volume_groups", "edge_groups"] * 2
    interface = np.append(spaces.tags.tags == 0, False)   # [-1]: no element
    split = np.array([len(_table_sides(spaces, k)) > 1 for k in range(mesh.n_edges)])
    assert spaces.tags.n_interface > 7 and split.any()
    for (_, volume), (_, edges) in zip(read[::2], read[1::2]):
        cut = [elems for elems, *_ in volume if interface[elems].any()]
        cut += [ks for ks, *_ in edges if split[ks].any() or interface[mesh.edge_elems[ks]].any()]
        assert 0 < len(cut) <= 7


# the kept values, built on their first read or by assembly and then read
# from their stacks
@pytest.mark.parametrize("curve, m, after_assembly", [
    pytest.param(curve, m, kept, id=f"{name}-{m}-kept" if kept else
                 (str(m) if name == "circle" else f"{name}-{m}"))
    for name, curve in (("circle", circle(0.6)), ("ellipse", ellipse(0.7, 0.5)))
    for m in (1, 2, 3) for kept in (False, True)])
def test_table_interface_values_bitwise_equal_to_evaluate(monkeypatch, curve, m, after_assembly):
    spaces = _spaces(curve, 8, m)
    mesh = spaces.mesh
    if after_assembly:
        # the values assembly builds and keeps, read without a chart call
        case = manufactured_circle(0.6, 1.0, 10.0, p=4)
        system = assemble(spaces, 6.0, case.f, case.dirichlet)
        error_norms(solve(system), case, spaces, 6.0)
        for name in ("inverse", "jacobian"):
            monkeypatch.setattr(spaces.chart, name, None)
    read = []
    for volume in (True, False):
        read += [(e, p, side, (v, g))
                 for elems, _, pts, _, sides, vals, grads, _ in spaces.interface_stacks(volume)
                 for e, p, side, v, g in zip(elems, pts, sides, vals, grads)]
    for ks, _, pts, _, sides, members, _ in spaces.edge_groups():
        read += [(mesh.edge_elems[ks[i], j], pts[i], sides[i], (vals[i], grads[i]))
                 for j, (_, vals, grads) in enumerate(members) for i in range(len(vals))]
    monkeypatch.undo()
    assert read
    for e, pts, side, got in read:
        # interface values: the stacked kernel on the table and on one row,
        # against the per-side evaluation it replaced
        one = element_basis(spaces, e).evaluate(pts, side=side)
        ref = loop_evaluate(element_basis(spaces, e), pts, side) \
            if e in spaces.tags.interface.elements else one
        assert all(np.array_equal(a, b) and np.array_equal(c, b)
                   for a, b, c in zip(got, ref, one)), e


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
    error_norms(solve(system), case, spaces, sigma0)
    # one call for the volume pieces of all interface elements, one for the
    # segments of their edges
    assert len(calls) == 2
    *_, count = quadrature.level_cut_cell_rules(spaces.mesh, spaces.tags.interface, chart,
                                                spaces.q_vol)
    assert count.sum() in calls


def _plain_lagrange_calls(monkeypatch, n, m):
    """1D Lagrange evaluations of assembly and error norms on one level."""
    calls = []

    def counted(nodes, x, _orig=ife_space._lagrange_1d):
        calls.append(nodes)
        return _orig(nodes, x)

    case = manufactured_circle(0.6, 1.0, 10.0, p=4)
    spaces = setup_level(case, BOX, n, m)
    monkeypatch.setattr(ife_space, "_lagrange_1d", counted)
    system = assemble(spaces, 6.0, case.f, case.dirichlet)
    error_norms(solve(system), case, spaces, 6.0)
    monkeypatch.undo()
    return len(calls), spaces.mesh.n_elements - spaces.tags.n_interface


@pytest.mark.parametrize("m", [2, 3])
def test_plain_lagrange_evaluations_do_not_grow_with_the_mesh(monkeypatch, m):
    (c16, p16), (c32, p32) = (_plain_lagrange_calls(monkeypatch, n, m) for n in (16, 32))
    assert p32 > 3 * p16
    # one for the volume table, one for the edge table
    assert c16 == c32 == 2


def _chart_calls(monkeypatch, n):
    """Chart calls of one m=2 level over setup, auto penalty, assembly and
    error norms; from the auto penalty on, the interface basis evaluations,
    the stacked evaluations of interface values, and the builds of the
    cut-cell rules with their star-test rounds; then the level's number of
    interface elements and of interface stacks."""
    counts = dict.fromkeys(("inverse", "signed_distance_estimate", "jacobian"), 0)
    for name in counts:
        def counted(self, *args, _name=name, _orig=getattr(FrenetChart, name), **kwargs):
            counts[_name] += 1
            return _orig(self, *args, **kwargs)
        monkeypatch.setattr(FrenetChart, name, counted)
    case = manufactured_circle(0.6, 1.0, 10.0, p=4)
    spaces = setup_level(case, BOX, n, 2)
    for owner, name in ((ife_space.IfeBasis, "evaluate"), (ife_space, "_ref_values"),
                        (ife_space, "level_cut_cell_rules"), (quadrature, "_anchor_ok")):
        counts[name] = 0

        def counted(*args, _name=name, _orig=getattr(owner, name), **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    sigma0, _ = auto_sigma0(spaces)
    system = assemble(spaces, sigma0, case.f, case.dirichlet)
    error_norms(solve(system), case, spaces, sigma0)
    monkeypatch.undo()
    return counts, spaces.tags.n_interface, sum(len(spaces.interface_stacks(v))
                                                for v in (True, False))


def test_chart_calls_per_level_do_not_grow_with_the_mesh(monkeypatch):
    (c16, n16, s16), (c32, n32, s32) = (_chart_calls(monkeypatch, n) for n in (16, 32))
    assert n32 > n16
    # anchors, boundary loops, table volume, table edges
    assert c16["inverse"] == c32["inverse"] <= 5
    # classification, then one query for the sides of all cut-cell regions
    # and one for those of all edge segments
    assert c16["signed_distance_estimate"] == c32["signed_distance_estimate"]
    # the interface values of volume pieces and of edge segments, each built
    # once for the trace probe and kept for assembly and error norms, from
    # one stacked evaluation per size of fan piece (2 to 6 cells) and one
    # for all edge segments: one evaluate per interface stack, none per element
    assert c16["jacobian"] == c32["jacobian"] <= 2
    assert c16["_ref_values"] == c32["_ref_values"] <= 6
    assert c16["evaluate"] == c32["evaluate"] == c16["_ref_values"] == s16 == s32
    # every region of the circle finds its anchor in the level kernel's
    # first round: one star test per build of the rules
    assert c16["level_cut_cell_rules"] == c32["level_cut_cell_rules"] > 0
    assert c16["_anchor_ok"] == c32["_anchor_ok"] == c16["level_cut_cell_rules"]


def test_solve_factors_the_assembled_matrix_without_a_copy(monkeypatch):
    case = manufactured_circle(0.6, 1.0, 10.0, p=4)
    spaces = setup_level(case, BOX, 8, 1)
    system = assemble(spaces, 6.0, case.f, case.dirichlet)
    factored = []

    def spsolve(A, b, _orig=assembly.spla.spsolve):
        factored.append(A)
        return _orig(A, b)

    monkeypatch.setattr(assembly.spla, "spsolve", spsolve)
    solve(system)
    assert len(factored) == 1
    assert factored[0] is system.S and factored[0].format == "csc"


@pytest.mark.parametrize("curve, relabel", [(circle(0.6), False), (ellipse(0.7, 0.5), False),
                                           (circle(0.6), True)], ids=["circle", "ellipse", "relabel"])
@pytest.mark.parametrize("n", [8, 16, 24])
def test_segment_table_bitwise_equal_to_cut_edge_rule(curve, relabel, n):
    # every row of the level's segment table, as edge_groups and the trace
    # probe read it (the rows of each element's faces), against one
    # cut_edge_rule call per edge
    spaces = _spaces(curve, n, 2, relabel)
    mesh, q = spaces.mesh, spaces.q_edge
    rows = {}
    for ks, _, pts, w, sides, _, _ in spaces.edge_groups():
        for k, p, wk, side in zip(ks, pts, w, sides):
            rows.setdefault(int(k), []).append((p, wk, side))
    _, first, labels, seg_pts, seg_w = spaces._segments()
    segs = zip(*mesh.face_rows(first, np.arange(mesh.n_elements)))
    faces = {}
    for e in range(mesh.n_elements):
        for k in mesh.elem_edges[e]:
            face = [next(segs) for _ in _table_sides(spaces, k)]
            assert all(i == e for i, _ in face), (e, k)
            faces[e, k] = [(seg_pts[r], seg_w[r], labels[r]) for _, r in face]
    assert sorted(rows) == list(range(mesh.n_edges))
    split = 0
    for k in range(mesh.n_edges):
        a, b = mesh.edge_a[k], mesh.edge_b[k]
        segs = cut_edge_rule(a, b, _interior_cuts(spaces.tags, k), q)
        ref = [(s.points, s.weights, side) for s, side in zip(segs, _table_sides(spaces, k))]
        for got in (rows[k], *(faces[e, k] for e in mesh.edge_elems[k] if e >= 0)):
            assert len(got) == len(ref), k
            assert all(np.array_equal(p, rp) and np.array_equal(w, rw) and s == rs
                       for (p, w, s), (rp, rw, rs) in zip(got, ref)), k
        split += len(segs) > 1
    assert split > 0


def test_no_per_edge_rules_in_the_level_chain(monkeypatch):
    # the segment table serves the trace probe, assembly and error norms
    calls = []
    for n in (16, 32):
        case = manufactured_circle(0.6, 1.0, 10.0, p=4)
        spaces = setup_level(case, BOX, n, 2)
        for owner, name in ((assembly, "edge_segments"), (assembly, "cut_edge_rule"),
                            (quadrature, "cut_edge_rule"), (analysis, "edge_segments")):
            def counted(*args, _name=name, _orig=getattr(owner, name), **kwargs):
                calls.append((n, _name))
                return _orig(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        sigma0, _ = auto_sigma0(spaces)
        system = assemble(spaces, sigma0, case.f, case.dirichlet)
        error_norms(solve(system), case, spaces, sigma0)
        monkeypatch.undo()
    assert calls == []


def _assert_segment_sides_match_one_query_per_segment(mesh, chart, tags):
    # the table's labels, from the tags on one-segment edges between plain
    # elements of one side, against the sign of the chart's offset at each
    # segment's own midpoint, queried one segment at a time
    spaces = build_spaces(mesh, tags, chart, 1, 1.0, 10.0)
    split = 0
    for k in range(mesh.n_edges):
        a, b = mesh.edge_a[k], mesh.edge_b[k]
        segs = cut_edge_rule(a, b, _interior_cuts(tags, k), 2)
        ref = [1 if chart.signed_distance_estimate(a[None] + 0.5 * (s.t0 + s.t1) * (b - a))[0] > 0
               else -1 for s in segs]
        assert _table_sides(spaces, k) == ref, k
        split += len(segs) > 1
    assert split > 0


@pytest.mark.parametrize("curve, n", [
    *((circle(0.6), n) for n in (8, 16, 32, 64)), (ellipse(0.7, 0.5), 16),
    (ellipse(0.7, 0.5), 32), (flower(0.5, 0.1, 5), 48)])
def test_segment_sides_match_one_query_per_segment(curve, n):
    mesh = build_mesh(BOX, n)
    chart = FrenetChart(curve, h=mesh.h)
    _assert_segment_sides_match_one_query_per_segment(mesh, chart, classify_elements(mesh, chart))


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_segment_sides_match_one_query_per_segment_random_placements(seed):
    # the seeded placements of test_mesh's random classification test
    rng = np.random.default_rng(seed)
    for n in (8, 16, 32):
        for _ in range(3):
            center = rng.uniform(-0.15, 0.15, 2)
            if rng.uniform() < 0.5:
                curve = circle(rng.uniform(0.4, 0.7), center)
            else:
                curve = ellipse(rng.uniform(0.5, 0.75), rng.uniform(0.35, 0.55), center)
            mesh = build_mesh(BOX, n)
            chart = FrenetChart(curve, h=min(mesh.h, 0.9 / curve.max_curvature))
            try:
                tags = classify_elements(mesh, chart)
            except FrenetIfeError:
                continue
            _assert_segment_sides_match_one_query_per_segment(mesh, chart, tags)


def test_no_table_reader_or_study_takes_a_quadrature_order():
    # the orders belong to the level: SpaceSet fixes them once, and only the
    # per-edge reference read edge_segments takes one
    funcs = [SpaceSet.interface_stacks, SpaceSet.volume_groups, SpaceSet.edge_groups,
             SpaceSet.gradients]
    for mod in (assembly, analysis, cli):
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                funcs += [f for f in vars(obj).values() if inspect.isfunction(f)]
            elif inspect.isfunction(obj):
                funcs.append(obj)
    orders = {"q", "q_vol", "q_edge", "line_q"}
    taking = {f.__qualname__ for f in funcs if orders & set(inspect.signature(f).parameters)}
    assert taking == {"edge_segments"}
