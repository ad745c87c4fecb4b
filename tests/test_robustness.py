"""Randomized cut-position sweep: the geometry pipeline must hold its
tolerances for arbitrary interface placements, not just the benchmark."""

import numpy as np
import pytest

from frenet_ife.curves import circle, ellipse
from frenet_ife.frenet import FrenetChart
from frenet_ife.ife_space import build_spaces
from frenet_ife.mesh import build_mesh, classify_elements
from frenet_ife.quadrature import cut_cell_rules

from oracles import element_basis, frame_at


@pytest.mark.parametrize("seed", [7, 19, 23, 101])
def test_random_interface_placements(seed):
    rng = np.random.default_rng(seed)
    mesh = build_mesh((-1, 1, -1, 1), 8)
    area = mesh.dx * mesh.dy
    for trial in range(2):
        center = rng.uniform(-0.12, 0.12, 2)
        if trial % 2 == 0:
            curve = circle(rng.uniform(0.45, 0.7), center)
        else:
            curve = ellipse(rng.uniform(0.5, 0.7), rng.uniform(0.4, 0.55), center)
        if mesh.h * curve.max_curvature >= 0.95:
            continue
        chart = FrenetChart(curve, h=mesh.h)
        tags = classify_elements(mesh, chart)
        spaces = build_spaces(mesh, tags, chart, 2, 1.0, 10.0)
        assert tags.n_interface > 0
        for e, cut_xi in zip(tags.interface.elements, tags.interface.xi):
            rules = cut_cell_rules(mesh, e, tags.interface, chart, q=6)
            total = sum(r.weights.sum() for r in rules.values())
            assert total == pytest.approx(area, abs=1e-12)
            b = element_basis(spaces, e)
            xa, xb = sorted(cut_xi)
            xs = np.linspace(xa + 1e-9, xb - 1e-9, 10)
            pts = curve.point(xs)
            _, n, _, _ = frame_at(curve, xs)
            vp, gp = b.evaluate(pts, side=1)
            vm, gm = b.evaluate(pts, side=-1)
            fp = 10.0 * np.einsum("bpk,pk->bp", gp, n)
            fm = 1.0 * np.einsum("bpk,pk->bp", gm, n)
            assert np.max(np.abs(vp - vm)) <= 1e-9
            assert np.max(np.abs(fp - fm)) <= 1e-9
