"""Manufactured benchmarks, error norms, convergence studies and the
geometric/stability probes backing the method's guarantees."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# edge_segments is unused here, but perfbench/tracer.py patches analysis.edge_segments
from .assembly import (assemble, auto_sigma0, coercivity_ratio, edge_segments,  # noqa: F401
                       penalty_weight, solve, trace_constant)
from .curves import InterfaceCurve, circle
from .errors import FrenetIfeError
from .frenet import ChordChart, FrenetChart
from .ife_space import SpaceSet, at_points, build_spaces
from .mesh import build_mesh, classify_elements


@dataclass
class ManufacturedCase:
    """Exact piecewise solution with analytic gradients and source terms.

    All callables take (points (n, 2), side) with side +-1 scalar or array
    and return per-point values; `grad` returns (n, 2).
    """

    curve: InterfaceCurve
    beta_minus: float
    beta_plus: float
    u: callable
    grad: callable
    f: callable

    def dirichlet(self, pts, side):
        return self.u(pts, side)


def manufactured_circle(r0: float, beta_minus: float, beta_plus: float,
                        p: int = 4) -> ManufacturedCase:
    """Radial power solution across a circular interface.

    u = r^p / beta inside and outside (outside shifted to stay continuous),
    so the flux and every radial derivative of beta*Laplacian match across
    the interface; the source f = -p^2 r^(p-2) is globally smooth.
    """
    if p < 4 or p % 2:
        raise ValueError("need even p >= 4 for the smoothness the scheme assumes")
    jump_shift = r0**p * (1.0 / beta_minus - 1.0 / beta_plus)

    def u(pts, side):
        pts = np.atleast_2d(pts)
        r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        rp = r2 ** (p / 2)
        side = np.broadcast_to(np.asarray(side), rp.shape)
        return np.where(side > 0, rp / beta_plus + jump_shift, rp / beta_minus)

    def grad(pts, side):
        pts = np.atleast_2d(pts)
        r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        fac = p * r2 ** (p / 2 - 1)
        side = np.broadcast_to(np.asarray(side), fac.shape)
        beta = np.where(side > 0, beta_plus, beta_minus)
        return (fac / beta)[:, None] * pts

    def f(pts, side):
        pts = np.atleast_2d(pts)
        r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        return -(p**2) * r2 ** (p / 2 - 1)

    return ManufacturedCase(curve=circle(r0), beta_minus=beta_minus,
                            beta_plus=beta_plus, u=u, grad=grad, f=f)


# ----------------------------------------------------------------------------
# error norms


def error_norms(coef, case: ManufacturedCase, spaces: SpaceSet, sigma0: float) -> dict:
    """L2, broken and energy norms of u - u_h with cut-aware quadrature.

    The flux-average terms use the exact gradients of the case on the
    exact-solution side of the error.  u_h takes one vector-matrix product
    per element, as an element loop would, so no rounding of it is amplified
    by the cancellation in u - u_h.  Each term of a group is summed whole
    into a running total.
    """
    mesh = spaces.mesh
    pen = penalty_weight(spaces, sigma0)
    C = coef.reshape(mesh.n_elements, -1)

    l2_sq = grad_sq = jump_sq = flux_sq = 0.0
    groups = spaces.volume_groups()
    at = [(pts, sides) for _, pts, _, sides, *_ in groups]
    for (elems, _, w, sides, vals, grads), u, grad in zip(
            groups, at_points(case.u, at), at_points(case.grad, at)):
        c = C[elems]
        du = u - (c[:, None] @ vals)[:, 0]
        dg = grad - np.einsum("eb,ebpk->epk", c, grads)
        l2_sq += np.sum(w * du**2)
        grad_sq += np.sum(spaces.beta_of(sides)[:, None] * w * np.einsum("epk,epk->ep", dg, dg))

    groups = spaces.edge_groups()
    at = [(pts, sides) for _, _, pts, _, sides, *_ in groups]
    for (ks, _, _, w, sides, members), u, grad in zip(
            groups, at_points(case.u, at), at_points(case.grad, at)):
        beta = spaces.beta_of(sides)[:, None]
        jump = flux = 0.0
        for j, (sign, vals, grads) in enumerate(members):
            c = C[mesh.edge_elems[ks, j]]
            jump = jump + sign * (u - (c[:, None] @ vals)[:, 0])
            flux = flux + beta * np.einsum(
                "epk,ek->ep", grad - np.einsum("eb,ebpk->epk", c, grads), mesh.edge_normal[ks])
        avg = 1.0 if len(members) == 1 else 0.5
        jump_sq += np.sum(w * jump**2)
        flux_sq += np.sum(w * (avg * flux) ** 2)

    norm_h_sq = grad_sq + pen * jump_sq
    energy_sq = norm_h_sq + flux_sq / pen
    return {"l2": float(np.sqrt(l2_sq)),
            "norm_h": float(np.sqrt(norm_h_sq)),
            "energy": float(np.sqrt(energy_sq))}


# ----------------------------------------------------------------------------
# studies


def setup_level(case: ManufacturedCase, box, n: int, m: int, quad: dict | None = None):
    """The level n of the case at degree m, its quadrature orders from the
    config's quad block (None: the degree defaults)."""
    mesh = build_mesh(box, n)
    chart = FrenetChart(case.curve, h=mesh.h)
    tags = classify_elements(mesh, chart)
    return build_spaces(mesh, tags, chart, m, case.beta_minus, case.beta_plus, quad)


def level_chain(case: ManufacturedCase, m: int, ns, box=(-1, 1, -1, 1),
                sigma0="auto", quad=None):
    """Yield (spaces, sigma0, C_t) per level n of ns, one level at a time.

    An "auto" penalty is probed once on the first (coarsest) level and
    reused, so sigma0 stays mesh-independent across the chain; C_t is the
    probed trace constant, NaN for a given penalty.
    """
    ct = float("nan")
    for n in ns:
        spaces = setup_level(case, box, n, m, quad)
        if sigma0 == "auto":
            sigma0, ct = auto_sigma0(spaces)
        yield spaces, sigma0, ct


def convergence_study(case: ManufacturedCase, m: int, ns, box=(-1, 1, -1, 1),
                      sigma0="auto", quad=None) -> dict:
    """Solve on a 2:1 refinement chain of level_chain and tabulate errors and rates.

    Returns {"sigma0", "trace_constant", "levels", "rates_l2",
    "rates_energy"}: one row per level with n, h, dofs, the l2 / norm_h /
    energy errors and their log2 rates against the level before (NaN on the
    first), and the pairwise L2 and energy rates as lists.
    """
    levels = []
    for spaces, sig, ct in level_chain(case, m, ns, box, sigma0, quad):
        coef = solve(assemble(spaces, sig, case.f, case.dirichlet))
        levels.append({"n": spaces.mesh.nx, "h": spaces.mesh.h, "dofs": spaces.n_dofs,
                       **error_norms(coef, case, spaces, sig)})
    rates = {key: [float(np.log2(a[key] / b[key])) for a, b in zip(levels, levels[1:])]
             for key in ("l2", "norm_h", "energy")}
    for i, row in enumerate(levels):
        row.update({f"rate_{key}": r[i - 1] if i else float("nan") for key, r in rates.items()})
    return {"sigma0": float(sig), "trace_constant": ct, "levels": levels,
            "rates_l2": rates["l2"], "rates_energy": rates["energy"]}


_PROBE_GRID = 6   # grid points per axis sampled in each interface element


def geometry_probes(curve: InterfaceCurve, ns, box=(-1, 1, -1, 1)) -> dict:
    """Per-level maxima of the chart-vs-chord deviations and interval band.

    Reports ||T - id||, ||DT - I||_F, |det DT - 1| maxima over all interface
    elements (sampled on interior grids), the band of (xi1 - xi0)/h, and
    least-squares slopes of the log-maxima against log h, NaN unless every
    maximum is positive and the levels have two distinct h.  Each level takes
    one chart inverse, one stack of chord charts and one chart Jacobian; a
    level with no interface element reports maxima 0 and a band (inf, -inf).
    """
    levels = []
    for n in ns:
        mesh = build_mesh(box, n)
        chart = FrenetChart(curve, h=mesh.h)
        tags = classify_elements(mesh, chart)
        xi0, xi1 = tags.interface.interval.T
        # the grids of all interface elements, (E, grid^2, 2) in meshgrid order
        xl, yl, xh, yh = mesh.elem_box(tags.interface.elements)
        gx, gy = (np.linspace(lo, hi, _PROBE_GRID, axis=-1) for lo, hi in ((xl, xh), (yl, yh)))
        pts = np.stack(np.broadcast_arrays(gx[:, None, :], gy[:, :, None]), axis=-1)
        pts = pts.reshape(len(xi0), _PROBE_GRID**2, 2)
        eta, xi = (c.reshape(pts.shape[:2]) for c in chart.inverse(
            pts.reshape(-1, 2), xi_anchor=np.repeat(0.5 * (xi0 + xi1), pts.shape[1])))
        cc = ChordChart(chart, xi0, xi1)
        DT = cc.transition_jacobian(eta, xi)
        det = DT[..., 0, 0] * DT[..., 1, 1] - DT[..., 0, 1] * DT[..., 1, 0]
        band = (xi1 - xi0) / mesh.h
        levels.append({
            "n": n, "h": mesh.h,
            "t_dev": np.linalg.norm(cc.inverse(pts) - np.stack([eta, xi], axis=-1),
                                    axis=-1).max(initial=0.0),
            "dt_dev": np.linalg.norm(DT - np.eye(2), axis=(-2, -1)).max(initial=0.0),
            "det_dev": np.abs(det - 1.0).max(initial=0.0),
            "band_lo": band.min(initial=np.inf), "band_hi": band.max(initial=-np.inf),
            "n_interface": tags.n_interface})

    hs = np.array([lv["h"] for lv in levels])
    out = {"levels": levels}
    for key in ("t_dev", "dt_dev", "det_dev"):
        vals = np.array([lv[key] for lv in levels])
        if np.all(vals > 0) and len(np.unique(hs)) > 1:
            out[f"slope_{key}"] = float(np.polyfit(np.log(hs), np.log(vals), 1)[0])
        else:
            out[f"slope_{key}"] = float("nan")
    return out


def trace_probe_study(case: ManufacturedCase, m: int, ns, box=(-1, 1, -1, 1),
                      quad=None) -> dict:
    """Max/median normalized trace constants per level; raises
    FrenetIfeError on a level with no interface element."""
    levels = []
    for n in ns:
        spaces = setup_level(case, box, n, m, quad)
        if not spaces.tags.n_interface:
            raise FrenetIfeError(f"mesh n={n}: no interface element to probe; "
                                 "the interface does not cross the domain")
        cts = trace_constant(spaces, spaces.tags.interface.elements)
        levels.append({"n": n, "h": spaces.mesh.h,
                       "max": float(np.max(cts)), "median": float(np.median(cts)),
                       "count": len(cts)})
    return {"levels": levels,
            "max_ratio": max(lv["max"] for lv in levels)
            / min(lv["max"] for lv in levels)}


def coercivity_probe(case: ManufacturedCase, m: int, ns,
                     box=(-1, 1, -1, 1), sigma0="auto", quad=None) -> dict:
    """Each level_chain level's coercivity ratio and their minimum, at the
    chain's one penalty."""
    levels = []
    for spaces, sig, ct in level_chain(case, m, ns, box, sigma0, quad):
        system = assemble(spaces, sig, case.f, case.dirichlet, with_norm_grams=True)
        levels.append({"n": spaces.mesh.nx, "h": spaces.mesh.h, "ratio": coercivity_ratio(system)})
    return {"sigma0": float(sig), "trace_constant": float(ct), "m": m, "levels": levels,
            "min_ratio": min(lv["ratio"] for lv in levels)}
