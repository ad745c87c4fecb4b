"""Workload definitions, seeded inputs and the per-command correctness gate."""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"
REL_TOL = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    degree: int
    mesh: tuple
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("conv-p1", "convergence", 1, (8, 16, 32),
             "README convergence chain up to n=32; uncut-cell volume/edge loops "
             "dominate, so batched assembly of plain cells shows here"),
    Workload("solve-p3", "solve", 3, (24,),
             "one cubic level with 9,216 dofs; sparse LU fill is most of the "
             "memory above the baseline, and cut cells are re-integrated 4x"),
    Workload("probe-trace-p2", "probe-trace", 2, (16, 32, 64),
             "cut-cell path alone (classification, X0, curved quadrature, chart "
             "inverse); no assembly or solve, so those changes predict no change"),
)}


def radius(seed: int) -> float:
    """Circle radius in [0.55, 0.65]; seed 0 is the README's 0.6."""
    if seed == 0:
        return 0.6
    return round(random.Random(seed).uniform(0.55, 0.65), 6)


def config(w: Workload, seed: int, out_dir: Path) -> dict:
    """The whole run configuration the CLI receives for one command."""
    return {"interface": {"kind": "circle", "radius": radius(seed)},
            "degree": w.degree, "mesh_sizes": list(w.mesh),
            "out_dir": str(out_dir)}


def _csv_rows(path: Path):
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def outputs(w: Workload, out: Path) -> dict:
    """The checked values of one command, read back from its output files."""
    if w.command == "convergence":
        rep = json.loads((out / "convergence_report.json").read_text())
        return {"levels": [{k: row[k] for k in ("n", "dofs", "l2", "norm_h", "energy")}
                           for row in _csv_rows(out / "errors.csv")],
                "rates_l2": rep["rates_l2"], "rates_energy": rep["rates_energy"],
                "sigma0": rep["sigma0"], "trace_constant": rep["trace_constant"]}
    if w.command == "solve":
        rep = json.loads((out / "solve_report.json").read_text())
        row = _csv_rows(out / "errors.csv")[0]
        return {"levels": [{k: row[k] for k in ("n", "dofs", "l2", "norm_h", "energy")}],
                "sigma0": rep["sigma0"], "trace_constant": rep["trace_constant"],
                "mesh": rep["mesh"]}
    rep = json.loads((out / "trace_probes.json").read_text())
    return {"levels": rep["levels"], "max_ratio": rep["max_ratio"]}


def reference(w: Workload, seed: int):
    path = REFS / f"{w.name}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(seed))


# values compared against a shipped reference, per level
REF_KEYS = {"convergence": ("l2", "energy"), "solve": ("l2", "energy"),
            "probe-trace": ("max",)}


def gate(w: Workload, seed: int, vals: dict) -> list[str]:
    """Reasons the command's outputs are wrong; empty when they pass."""
    bad = []
    m = w.degree
    levels = vals["levels"]
    if [int(lv["n"]) for lv in levels] != list(w.mesh):
        bad.append(f"levels {[lv['n'] for lv in levels]} != {list(w.mesh)}")
    for lv in levels:
        for key in REF_KEYS[w.command]:
            if not (math.isfinite(lv[key]) and lv[key] > 0):
                bad.append(f"n={lv['n']}: {key}={lv[key]!r} not finite and positive")
    if w.command == "convergence":
        # the paper's optimal orders, on the finest pair: L2 ~ m+1, energy ~ m
        r_l2, r_en = vals["rates_l2"][-1], vals["rates_energy"][-1]
        if not m + 0.8 <= r_l2 <= m + 1.5:
            bad.append(f"L2 rate {r_l2:.3f} outside [{m + 0.8}, {m + 1.5}]")
        if not m - 0.15 <= r_en <= m + 0.5:
            bad.append(f"energy rate {r_en:.3f} outside [{m - 0.15}, {m + 0.5}]")
    elif w.command == "solve":
        lv = levels[0]
        if int(lv["dofs"]) != (w.mesh[0] * (m + 1)) ** 2:
            bad.append(f"dofs {lv['dofs']} != {(w.mesh[0] * (m + 1)) ** 2}")
        # accuracy ceilings, about 30x the seed-0 errors (5.9e-7, 7.8e-5)
        if not lv["l2"] <= 2e-5:
            bad.append(f"L2 error {lv['l2']:.3e} > 2e-5")
        if not lv["energy"] <= 2.5e-3:
            bad.append(f"energy error {lv['energy']:.3e} > 2.5e-3")
    else:
        # h-uniformity of the trace constant, as in the CLI tests
        if not vals["max_ratio"] <= 2.0:
            bad.append(f"trace max_ratio {vals['max_ratio']:.3f} > 2")
    ref = reference(w, seed)
    if ref is not None and len(ref["levels"]) != len(levels):
        bad.append(f"{len(levels)} levels, reference has {len(ref['levels'])}")
    elif ref is not None:
        for lv, rv in zip(levels, ref["levels"]):
            for key in REF_KEYS[w.command]:
                if abs(lv[key] - rv[key]) > REL_TOL * abs(rv[key]):
                    bad.append(f"n={lv['n']}: {key} {lv[key]!r} differs from "
                               f"reference {rv[key]!r} by more than {REL_TOL} relative")
    return bad
