"""The benchmark's seed-0 commands against their stored references.

Each benchmark workload (`perfbench/workloads.py`; seed 0 is the circle
r=0.6) must reproduce the values in `perfbench/refs/<workload>.json` to
1e-10 relative: the L2 and energy errors of `solve-p3` and `conv-p1` and the
trace-constant maximum of `probe-trace-p2`, per level.  The cubic solve's
sliver cells amplify a 1e-16 change in the stiffness matrix to about 1e-8
in the L2 error, so any reordering of the assembly arithmetic shows there
first; all three read the classification and the chart.  The reference
files are only read, and so is the benchmark's span tracer, whose patches
must name functions the package still has.
"""

import csv
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from frenet_ife import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFS = PERFBENCH / "refs"
REL_TOL = 1e-10


def _run(tmp_path, command, degree, mesh):
    config = {"interface": {"kind": "circle", "radius": 0.6}, "degree": degree,
              "mesh_sizes": mesh, "out_dir": str(tmp_path / "out")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path)]) == 0
    return tmp_path / "out"


def _reference(workload):
    ref = json.loads((REFS / f"{workload}.json").read_text())["0"]
    assert ref["radius"] == 0.6
    return ref["levels"]


def _errors(out):
    with open(out / "errors.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _assert_levels(rows, levels, keys):
    assert [float(row["n"]) for row in rows] == [float(lv["n"]) for lv in levels]
    for row, level in zip(rows, levels):
        for key in keys:
            assert float(row[key]) == pytest.approx(level[key], rel=REL_TOL, abs=0.0), \
                (row["n"], key)


def test_solve_p3_seed0_matches_benchmark_reference(tmp_path):
    out = _run(tmp_path, "solve", 3, [24])
    _assert_levels(_errors(out), _reference("solve-p3"), ("l2", "energy"))


def test_conv_p1_seed0_matches_benchmark_reference(tmp_path):
    out = _run(tmp_path, "convergence", 1, [8, 16, 32])
    _assert_levels(_errors(out), _reference("conv-p1"), ("l2", "energy"))


def test_probe_trace_p2_seed0_matches_benchmark_reference(tmp_path):
    out = _run(tmp_path, "probe-trace", 2, [16, 32, 64])
    rows = json.loads((out / "trace_probes.json").read_text())["levels"]
    _assert_levels(rows, _reference("probe-trace-p2"), ("max",))


def test_tracer_patches_resolve_to_callables(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.PATCHES
    for owner, attr, name, *_ in tracer.PATCHES:
        # Tracer.install reads the attribute from the owner's own namespace
        assert callable(vars(owner).get(attr)), (owner.__name__, attr, name)
