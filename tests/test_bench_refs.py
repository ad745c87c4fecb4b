"""The benchmark's commands against their stored references.

Each benchmark workload (`perfbench/workloads.py`; seed 0 is the circle
r=0.6) must reproduce the values in `perfbench/refs/<workload>.json` to
1e-10 relative: the L2 and energy errors of `solve-p3` and `conv-p1` and the
trace-constant maximum of `probe-trace-p2`, per level.  The cubic solve's
sliver cells amplify a 1e-16 change in the stiffness matrix to about 1e-8
in the L2 error, so any reordering of the assembly arithmetic shows there
first; it also runs at seed 7, whose circle has the most cut-cell regions
anchored at their second candidate.  All three read the classification and
the chart.  The reference files and the workload radii are only read, and
so is the benchmark's span tracer, whose patches must name functions the
package still has and whose traced command must run.  The benchmark's
`setup_s` wraps `setup_level` where `cli` and `analysis` look it up, so every
level of every command must be built through that name.
"""

import csv
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from frenet_ife import analysis, cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFS = PERFBENCH / "refs"
REL_TOL = 1e-10


def _perfbench(name):
    """perfbench/<name>.py, loaded without writing bytecode there."""
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True      # leave perfbench/ as it is
    try:
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                      PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module     # dataclasses look their module up there
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _write_config(tmp_path, degree, mesh, radius=0.6):
    config = {"interface": {"kind": "circle", "radius": radius}, "degree": degree,
              "mesh_sizes": mesh, "out_dir": str(tmp_path / "out")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def _run(tmp_path, command, degree, mesh, radius=0.6):
    path = _write_config(tmp_path, degree, mesh, radius)
    assert cli.main([command, "--config", str(path)]) == 0
    return tmp_path / "out"


def _reference(workload, seed=0, radius=0.6):
    ref = json.loads((REFS / f"{workload}.json").read_text())[str(seed)]
    assert ref["radius"] == radius
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


@pytest.mark.parametrize("seed", [0, 7])
def test_solve_p3_seed0_matches_benchmark_reference(tmp_path, seed):
    radius = _perfbench("workloads").radius(seed)
    out = _run(tmp_path, "solve", 3, [24], radius)
    _assert_levels(_errors(out), _reference("solve-p3", seed, radius), ("l2", "energy"))


def test_conv_p1_seed0_matches_benchmark_reference(tmp_path):
    out = _run(tmp_path, "convergence", 1, [8, 16, 32])
    _assert_levels(_errors(out), _reference("conv-p1"), ("l2", "energy"))


def test_probe_trace_p2_seed0_matches_benchmark_reference(tmp_path):
    out = _run(tmp_path, "probe-trace", 2, [16, 32, 64])
    rows = json.loads((out / "trace_probes.json").read_text())["levels"]
    _assert_levels(rows, _reference("probe-trace-p2"), ("max",))


@pytest.mark.parametrize("argv, levels, probes", [
    (["solve", "--mesh", "8"], 1, 1),
    (["convergence", "--mesh", "8,16,32"], 3, 1),
    (["probe-coercivity", "--mesh", "8,16"], 2, 1),
    (["probe-trace", "--mesh", "8,16"], 2, 0),
    (["solve", "--mesh", "8", "--sigma0", "20"], 1, 0),
    (["convergence", "--mesh", "8,16", "--sigma0", "20"], 2, 0),
    (["probe-coercivity", "--mesh", "8,16", "--sigma0", "20"], 2, 0),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_setup_hook_sees_every_level(tmp_path, monkeypatch, argv, levels, probes):
    # perfbench/worker.py sums setup_s from one wrapper that it sets as both
    # cli.setup_level and analysis.setup_level; every level of a command must
    # go through it, and an auto penalty is probed once, on the first level
    calls = {"levels": 0, "probes": 0}

    def counted(key, orig):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return orig(*args, **kwargs)
        return wrapper

    setup_level = counted("levels", analysis.setup_level)
    monkeypatch.setattr(cli, "setup_level", setup_level)
    monkeypatch.setattr(analysis, "setup_level", setup_level)
    monkeypatch.setattr(analysis, "auto_sigma0", counted("probes", analysis.auto_sigma0))
    assert cli.main([*argv, "--degree", "1", "--out", str(tmp_path / "o")]) == 0
    assert calls == {"levels": levels, "probes": probes}


def test_tracer_patches_resolve_to_callables():
    tracer = _perfbench("tracer")
    assert tracer.PATCHES
    for owner, attr, name, *_ in tracer.PATCHES:
        # Tracer.install reads the attribute from the owner's own namespace
        assert callable(vars(owner).get(attr)), (owner.__name__, attr, name)


def test_traced_probe_trace_reports_its_layer_metrics(tmp_path):
    # the benchmark's traced run: every patched call goes through the
    # tracer's wrappers and their observers
    tracer = _perfbench("tracer").Tracer(run_id="probe-trace-smoke")
    path = _write_config(tmp_path, 2, [8, 16])
    tracer.install()
    try:
        rc = tracer.run(cli.main, ["probe-trace", "--config", str(path)])
    finally:
        tracer.restore()
    assert rc == 0
    metrics = tracer.layer_metrics()
    declared = [m["name"] for m in json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
                ["per_layer"] if m["name"].split(".")[0] in ("quadrature", "ife_space")]
    assert declared
    for name in declared:
        assert math.isfinite(metrics[name]), name
    assert metrics["ife_space.build_x0_ms"] > 0 and metrics["trace.spans"] > 0
