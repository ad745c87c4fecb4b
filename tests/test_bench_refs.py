"""The cubic solve the benchmark gates on, against its stored reference.

The benchmark's `solve-p3` workload (seed 0: circle r=0.6, degree 3, n=24)
must reproduce the L2 and energy errors in `perfbench/refs/solve-p3.json`
to 1e-10 relative.  Its sliver cells amplify a 1e-16 change in the
stiffness matrix to about 1e-8 in the L2 error, so any reordering of the
assembly arithmetic shows here first.  The reference file is only read.
"""

import csv
import json
from pathlib import Path

import pytest

from frenet_ife import cli

REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "solve-p3.json"
REL_TOL = 1e-10


def test_solve_p3_seed0_matches_benchmark_reference(tmp_path):
    ref = json.loads(REFS.read_text())["0"]
    assert ref["radius"] == 0.6
    config = {"interface": {"kind": "circle", "radius": 0.6}, "degree": 3,
              "mesh_sizes": [24], "out_dir": str(tmp_path / "out")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["solve", "--config", str(path)]) == 0
    with open(tmp_path / "out" / "errors.csv", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    (level,) = ref["levels"]
    assert float(row["n"]) == level["n"]
    for key in ("l2", "energy"):
        assert float(row[key]) == pytest.approx(level[key], rel=REL_TOL, abs=0.0), key
