"""Check that the traced counts repeat exactly between two runs of one seed.

    python3 perfbench/check_counts.py [--seed 1] [--workload conv-p1 ...]

Runs each workload's command twice under the tracer and compares every
count: ``mesh.elements``, ``mesh.cut_elements``, ``assembly.dofs``,
``assembly.nnz``, ``assembly.lu_fill``, ``trace.spans`` and every
``*_calls`` / ``*_points`` metric.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from run import OUT, layer_unit, worker_env  # noqa: E402


def traced_counts(name: str, seed: int, k: int) -> dict:
    work = OUT / "work" / f"counts-{name}-s{seed}-{k}"
    shutil.rmtree(work, ignore_errors=True)
    subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", name,
                    "--seed", str(seed), "--trace", "1", "--work", str(work)],
                   env=worker_env(), check=True, stdout=subprocess.DEVNULL)
    result = json.loads((work / "c0" / "result.json").read_text())
    shutil.rmtree(work, ignore_errors=True)
    if result["failures"]:
        raise SystemExit(f"{name}: gate failed: {result['failures']}")
    return {n: v for n, v in result["layers"].items() if layer_unit(n) == "count"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args()
    ok = True
    for name in args.workload or workloads.WORKLOADS:
        a, b = traced_counts(name, args.seed, 0), traced_counts(name, args.seed, 1)
        diff = {n: (a[n], b[n]) for n in a if a[n] != b[n]}
        ok = ok and not diff
        print(f"{name}: {len(a)} counts, " + (f"DIFFER {diff}" if diff else "identical"),
              flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
