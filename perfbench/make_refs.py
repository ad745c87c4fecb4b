"""Add reference values for seeds that ``refs/`` does not cover yet.

    python3 perfbench/make_refs.py --seeds 0-9

For each workload and seed, takes the checked values from a passing run
record in ``.perfbench/results/`` when there is one, and otherwise runs the
command once.  Entries already in ``refs/<workload>.json`` are never
rewritten: they are what later runs must reproduce to 1e-10 relative.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from run import OUT, worker_env  # noqa: E402


def _seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def checked_values(name: str, seed: int) -> dict:
    record = OUT / "results" / f"{name}-s{seed}-t0.json"
    if record.is_file():
        for cmd in json.loads(record.read_text())["commands"]:
            if not cmd["failures"] and cmd.get("values"):
                return cmd["values"]
    work = OUT / "work" / f"refs-{name}-s{seed}"
    subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", name,
                    "--seed", str(seed), "--work", str(work)],
                   env=worker_env(), check=True, stdout=subprocess.DEVNULL)
    result = json.loads((work / "c0" / "result.json").read_text())
    if result["failures"]:
        raise SystemExit(f"{name} seed {seed} fails its gate: {result['failures']}")
    return result["values"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="e.g. 0-9 or 0,3,5-7")
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args()
    workloads.REFS.mkdir(exist_ok=True)
    for name in args.workload or workloads.WORKLOADS:
        path = workloads.REFS / f"{name}.json"
        refs = json.loads(path.read_text()) if path.is_file() else {}
        for seed in _seeds(args.seeds):
            if str(seed) not in refs:
                refs[str(seed)] = {"radius": workloads.radius(seed),
                                   **checked_values(name, seed)}
                print(f"{name}: seed {seed} added", flush=True)
        path.write_text(json.dumps(dict(sorted(refs.items(), key=lambda kv: int(kv[0]))),
                                   indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
