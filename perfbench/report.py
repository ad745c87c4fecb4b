"""Print every benchmark metric for every workload: one command.

    python3 perfbench/report.py [--seed 0] [--seconds S]

Runs ``run.py`` on each workload untraced, then traced, and prints the
end-to-end metrics with units, the median command time with the sample
count (and the high percentile once there are 11 samples), the failure
count against commands attempted, the tracing overhead (median traced
``run_s`` minus median untraced ``run_s``), the host record and a table of
all per-layer metrics.
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


def bench(name: str, seed: int, seconds: float, trace: int):
    """(record, result) of one run.py invocation."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    names = list(workloads.WORKLOADS)
    plain, traced = {}, {}
    for name in names:
        plain[name] = bench(name, args.seed, args.seconds, 0)
        traced[name] = bench(name, args.seed, args.seconds, 1)

    record = plain[names[0]][0]
    print(f"host: {json.dumps(record['host'])}")
    print(f"seed {args.seed} (radius {record['radius']}), {args.seconds:g} s per run, "
          "closed loop with one client\n")
    print(f"{'workload':16s} {'run_s':>10s} {'median (n)':>14s} {'setup_s':>10s} "
          f"{'peak_rss_mb':>12s} {'failed/attempted':>17s} {'trace overhead':>15s}")
    for name in names:
        m = plain[name][1]["metrics"]
        stats = plain[name][0]["run_s_stats"]
        fails = sum(r["failed"] for _, r in (plain[name], traced[name]))
        tries = sum(r["attempted"] for _, r in (plain[name], traced[name]))
        over = traced[name][1]["metrics"]["trace.run_s"]["value"] - stats["median"]
        pct = "".join(f", {k} {v:.3f} s" for k, v in stats.items() if k.startswith("p"))
        print(f"{name:16s} {m['run_s']['value']:8.3f} s {stats['median']:8.3f} s ({stats['n']:>2d}) "
              f"{m['setup_s']['value']:8.3f} s {m['peak_rss_mb']['value']:9.1f} MB "
              f"{fails:>8d}/{tries:<8d} {over:+13.3f} s{pct}")

    print(f"\n{'per-layer metric':34s} {'unit':6s}" + "".join(f"{n:>16s}" for n in names))
    for metric, first in traced[names[0]][1]["metrics"].items():
        row = "".join(f"{traced[n][1]['metrics'][metric]['value']:16.6g}" for n in names)
        print(f"{metric:34s} {first['unit']:6s}{row}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
