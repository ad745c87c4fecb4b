"""Benchmark entry point: one workload, a closed loop of CLI commands for a time budget.

    python3 perfbench/run.py --workload conv-p1 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  One worker process (``worker.py``) runs
the closed loop: each command is one call of ``frenet_ife.cli.main``, the
next starts only after the previous one has returned, and only if it is
expected to finish within ``--seconds``; at least one always runs.  Every
command's outputs go through the correctness gate in ``workloads.py``.

The last stdout line is the result: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones:
``run_s`` is the mean command time of the run (its wall time per command
at the run's throughput), ``setup_s`` and ``peak_rss_mb`` are medians over
its commands.  With ``--trace 1`` every command runs under the span tracer
and the metrics are the per-layer ones, medians over the commands.

Why the mean for ``run_s``: on the small shared hosts this was written on,
the speed of a core swings by up to 1.6x in phases of seconds to minutes,
and CPU time tracks wall time.  The median of a run's commands then lands
in one phase or the other, and the fastest command depends on whether a
short fast phase happened to occur; the mean weighs the whole run by time.
The count, minimum, median and a high percentile of ``run_s`` are kept in
the run record (``run_s_stats``).  The line before it is the
full run record (host, per-command samples and checked values); the same
record goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

END_TO_END = {"run_s": ("s", statistics.fmean), "setup_s": ("s", statistics.median),
              "peak_rss_mb": ("MB", statistics.median)}
RUN_DEADLINE_S = 170.0      # a run must end within 180 s


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_reuse", "_coverage")):
        return "ratio"
    return "count"


def blas_cap() -> int:
    """BLAS/OpenMP thread cap for the workers: nproc."""
    return len(os.sched_getaffinity(0))


def host_record() -> dict:
    """nproc, BLAS cap, CPU model and cache sizes of this machine."""
    rec = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
           "blas_threads": blas_cap(), "machine": platform.machine(),
           "cpu_model": platform.processor() or None, "caches": {}}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    rec["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_dir.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            rec["caches"][f"L{level}-{kind}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    return rec


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(blas_cap())
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_commands(args, env: dict, budget: float, deadline: float) -> tuple[list, bool]:
    """One worker process running the closed loop; returns (the result of
    each command it finished, in order; whether the worker ended cleanly)."""
    work = OUT / "work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), "--work", str(work),
           "--seconds", str(budget), "--deadline", str(deadline)]
    with open(work / "worker.log", "w") as log, \
            subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                             cwd=ROOT) as proc:
        try:
            proc.wait(timeout=deadline + 5.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    results = []
    for k in itertools.count():
        path = work / f"c{k}" / "result.json"
        if not path.is_file():
            break
        results.append(json.loads(path.read_text()))
        if (work / f"c{k}" / "spans.json").is_file():
            spans = OUT / "results" / f"{args.workload}-s{args.seed}-c{k}-spans.json"
            shutil.move(str(work / f"c{k}" / "spans.json"), spans)
    clean = proc.returncode == 0
    if not clean:
        tail = (work / "worker.log").read_text()[-2000:]
        print(f"worker exit {proc.returncode}:\n{tail}", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    return results, clean


def run_stats(times: list) -> dict:
    """Sample count, mean, minimum, median and the highest percentile with
    >= 10 samples beyond it (none below 11 samples)."""
    stats = {"n": len(times), "mean": statistics.fmean(times), "min": min(times),
             "median": statistics.median(times)}
    if len(times) >= 11:
        pct = int(100 * (1 - 10 / len(times)))
        stats[f"p{pct}"] = statistics.quantiles(times, n=100)[pct - 1]
    return stats


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "frenet_ife" / "__init__.py").is_file():
        print(f"no frenet_ife package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    env = worker_env()
    (OUT / "results").mkdir(parents=True, exist_ok=True)

    t_start = time.perf_counter()
    results, clean = run_commands(args, env, args.seconds, RUN_DEADLINE_S)
    failures = [{"command": k, "failures": r["failures"]}
                for k, r in enumerate(results) if r["failures"]]
    if not clean:
        failures.append({"command": len(results), "failures": ["worker died or timed out"]})
    attempted = len(results) + (not clean)
    if not results:
        print("no command produced a measurement", file=sys.stderr)
        return 1

    if args.trace:
        names = list(results[0]["layers"])
        metrics = {n: {"value": statistics.median(r["layers"][n] for r in results),
                       "unit": layer_unit(n)} for n in names}
    else:
        metrics = {n: {"value": stat([r[n] for r in results]), "unit": u}
                   for n, (u, stat) in END_TO_END.items()}

    w = workloads.WORKLOADS[args.workload]
    host = host_record()
    host["versions"] = results[0]["versions"]
    record = {
        "workload": w.name, "why": w.why, "seed": args.seed,
        "radius": workloads.radius(args.seed), "trace": args.trace,
        "seconds": args.seconds, "loop": "closed, 1 client", "host": host,
        "run_s_stats": run_stats([r["run_s"] for r in results]),
        "commands": [{key: r.get(key) for key in ("rc", "run_s", "setup_s", "peak_rss_mb",
                                                 "cpu_s", "failures", "values", "layers")}
                     for r in results],
        "wall_s": time.perf_counter() - t_start, "failures": failures,
        "reference_checked": workloads.reference(w, args.seed) is not None,
    }
    (OUT / "results" / f"{w.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(record))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
