"""Run one workload's CLI command in a closed loop in this process.

    python3 perfbench/worker.py --workload W --seed N --trace 0|1 --work DIR \\
        [--seconds S] [--deadline D]

Each command is one call of ``frenet_ife.cli.main`` with its own config and
output directory ``DIR/c<k>``; the next starts when the previous one has
returned, and only if it is expected to end within ``--seconds`` (at least
one always runs, none starts that could overrun ``--deadline``).  After each
command, ``DIR/c<k>/result.json`` holds its exit code, its wall time from
``main()`` entry to return (``run_s``), the time inside
``analysis.setup_level`` summed over levels (``setup_s``), this process's
peak RSS so far, the command's CPU time, the checked output values and the
gate's verdict.  With ``--trace 1`` each command runs under its own span
tracer, its spans go to ``DIR/c<k>/spans.json`` and the result also holds
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from frenet_ife import analysis, cli  # noqa: E402


def _timed_setup_level(acc: list):
    """Wrap setup_level where cli and analysis look it up; log its times."""
    orig = analysis.setup_level

    def setup_level(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return orig(*args, **kwargs)
        finally:
            acc.append(time.perf_counter() - t0)

    cli.setup_level = analysis.setup_level = setup_level


def run(name: str, seed: int, traced: bool, work: Path, setups: list) -> dict:
    """One command in ``work``; ``setups`` collects setup_level times when
    the untraced wrapper is installed."""
    w = workloads.WORKLOADS[name]
    out = work / "out"
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(workloads.config(w, seed, out), indent=2))
    argv = [w.command, "--config", str(cfg_path)]
    result = {"workload": name, "seed": seed, "radius": workloads.radius(seed),
              "trace": int(traced)}
    cpu0 = time.process_time()
    if traced:
        from tracer import Tracer

        tracer = Tracer(run_id=f"{name}-s{seed}-{work.parent.name}-{work.name}")
        tracer.install()
        try:
            t0 = time.perf_counter()
            rc = tracer.run(cli.main, argv)
            run_s = time.perf_counter() - t0
        finally:
            tracer.restore()
        layers = tracer.layer_metrics()
        tracer.write_spans(work / "spans.json")
        result["layers"] = layers
        setup_s = layers["analysis.setup_level_s"]
    else:
        setups.clear()
        t0 = time.perf_counter()
        rc = cli.main(argv)
        run_s = time.perf_counter() - t0
        setup_s = sum(setups)
    result.update(rc=rc, run_s=run_s, setup_s=setup_s,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  cpu_s=time.process_time() - cpu0)
    failures = [] if rc == 0 else [f"exit code {rc}"]
    if rc == 0:
        try:
            vals = workloads.outputs(w, out)
        except (OSError, KeyError, ValueError) as exc:
            failures.append(f"unreadable outputs: {exc!r}")
        else:
            result["values"] = vals
            failures += workloads.gate(w, seed, vals)
    result["failures"] = failures
    result["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                          "scipy": scipy.__version__}
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="loop budget; 0 runs one command")
    ap.add_argument("--deadline", type=float, default=float("inf"),
                    help="start no command that could end after this many seconds")
    args = ap.parse_args()
    setups = []
    if not args.trace:
        _timed_setup_level(setups)
    t_start = time.perf_counter()
    walls = []
    for k in itertools.count():
        work = args.work / f"c{k}"
        work.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        result = run(args.workload, args.seed, bool(args.trace), work, setups)
        walls.append(time.perf_counter() - t0)
        (work / "result.json").write_text(json.dumps(result, indent=1))
        elapsed = time.perf_counter() - t_start
        if (elapsed + statistics.mean(walls) > args.seconds
                or elapsed + 1.5 * max(walls) > args.deadline):
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
