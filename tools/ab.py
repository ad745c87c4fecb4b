"""Paired A/B timing of one benchmark workload on two source trees.

    python3 tools/ab.py PARENT_SRC CHANGE_SRC --workload W --seconds S \\
        [--seed N] [--mesh 8,16]

Starts two persistent worker processes, A on PARENT_SRC and B on
CHANGE_SRC; each imports ``frenet_ife`` from its directory, as
``tools/digest_outputs.py`` does, and runs the workload's CLI command (the
config of ``perfbench/workloads.py``, its mesh sizes replaced by ``--mesh``
when given) each time it is asked.  The commands run in pairs, alternating
the order A B, B A, A B, ..., so that the two commands of a pair share a
phase of the host's speed, which on small shared hosts swings by tens of
percent over seconds to minutes.  A first pair warms both workers up and
is dropped; pairs start while they are expected to end within ``--seconds``
(at least one runs).

``run_s`` (the wall time of ``cli.main``) and ``setup_s`` (the time inside
``analysis.setup_level``) are measured as ``perfbench/worker.py`` measures
them.  Prints one JSON line: for each of the two, the median of each side,
the median of the per-pair ratios B/A with a bootstrap 95% interval (2000
resamples of the pairs, stdlib ``random`` with a fixed seed) and the share
of the pairs in which B is lower; the peak RSS of each worker and B - A;
the pair count; the failed commands of each side (their pairs are left out
of the ratios); and the host's 1, 5 and 15 minute load averages
(``os.getloadavg``) at the start and at the end of the run.  Other
CPU-bound processes on the host bias the ratios: run it alone, and an A/A
run of one tree against itself beside the A/B run shows the bias.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
PERFBENCH = TOOLS.parent / "perfbench"
METRICS = ("run_s", "setup_s")


def serve(src: str, workload: str, seed: int, mesh, work: str) -> None:
    """Worker loop: one command per line read from stdin, one JSON line of
    its measurements written to stdout."""
    sys.path[:0] = [str(Path(src).resolve()), str(PERFBENCH)]
    import workloads
    from frenet_ife import analysis, cli

    setups, orig = [], analysis.setup_level

    def setup_level(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return orig(*args, **kwargs)
        finally:
            setups.append(time.perf_counter() - t0)

    cli.setup_level = analysis.setup_level = setup_level
    w = workloads.WORKLOADS[workload]
    cfg = workloads.config(w, seed, Path(work) / "out")
    if mesh:
        cfg["mesh_sizes"] = list(mesh)
    path = Path(work) / "config.json"
    path.write_text(json.dumps(cfg))
    reply = sys.stdout
    for _ in sys.stdin:
        setups.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = cli.main([w.command, "--config", str(path)])
            run_s = time.perf_counter() - t0
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reply.write(json.dumps({"rc": rc, "run_s": run_s, "setup_s": sum(setups),
                                "peak_rss_mb": rss}) + "\n")
        reply.flush()


class _Worker:
    """A serve() process on one tree."""

    def __init__(self, src: Path, args, work: Path):
        work.mkdir()
        call = (f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import ab; "
                f"ab.serve({str(src)!r}, {args.workload!r}, {args.seed}, {args.mesh!r}, "
                f"{str(work)!r})")
        env = dict(os.environ, PYTHONHASHSEED="0")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            env[var] = str(len(os.sched_getaffinity(0)))     # as perfbench/run.py
        self.proc = subprocess.Popen([sys.executable, "-c", call], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, env=env)

    def run(self) -> dict:
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def paired(a: list, b: list, rng: random.Random) -> dict:
    """Medians of both sides, the median ratio b/a of the pairs with a
    bootstrap 95% interval, and the share of the pairs in which b is lower."""
    ratios = [y / x for x, y in zip(a, b)]
    boot = sorted(statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(2000))
    return {"a_median": statistics.median(a), "b_median": statistics.median(b),
            "median_ratio": statistics.median(ratios), "ci95": [boot[49], boot[1949]],
            "b_lower": sum(y < x for x, y in zip(a, b)) / len(ratios)}


def measure(args) -> dict:
    """Run the pairs and summarize them."""
    load = {"start": list(os.getloadavg())}
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        workers = []
        for name, src in (("a", args.parent), ("b", args.change)):
            workers.append(_Worker(src, args, Path(tmp) / name))
            stack.callback(workers[-1].close)
        a, b = workers
        a.run()
        b.run()
        pairs, start = [], time.perf_counter()
        while True:
            t0 = time.perf_counter()
            first, second = (a, b) if len(pairs) % 2 == 0 else (b, a)
            one, two = first.run(), second.run()
            pairs.append((one, two) if first is a else (two, one))
            spent = time.perf_counter() - start
            if spent + (time.perf_counter() - t0) > args.seconds:
                break
    good = [(x, y) for x, y in pairs if x["rc"] == 0 and y["rc"] == 0]
    rng = random.Random(0)
    out = {"workload": args.workload, "seed": args.seed, "pairs": len(good)}
    if good:
        for m in METRICS:
            out[m] = paired([x[m] for x, _ in good], [y[m] for _, y in good], rng)
    rss = {side: pairs[-1][i]["peak_rss_mb"] for i, side in enumerate("ab")}
    out["peak_rss_mb"] = {**rss, "diff": rss["b"] - rss["a"]}
    out["failed"] = {side: sum(p[i]["rc"] != 0 for p in pairs) for i, side in enumerate("ab")}
    out["loadavg"] = {**load, "end": list(os.getloadavg())}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="src directory of side A")
    ap.add_argument("change", type=Path, help="src directory of side B")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mesh", type=lambda s: [int(n) for n in s.split(",")],
                    help="mesh sizes in place of the workload's, e.g. 8,16")
    args = ap.parse_args(argv)
    for src in (args.parent, args.change):
        if not (src / "frenet_ife").is_dir():
            ap.error(f"{src} holds no frenet_ife package")
    sys.path.insert(0, str(PERFBENCH))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload}; one of {sorted(workloads.WORKLOADS)}")
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
