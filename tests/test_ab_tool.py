"""Smoke test of tools/ab.py: an A/A run of one tree against itself."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_reports_paired_ratios_of_one_tree_against_itself():
    src = str(ROOT / "src")
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), src, src,
                          "--workload", "probe-trace-p2", "--mesh", "8", "--seconds", "2"],
                         capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(out.stdout)
    assert set(report) == {"workload", "seed", "pairs", "run_s", "setup_s", "peak_rss_mb",
                           "failed", "loadavg"}
    assert report["failed"] == {"a": 0, "b": 0} and report["pairs"] >= 3
    for metric in ("run_s", "setup_s"):
        stats = report[metric]
        assert set(stats) == {"a_median", "b_median", "median_ratio", "ci95", "b_lower"}
        assert 0.0 <= stats["b_lower"] <= 1.0
        lo, hi = stats["ci95"]
        assert 0 < stats["a_median"] and 0 < stats["b_median"]
        assert 0 < lo <= stats["median_ratio"] <= hi
    rss = report["peak_rss_mb"]
    assert rss["diff"] == rss["b"] - rss["a"] and rss["a"] > 0
    load = report["loadavg"]
    assert set(load) == {"start", "end"}
    assert all(len(v) == 3 and min(v) >= 0.0 for v in load.values())
