"""Smoke test of tools/compare_outputs.py on two small output trees."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _compare(a, b):
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "compare_outputs.py"),
                          str(a), str(b)], capture_output=True, text=True, timeout=60)
    return out.returncode, out.stdout.splitlines()


def _tree(root: Path, l2: float, binary: bytes, extra: bool):
    run = root / "conv-p1-s0"
    run.mkdir(parents=True)
    (run / "errors.csv").write_text(f"n,h,l2\n8,0.25,0.5\n16,0.125,{l2!r}\n")
    (run / "report.json").write_text(json.dumps({"levels": [{"n": 8, "name": "circle"}]}))
    (run / "coefficients.npy").write_bytes(binary)
    (run / "resolved_config.json").write_text(json.dumps({"out_dir": str(run)}))
    (root / "conv-p1-s0.json").write_text(json.dumps({"out_dir": str(run)}))
    if extra:
        (run / "space_diagnostics.csv").write_text("element,gram_cond\n3,12.5\n")


def test_compare_reports_same_numbers_differs_and_missing(tmp_path):
    l2 = 0.0123
    _tree(tmp_path / "a", l2, b"\x93NUMPY\x00\x01", extra=True)
    _tree(tmp_path / "b", float(np.nextafter(l2, 1.0)), b"\x93NUMPY\x00\x02", extra=False)
    rc, lines = _compare(tmp_path / "a", tmp_path / "b")
    ulp = (np.nextafter(l2, 1.0) - l2) / np.nextafter(l2, 1.0)
    assert rc == 1
    assert lines == ["differs conv-p1-s0/coefficients.npy",
                     f"numbers {ulp:.3g} conv-p1-s0/errors.csv:2/l2",
                     "same conv-p1-s0/report.json",
                     "missing conv-p1-s0/space_diagnostics.csv",
                     f"largest {ulp:.3g}"]


def test_compare_exits_0_when_only_numbers_move(tmp_path):
    _tree(tmp_path / "a", 0.0123, b"\x00", extra=True)
    _tree(tmp_path / "b", 0.0124, b"\x00", extra=True)
    rc, lines = _compare(tmp_path / "a", tmp_path / "b")
    assert rc == 0
    assert lines[1] == f"numbers {0.0001 / 0.0124:.3g} conv-p1-s0/errors.csv:2/l2"
    assert lines[-1] == f"largest {0.0001 / 0.0124:.3g}"
    assert _compare(tmp_path / "a", tmp_path / "a") == (
        0, [f"same conv-p1-s0/{f}" for f in ("coefficients.npy", "errors.csv",
                                            "report.json", "space_diagnostics.csv")]
        + ["largest 0"])
