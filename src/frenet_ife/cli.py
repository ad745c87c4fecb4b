"""Command-line entry points: solve, convergence, and the probe commands.

Every command reads one JSON config (plus flag overrides), writes the
resolved configuration next to its outputs, and emits plot-ready CSV/JSON.
Exit codes: 0 success, 2 configuration error (an output directory that
cannot be made included), 1 runtime failure (with a machine-readable
error.json in the output directory when possible).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

# setup_level and auto_sigma0 are unused here, but perfbench/tracer.py patches them in cli
from .analysis import (coercivity_probe, convergence_study, error_norms,  # noqa: F401
                       geometry_probes, level_chain, setup_level, trace_probe_study)
from .assembly import assemble, auto_sigma0, solve  # noqa: F401
from .config import RunConfig
from .errors import FrenetIfeError


def _load_config(args) -> RunConfig:
    cfg = RunConfig.load(args.config) if args.config else RunConfig()
    if args.mesh:
        cfg.mesh_sizes = [int(n) for n in args.mesh.split(",")]
    if args.degree is not None:
        cfg.degree = args.degree
    if args.sigma0 is not None:
        cfg.sigma0 = "auto" if args.sigma0 == "auto" else float(args.sigma0)
    if args.out is not None:
        cfg.out_dir = args.out
    return cfg


def _prepare_out(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg.save(out / "resolved_config.json")
    return out


def _write_csv(path, rows, fields):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row.get(k)) for k in fields})


def _write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True))


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return v


REPORT_FIELDS = ["n", "h", "dofs", "l2", "norm_h", "energy",
                 "rate_l2", "rate_norm_h", "rate_energy"]


def _min_cut_fraction(spaces) -> float:
    """Smallest sub-region area fraction over all interface elements."""
    area = spaces.mesh.dx * spaces.mesh.dy
    return min((float(np.min(w.sum(axis=1) / area))
                for _, _, _, w, *_ in spaces.interface_stacks(True)), default=1.0)


def cmd_solve(cfg: RunConfig, out: Path, dump_system: bool = False) -> int:
    case = cfg.manufactured_case()
    n = cfg.mesh_sizes[0]
    spaces, sig, ct = next(level_chain(case, cfg.degree, [n], cfg.domain, cfg.sigma0, cfg.quad))
    system = assemble(spaces, sig, case.f, case.dirichlet)
    if dump_system:
        import scipy.io

        scipy.io.mmwrite(str(out / "system_S.mtx"), system.S.tocsr())   # entries row by row, as CSR
        scipy.io.mmwrite(str(out / "system_F.mtx"), system.F[:, None])
    coef = solve(system)
    errs = error_norms(coef, case, spaces, sig)
    np.save(out / "coefficients.npy", coef)
    row = {"n": n, "h": spaces.mesh.h, "dofs": spaces.n_dofs, **errs,
           "rate_l2": float("nan"), "rate_norm_h": float("nan"),
           "rate_energy": float("nan")}
    _write_csv(out / "errors.csv", [row], REPORT_FIELDS)

    from .ife_space import space_diagnostics

    diag = space_diagnostics(spaces)
    if diag:
        _write_csv(out / "space_diagnostics.csv", diag, list(diag[0]))
    mesh_summary = spaces.tags.summary()
    mesh_summary["min_cut_fraction"] = _min_cut_fraction(spaces)
    report = {"sigma0": float(sig), "trace_constant": ct,
              "mesh": mesh_summary, "errors": errs}
    _write_json(out / "solve_report.json", report)
    print(f"solve: n={n} m={cfg.degree} sigma0={sig:.6g} "
          f"L2={errs['l2']:.3e} energy={errs['energy']:.3e}")
    return 0


def cmd_convergence(cfg: RunConfig, out: Path) -> int:
    case = cfg.manufactured_case()
    report = convergence_study(case, cfg.degree, cfg.mesh_sizes, cfg.domain,
                               cfg.sigma0, cfg.quad)
    levels = report.pop("levels")
    _write_csv(out / "errors.csv", levels, REPORT_FIELDS)
    _write_json(out / "convergence_report.json", report)
    for row in levels:
        print(f"n={row['n']:4d} h={row['h']:.4e} L2={row['l2']:.3e} "
              f"energy={row['energy']:.3e} rate_L2={row['rate_l2']:.2f}")
    return 0


def cmd_probe_geometry(cfg: RunConfig, out: Path) -> int:
    probes = geometry_probes(cfg.curve(), cfg.mesh_sizes, cfg.domain)
    _write_json(out / "geometry_probes.json", probes)
    print(f"slopes: T-id {probes['slope_t_dev']:.2f}, "
          f"DT-I {probes['slope_dt_dev']:.2f}, det {probes['slope_det_dev']:.2f}")
    return 0


def cmd_probe_trace(cfg: RunConfig, out: Path) -> int:
    case = cfg.manufactured_case()
    probes = trace_probe_study(case, cfg.degree, cfg.mesh_sizes, cfg.domain, cfg.quad)
    _write_json(out / "trace_probes.json", probes)
    print(f"trace constant max/min over levels: {probes['max_ratio']:.3f}")
    return 0


def cmd_probe_coercivity(cfg: RunConfig, out: Path) -> int:
    case = cfg.manufactured_case()
    probes = coercivity_probe(case, cfg.degree, cfg.mesh_sizes, cfg.domain,
                              cfg.sigma0, cfg.quad)
    _write_json(out / "coercivity_probe.json", probes)
    print(f"coercivity min ratio {probes['min_ratio']:.3f} at sigma0={probes['sigma0']:.6g}")
    return 0


COMMANDS = {
    "solve": cmd_solve,
    "convergence": cmd_convergence,
    "probe-geometry": cmd_probe_geometry,
    "probe-trace": cmd_probe_trace,
    "probe-coercivity": cmd_probe_coercivity,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frenet-ife",
        description="Immersed finite elements in tubular coordinates with "
                    "interior-penalty DG for elliptic interface problems.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--mesh", help="comma-separated mesh sizes, e.g. 8,16,32")
    parser.add_argument("--degree", type=int, help="polynomial degree (1-3)")
    parser.add_argument("--sigma0", help="penalty constant or 'auto'")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--dump-system", action="store_true",
                        help="solve only: write the assembled matrix in MatrixMarket format")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.dump_system and args.command != "solve":
            raise ValueError(f"--dump-system is read by solve only, not by {args.command}")
        cfg = _load_config(args)
        (cfg.validate_run if args.command == "probe-geometry" else cfg.validate)()
        out = _prepare_out(cfg)
    except (ValueError, TypeError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    try:
        extra = {"dump_system": True} if args.dump_system else {}   # set for solve only
        return COMMANDS[args.command](cfg, out, **extra)
    except FrenetIfeError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        try:
            (out / "error.json").write_text(json.dumps(payload, indent=2))
        except OSError:
            pass
        return 1


if __name__ == "__main__":
    sys.exit(main())
