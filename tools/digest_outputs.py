"""SHA-256 digests of every CLI output of the benchmark workloads, of the
classification and the cut-cell rules of the quadrature tests' placements,
and of the curve frame on the interface tests' curves.

    python3 tools/digest_outputs.py SRC [--seeds 0 3 7] [--work DIR]

Imports ``frenet_ife`` from the directory SRC (for example ``src`` of this
checkout, or of a second checkout to compare against) and runs, through
``frenet_ife.cli.main`` in this process:

- every workload of ``perfbench/workloads.py`` at each seed, with the config
  that workload's benchmark command receives (``solve`` with
  ``--dump-system``);
- ``probe-geometry`` on the default circle (n = 8..128) and on
  ellipse(0.7, 0.5) (n = 16..128);
- ``probe-coercivity`` on the default circle at n = 8, 16 and degrees 1 and
  2 (``coercivity-m1``, ``coercivity-m2``), the second level at the penalty
  the first probed;
- ``mesh.classify_elements`` on every placement of ``_RULE_CASES`` in
  ``tests/test_quadrature.py``, and ``quadrature.level_cut_cell_rules`` on
  its interface elements at q = 3..6.  These placements reach every path of
  the cut-cell kernel (vertex anchors and region splits included), which no
  workload does, and curves that no workload classifies (an ellipse, two
  flowers, an open line, and a circle through grid vertices, whose corner
  cuts are the chart's feet of zero-band samples);
- ``mesh.classify_elements`` on the placements of ``FAR_CORNERS``: the
  default circle at n = 128 and 256, and circle(3.0), which encloses the
  box, at n = 64.  Most of their grid corners lie far from the interface,
  where the classifier reads a corner's side instead of its offset;
- the segment table of ``ife_space.SpaceSet`` at degree 2 on every
  ``_RULE_CASES`` and ``FAR_CORNERS`` placement, and on the placements of
  ``NEAR_VERTEX``: circle(0.625 - 2.5e-7) at n = 16 and 32, which passes
  2.5e-7 inside grid vertices, closer than the seed polyline's sagitta
  error, so that the side of the segments beside those vertices tells the
  chart's sign from the polyline's;
- on each curve of ``_LEVEL_CURVES`` in ``tests/test_ife_space.py``, the
  curve's ``max_curvature`` and, at fixed parameters, ``FrenetChart.jacobian``
  and ``FrenetLaplacian.coefficient_jets`` to order 2.  These read the
  Frenet frame on every curve kind; the workloads read the jets only on
  the circle.

Prints first the OpenBLAS kernel that numpy's bundled OpenBLAS picked on
this host (``openblas-kernel SkylakeX``, or ``unknown`` where the library
does not say), since the outputs' bits depend on it; then one line
``<sha256>  <run>/<file>`` per output file, and one per command's exit code
and standard output; ``resolved_config.json`` is left
out, since it records the output directory.  Each line
``<sha256>  tags-<placement>`` (``_RULE_CASES`` and ``FAR_CORNERS``
placements alike) digests the element tags, then each
interface element's id, interval and its two cuts' edge, t, xi and point,
then the edges and then the t of the crossing arrays; each
cut-cell line ``<sha256>  rules-<placement>-q<q>`` digests the bytes of
each rule's points, weights, eta and xi, element by element, the plus side
first; each line ``<sha256>  segments-<placement>`` digests the segment
table's edge, first, side, points and weights arrays, in that order; each
line ``<sha256>  frame-<curve>`` digests the maximum
curvature, the Jacobians and the three jets, in that order.  The tags,
rules and segments lines read the record arrays of ``MeshTags.interface``,
``MeshTags.crossings``, ``quadrature.level_cut_cell_rules`` and the first
five of ``SpaceSet._segments``.  Two trees whose printouts are equal on one
host wrote byte-identical outputs, classifications, rules, segment tables
and frames there.
The outputs go to a temporary directory, or to ``--work`` when given
(kept).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TESTS = PERFBENCH.parent / "tests"

GEOMETRY = {
    "geometry-circle": ({"kind": "circle", "radius": 0.6}, [8, 16, 32, 64, 128]),
    "geometry-ellipse": ({"kind": "ellipse", "a": 0.7, "b": 0.5}, [16, 32, 64, 128]),
}
# (circle radius, n) of the classifications on the box [-1, 1]^2 whose grid
# corners lie mostly far from the interface
FAR_CORNERS = {"circle-n128": (0.6, 128), "circle-n256": (0.6, 256),
               "enclosing-circle-n64": (3.0, 64)}
# (circle radius, n) of the segment tables whose curve passes just inside
# grid vertices of the box [-1, 1]^2
NEAR_VERTEX = {"near-vertex-circle-n16": (0.625 - 2.5e-7, 16),
               "near-vertex-circle-n32": (0.625 - 2.5e-7, 32)}


def runs(workloads, seeds, work: Path):
    """(name, argv, output directory) of every command, configs written."""
    for seed in seeds:
        for w in workloads.WORKLOADS.values():
            out = work / f"{w.name}-s{seed}"
            cfg = work / f"{w.name}-s{seed}.json"
            cfg.write_text(json.dumps(workloads.config(w, seed, out)))
            extra = ["--dump-system"] if w.command == "solve" else []
            yield out.name, [w.command, "--config", str(cfg), *extra], out
    for name, (interface, sizes) in GEOMETRY.items():
        out = work / name
        cfg = work / f"{name}.json"
        cfg.write_text(json.dumps({"interface": interface, "mesh_sizes": sizes,
                                   "out_dir": str(out)}))
        yield name, ["probe-geometry", "--config", str(cfg)], out
    for m in (1, 2):
        out = work / f"coercivity-m{m}"
        yield out.name, ["probe-coercivity", "--mesh", "8,16", "--degree", str(m),
                         "--out", str(out)], out


def blas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS runs on this host (``SkylakeX``,
    ``Haswell``, ...), or ``unknown`` where its library does not export
    ``scipy_openblas_get_corename64_``."""
    import ctypes

    from numpy._core import _multiarray_umath

    get = getattr(ctypes.CDLL(_multiarray_umath.__file__), "scipy_openblas_get_corename64_", None)
    if get is None:
        return "unknown"
    get.restype = ctypes.c_char_p
    return get().decode()


def tags_digest(tags) -> str:
    """The sha256 of a MeshTags record, as the tags lines print it."""
    import numpy as np

    cut = tags.interface
    sha = hashlib.sha256(tags.tags.tobytes())
    for i, e in enumerate(cut.elements.tolist()):
        sha.update(np.array([e]).tobytes())
        sha.update(np.array(cut.interval[i], dtype=float).tobytes())
        for j in range(2):
            sha.update(np.array([cut.edge[i, j]]).tobytes())
            sha.update(np.array([cut.t[i, j], cut.xi[i, j]]).tobytes())
            sha.update(np.asarray(cut.point[i, j]).tobytes())
    for part in tags.crossings:       # the edges, then the t
        sha.update(part.tobytes())
    return sha.hexdigest()


def segments_digest(mesh, tags, chart) -> str:
    """The sha256 of the degree-2 segment table of a classified level, as
    the segments lines print it."""
    from frenet_ife.ife_space import build_spaces

    sha = hashlib.sha256()
    for part in build_spaces(mesh, tags, chart, 2, 1.0, 10.0)._segments()[:5]:
        sha.update(part.tobytes())
    return sha.hexdigest()


def rule_digests() -> list[str]:
    """Per _RULE_CASES placement, one line of its classification, one of
    its segment table and one per q of its cut-cell rules; then one line of
    the classification and one of the segment table per FAR_CORNERS
    placement, and one of the segment table per NEAR_VERTEX placement."""
    import numpy as np
    from frenet_ife.curves import circle
    from frenet_ife.frenet import FrenetChart
    from frenet_ife.mesh import build_mesh, classify_elements
    from frenet_ife.quadrature import level_cut_cell_rules
    from test_quadrature import _RULE_CASES

    lines = []
    for name, (curve, box, n, h) in _RULE_CASES.items():
        mesh = build_mesh(box, n)
        chart = FrenetChart(curve, h=h or mesh.h)
        tags = classify_elements(mesh, chart)
        lines.append(f"{tags_digest(tags)}  tags-{name}")
        lines.append(f"{segments_digest(mesh, tags, chart)}  segments-{name}")
        for q in (3, 4, 5, 6):
            sha = hashlib.sha256()
            *parts, count = level_cut_cell_rules(mesh, tags.interface, chart, q)
            for rule in zip(*(np.split(a, np.cumsum(count)[:-1]) for a in parts)):
                for part in rule:
                    sha.update(part.tobytes())
            lines.append(f"{sha.hexdigest()}  rules-{name}-q{q}")
    for name, (radius, n) in {**FAR_CORNERS, **NEAR_VERTEX}.items():
        mesh = build_mesh((-1, 1, -1, 1), n)
        chart = FrenetChart(circle(radius), h=mesh.h)
        tags = classify_elements(mesh, chart)
        if name in FAR_CORNERS:
            lines.append(f"{tags_digest(tags)}  tags-{name}")
        lines.append(f"{segments_digest(mesh, tags, chart)}  segments-{name}")
    return lines


def frame_digests() -> list[str]:
    """One line per _LEVEL_CURVES curve of its frame-derived quantities."""
    import numpy as np
    from frenet_ife.frenet import FrenetChart
    from frenet_ife.laplacian import FrenetLaplacian
    from frenet_ife.mesh import build_mesh
    from test_ife_space import _LEVEL_CURVES

    xi = np.linspace(-1.0, 7.0, 257)
    lines = []
    for name, (curve, box, n) in _LEVEL_CURVES.items():
        chart = FrenetChart(curve, h=build_mesh(box, n).h)
        sha = hashlib.sha256(np.float64(curve.max_curvature).tobytes())
        sha.update(chart.jacobian(np.linspace(-chart.h, chart.h, len(xi)), xi).tobytes())
        for jet in FrenetLaplacian(chart).coefficient_jets(xi, 2):
            sha.update(jet.tobytes())
        lines.append(f"{sha.hexdigest()}  frame-{name.replace(' ', '-')}")
    return lines


def digest(src: Path, seeds, work: Path) -> list[str]:
    sys.path[:0] = [str(src.resolve()), str(PERFBENCH), str(TESTS)]
    import workloads
    from frenet_ife import cli

    lines = [f"openblas-kernel {blas_kernel()}"]
    for name, argv, out in runs(workloads, seeds, work):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(argv)
        sha = hashlib.sha256(f"exit {rc}\n{stdout.getvalue()}".encode()).hexdigest()
        lines.append(f"{sha}  {name}/<exit code and stdout>")
        for path in sorted(out.iterdir()):
            if path.name != "resolved_config.json":
                lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}/{path.name}")
    return lines + rule_digests() + frame_digests()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="directory that holds the frenet_ife package")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 3, 7])
    parser.add_argument("--work", type=Path, help="keep the outputs here")
    args = parser.parse_args(argv)
    if not (args.src / "frenet_ife").is_dir():
        parser.error(f"{args.src} holds no frenet_ife package")
    with contextlib.ExitStack() as stack:
        work = args.work or Path(stack.enter_context(tempfile.TemporaryDirectory()))
        work.mkdir(parents=True, exist_ok=True)
        print("\n".join(digest(args.src, args.seeds, work)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
