"""Span tracer that wraps the package's public functions from outside.

Nothing under ``src/`` knows about it: ``Tracer.install`` replaces each
name where its caller looks it up (``cli.assemble``, ``ife_space.
cut_cell_rules``, class methods such as ``FrenetChart.inverse``) with a
timing wrapper, and ``Tracer.restore`` puts the originals back.

Two kinds of wrapped call:

* span calls (stages, per-element and per-edge routines) each record
  (id, name, start, end, parent id) in memory;
* per-point leaf calls (curve evaluations, basis ``evaluate``, the chart's
  inverse and signed-distance estimate) are aggregated as count, points
  and busy time under their enclosing span, so the trace stays small.

Every wrapped call, span or leaf, keeps a running total of its direct
children's time, so each layer's self time (duration minus wrapped
children) partitions the root span exactly.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np
import scipy.sparse.linalg

from frenet_ife import analysis, assembly, cli, curves, frenet, ife_space, laplacian

LAYERS = ("mesh", "curves", "frenet", "laplacian", "quadrature", "ife_space",
          "assembly", "analysis", "cli")


def _npoints(arr) -> int:
    return int(np.atleast_2d(np.asarray(arr)).shape[0])


def _nparams(arr) -> int:
    return int(np.size(arr))


# (owner, attribute, traced name, leaf?, point counter taking the call's
#  positional arguments without self).  An owner is a module whose global the
# caller reads, or a class whose method the caller looks up on an instance.
PATCHES = [
    (cli, "convergence_study", "analysis.convergence_study", False, None),
    (cli, "trace_probe_study", "analysis.trace_probe_study", False, None),
    (cli, "setup_level", "analysis.setup_level", False, None),
    (cli, "auto_sigma0", "assembly.auto_sigma0", False, None),
    (cli, "assemble", "assembly.assemble", False, None),
    (cli, "solve", "assembly.solve", False, None),
    (cli, "error_norms", "analysis.error_norms", False, None),
    (analysis, "setup_level", "analysis.setup_level", False, None),
    (analysis, "build_mesh", "mesh.build_mesh", False, None),
    (analysis, "classify_elements", "mesh.classify_elements", False, None),
    (analysis, "build_spaces", "ife_space.build_spaces", False, None),
    (analysis, "auto_sigma0", "assembly.auto_sigma0", False, None),
    (analysis, "assemble", "assembly.assemble", False, None),
    (analysis, "solve", "assembly.solve", False, None),
    (analysis, "error_norms", "analysis.error_norms", False, None),
    (analysis, "trace_constant", "assembly.trace_constant", False, None),
    (analysis, "edge_segments", "assembly.edge_segments", False, None),
    (assembly, "trace_constant", "assembly.trace_constant", False, None),
    (assembly, "edge_segments", "assembly.edge_segments", False, None),
    (assembly, "cut_edge_rule", "quadrature.cut_edge_rule", False, None),
    (ife_space, "build_x0", "ife_space.build_x0", False, None),
    (ife_space, "cut_cell_rules", "quadrature.cut_cell_rules", False, None),
    (ife_space, "space_diagnostics", "ife_space.space_diagnostics", False, None),
    (laplacian.FrenetLaplacian, "coefficient_jets", "laplacian.coefficient_jets",
     False, None),
    (ife_space.TensorBasis, "evaluate", "ife_space.eval_plain", True,
     lambda a: _npoints(a[0])),
    (ife_space.IfeBasis, "evaluate", "ife_space.eval_ife", True,
     lambda a: _npoints(a[0])),
    (frenet.FrenetChart, "inverse", "frenet.inverse", True,
     lambda a: _npoints(a[0])),
    (frenet.FrenetChart, "signed_distance_estimate", "frenet.sdist", True,
     lambda a: _npoints(a[0])),
] + [(cls, meth, "curves.eval", True, lambda a: _nparams(a[0]))
     for cls in (curves.TrigCurve, curves.LineCurve)
     for meth in ("point", "velocity", "accel", "jerk")]


class _Frame:
    __slots__ = ("span", "start", "child")

    def __init__(self, span):
        self.span = span
        self.start = 0.0
        self.child = 0.0


class _SplaProxy:
    """Stands in for ``assembly.spla``: ``spsolve`` becomes ``splu`` + solve
    (same default COLAMD ordering) so the LU fill L.nnz + U.nnz is read off
    the factorization that actually ran."""

    def __init__(self, tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(scipy.sparse.linalg, name)

    def spsolve(self, A, b):
        lu = scipy.sparse.linalg.splu(A)
        self._tracer.systems.append((A.shape[0], A.nnz, lu.L.nnz + lu.U.nnz))
        return lu.solve(b)


class Tracer:
    """In-memory spans and aggregates of one traced command."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []                       # [id, name, start, end, parent]
        self.leaf = {}                        # (parent id, name) -> [calls, points, busy]
        self.calls = defaultdict(int)
        self.points = defaultdict(int)
        self.busy = defaultdict(float)        # inclusive, outermost call per name
        self.self_time = defaultdict(float)   # per layer
        self.classified = []                  # (elements, cut elements) per call
        self.cut_cells = set()
        self.systems = []                     # (dofs, nnz, L+U nnz) per solve
        self._stack = []
        self._depth = defaultdict(int)
        self._saved = []

    # -- wrapping --------------------------------------------------------------
    def _wrap(self, fn, name, leaf, count_points, bound):
        tracer = self

        def wrapper(*args, **kwargs):
            pos = args[1:] if bound else args
            return tracer._call(fn, name, leaf, count_points, pos, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _call(self, fn, name, leaf, count_points, pos, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        enclosing = self._enclosing_span()
        span = None
        if not leaf:
            span = len(self.spans)
            self.spans.append([span, name, 0.0, 0.0, enclosing])
        frame = _Frame(span)
        self._stack.append(frame)
        self._depth[name] += 1
        frame.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._depth[name] -= 1
            dur = end - frame.start
            self.self_time[name.split(".", 1)[0]] += dur - frame.child
            if parent is not None:
                parent.child += dur
            self.calls[name] += 1
            if self._depth[name] == 0:
                self.busy[name] += dur
            npts = count_points(pos) if count_points is not None else 0
            self.points[name] += npts
            if leaf:
                agg = self.leaf.setdefault((enclosing, name), [0, 0, 0.0])
                agg[0] += 1
                agg[1] += npts
                agg[2] += dur
            else:
                rec = self.spans[span]
                rec[2], rec[3] = frame.start, end
        self._observe(name, pos, result)
        return result

    def _enclosing_span(self):
        # leaf frames carry span None, so skip to the nearest span frame
        for f in reversed(self._stack):
            if f.span is not None:
                return f.span
        return None

    def _observe(self, name, pos, result):
        if name == "mesh.classify_elements":
            self.classified.append((len(result.tags), result.n_interface))
        elif name == "quadrature.cut_cell_rules":
            mesh, e = pos[0], pos[1]
            self.cut_cells.add((mesh.box, mesh.nx, mesh.ny, int(e)))

    def install(self):
        for owner, attr, name, leaf, count_points in PATCHES:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, leaf, count_points,
                                            bound=isinstance(owner, type)))
        self._saved.append((assembly, "spla", assembly.spla))
        assembly.spla = _SplaProxy(self)

    def restore(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def run(self, fn, *args):
        """Call fn under a root span named ``cli.main``."""
        wrapped = self._wrap(fn, "cli.main", False, None, bound=False)
        return wrapped(*args)

    # -- reporting ---------------------------------------------------------------
    def write_spans(self, path):
        leaf = [[parent, name, calls, pts, busy]
                for (parent, name), (calls, pts, busy) in self.leaf.items()]
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "span_fields": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans,
                       "leaf_fields": ["parent", "name", "calls", "points", "busy_s"],
                       "leaf": leaf}, fh)

    def coverage(self) -> float:
        """Share of the root span covered by its direct child spans."""
        root = self.spans[0]
        covered = sum(s[3] - s[2] for s in self.spans if s[4] == root[0])
        return covered / (root[3] - root[2])

    def layer_metrics(self) -> dict:
        c, p, b = self.calls, self.points, self.busy
        dofs, nnz, fill = (int(v) for v in max(self.systems, default=(0, 0, 0)))
        inv_s = b["frenet.inverse"]
        m = {
            "mesh.classify_s": b["mesh.classify_elements"],
            "mesh.elements": sum(n for n, _ in self.classified),
            "mesh.cut_elements": sum(k for _, k in self.classified),
            "curves.eval_calls": c["curves.eval"],
            "curves.eval_points": p["curves.eval"],
            "curves.eval_s": b["curves.eval"],
            "frenet.inverse_calls": c["frenet.inverse"],
            "frenet.inverse_points": p["frenet.inverse"],
            "frenet.inverse_s": inv_s,
            "frenet.inverse_points_per_s": p["frenet.inverse"] / inv_s if inv_s else 0.0,
            "frenet.sdist_calls": c["frenet.sdist"],
            "frenet.sdist_points": p["frenet.sdist"],
            "frenet.sdist_s": b["frenet.sdist"],
            "laplacian.jets_calls": c["laplacian.coefficient_jets"],
            "laplacian.jets_s": b["laplacian.coefficient_jets"],
            "quadrature.cut_cell_calls": c["quadrature.cut_cell_rules"],
            "quadrature.cut_cell_ms": _per_call_ms(b, c, "quadrature.cut_cell_rules"),
            "quadrature.cut_cell_reuse": (c["quadrature.cut_cell_rules"] / len(self.cut_cells)
                                          if self.cut_cells else 0.0),
            "quadrature.edge_rule_calls": c["quadrature.cut_edge_rule"],
            "quadrature.edge_rule_s": b["quadrature.cut_edge_rule"],
            "ife_space.spaces_s": b["ife_space.build_spaces"],
            "ife_space.build_x0_ms": _per_call_ms(b, c, "ife_space.build_x0"),
            "ife_space.eval_plain_calls": c["ife_space.eval_plain"],
            "ife_space.eval_plain_points": p["ife_space.eval_plain"],
            "ife_space.eval_plain_s": b["ife_space.eval_plain"],
            "ife_space.eval_ife_calls": c["ife_space.eval_ife"],
            "ife_space.eval_ife_points": p["ife_space.eval_ife"],
            "ife_space.eval_ife_s": b["ife_space.eval_ife"],
            "ife_space.diagnostics_s": b["ife_space.space_diagnostics"],
            "assembly.sigma_s": b["assembly.auto_sigma0"],
            "assembly.trace_constant_calls": c["assembly.trace_constant"],
            "assembly.trace_constant_s": b["assembly.trace_constant"],
            "assembly.assemble_s": b["assembly.assemble"],
            "assembly.edge_segments_calls": c["assembly.edge_segments"],
            "assembly.solve_s": b["assembly.solve"],
            "assembly.dofs": dofs,
            "assembly.nnz": nnz,
            "assembly.lu_fill": fill,
            "analysis.setup_level_s": b["analysis.setup_level"],
            "analysis.error_norms_s": b["analysis.error_norms"],
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.self_time[layer]
        m["trace.run_s"] = b["cli.main"]
        m["trace.spans"] = len(self.spans)
        m["trace.top_coverage"] = self.coverage()
        return m


def _per_call_ms(busy, calls, name):
    return 1000.0 * busy[name] / calls[name] if calls[name] else 0.0
