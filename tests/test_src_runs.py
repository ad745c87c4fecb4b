"""Every statement in a function of src/ runs when the commands run.

The commands run in this process at their smallest sizes under a
``sys.settrace`` line tracer.  A function-body statement of src/ that none
of them runs is code only a test runs, or code nothing runs; the checks fail
on it unless ``ALLOWED`` below names its function and counts it.  ``raise``
statements are left out: the tests that provoke each error cover them.
"""

import ast
import json
import sys
from pathlib import Path

import pytest

import frenet_ife
from frenet_ife import cli

SRC = Path(frenet_ife.__file__).parent
TESTS = Path(__file__).resolve().parent

# (argv, config, exit code) of each command run; mesh sizes are the
# smallest the config accepts, or that still give a rate or a slope.
COMMANDS = [
    (["convergence", "--mesh", "8,16", "--degree", "1"], {}, 0),
    (["convergence", "--mesh", "8,16", "--degree", "2"], {}, 0),
    (["solve", "--mesh", "8", "--degree", "3", "--dump-system"], {}, 0),
    (["solve", "--mesh", "8", "--degree", "1", "--sigma0", "20"], {}, 0),
    # a circle that encloses the domain: a level with no interface element
    (["solve", "--mesh", "8", "--degree", "1"], {"interface": {"kind": "circle", "radius": 3.0}}, 0),
    (["probe-trace", "--mesh", "8,16", "--degree", "2"], {}, 0),
    (["probe-coercivity", "--mesh", "8", "--degree", "2"], {}, 0),
    (["probe-coercivity", "--mesh", "8", "--degree", "1", "--sigma0", "20"], {}, 0),
    (["probe-geometry", "--mesh", "8,16"], {}, 0),
    (["probe-geometry", "--mesh", "16,32"],
     {"interface": {"kind": "ellipse", "a": 0.7, "b": 0.5}}, 0),
    (["probe-geometry", "--mesh", "16,32"],
     {"interface": {"kind": "flower", "r0": 0.5, "amp": 0.05, "petals": 3}}, 0),
    (["probe-geometry", "--mesh", "16,32"],
     {"interface": {"kind": "trig", "ax": [0.05, 0.6], "bx": [0.0, 0.0, 0.04],
                    "ay": [0.0, 0.0, 0.03], "by": [0.0, 0.5]}}, 0),
    (["probe-geometry", "--mesh", "8,16"],
     {"interface": {"kind": "line", "origin": [0.0, 0.013], "direction": [1.0, 0.21]}}, 0),
    # a configuration error, and runs that fail: no interface element, and
    # an interface through a mesh vertex
    (["solve", "--mesh", "8"], {"beta_minus": -1.0}, 2),
    (["probe-trace", "--mesh", "8"], {"interface": {"kind": "circle", "radius": 3.0}}, 1),
    (["solve", "--mesh", "16", "--degree", "1"],
     {"interface": {"kind": "circle", "radius": 0.625}}, 1),
]

# The statements no command runs, by function: (module, function) ->
# (how many, why, the tests that run them).  A test that no longer runs
# them, or a count that changes, fails the checks below.
ALLOWED = {
    # perfbench/tracer.py patches these names (or reads them through one it
    # patches), so they stay while it does; the commands do the same work
    # through the level kernels
    ("assembly", "edge_segments"): (
        5, "tracer-pinned; the per-edge segments of the tests' reference loops",
        ["test_quadrature_table.py::test_assembly_bitwise_equal_to_element_loops"]),
    ("quadrature", "cut_edge_rule"): (
        10, "tracer-pinned; edge_segments is its only caller",
        ["test_quadrature.py::test_cut_edge_rule_uncut_and_midpoint"]),
    ("quadrature", "cut_cell_rules"): (
        3, "tracer-pinned; level_cut_cell_rules on one element",
        ["test_quadrature.py::test_cut_cell_tiling_on_thin_crescents"]),
    ("curves", "LineCurve.jerk"): (
        1, "tracer-pinned; the jets that read it build interface bases, and "
        "no command builds them on a line",
        ["test_ife_space.py::test_level_x0_and_weak_residuals_bitwise_equal_to_loop_oracle"]),
    # robustness paths that only placements built by tests reach
    ("quadrature", "level_cut_cell_rules"): (
        13, "a region no candidate anchor sees is split; no command's level needs it",
        ["test_quadrature.py::test_cut_cell_tiling_on_thin_crescents",
         "test_quadrature.py::test_degenerate_partition_names_the_element"]),
    ("quadrature", "_closest_on_polyline"): (
        7, "called only for a region split",
        ["test_quadrature.py::test_cut_cell_tiling_on_thin_crescents"]),
    ("frenet", "FrenetChart._newton"): (
        4, "a damped step, a backtracking that gives up (30 halvings that all "
        "raise the residual) and the iteration cap; no command's point needs them",
        ["test_frenet.py::test_inverse_bitwise_equal_to_loop_oracle",
         "test_frenet.py::test_backtracking_give_up_matches_loop_oracle",
         "test_frenet.py::test_newton_divergence_on_iteration_cap"]),
    # the lines that build an error's message
    ("mesh", "_polish_roots"): (
        2, "a crossing that is tangent, diverged or off its edge",
        ["test_mesh.py::test_polish_raises_for_the_first_failing_root_tangency_first"]),
    ("assembly", "trace_constant"): (
        1, "a repeated element",
        ["test_quadrature_table.py::test_trace_constant_refuses_repeated_elements"]),
    ("cli", "main"): (
        1, "an error.json that cannot be written; the config phase makes the "
        "output directory before a command can fail",
        ["test_config_cli.py::test_runtime_error_with_an_unwritable_output_still_exits_1"]),
}


def _simple(stmts):
    """The simple statements among stmts and the blocks of the compound ones,
    nested definitions, docstrings and raises left out."""
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Raise)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        blocks = [child.body if isinstance(child, (ast.excepthandler, ast.match_case))
                  else [child] for child in ast.iter_child_nodes(stmt)
                  if isinstance(child, (ast.stmt, ast.excepthandler, ast.match_case))]
        if blocks:
            for block in blocks:
                yield from _simple(block)
        else:
            yield stmt


def _statements():
    """{(module, function): [(first line, last line, first source line)]} of
    the simple statements in every function body of src/."""
    found = {}

    def walk(node, module, prefix, lines):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    found[module, name] = [(s.lineno, s.end_lineno, lines[s.lineno - 1].strip())
                                           for s in _simple(child.body)]
                walk(child, module, name + ".", lines)

    for path in sorted(SRC.glob("*.py")):
        src = path.read_text()
        walk(ast.parse(src), path.stem, "", src.splitlines())
    return found


def _run_commands(tmp_path):
    """{(module, line)} of every src/ line the commands ran."""
    ran = set()
    files = {str(path): path.stem for path in SRC.glob("*.py")}

    def local(frame, event, arg):
        if event == "line":
            ran.add((files[frame.f_code.co_filename], frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    # empty the package's memoized functions, whose bodies the tests that
    # ran before may have left cached
    for module in [m for name, m in sys.modules.items() if name.startswith("frenet_ife.")]:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    for i, (argv, config, code) in enumerate(COMMANDS):
        cfg = tmp_path / f"c{i}.json"
        cfg.write_text(json.dumps(config))
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            rc = cli.main([*argv, "--config", str(cfg), "--out", str(tmp_path / f"o{i}")])
        finally:
            sys.settrace(previous)
        assert rc == code, argv
    return ran


@pytest.fixture(scope="module")
def unrun(tmp_path_factory):
    """{(module, function): [(line, source)]} of the statements no command ran."""
    ran = _run_commands(tmp_path_factory.mktemp("runs"))
    out = {}
    for (module, name), stmts in _statements().items():
        for first, last, text in stmts:
            if not any((module, line) in ran for line in range(first, last + 1)):
                out.setdefault((module, name), []).append((first, text))
    return out


def test_every_src_statement_runs_in_some_command(unrun):
    left = {key: lines for key, lines in unrun.items() if key not in ALLOWED}
    assert left == {}


def test_allowed_counts_match_the_unrun_statements(unrun):
    # a count that falls must fall in ALLOWED too, so that it cannot hide
    # the next unrun statement of that function
    assert {key: len(unrun.get(key, [])) for key in ALLOWED} == \
        {key: count for key, (count, _, _) in ALLOWED.items()}


def test_allowed_entries_name_tests_that_exist():
    for _, _, tests in ALLOWED.values():
        for test in tests:
            path, name = test.split("::")
            tree = ast.parse((TESTS / path).read_text())
            assert any(isinstance(node, ast.FunctionDef) and node.name == name
                       for node in tree.body), test
