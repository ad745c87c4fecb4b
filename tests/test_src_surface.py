"""Every function, method and class in src/ is reached from src/.

A definition that nothing in the package refers to (by a loaded name, a
loaded attribute or an import) runs only when a test calls it, so it is not
part of what the commands run.  The checks below are name-based: an
attribute `x.evaluate` counts for every `evaluate` of the package.
"""

import ast
from pathlib import Path

from test_bench_refs import _perfbench

SRC = Path(__file__).resolve().parents[1] / "src" / "frenet_ife"

# Definitions no command runs that tests compare the live code against.
TEST_REFERENCES = {
    # the operator coefficients and the chart's second xi-derivative, which
    # the coefficient jets reproduce
    ("laplacian", "FrenetLaplacian.coefficients"),
    ("laplacian", "FrenetLaplacian.map_second_xi_derivative"),
    ("analysis", "case_jump_residuals"),      # the manufactured case's own jumps
    ("frenet", "ChordChart.transition"),      # T, whose Jacobian the probes use
    ("ife_space", "LocalScaling.xibar"),      # the scaled coordinates of X0
    ("ife_space", "LocalScaling.etabar"),
}


def _definitions():
    """{(module, qualified name)} of every function, method and class, the
    dunder methods left out (Python calls them)."""
    found = set()

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    found.add((module, name))
                walk(child, module, name + ".")
            else:
                walk(child, module, prefix)

    for path in SRC.glob("*.py"):
        walk(ast.parse(path.read_text()), path.stem, "")
    return found


def _references():
    """Every name that a loaded Name or Attribute, or an import, in src/ uses."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def _traced():
    """{(module, qualified name)} of what perfbench's tracer patches."""
    out = set()
    for owner, attr, *_ in _perfbench("tracer").PATCHES:
        obj = vars(owner)[attr]
        out.add((obj.__module__.rsplit(".", 1)[-1], obj.__qualname__))
    return out


def test_every_definition_in_src_is_referenced_from_src():
    refs = _references()
    unused = {(mod, name) for mod, name in _definitions()
              if name.rsplit(".", 1)[-1] not in refs}
    assert sorted(unused - _traced() - TEST_REFERENCES) == []


def test_allow_lists_name_live_definitions():
    # a stale exception would hide the next dead definition of that name
    defined = _definitions()
    assert TEST_REFERENCES <= defined
    assert _traced() <= defined
