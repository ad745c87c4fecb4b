"""Every function, method, class and piece of object state in src/ is
reached from src/.

A definition that nothing in the package refers to (by a loaded name, a
loaded attribute or an import) runs only when a test calls it, so it is not
part of what the commands run; a dataclass field or an attribute stored on
`self` that nothing loads is state no command reads.  The checks below are
name-based: an attribute `x.evaluate` counts for every `evaluate` of the
package.  A method or a piece of state counts as referenced only through a
loaded attribute: a bare name `g` is a local or a function, never the
method `ChordChart.g`.  So the check cannot see state whose name other
objects load, such as a `chart` attribute next to `SpaceSet.chart`.
"""

import ast
from pathlib import Path

from test_bench_refs import _perfbench

SRC = Path(__file__).resolve().parents[1] / "src" / "frenet_ife"

# State no command reads that tests read, to check what the commands computed.
TEST_READ_STATE = {
    ("quadrature", "EdgeSegment.t0"),         # the span of an edge segment
    ("quadrature", "EdgeSegment.t1"),
}


def _definitions():
    """{(module, qualified name): whether it is a method} of every function,
    method and class, the dunder methods left out (Python calls them)."""
    found = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    found[module, name] = isinstance(node, ast.ClassDef)
                walk(child, module, name + ".")
            else:
                walk(child, module, prefix)

    for path in SRC.glob("*.py"):
        walk(ast.parse(path.read_text()), path.stem, "")
    return found


def _state():
    """{(module, class.attribute)} of every dataclass field and every
    attribute a method stores on self."""
    found = set()
    for path in SRC.glob("*.py"):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            if any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
                found.update((path.stem, f"{cls.name}.{node.target.id}") for node in cls.body
                             if isinstance(node, ast.AnnAssign))
            found.update((path.stem, f"{cls.name}.{node.attr}") for node in ast.walk(cls)
                         if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                         and isinstance(node.value, ast.Name) and node.value.id == "self")
    return found


def _references():
    """(every name that a loaded Name or Attribute, or an import, in src/
    uses; every name that a loaded Attribute uses)."""
    names, attrs = set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                attrs.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.split(".")[-1] for alias in node.names)
    return names | attrs, attrs


def _traced():
    """{(module, qualified name)} of what perfbench's tracer patches."""
    out = set()
    for owner, attr, *_ in _perfbench("tracer").PATCHES:
        obj = vars(owner)[attr]
        out.add((obj.__module__.rsplit(".", 1)[-1], obj.__qualname__))
    return out


def test_every_definition_in_src_is_referenced_from_src():
    refs, attrs = _references()
    unused = {(mod, name) for (mod, name), method in _definitions().items()
              if name.rsplit(".", 1)[-1] not in (attrs if method else refs)}
    assert sorted(unused - _traced()) == []


def test_all_state_in_src_is_read_from_src():
    _, attrs = _references()
    unread = {(mod, name) for mod, name in _state() if name.rsplit(".", 1)[-1] not in attrs}
    assert sorted(unread - TEST_READ_STATE) == []


def test_allow_lists_name_live_definitions():
    # a stale exception would hide the next dead definition of that name
    assert _traced() <= set(_definitions())
    assert TEST_READ_STATE <= _state()
