"""Each kernel has one public entry: a module that defines ``X_values`` or
``X_of_values`` defines no public ``X`` beside it (a ``GridFunction`` twin
is one more name to test, trace and document).  Each error class is
raised somewhere and exported, so a dead one shows up at once."""

import ast
import pathlib

import symcrit

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "symcrit"

# BENCHMARK.json traces and times symmetrize.schwarz, and perfbench/probe.py
# calls it on a GridFunction; it goes once the benchmark names move
ALLOWED = {("symmetrize", "schwarz")}


def test_one_public_entry_per_kernel():
    twins = []
    for path in sorted(SRC.glob("*.py")):
        if path.name.startswith("__"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        public = {node.name for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and not node.name.startswith("_")}
        twins += [(path.stem, name) for name in sorted(public)
                  if {f"{name}_values", f"{name}_of_values"} & public]
    assert set(twins) - ALLOWED == set(), twins
    # the allowance names a twin that still exists
    assert set(twins) == ALLOWED


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Name):
        return exc.id
    return exc.attr if isinstance(exc, ast.Attribute) else None


def test_every_error_class_is_raised():
    errors = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in errors.body
               if isinstance(node, ast.ClassDef)} - {"SymcritError"}
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        raised |= {_raised_name(node) for node in ast.walk(tree)
                   if isinstance(node, ast.Raise) and node.exc is not None}
    assert classes - raised == set(), "never raised"
    assert classes - set(symcrit.__all__) == set(), "missing from __all__"
