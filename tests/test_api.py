"""Each kernel has one public entry: a module that defines ``X_values`` or
``X_of_values`` defines no public ``X`` beside it (a ``GridFunction`` twin
is one more name to test, trace and document)."""

import ast
import pathlib

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
