"""The benchmark names functions of symcrit that no solve need call (a
traced run counts ``grid.norm_w1p`` although nothing in the library calls
it).  Deleting or renaming one makes a traced benchmark run exit with
"per-layer metrics missing", so every name it traces or probes must
resolve to a function here."""

import ast
import inspect
import json
import pathlib
import re

import symcrit

ROOT = pathlib.Path(__file__).resolve().parents[1]

# <layer>[.<fn>[.<method>]] followed by the quantity measured on it
METRIC = re.compile(r"(.+?)\.(calls|self_s|us_per_call(\.n\d+)?)$")

LAYERS = ("grid", "group", "functional", "symmetrize", "solver", "verify",
          "cli")


def traced_function(name):
    """The function that a traced run wraps as ``name``, or None: a public
    function defined in its layer module, a method of a class defined
    there, or splu, which the solver reaches through scipy.sparse.linalg."""
    if name == "solver.splu":
        return symcrit.solver.sparse_linalg.splu
    layer, *path = name.split(".")
    module = getattr(symcrit, layer)
    obj = module
    for attr in path:
        if attr.startswith("_"):
            return None
        obj = getattr(obj, attr, None)
    if inspect.isfunction(obj) and obj.__module__ == module.__name__:
        return obj
    return None


def test_every_traced_metric_names_a_function():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    unresolved = []
    for metric in spec["per_layer"]:
        match = METRIC.match(metric["name"])
        if match is None:
            # counts read from the payloads and the trace's own timings
            continue
        name = match.group(1)
        if name in LAYERS:
            continue
        if name == "cli.commands":
            # the self time of every cli.cmd_* function
            if not any(attr.startswith("cmd_") for attr in vars(symcrit.cli)):
                unresolved.append(metric["name"])
            continue
        if traced_function(name) is None:
            unresolved.append(metric["name"])
    assert unresolved == []


def test_every_probed_kernel_resolves():
    # the kernel probe binds the layer modules to local names and calls
    # functions through them and through ``symcrit``
    tree = ast.parse((ROOT / "perfbench" / "probe.py").read_text())
    roots = {"symcrit": symcrit,
             **{layer: getattr(symcrit, layer) for layer in LAYERS}}
    probe = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "kernel_probe")
    seen, unresolved = set(), []
    for node in ast.walk(probe):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if not chain or not isinstance(node, ast.Name) \
                or node.id not in roots:
            continue
        obj = roots[node.id]
        for attr in chain:
            obj = getattr(obj, attr, None)
        seen.add(".".join([node.id, *chain]))
        if obj is None:
            unresolved.append(".".join([node.id, *chain]))
    kernels = [key.value for node in ast.walk(probe)
               if isinstance(node, ast.Dict) for key in node.keys
               if isinstance(key, ast.Constant)]
    unresolved += [name for name in kernels if traced_function(name) is None]
    assert "symmetrize.schwarz" in seen and kernels
    assert unresolved == []
