import inspect
import json
import pathlib
import re

import symcrit
from symcrit import cli, grid

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use")[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    assert scope["report"].converged
    assert scope["check"].principle_holds
    level, holds = capsys.readouterr().out.split()
    assert float(level) == scope["report"].level and holds == "True"


def test_readme_names_only_known_config_keys():
    text = README.read_text(encoding="utf-8")
    keys = set(re.findall(
        r"\b(?:domain|group|integrand|model|solver|verify|run|output)"
        r"\.[a-z_]+", text))
    assert "solver.max_iterations" in keys
    assert keys <= cli._KNOWN_KEYS, sorted(keys - cli._KNOWN_KEYS)
    # and the converse: every accepted key is documented
    assert cli._KNOWN_KEYS <= keys, sorted(cli._KNOWN_KEYS - keys)


def _section(title):
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n")[1].split("\n## ")[0]


# the word for each domain kind in the Configuration block's comments
README_KINDS = {"square": "square", "disk": "disk-polar",
                "annulus": "annulus-polar", "ball": "radial-ball-1d"}


def test_readme_names_the_kinds_of_each_geometry_key():
    # each geometry key's comment opens with the kinds that take it
    block = re.search(r"```\n(.*?)```", _section("Configuration"),
                      re.S).group(1)
    named = {}
    for key, comment in re.findall(r"^domain\.(\w+) = .*?# (.*)$", block,
                                   re.M):
        words = set(re.findall(r"\w+", comment.split(":")[0]))
        named[key] = {README_KINDS[w] for w in words & README_KINDS.keys()}
    table = {}
    for kind, keys in grid.GEOMETRY.items():
        for key in keys:
            table.setdefault(key, set()).add(kind)
    assert {key: named[key] for key in table} == table


def _first_list(text):
    """The items of the first bulleted list in text, each on one line."""
    items = []
    for line in text.splitlines():
        if line.startswith("- "):
            items.append(line[2:])
        elif items and line.startswith("  "):
            items[-1] += " " + line.strip()
        elif items:
            break
    return items


def test_readme_lists_the_top_level_api():
    listed = set(re.findall(r"`(\w+)`",
                            " ".join(_first_list(_section("Library use")))))
    public = {name for name in symcrit.__all__
              if not inspect.ismodule(getattr(symcrit, name))
              and not (inspect.isclass(getattr(symcrit, name))
                       and issubclass(getattr(symcrit, name), Exception))}
    assert listed == public


def test_readme_lists_the_payloads_a_solve_writes(tmp_path):
    cfg = README.parent / "examples" / "radial_strauss.cfg"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path),
                     "--quiet"]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    listed = {re.match(r"`([^`]+)`", item).group(1)
              for item in _first_list(_section("Outputs"))}
    assert listed == set(manifest["files"]) | {"manifest.json"}
