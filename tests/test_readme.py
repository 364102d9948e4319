import pathlib
import re

from symcrit import cli

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
