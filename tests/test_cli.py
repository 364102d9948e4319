import ast
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import symcrit
from symcrit import cli, config, grid, group

from conftest import poison_ray, poison_residual

SMALL_SOLVE = """\
domain.kind = square
domain.side = 6.0
domain.resolution = 9

group.label = dihedral_4

integrand.name = plaplace
integrand.p = 1.8

model.q = 3.0

solver.mode = restricted
solver.path_points = 12
solver.max_iterations = 20000
solver.grad_tol = 1e-8

run.seed = 0
output.dir = run
"""

PAYLOADS = ("criticality.json", "diagnostics.json", "record.csv",
            "solve_report.json", "u_final.csv")


def write_cfg(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """One full pipeline run shared by the artifact tests."""
    tmp = tmp_path_factory.mktemp("solve")
    cfg = write_cfg(tmp, SMALL_SOLVE)
    out = str(tmp / "run")
    rc = cli.main(["solve", "--config", cfg, "--out", out, "--quiet"])
    return rc, cfg, out


# ---------------------------------------------------------------------------
# solve pipeline


def test_solve_exit_zero_and_artifacts(solved):
    rc, _, out = solved
    assert rc == 0
    for name in PAYLOADS + ("manifest.json",):
        assert os.path.exists(os.path.join(out, name)), name


def test_solve_report_content(solved):
    _, _, out = solved
    rep = read_json(os.path.join(out, "solve_report.json"))
    assert rep["converged"] is True
    assert rep["mode"] == "restricted"
    assert rep["sweep_start"] is None
    assert rep["level"] > 0.0
    assert rep["record_length"] == rep["iterations"]
    assert rep["config"]["domain.resolution"] == 9
    crit = read_json(os.path.join(out, "criticality.json"))
    assert crit["principle_holds"] is True
    assert crit["tangential"] <= crit["tau_tan"]
    assert crit["transverse"] <= crit["tau_trans"]
    diag = read_json(os.path.join(out, "diagnostics.json"))
    assert diag["violations"] == []


def test_solve_report_names_the_stages(solved):
    _, _, out = solved
    rep = read_json(os.path.join(out, "solve_report.json"))
    stages = rep["stage_iterations"]
    assert set(stages) == {"ray", "polish", "sweep"}
    assert sum(stages.values()) == rep["iterations"]
    assert stages["ray"] > 0 and stages["sweep"] == 0
    ray = rep["ray_exit"]
    assert ray["status"] in ("converged", "stalled", "budget")
    # the polish runs only after a stall, outside direct mode
    assert (stages["polish"] > 0) == (ray["status"] == "stalled")
    if ray["status"] == "converged":
        assert ray["residual"] <= 1e-8


@pytest.mark.parametrize("mode", ["plain", "direct"])
def test_solve_keeps_scipy_optimize_unloaded(tmp_path, mode):
    # importing scipy.optimize costs about 16 MB of resident memory, more
    # than a solve at desk scale needs for everything else; the direct
    # sweep's cone projection needs it only for classes of several nodes,
    # and the ball has none (its gate passes on the modulated res-30 ball)
    text = TOY_BALL.replace("max_iterations = 10", "max_iterations = 5000")
    if mode == "direct":
        text = (text.replace("resolution = 2", "resolution = 30")
                .replace("plaplace", "modulated")
                .replace("mode = plain", "mode = direct")
                + "model.positivity = true\n")
    cfg = write_cfg(tmp_path, text)
    code = ("import sys; from symcrit import cli; "
            f"rc = cli.main(['solve', '--config', {cfg!r}, '--out', "
            f"{str(tmp_path / 'o')!r}, '--quiet']); "
            "print(rc, 'scipy.optimize' in sys.modules)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["0", "False"]


def test_verify_point_keeps_sparse_linalg_unloaded(solved, tmp_path):
    # only the solves factorize, so verify-point never needs
    # scipy.sparse.linalg (about 0.14 s of import)
    _, cfg, out = solved
    code = ("import sys; from symcrit import cli; "
            f"rc = cli.main(['verify-point', '--config', {cfg!r}, "
            f"{os.path.join(out, 'u_final.csv')!r}, '--quiet', '--out', "
            f"{str(tmp_path / 'o')!r}]); "
            "print(rc, 'scipy.sparse.linalg' in sys.modules)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["0", "False"]


def test_only_a_factorization_loads_scipy(tmp_path):
    # importing scipy.sparse alone costs about 22 MB of resident memory
    # and 0.3 s: importing symcrit, verify-point on a square, a disk and a
    # ball point and check-integrand factor nothing and load no scipy
    # module; a desk solve factors its 15 unknowns densely and loads none
    # either, while the first factorization of a system above
    # grid.DENSE_MAX_UNKNOWNS (the trivial quotient of square res 13, 169
    # unknowns) loads the sparse LU
    disk = SMALL_SOLVE.replace(
        "domain.kind = square\ndomain.side = 6.0\ndomain.resolution = 9\n",
        "domain.kind = disk-polar\ndomain.radius = 6.0\n"
        "domain.resolution = 4\ndomain.angular_resolution = 16\n").replace(
        "dihedral_4", "rotations_8")
    argvs = []
    for name, text in (("square", SMALL_SOLVE), ("disk", disk),
                       ("ball", TOY_BALL)):
        cfg = write_cfg(tmp_path, text, f"{name}.cfg")
        model = cli.build_model(config.read_config(cfg))
        point = str(tmp_path / f"{name}.csv")
        grid.write_gridfunction(symcrit.solver.default_psi(model.domain),
                                point)
        argvs.append(["verify-point", "--config", cfg, point, "--quiet",
                      "--out", str(tmp_path / name)])
    argvs.append(["check-integrand", "--config", write_cfg(
        tmp_path, "integrand.name = plaplace\nintegrand.p = 1.8\n"
        "model.q = 3.0\n", "integrand.cfg")])
    large = write_cfg(tmp_path, SMALL_SOLVE.replace(
        "resolution = 9", "resolution = 13").replace("dihedral_4", "trivial"),
        "large.cfg")
    code = (
        "import contextlib, io, sys; import symcrit\n"
        "def loaded():\n"
        "    return any(m == 'scipy' or m.startswith('scipy.') "
        "for m in sys.modules)\n"
        "print('import', loaded())\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = symcrit.cli.main(argv)\n"
        "    print(argv[0], rc, loaded())\n"
        f"rc = symcrit.cli.main(['solve', '--config', {argvs[0][2]!r}, "
        f"'--out', {str(tmp_path / 'solve')!r}, '--quiet'])\n"
        "print('solve', rc, loaded())\n"
        f"rc = symcrit.cli.main(['solve', '--config', {large!r}, "
        f"'--out', {str(tmp_path / 'large')!r}, '--quiet'])\n"
        "print('solve', rc, 'scipy.sparse.linalg' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    # the bumps are not critical points, so each check exits 3
    assert out == ["import False", "verify-point 3 False",
                   "verify-point 3 False", "verify-point 3 False",
                   "check-integrand 0 False", "solve 0 False",
                   "solve 0 True"]


def test_solves_and_checks_keep_numpy_ma_unloaded(tmp_path):
    # numpy.ma takes 11-17 ms and about a megabyte to import, and a bare
    # np.unique, np.union1d or np.median loads it: the desk square and
    # disk solves, compare-levels and verify-point load it nowhere
    disk = write_cfg(tmp_path, SMALL_SOLVE.replace(
        "domain.kind = square\ndomain.side = 6.0\ndomain.resolution = 9\n",
        "domain.kind = disk-polar\ndomain.radius = 6.0\n"
        "domain.resolution = 10\ndomain.angular_resolution = 16\n").replace(
        "dihedral_4", "rotations_8"), "disk.cfg")
    square = write_cfg(tmp_path, SMALL_SOLVE, "square.cfg")
    dom = cli.build_model(config.read_config(square)).domain
    point = str(tmp_path / "u.csv")
    grid.write_gridfunction(symcrit.solver.default_psi(dom), point)
    argvs = [["solve", "--config", square],
             ["solve", "--config", disk],
             ["compare-levels", "--config", square],
             ["verify-point", "--config", square, point]]
    argvs = [argv + ["--quiet", "--out", str(tmp_path / str(k))]
             for k, argv in enumerate(argvs)]
    code = (
        "import contextlib, io, sys; import symcrit\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = symcrit.cli.main(argv)\n"
        "    print(argv[0], rc, 'numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    # the bump is not a critical point, so verify-point exits 3
    assert out == ["solve 0 False", "solve 0 False",
                   "compare-levels 0 False", "verify-point 3 False"]


def test_import_and_disk_verify_keep_scipy_extras_unloaded(tmp_path):
    # scipy.sparse.linalg and scipy.optimize cost about 8 MB and 17 MB of
    # resident memory: importing symcrit loads neither, and verify-point
    # on a disk point, which reads the center column and the hat norms,
    # never factorizes
    dom = grid.build_domain("disk-polar", radius=6.0, resolution=4,
                            angular_resolution=16)
    point = str(tmp_path / "u.csv")
    grid.write_gridfunction(symcrit.solver.default_psi(dom), point)
    cfg = write_cfg(tmp_path, SMALL_SOLVE.replace(
        "domain.kind = square\ndomain.side = 6.0\ndomain.resolution = 9\n",
        "domain.kind = disk-polar\ndomain.radius = 6.0\n"
        "domain.resolution = 4\ndomain.angular_resolution = 16\n").replace(
        "dihedral_4", "rotations_8"))
    code = ("import sys; import symcrit; "
            "print(*(name in sys.modules for name in "
            "('scipy.sparse.linalg', 'scipy.optimize'))); "
            f"rc = symcrit.cli.main(['verify-point', '--config', {cfg!r}, "
            f"{point!r}, '--quiet', '--out', {str(tmp_path / 'o')!r}]); "
            "print(rc, 'scipy.sparse.linalg' in sys.modules)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    # the bump is not a critical point, so the check fails with exit 3
    assert out == ["False", "False", "3", "False"]


def test_manifest_inventories_payloads(solved):
    _, _, out = solved
    man = read_json(os.path.join(out, "manifest.json"))
    assert sorted(man["files"]) == sorted(PAYLOADS)
    for name, entry in man["files"].items():
        path = os.path.join(out, name)
        with open(path, "rb") as fh:
            data = fh.read()
        assert entry["bytes"] == os.path.getsize(path) == len(data)
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()
    assert man["stages"]["solve"] == "converged"
    assert man["stages"]["verify"] == "holds"
    assert man["stages"]["diagnostics"] == "passed"
    assert man["timestamps"]["wall_seconds"] > 0.0


def test_dump_json_golden():
    # floats in %.17g and null when not finite; everything else as
    # json.dumps writes it, non-ASCII text kept as is
    payload = {"none": None, "flags": (True, False),
               "ints": [0, -7, 2 ** 70],
               "name": "\u03a9-disk \u00ab\u00fc\u00bb",
               "zero": -0.0, "tiny": 5e-324, "big": 1e300,
               "nan": float("nan"), "inf": [float("inf"), -float("inf")],
               "third": 1 / 3, "empty": {}, "nothing": [],
               "nested": {"b": {}, "a": ()}}
    assert cli.dump_json(payload) == (
        '{\n  "big": 1.0000000000000001e+300,\n  "empty": {},\n'
        '  "flags": [\n    true,\n    false\n  ],\n'
        '  "inf": [\n    null,\n    null\n  ],\n'
        '  "ints": [\n    0,\n    -7,\n    1180591620717411303424\n  ],\n'
        '  "name": "\u03a9-disk \u00ab\u00fc\u00bb",\n  "nan": null,\n'
        '  "nested": {\n    "a": [],\n    "b": {}\n  },\n'
        '  "none": null,\n  "nothing": [],\n'
        '  "third": 0.33333333333333331,\n'
        '  "tiny": 4.9406564584124654e-324,\n  "zero": -0\n}')


def test_only_cli_config_and_grid_open_files():
    # the numerical layers read and write no file: every payload goes
    # through cli, configs through config and grid functions through grid
    src = pathlib.Path(cli.__file__).parent
    opened = []
    for path in sorted(src.glob("*.py")):
        if path.stem in ("cli", "config", "grid"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) == "open"
                    or getattr(node.func, "attr", None) == "open"):
                opened.append(f"{path.name}:{node.lineno}")
    assert opened == []


def test_no_module_calls_np_unique():
    # np.unique argsorts and builds its outputs in full-size temporaries,
    # and a bare call imports numpy.ma: labels are numbered by sort and
    # search instead (grid.distinct and grid.numbering)
    src = pathlib.Path(cli.__file__).parent
    calls = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "unique"):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_manifest_counts_the_solver_work(solved):
    # the peak searches, Newton trials and factorizations of the solve go
    # to the manifest, not to the payloads, whose bytes stay reproducible
    _, _, out = solved
    counts = read_json(os.path.join(out, "manifest.json"))["solver_counts"]
    assert set(counts) == {"peak_searches", "newton_trials", "factorizations"}
    assert counts["peak_searches"] >= 1 and counts["newton_trials"] >= 1
    assert counts["factorizations"] > counts["newton_trials"]
    for name in PAYLOADS:
        with open(os.path.join(out, name), encoding="utf-8") as fh:
            assert "peak_searches" not in fh.read(), name


def test_all_payloads_carry_config_hash(solved):
    _, _, out = solved
    man = read_json(os.path.join(out, "manifest.json"))
    stamp = man["config_hash"]
    assert len(stamp) == 64
    for name in PAYLOADS:
        with open(os.path.join(out, name), encoding="utf-8") as fh:
            assert stamp in fh.read(), name


def test_verify_point_accepts_solved_point(solved, tmp_path, capsys):
    _, cfg, out = solved
    ufile = os.path.join(out, "u_final.csv")
    rc = cli.main(["verify-point", "--config", cfg, ufile])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["principle_holds"] is True


def test_verify_point_rejects_scaled_point(solved, tmp_path):
    _, cfg, out = solved
    from symcrit import functional, integrand
    dom = grid.build_domain("square", side=6.0, resolution=9)
    model = functional.EnergyModel(domain=dom,
                                   integrand=integrand.builtin("plaplace",
                                                               p=1.8),
                                   q=3.0)
    u = grid.read_gridfunction(dom, os.path.join(out, "u_final.csv"))
    bad = grid.GridFunction(dom, 1.5 * u.values)
    path = tmp_path / "scaled.csv"
    grid.write_gridfunction(bad, path)
    rc = cli.main(["verify-point", "--config", cfg, str(path), "--quiet",
                   "--out", str(tmp_path)])
    assert rc == 3
    report = read_json(tmp_path / "criticality.json")
    assert report["principle_holds"] is False
    assert report["tangential"] > report["tau_tan"]


def test_verify_point_gives_no_verdict_off_fix_g(solved, tmp_path, capsys):
    # symmetric criticality is only defined at invariant points, so a
    # point off the fixed subspace is measured but gets no verdict: exit
    # 3, as for a failed check, with the full report
    _, cfg, out = solved
    dom = grid.build_domain("square", side=6.0, resolution=9)
    u = grid.read_gridfunction(dom, os.path.join(out, "u_final.csv"))
    vals = u.values.copy()
    interior = np.nonzero(~dom.boundary)[0]
    vals[interior[0]] += 1.0
    path = tmp_path / "tilted.csv"
    grid.write_gridfunction(grid.GridFunction(dom, vals), path)
    rc = cli.main(["verify-point", "--config", cfg, str(path), "--quiet",
                   "--out", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err == ""
    report = read_json(tmp_path / "criticality.json")
    assert report["principle_holds"] is None
    # a +1 tilt at one node of a 4-node orbit moves it 3/4 off the average
    assert report["invariance_error"] == pytest.approx(0.75, abs=1e-12)


def test_verify_point_rejects_malformed_row(solved, tmp_path, capsys):
    _, cfg, out = solved
    with open(os.path.join(out, "u_final.csv"), encoding="utf-8") as fh:
        text = fh.read()
    path = tmp_path / "garbled.csv"
    path.write_text(text.replace("\n7,", "\n7,?", 1))
    rc = cli.main(["verify-point", "--config", cfg, str(path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert "malformed" in err["message"]


def test_verify_point_refuses_a_lifted_boundary_node(solved, tmp_path,
                                                     capsys):
    # GridFunction zeroes the Dirichlet nodes, so a file with a value
    # there would be verified as another point than the one it holds
    _, cfg, out = solved
    dom = grid.build_domain("square", side=6.0, resolution=9)
    edge = np.flatnonzero(dom.boundary)
    lines = pathlib.Path(out, "u_final.csv").read_text().split("\n")
    rows = {line.split(",", 1)[0]: k for k, line in enumerate(lines)}
    for node in (edge[3], edge[-1]):
        k = rows[str(node)]
        lines[k] = lines[k].rsplit(",", 1)[0] + ",1.0"
    path = tmp_path / "lifted.csv"
    path.write_text("\n".join(lines))
    rc = cli.main(["verify-point", "--config", cfg, str(path), "--quiet",
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ConfigurationError", "message":
                   f"node {edge[3]} is on the Dirichlet boundary but has "
                   "value 1.0 in the file: a stored point must be zero "
                   "there"}
    assert not os.path.exists(tmp_path / "o")


def test_public_names_resolve():
    for name in symcrit.__all__:
        assert hasattr(symcrit, name), name


# ---------------------------------------------------------------------------
# failure exits


def test_supercritical_exponent_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_SOLVE.replace("model.q = 3.0",
                                                  "model.q = 1.8"))
    rc = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParameterError"
    assert "p < q < p*" in err["message"]


@pytest.mark.parametrize("command", ["solve", "check-axioms"])
@pytest.mark.parametrize("how", ["config", "flag"])
def test_negative_seed_exits_one(tmp_path, capsys, command, how):
    # numpy's generators refuse a negative seed; the command must name
    # the bad value in one JSON line, not die with a traceback
    text, argv = SMALL_SOLVE, [command, "--out", str(tmp_path / "o")]
    if how == "config":
        text = text.replace("run.seed = 0", "run.seed = -1")
    else:
        argv += ["--seed", "-3"]
    rc = cli.main(argv + ["--config", write_cfg(tmp_path, text)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    err = json.loads(err)
    assert err["error"] == "ParameterError"
    assert "seed must be >= 0" in err["message"]


# the last four are settings the code fixes: 10x tau_tan, a sweep to
# ceil(max |u|) + 1, a level slack of 1e-4 and rotation order 8
@pytest.mark.parametrize("key", ["solver.newton", "solver.armijo",
                                 "solver.log_iterations",
                                 "verify.tau_trans", "verify.j_max",
                                 "verify.level_tolerance",
                                 "domain.max_rotation_order"])
def test_unknown_key_exits_one(tmp_path, capsys, key):
    cfg = write_cfg(tmp_path, SMALL_SOLVE + f"{key} = true\n")
    rc = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert err["message"] == f"unknown config key {key!r}"


EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "examples").glob("*.cfg"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_config_builds(path):
    # every shipped example passes the key check and builds its model,
    # group and solver settings; nothing is solved
    cfg = config.read_config(path)
    cli._reject_unknown_keys(cfg)
    model = cli.build_model(cfg)
    group.build_group(model.domain, config.take(cfg, "group.label", "str"))
    cli.build_solve_config(cfg, config.take(cfg, "run.seed", "int"))


def test_plain_annulus_solve_exits_three_on_a_noninvariant_point(tmp_path):
    # the plain solve of the annulus example reaches the ground state,
    # which is critical for f but not rotations_8-invariant: the report
    # is complete and gives no verdict
    path = pathlib.Path(__file__).resolve().parents[1] / "examples" \
        / "annulus_breaking.cfg"
    text = path.read_text()
    assert "solver.mode = restricted\n" in text
    cfg = write_cfg(tmp_path, text.replace("solver.mode = restricted\n",
                                           "solver.mode = plain\n"))
    out = str(tmp_path / "o")
    rc = cli.main(["solve", "--config", cfg, "--out", out, "--quiet"])
    assert rc == 3
    man = read_json(os.path.join(out, "manifest.json"))
    assert man["stages"]["verify"] == "not-invariant"
    crit = read_json(os.path.join(out, "criticality.json"))
    assert crit["config_hash"] == man["config_hash"]
    assert crit["principle_holds"] is None
    assert crit["invariance_error"] > 2.0
    assert crit["weak_slope"]["value"] <= 1e-8
    assert crit["tangential_ok"] is True and crit["transverse_ok"] is True


def test_unknown_integrand_key_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ("integrand.name = plaplace\n"
                               "integrand.p = 1.8\nmodel.q = 3.0\n"
                               "integrand.bogus = 7\n"))
    rc = cli.main(["check-integrand", "--config", cfg])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert "integrand.bogus" in err["message"]


def test_missing_required_key_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_SOLVE.replace(
        "group.label = dihedral_4\n", ""))
    rc = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "group.label" in err["message"]


@pytest.mark.parametrize("command", ["solve", "verify-point"])
@pytest.mark.parametrize("tau", ["0.0", "-1e-8"])
def test_nonpositive_tau_tan_exits_one_before_any_output(solved, tmp_path,
                                                         capsys, command,
                                                         tau):
    # refused when the config is read, not after a whole solve
    _, _, solved_out = solved
    cfg = write_cfg(tmp_path, SMALL_SOLVE + f"verify.tau_tan = {tau}\n")
    out = tmp_path / "o"
    point = ([os.path.join(solved_out, "u_final.csv")]
             if command == "verify-point" else [])
    rc = cli.main([command, "--config", cfg, "--out", str(out)] + point)
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert "verify.tau_tan" in err["message"]
    assert not out.exists()


DISK_SOLVE = SMALL_SOLVE.replace(
    "domain.kind = square\ndomain.side = 6.0\n",
    "domain.kind = disk-polar\ndomain.radius = 6.0\n"
    "domain.angular_resolution = 16\n")


@pytest.mark.parametrize("text, message", [
    (SMALL_SOLVE + "domain.angular_resolution = 16\n",
     "a square domain takes the geometry keys ['side'], "
     "got ['angular_resolution', 'side']"),
    (DISK_SOLVE + "domain.side = 99.0\ndomain.dimension = 7\n"
     "domain.inner_radius = 3.0\n",
     "a disk-polar domain takes the geometry keys ['angular_resolution', "
     "'radius'], got ['angular_resolution', 'dimension', 'inner_radius', "
     "'radius', 'side']"),
])
def test_geometry_key_of_another_kind_exits_one(tmp_path, capsys, text,
                                                message):
    # a key the kind does not read is refused by name before any output,
    # where it was once ignored (and still changed the config hash)
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    rc = cli.main(["solve", "--config", cfg, "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert err["message"] == message
    assert not out.exists()


def test_missing_resolution_exits_one_by_name(tmp_path, capsys):
    # every kind needs domain.resolution; without it the command exits 1
    # with a named ConfigurationError, not a TypeError from the library
    cfg = write_cfg(tmp_path, SMALL_SOLVE.replace("domain.resolution = 9\n",
                                                  ""))
    assert cli.main(["check-axioms", "--config", cfg]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ConfigurationError",
        "message": "missing required config key 'domain.resolution'"}


DOWNGRADED_SOLVE = """\
domain.kind = radial-ball-1d
domain.dimension = 3
domain.radius = 12.0
domain.resolution = 2

group.label = trivial

integrand.name = plaplace
integrand.p = 2.0

model.q = 4.0
model.positivity = true

solver.mode = direct
solver.path_points = 24
"""


def test_solve_names_a_downgrade_to_plain(tmp_path):
    # two huge cells fail the energy-decrease gate, so direct mode runs
    # as plain and the manifest and report say so
    cfg = write_cfg(tmp_path, DOWNGRADED_SOLVE)
    out = str(tmp_path / "o")
    with pytest.warns(UserWarning, match="energy-decrease check failed"):
        rc = cli.main(["solve", "--config", cfg, "--out", out, "--quiet"])
    assert rc == 0
    man = read_json(os.path.join(out, "manifest.json"))
    assert man["stages"]["solve"] == "converged (downgraded to plain)"
    rep = read_json(os.path.join(out, "solve_report.json"))
    assert rep["mode"] == "plain"
    assert rep["requested_mode"] == "direct"
    assert "energy-decrease check failed" in rep["downgrade_reason"]


def test_missing_config_file_exits_one(tmp_path, capsys):
    rc = cli.main(["solve", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"]


def test_nonconverged_solve_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_SOLVE.replace(
        "solver.max_iterations = 20000", "solver.max_iterations = 1"))
    out = str(tmp_path / "o")
    rc = cli.main(["solve", "--config", cfg, "--out", out, "--quiet"])
    assert rc == 2
    # the partial record still ships for post-mortems
    rep = read_json(os.path.join(out, "solve_report.json"))
    assert rep["converged"] is False
    assert os.path.exists(os.path.join(out, "record.csv"))
    man = read_json(os.path.join(out, "manifest.json"))
    assert man["stages"]["solve"] == "not-converged"


def test_direct_solve_without_a_sweep_has_no_distance_trend(tmp_path):
    # 20 iterations end the direct disk solve before its cone sweep, so
    # its diagnostics check no rearrangement-distance trend
    cfg = write_cfg(tmp_path, ("domain.kind = disk-polar\n"
                               "domain.radius = 6.0\ndomain.resolution = 10\n"
                               "domain.angular_resolution = 16\n"
                               "group.label = trivial\n"
                               "integrand.name = modulated\n"
                               "integrand.p = 1.8\nmodel.q = 3.0\n"
                               "solver.mode = direct\n"
                               "solver.max_iterations = 20\n"
                               "run.seed = 0\n"))
    out = str(tmp_path / "o")
    assert cli.main(["solve", "--config", cfg, "--out", out, "--quiet"]) == 2
    rep = read_json(os.path.join(out, "solve_report.json"))
    assert rep["mode"] == "direct" and rep["sweep_start"] is None
    diag = read_json(os.path.join(out, "diagnostics.json"))
    assert diag["violations"] == []
    assert diag["dist_v_monotone"] is None


# the toy ball of test_solver: residual call 7 is iteration 7 of the ray stage
TOY_BALL = ("domain.kind = radial-ball-1d\n"
            "domain.dimension = 3\ndomain.radius = 12.0\n"
            "domain.resolution = 2\n"
            "group.label = trivial\n"
            "integrand.name = plaplace\n"
            "integrand.p = 2.0\nmodel.q = 4.0\n"
            "solver.mode = plain\n"
            "solver.max_iterations = 10\n")


def test_numerical_failure_exits_two_with_report(tmp_path, monkeypatch):
    # ray 1 prices the starting peak and ray 2 is iteration 1's first
    # trial step, so a NaN two-sum A fails inside iteration 1's peak search
    poison_ray(monkeypatch, "A", 2)
    cfg = write_cfg(tmp_path, TOY_BALL)
    out = str(tmp_path / "o")
    rc = cli.main(["solve", "--config", cfg, "--out", out, "--quiet"])
    assert rc == 2
    rep = read_json(os.path.join(out, "solve_report.json"))
    assert rep["converged"] is False
    assert "energy became non-finite in the ray stage" \
        in rep["failure"]["message"]
    assert rep["failure"]["iteration"] == 1
    man = read_json(os.path.join(out, "manifest.json"))
    assert man["stages"]["solve"] == "numerical-failure"
    assert set(man["files"]) == {"solve_report.json"}


def test_rerun_manifest_lists_only_its_own_files(tmp_path, monkeypatch):
    # a rerun into a used directory must not claim the payloads the
    # earlier run left there
    cfg = write_cfg(tmp_path, TOY_BALL)
    out = str(tmp_path / "o")
    cli.main(["solve", "--config", cfg, "--out", out, "--quiet"])
    assert set(PAYLOADS) <= set(os.listdir(out))
    poison_residual(monkeypatch, 7)
    rc = cli.main(["solve", "--config", cfg, "--out", out, "--quiet"])
    assert rc == 2
    man = read_json(os.path.join(out, "manifest.json"))
    assert man["stages"]["solve"] == "numerical-failure"
    assert set(man["files"]) == {"solve_report.json"}


# ---------------------------------------------------------------------------
# report subcommands


def test_check_integrand_both_builtins(tmp_path, capsys):
    for name, p, q in (("plaplace", 1.8, 3.0), ("modulated", 2.0, 4.0)):
        cfg = write_cfg(tmp_path, (f"integrand.name = {name}\n"
                                   f"integrand.p = {p}\nmodel.q = {q}\n"),
                        name=f"{name}.cfg")
        rc = cli.main(["check-integrand", "--config", cfg])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_passed"] is True
        assert set(report["checks"]) == {"j1", "j2", "j3", "j3t", "j4",
                                         "j5", "j6"}


def test_main_builds_the_parser_once(tmp_path, monkeypatch, capsys):
    builds = []
    build = cli._build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counted)
    monkeypatch.setattr(cli, "_PARSER", None)
    cfg = write_cfg(tmp_path, ("integrand.name = plaplace\n"
                               "integrand.p = 1.8\nmodel.q = 3.0\n"))
    assert cli.main(["check-integrand", "--config", cfg]) == 0
    # the command is looked up when main runs, so a rebound one is called
    monkeypatch.setattr(cli, "cmd_check_integrand", lambda args: 7)
    assert cli.main(["check-integrand", "--config", cfg]) == 7
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command", "--config", cfg])
    assert exc.value.code == 2
    assert len(builds) == 1
    capsys.readouterr()


def test_python_m_symcrit_runs_the_cli(tmp_path):
    cfg = write_cfg(tmp_path, ("integrand.name = plaplace\n"
                               "integrand.p = 1.8\nmodel.q = 3.0\n"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "symcrit", "check-integrand", "--config", cfg],
        cwd=str(tmp_path), env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["all_passed"] is True


def test_check_axioms_writes_report(tmp_path):
    cfg = write_cfg(tmp_path, ("domain.kind = square\ndomain.side = 2.0\n"
                               "domain.resolution = 5\nrun.seed = 7\n"))
    out = str(tmp_path / "rep")
    rc = cli.main(["check-axioms", "--config", cfg, "--out", out, "--quiet"])
    assert rc == 0
    report = read_json(os.path.join(out, "check_axioms.json"))
    assert report["all_passed"] is True
    assert report["plan_exact"] is True


def test_compare_levels_toy(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ("domain.kind = radial-ball-1d\n"
                               "domain.dimension = 3\ndomain.radius = 12.0\n"
                               "domain.resolution = 2\n"
                               "group.label = trivial\n"
                               "integrand.name = plaplace\n"
                               "integrand.p = 2.0\nmodel.q = 4.0\n"
                               "solver.mode = plain\n"
                               "solver.path_points = 24\n"
                               "solver.max_iterations = 5000\n"
                               "solver.grad_tol = 1e-8\nrun.seed = 0\n"))
    rc = cli.main(["compare-levels", "--config", cfg])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ordered"] is True
    assert report["c_plain"] <= report["c_restricted"] + report["tolerance"]


def test_compare_levels_declines_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ("domain.kind = radial-ball-1d\n"
                               "domain.dimension = 3\ndomain.radius = 12.0\n"
                               "domain.resolution = 2\n"
                               "group.label = trivial\n"
                               "integrand.name = plaplace\n"
                               "integrand.p = 2.0\nmodel.q = 4.0\n"
                               "solver.mode = plain\n"
                               "solver.path_points = 24\n"
                               "solver.max_iterations = 1\n"
                               "solver.grad_tol = 1e-8\nrun.seed = 0\n"))
    rc = cli.main(["compare-levels", "--config", cfg])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["declined"] is True


def test_compare_levels_numerical_failure_exits_two_with_report(
        tmp_path, monkeypatch):
    # residual call 7 belongs to iteration 7 of the plain solve's ray
    # stage; the restricted solve then does not run
    poison_residual(monkeypatch, 7)
    cfg = write_cfg(tmp_path, TOY_BALL)
    out = str(tmp_path / "o")
    rc = cli.main(["compare-levels", "--config", cfg, "--out", out,
                   "--quiet"])
    assert rc == 2
    rep = read_json(os.path.join(out, "compare_levels.json"))
    assert rep["declined"] is True
    assert rep["ordered"] is None
    assert rep["failure"]["mode"] == "plain"
    assert "in the ray stage" in rep["failure"]["message"]
    assert rep["failure"]["iteration"] == 7
    assert rep["iterations"] == {} and rep["stage_iterations"] == {}


def test_compare_levels_reports_both_solves_cost(tmp_path):
    cfg = write_cfg(tmp_path, TOY_BALL.replace(
        "solver.max_iterations = 10", "solver.max_iterations = 5000"))
    out = str(tmp_path / "o")
    rc = cli.main(["compare-levels", "--config", cfg, "--out", out,
                   "--quiet"])
    assert rc == 0
    rep = read_json(os.path.join(out, "compare_levels.json"))
    assert rep["failure"] is None
    assert set(rep["iterations"]) == {"plain", "restricted"}
    for mode, stages in rep["stage_iterations"].items():
        assert set(stages) == {"ray", "polish", "sweep"}
        assert sum(stages.values()) == rep["iterations"][mode] > 0


# ---------------------------------------------------------------------------
# determinism of shipped bytes

FAST_SOLVE = SMALL_SOLVE.replace("domain.resolution = 9",
                                 "domain.resolution = 7")


def run_pipeline(workdir, cfg_path, threads=None):
    env = dict(os.environ)
    env.pop("SYMCRIT_THREADS", None)
    # the child interpreter runs in workdir, where a relative import path
    # would not resolve
    src = os.path.dirname(os.path.dirname(os.path.abspath(symcrit.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    if threads is not None:
        env["SYMCRIT_THREADS"] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-m", "symcrit.cli", "solve",
         "--config", cfg_path, "--quiet"],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return read_json(os.path.join(workdir, "run", "manifest.json"))


def test_payload_bytes_reproduce(tmp_path):
    # identical config from two working directories, then a third run
    # under a different thread cap: every payload byte must agree, with
    # wall-clock data quarantined to the manifest
    cfg = write_cfg(tmp_path, FAST_SOLVE)
    manifests = []
    for tag, threads in (("a", None), ("b", None), ("c", 4)):
        workdir = tmp_path / tag
        workdir.mkdir()
        manifests.append(run_pipeline(str(workdir), cfg, threads=threads))
    base = manifests[0]["files"]
    assert sorted(base) == sorted(PAYLOADS)
    for other in manifests[1:]:
        assert other["files"] == base
    assert manifests[2]["threads"] == "4"
