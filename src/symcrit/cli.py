"""Command-line pipeline from config files to machine-readable artifacts.

Exit codes: 0 converged and verified, 1 configuration or module error
(with a single-line JSON diagnostic on stderr), 2 non-converged solve or
numerical failure, 3 converged but not verified (the criticality check
failed, or the point lies off Fix(G) and gets no verdict).  Every output
file embeds the content hash of the effective config; wall-clock data is
quarantined to the manifest so payload files are byte-identical across
reruns.  Each payload is formatted to text once and written once by
``_write_payload``, which keeps the size and sha256 of the bytes it
wrote; the manifest lists those records and reads no file back.
"""

import os

# honor the thread cap before numpy picks its pool size; results are
# thread-count independent either way, this only pins CPU usage
_THREADS = os.environ.get("SYMCRIT_THREADS")
if _THREADS and _THREADS.isdigit():
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _THREADS)

import argparse
import dataclasses
import datetime
import hashlib
import json
import math
import sys
import time

from . import config as config_mod
from . import functional
from . import grid
from . import group as group_mod
from . import integrand as integrand_mod
from . import solver
from . import symmetrize
from . import verify
from .errors import ConfigurationError, NumericalFailureError, SymcritError

ARTIFACT_VERSION = "0.1.0"

_DOMAIN_KEYS = {
    "kind": "str",
    "resolution": "int",
    "dimension": "int",
    "side": "float",
    "radius": "float",
    "inner_radius": "float",
    "outer_radius": "float",
    "angular_resolution": "int",
}

# every SolveConfig field is a solver.* key, except the seed (run.seed)
_SOLVER_FIELDS = [f for f in dataclasses.fields(solver.SolveConfig)
                  if f.name != "seed"]

_KNOWN_KEYS = (
    {f"domain.{k}" for k in _DOMAIN_KEYS}
    | {f"solver.{f.name}" for f in _SOLVER_FIELDS}
    | {"group.label", "integrand.name", "integrand.p",
       "model.q", "model.positivity",
       "verify.tau_tan", "run.seed", "output.dir"}
)


# ---------------------------------------------------------------------------
# deterministic 17-digit JSON


def _json_scalar(value):
    # floats in %.17g, which round-trips, and null when not finite
    if isinstance(value, float):
        return f"{value:.17g}" if math.isfinite(value) else "null"
    return json.dumps(value, ensure_ascii=False)


def dump_json(obj, indent=0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{inner}{json.dumps(str(k))}: {dump_json(v, indent + 1)}'
                for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{dump_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    return _json_scalar(obj)


def _write_payload(outdir, name, payload, files):
    """Write ``payload`` (CSV text, or a dict as ``dump_json`` text) as
    UTF-8 to ``outdir/name`` and keep the size and sha256 of the bytes
    written as ``files[name]``."""
    text = payload if isinstance(payload, str) else dump_json(payload) + "\n"
    data = text.encode("utf-8")
    with open(os.path.join(outdir, name), "wb") as fh:
        fh.write(data)
    files[name] = {"bytes": len(data),
                   "sha256": hashlib.sha256(data).hexdigest()}


# ---------------------------------------------------------------------------
# config to objects


def _reject_unknown_keys(cfg: dict):
    for key in cfg:
        if key not in _KNOWN_KEYS:
            raise ConfigurationError(f"unknown config key {key!r}")


def build_domain(cfg: dict):
    kind = config_mod.take(cfg, "domain.kind", "str")
    kwargs = {}
    for name, kind_tag in _DOMAIN_KEYS.items():
        if name == "kind":
            continue
        val = config_mod.take(cfg, f"domain.{name}", kind_tag, default=None)
        if val is not None:
            kwargs[name] = val
    return grid.build_domain(kind, **kwargs)


def build_integrand(cfg: dict):
    name = config_mod.take(cfg, "integrand.name", "str")
    p = config_mod.take(cfg, "integrand.p", "float")
    return integrand_mod.builtin(name, p=p)


def build_model(cfg: dict):
    dom = build_domain(cfg)
    J = build_integrand(cfg)
    return functional.EnergyModel(
        domain=dom,
        integrand=J,
        q=config_mod.take(cfg, "model.q", "float"),
        positivity=config_mod.take(cfg, "model.positivity", "bool",
                                   default=False))


def build_solve_config(cfg: dict, seed: int):
    return solver.SolveConfig(seed=seed, **{
        f.name: config_mod.take(cfg, f"solver.{f.name}", f.type.__name__,
                                default=f.default)
        for f in _SOLVER_FIELDS})


def _take_tau_tan(cfg: dict) -> float:
    tau_tan = config_mod.take(cfg, "verify.tau_tan", "float", default=1e-8)
    if tau_tan <= 0:
        raise ConfigurationError(f"verify.tau_tan must be > 0, got {tau_tan}")
    return tau_tan


def _effective_config(args) -> dict:
    cfg = config_mod.read_config(args.config)
    _reject_unknown_keys(cfg)
    if args.seed is not None:
        cfg["run.seed"] = args.seed
    if args.out is not None:
        cfg["output.dir"] = args.out
    return cfg


def _say(args, text):
    if not args.quiet:
        print(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    cfg = _effective_config(args)
    stamp = config_mod.config_hash(cfg)
    seed = config_mod.take(cfg, "run.seed", "int", default=0)
    outdir = config_mod.take(cfg, "output.dir", "str", default="runs")
    tau_tan = _take_tau_tan(cfg)

    model = build_model(cfg)
    sym = group_mod.build_group(model.domain,
                                config_mod.take(cfg, "group.label", "str"))
    scfg = build_solve_config(cfg, seed)

    started = datetime.datetime.now(datetime.timezone.utc)
    t0 = time.perf_counter()
    stages = {}
    files = {}
    try:
        rep = solver.run(model, sym, scfg)
    except NumericalFailureError as exc:
        # a named numerical failure is a non-converged solve, not a
        # configuration error: report the stage and iteration it hit
        os.makedirs(outdir, exist_ok=True)
        _write_payload(outdir, "solve_report.json", {
            "config": cfg,
            "config_hash": stamp,
            "requested_mode": scfg.mode,
            "converged": False,
            "failure": {"message": str(exc),
                        "iteration": exc.last_state["iteration"]},
        }, files)
        stages["solve"] = "numerical-failure"
        _write_manifest(outdir, files, stamp, started, t0, stages)
        _say(args, f"solve: {exc}, outputs in {outdir} (exit 2)")
        return 2
    stages["solve"] = "converged" if rep.converged else "not-converged"
    if rep.downgrade_reason:
        stages["solve"] += " (downgraded to plain)"

    os.makedirs(outdir, exist_ok=True)
    note = f"config_hash {stamp}"
    _write_payload(outdir, "u_final.csv",
                   grid.format_gridfunction(rep.u, (note,)), files)
    rec = rep.record
    _write_payload(outdir, "record.csv", grid.format_table(
        [solver.PS_CSV_HEADER, f"# {note}"], rec.iteration,
        [rec.f, rec.grad_norm, rec.w1p_norm, rec.dist_vstar_V,
         rec.dist_vstar_W]), files)

    crit = verify.palais_check(model, sym, rep.u, tau_tan=tau_tan)
    stages["verify"] = {True: "holds", False: "violated",
                        None: "not-invariant"}[crit.principle_holds]
    _write_payload(outdir, "criticality.json",
                   {"config_hash": stamp, **crit.to_dict()}, files)

    if len(rep.record) >= 2:
        diag = solver.ps_diagnostics(rep.record, model,
                                     sweep_start=rep.sweep_start)
        stages["diagnostics"] = ("passed" if diag.passed else
                                 f"{len(diag.violations)} violations")
        _write_payload(outdir, "diagnostics.json",
                       {"config_hash": stamp, **diag.to_dict()}, files)
    else:
        stages["diagnostics"] = "skipped (record too short)"

    _write_payload(outdir, "solve_report.json", {
        "config": cfg,
        "config_hash": stamp,
        "mode": rep.mode,
        "requested_mode": rep.requested_mode,
        "downgrade_reason": rep.downgrade_reason,
        "converged": rep.converged,
        "level": rep.level,
        "iterations": rep.iterations,
        "stage_iterations": rep.stage_iterations,
        "ray_exit": rep.ray_exit,
        "sweep_start": rep.sweep_start,
        "record_length": len(rep.record),
        "solver_config_hash": rep.config_hash,
        "endpoints": rep.endpoints.to_dict(),
    }, files)
    _write_manifest(outdir, files, stamp, started, t0, stages, rep.counts)

    code = 0 if crit.principle_holds else 3
    if not rep.converged:
        code = 2
    _say(args, f"solve: {stages['solve']}, verify: {stages['verify']}, "
               f"level {rep.level:.9f}, outputs in {outdir} (exit {code})")
    return code


def _write_manifest(outdir, files, stamp, started, t0, stages,
                    counts=None):
    """Inventory of the payload files this run wrote: ``files`` holds the
    size and sha256 of the bytes ``_write_payload`` wrote, so no file is
    read back (files an earlier run left in ``outdir`` are not listed).
    Adds the wall-clock data and the solver's work ``counts``
    (``SolveReport``)."""
    finished = datetime.datetime.now(datetime.timezone.utc)
    manifest = {
        "artifact_version": ARTIFACT_VERSION,
        "config_hash": stamp,
        "threads": os.environ.get("SYMCRIT_THREADS"),
        "timestamps": {
            "started": started.isoformat(),
            "finished": finished.isoformat(),
            "wall_seconds": time.perf_counter() - t0,
        },
        "stages": stages,
        "solver_counts": counts,
        "files": files,
    }
    _write_payload(outdir, "manifest.json.tmp", manifest, {})
    os.replace(os.path.join(outdir, "manifest.json.tmp"),
               os.path.join(outdir, "manifest.json"))


def _report_out(args, payload: dict, filename: str):
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_payload(args.out, filename, payload, {})
        _say(args, f"report written to {os.path.join(args.out, filename)}")
    else:
        print(dump_json(payload))


def cmd_check_integrand(args) -> int:
    cfg = _effective_config(args)
    stamp = config_mod.config_hash(cfg)
    J = build_integrand(cfg)
    q = config_mod.take(cfg, "model.q", "float")
    report = integrand_mod.check_conditions(J, q)
    _report_out(args, {"config_hash": stamp, **report.to_dict()},
                "check_integrand.json")
    return 0 if report.all_passed else 1


def cmd_check_axioms(args) -> int:
    cfg = _effective_config(args)
    stamp = config_mod.config_hash(cfg)
    dom = build_domain(cfg)
    seed = config_mod.take(cfg, "run.seed", "int", default=0)
    report = symmetrize.check_axioms(dom, seed=seed)
    _report_out(args, {"config_hash": stamp, **report.to_dict()},
                "check_axioms.json")
    return 0 if report.all_passed else 1


def cmd_compare_levels(args) -> int:
    cfg = _effective_config(args)
    stamp = config_mod.config_hash(cfg)
    seed = config_mod.take(cfg, "run.seed", "int", default=0)
    model = build_model(cfg)
    sym = group_mod.build_group(model.domain,
                                config_mod.take(cfg, "group.label", "str"))
    scfg = build_solve_config(cfg, seed)
    cmp_ = solver.compare_levels(model, sym, scfg)
    _report_out(args, {"config_hash": stamp, **cmp_.to_dict()},
                "compare_levels.json")
    if cmp_.declined:
        return 2
    return 0 if cmp_.ordered else 3


def cmd_verify_point(args) -> int:
    cfg = _effective_config(args)
    stamp = config_mod.config_hash(cfg)
    tau_tan = _take_tau_tan(cfg)
    model = build_model(cfg)
    sym = group_mod.build_group(model.domain,
                                config_mod.take(cfg, "group.label", "str"))
    u = grid.read_gridfunction(model.domain, args.ufile)
    crit = verify.palais_check(model, sym, u, tau_tan=tau_tan)
    _report_out(args, {"config_hash": stamp, **crit.to_dict()},
                "criticality.json")
    return 0 if crit.principle_holds else 3


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="path to a section.key = value config file")
    common.add_argument("--out", default=None,
                        help="output directory (overrides output.dir)")
    common.add_argument("--seed", type=int, default=None,
                        help="seed override (overrides run.seed)")
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress chatter")

    parser = argparse.ArgumentParser(
        prog="symcrit",
        description="mountain-pass solves with symmetric-criticality "
                    "verification")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[common],
                   help="run the full solve/verify/diagnose pipeline")
    sub.add_parser("check-integrand", parents=[common],
                   help="sample the structural conditions of the density")
    sub.add_parser("check-axioms", parents=[common],
                   help="sample the rearrangement axioms on the domain")
    sub.add_parser("compare-levels", parents=[common],
                   help="compare plain and restricted minimax levels")
    vp = sub.add_parser("verify-point", parents=[common],
                        help="run the criticality check on a stored point")
    vp.add_argument("ufile", help="grid-function CSV with the point")
    return parser


# built on the first ``main`` call and reused by every later one
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    args = _PARSER.parse_args(argv)
    # looked up at call time, so a rebound cmd_* attribute is the one run
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except SymcritError as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1
    except OSError as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
