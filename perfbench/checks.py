"""Output checks for one case, and the counts that must repeat exactly.

A case succeeds when its command reached the documented result:

- solve: exit 0, a level above the solver's trivial gate, principle_holds
  in criticality.json and the reference level within 1e-9 relative
  (the solver inputs do not depend on the benchmark seed);
- compare-levels: exit 0 with ordered true;
- verify-point: the reference verdict, the tangential residual within
  1e-9 relative of the reference recorded for the seed (seed 0) and the
  transverse residual at or below tau_trans.

A case that does not succeed is failed.  It is also wrong, which makes the
run incorrect, unless it is a failure the program itself named: exit 2
(not converged) or 3 (criticality violated) with payloads that agree
with that exit code.  A verify-point case that does not succeed is always
wrong, since its input is built so that the verdict is known.
"""

import hashlib
import json
import os

LEVEL_RTOL = 1e-9
TANGENTIAL_RTOL = 1e-9


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load(outdir, name):
    with open(os.path.join(outdir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _close(value, ref, rtol):
    return value is not None and abs(value - ref) <= rtol * abs(ref)


def _payloads(outdir, problems):
    """(bytes, sha256) per payload file; solve manifests are re-verified."""
    files = {}
    manifest_path = os.path.join(outdir, "manifest.json")
    if os.path.exists(manifest_path):
        manifest = _load(outdir, "manifest.json")
        for name, entry in sorted(manifest["files"].items()):
            path = os.path.join(outdir, name)
            files[name] = (os.path.getsize(path), _sha256(path))
            if files[name] != (entry["bytes"], entry["sha256"]):
                problems.append(f"manifest entry of {name} does not match "
                                "the file")
    else:
        for name in sorted(os.listdir(outdir)):
            path = os.path.join(outdir, name)
            files[name] = (os.path.getsize(path), _sha256(path))
    return files


def _check_solve(out, code, ref, numbers, counts, problems, seed):
    report = _load(out, "solve_report.json")
    crit = _load(out, "criticality.json")
    level = report["level"]
    gate = 1e-10 * (1.0 + abs(report["endpoints"]["f_e"]))
    holds = crit.get("principle_holds", False)
    numbers.update(level=f"{level:.12g}", iterations=report["iterations"],
                   converged=report["converged"],
                   tangential=crit.get("tangential"))
    counts.update(iterations=report["iterations"],
                  record_rows=report["record_length"])
    expected_code = (2 if not report["converged"] else 0 if holds else 3)
    named = code == expected_code and code in (2, 3)
    if code != expected_code:
        problems.append(f"exit {code} but the payloads imply "
                        f"exit {expected_code}")
    if code != 0:
        problems.append("not converged" if code == 2 else
                        "criticality check violated")
    if not level > gate:
        problems.append(f"level {level:.3e} at or below the trivial gate "
                        f"{gate:.3e}")
    if not holds:
        problems.append("principle_holds is false")
    if "level" in ref and not _close(
            level, ref["level"], LEVEL_RTOL):
        problems.append(f"level {level!r} differs from the reference "
                        f"{ref['level']!r} by more than {LEVEL_RTOL:g} "
                        "relative")
    return named


def _check_compare(out, code, ref, numbers, counts, problems, seed):
    cmp_ = _load(out, "compare_levels.json")
    numbers.update(c_plain=cmp_["c_plain"], c_restricted=cmp_["c_restricted"],
                   ordered=cmp_["ordered"])
    expected_code = 2 if cmp_["declined"] else 0 if cmp_["ordered"] else 3
    if code != expected_code:
        problems.append(f"exit {code} but the report implies "
                        f"exit {expected_code}")
    if code != 0 or cmp_["ordered"] is not True:
        problems.append(f"declined ({cmp_['reason']})" if cmp_["declined"]
                        else "levels not ordered")
    return code == expected_code and code in (2, 3)


def _check_verify(out, code, ref, numbers, counts, problems, seed):
    crit = _load(out, "criticality.json")
    numbers.update(tangential=f"{crit['tangential']:.12g}",
                   transverse=f"{crit['transverse']:.3g}",
                   principle_holds=crit["principle_holds"])
    verdict = {k: crit[k] for k in
               ("principle_holds", "tangential_ok", "transverse_ok")}
    if verdict != ref["verdict"]:
        problems.append(f"verdict {verdict} differs from {ref['verdict']}")
    if code != (0 if crit["principle_holds"] else 3):
        problems.append(f"exit {code} disagrees with the verdict")
    tangential = ref.get("tangential_by_seed", {}).get(str(seed))
    if tangential is not None and not _close(
            crit["tangential"], tangential, TANGENTIAL_RTOL):
        problems.append(f"tangential {crit['tangential']!r} differs from "
                        f"the reference {tangential!r}")
    if not crit["transverse"] <= crit["tau_trans"]:
        problems.append(f"transverse {crit['transverse']:.3e} above "
                        f"tau_trans {crit['tau_trans']:.3e}")
    return False


CHECKS = {"solve": _check_solve, "compare-levels": _check_compare,
          "verify-point": _check_verify}

# verdict every stored audit point must receive: the point is invariant
# but not critical
AUDIT_VERDICT = {"principle_holds": False, "tangential_ok": False,
                 "transverse_ok": True}


def check(case, run, ref, seed):
    """Check one case's outputs against its entry of reference.json."""
    code = run["code"]
    numbers, counts, problems = {}, {}, []
    named = False
    if case["command"] == "verify-point":
        ref = {"verdict": AUDIT_VERDICT, **ref}
    if run["crash"] is not None:
        problems.append("raised " + run["crash"].strip().splitlines()[-1])
    elif code == 1:
        problems.append("exit 1 (configuration or model error)")
    else:
        try:
            files = _payloads(case["out"], problems)
            named = CHECKS[case["command"]](case["out"], code, ref, numbers,
                                            counts, problems, seed)
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"unreadable output: {exc!r}")
            files = {}
        counts["payload_bytes"] = sum(b for b, _ in files.values())
        counts["payload_sha256"] = hashlib.sha256(json.dumps(
            sorted(files.items())).encode()).hexdigest()
    ok = not problems
    return {"name": case["name"], "command": case["command"], "code": code,
            "status": "ok" if ok else "failed",
            "wrong": not ok and not named,
            "problems": problems, "numbers": numbers, "counts": counts,
            "seconds": run["seconds"]}


def exact_counts(results):
    """Totals that must repeat exactly at a fixed seed and code."""
    digest = hashlib.sha256()
    for r in sorted(results, key=lambda r: r["name"]):
        digest.update(f"{r['name']}:{r['counts'].get('payload_sha256')}\n"
                      .encode())
    return {
        "solver.iterations": sum(r["counts"].get("iterations", 0)
                                 for r in results),
        "solver.record_rows": sum(r["counts"].get("record_rows", 0)
                                  for r in results),
        "cli.payload_bytes": sum(r["counts"].get("payload_bytes", 0)
                                 for r in results),
        "cli.payload_sha256": digest.hexdigest(),
    }
