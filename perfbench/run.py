"""symcrit benchmark: one workload, one seed, one single-threaded process.

    bash perfbench/run.sh --workload desk --seed 0 --seconds 20 --trace 0

The process pins every thread pool to one thread (SYMCRIT_THREADS=1),
acts as one closed-loop client and starts no other thread or process.
Set-up writes the workload's configs and stored points; each case of a
pass is then one in-process call to `symcrit.cli.main`.  After a pass
every output is checked (see `checks.py`).

--trace 0 prints the end-to-end metrics: setup_s, wall_s (median pass)
and peak_rss_mb; fail_frac, the share of failed cases, is `failed /
attempted` in the result (it is 0 on healthy workloads, and a metric there
must never be 0).  Passes repeat while the next one still fits in
--seconds.

--trace 1 runs the same untraced passes, then one pass with every public
function of the layer modules wrapped by `tracer.Tracer`, then the kernel
probe, and prints the per-layer metrics listed in BENCHMARK.json; the
tracing overhead is the traced pass minus the median untraced pass.  All
per-layer values go to perfbench/work/<workload>/layers.json and the spans
to perfbench/work/<workload>/spans.csv.

The last line of standard output is the JSON result.
"""

import os
import sys
import time

# wall clock stamped by run.sh before the interpreter started (bash may
# print it with a decimal comma); without run.sh, the start of this file
T0 = float(os.environ.get("PERFBENCH_T0", "").replace(",", ".")
           or time.time())

for _var in ("SYMCRIT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import traceback

import checks
import probe
import workloads
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# relative to the checkout root, so that the config hash that every payload
# embeds (it includes output.dir) does not depend on where the checkout is
WORK = os.path.join("perfbench", "work")

# set-up is repeated and its median taken, so one slow file system call
# does not move setup_s
SETUP_REPEATS = 5

KERNELS = ("functional.energy_of_values", "functional.residual_of_values",
           "grid.cell_values", "grid.norm_w1p", "grid.norm_lm",
           "group.average_values", "symmetrize.weight_classes",
           "symmetrize.schwarz", "symmetrize.cone_project", "solver.splu")


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench")
    ap.add_argument("--workload", required=True,
                    choices=("desk", "refine", "audit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def import_symcrit():
    if not os.path.isfile(os.path.join(SRC, "symcrit", "__init__.py")):
        sys.exit("perfbench: no symcrit sources under src/ in this checkout")
    sys.path.insert(0, SRC)
    import symcrit
    if not os.path.abspath(symcrit.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: symcrit imported from {symcrit.__file__}")
    return symcrit


def source_fingerprint():
    """Digest of the program and benchmark sources, keying the count file."""
    digest = hashlib.sha256()
    for base in (os.path.join(SRC, "symcrit"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith((".py", ".json")):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def set_up(symcrit, name, seed):
    """Write the inputs SETUP_REPEATS times; return cases and median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        workdir = os.path.join(WORK, name, "inputs")
        shutil.rmtree(workdir, ignore_errors=True)
        t = time.perf_counter()
        cases = workloads.make_cases(name, seed)
        workloads.write_inputs(symcrit, cases, workdir)
        times.append(time.perf_counter() - t)
    return cases, statistics.median(times)


def run_pass(symcrit, cases, tracer=None):
    """Run every case through the CLI; return wall time and per-case runs."""
    for case in cases:
        shutil.rmtree(case["out"], ignore_errors=True)
    runs = []
    t_pass = time.perf_counter()
    for case in cases:
        argv = [case["command"], "--config", case["config_path"],
                "--out", case["out"], "--quiet"]
        if case["command"] == "verify-point":
            argv.append(case["point_path"])
        span = (tracer.case_span(case["name"]) if tracer is not None
                else contextlib.nullcontext())
        crash = None
        t_case = time.perf_counter()
        with span:
            try:
                code = symcrit.cli.main(argv)
            except Exception:
                code, crash = None, traceback.format_exc()
        runs.append({"code": code, "crash": crash,
                     "seconds": time.perf_counter() - t_case})
    return time.perf_counter() - t_pass, runs


def print_cases(results):
    for r in results:
        nums = ", ".join(f"{k} {v}" for k, v in r["numbers"].items())
        print(f"  case {r['name']:<16} {r['command']:<14} exit {r['code']}  "
              f"{r['status']:<6} {r['seconds']:8.3f} s  {nums}")
        for line in r["problems"]:
            print(f"    {'WRONG' if r['wrong'] else 'fails'}: {line}")


def compare_counts(path, counts):
    """Exact-count check against an earlier run of the same code and seed."""
    mismatches = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        for key in sorted(set(before) & set(counts)):
            if before[key] != counts[key]:
                mismatches.append(f"{key}: {before[key]} then {counts[key]}")
        before.update(counts)
        counts = before
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(counts, fh, indent=1, sort_keys=True)
    return mismatches


def per_layer(tracer, counts, solves, untraced_wall, traced_wall, probed):
    """Every per-layer value of a traced pass, keyed by metric name."""
    by_name, per_case, problems = tracer.aggregate()
    layer = {}
    for name, (calls, self_s) in by_name.items():
        layer[f"{name}.calls"] = calls
        layer[f"{name}.self_s"] = self_s
        if name in KERNELS:
            layer[f"{name}.us_per_call"] = (1e6 * self_s / calls
                                            if calls else 0.0)
        module = name.split(".", 1)[0]
        layer[f"{module}.self_s"] = layer.get(f"{module}.self_s", 0.0) + self_s
    layer["cli.commands.self_s"] = sum(
        self_s for name, (_, self_s) in by_name.items()
        if name.startswith("cli.cmd_"))
    for case, seconds in per_case.items():
        layer[f"cli.case.{case}.s"] = seconds
    for key in ("solver.iterations", "solver.record_rows", "cli.payload_bytes"):
        layer[key] = counts[key]
    # base: the iterations of the solve cases; 0 when there are none
    iterations = counts["solver.iterations"]
    solve_energy = tracer.count_in_cases("functional.energy_of_values",
                                         solves)
    layer["solver.energy_calls_per_iteration"] = (
        solve_energy / iterations if iterations else 0.0)
    layer["trace.untraced_wall_s"] = untraced_wall
    layer["trace.wall_s"] = traced_wall
    layer["trace.overhead_s"] = traced_wall - untraced_wall
    layer.update(probed)
    return layer, problems


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    symcrit = import_symcrit()
    t_import = time.time() - T0

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    cases, t_inputs = set_up(symcrit, args.workload, args.seed)
    setup_s = t_import + t_inputs
    refs = reference["references"][args.workload]

    def checked(runs):
        return [checks.check(case, run, refs.get(case["name"], {}), args.seed)
                for case, run in zip(cases, runs)]

    print(f"perfbench {args.workload} seed {args.seed}: {len(cases)} cases, "
          f"symcrit from {os.path.relpath(symcrit.__file__, ROOT)}")
    walls, passes = [], []
    t_start = time.perf_counter()
    while True:
        wall, runs = run_pass(symcrit, cases)
        walls.append(wall)
        passes.append(checked(runs))
        if time.perf_counter() - t_start + wall > args.seconds:
            break
    results = passes[0]
    counts = checks.exact_counts(results)

    layer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(symcrit)
        try:
            traced_wall, runs = run_pass(symcrit, cases, tracer)
        finally:
            tracer.uninstall()
        passes.append(checked(runs))
        layer, trace_problems = per_layer(
            tracer, counts,
            {r["name"] for r in results if r["command"] == "solve"},
            statistics.median(walls), traced_wall,
            probe.kernel_probe(symcrit, args.seed))
        tracer.write(os.path.join(WORK, args.workload, "spans.csv"))
        with open(os.path.join(WORK, args.workload, "layers.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(layer, fh, indent=1, sort_keys=True)

    # every later pass (the traced one last) must repeat the first exactly
    unsteady = [f"pass {k} case {a['name']}: {b['counts']} != {a['counts']}"
                for k, other in enumerate(passes[1:], start=2)
                for a, b in zip(results, other) if a["counts"] != b["counts"]]
    if layer is not None:
        for name in ("functional.energy_of_values",
                     "functional.residual_of_values",
                     "symmetrize.weight_classes", "solver.splu"):
            counts[f"{name}.calls"] = layer[f"{name}.calls"]
    count_file = os.path.join(
        WORK, "counts",
        f"{source_fingerprint()}-{args.workload}-s{args.seed}.json")
    unsteady += compare_counts(count_file, counts)

    failed = [r for r in results if r["status"] != "ok"]
    wrong = [r for p in passes for r in p if r["wrong"]]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print_cases(results)
    known = reference["known_failures"].get(args.workload, {})
    print(f"fail_frac {len(failed) / len(results):.6g} 1 "
          f"({len(failed)}/{len(results)} cases"
          + "".join(f"; {r['name']} exit {r['code']}"
                    + (" (known)" if r["name"] in known else "")
                    for r in failed) + ")")
    print(f"setup_s {setup_s:.6f} s (import {t_import:.3f} s + median of "
          f"{SETUP_REPEATS} input writes {t_inputs:.3f} s)")
    print(f"wall_s {statistics.median(walls):.6f} s (median of {len(walls)} "
          f"passes: {', '.join(f'{w:.3f}' for w in walls)})")
    print(f"peak_rss_mb {peak_rss_mb:.1f} MB")
    print("exact counts: " + ("UNSTEADY " + "; ".join(unsteady) if unsteady
                              else "steady") + f" ({json.dumps(counts)})")

    if args.trace:
        for key in sorted(layer):
            print(f"  {key} {layer[key]:.9g}")
        print("\n".join(probe.roadmap_lines(layer)))
        print(f"traced wall_s {layer['trace.wall_s']:.3f} s, untraced "
              f"{layer['trace.untraced_wall_s']:.3f} s, overhead "
              f"{layer['trace.overhead_s']:+.3f} s "
              f"({100 * layer['trace.overhead_s'] / layer['trace.untraced_wall_s']:+.1f}%)")
        print("self-time check: " + ("; ".join(trace_problems)
                                     if trace_problems else "ok"))
        wanted = spec["per_layer"]
        missing = [m["name"] for m in wanted if m["name"] not in layer]
        if missing or trace_problems:
            sys.exit(f"perfbench: per-layer metrics missing {missing}, "
                     f"trace problems {trace_problems}")
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in wanted}
    else:
        values = {"setup_s": setup_s, "wall_s": statistics.median(walls),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    print(json.dumps({"correct": not wrong, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
