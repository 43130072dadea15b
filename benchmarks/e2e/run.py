#!/usr/bin/env python3
"""BENCH_E2E: the repo's layered end-to-end benchmark.

Two ways in, one code path:

* ``python3 benchmarks/e2e/run.py [--seed S] [--workload W] [--runs N]
  [--smoke]`` runs every workload (or W), each in fresh child processes —
  one untraced for the end-to-end metrics, one traced for the per-layer
  metrics — prints every metric by name with its unit, writes
  ``out/result_seed<S>.json`` and ``out/trace_<workload>.json``, and exits
  non-zero if an output check failed.
* ``... --workload W --seed S --seconds T --trace 0|1`` is one such child
  (``measure.py``): the form ``BENCHMARK.json``'s command is run in. Its
  last line of output is the result object.

See README.md for what each number means.
"""

import time

STARTED = time.perf_counter()  # set-up time is measured from here

import os

# One compute thread per process: the host has two cores and the suite
# keeps one child busy at a time.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
CHILD_TIMEOUT_S = 175


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_child(args, spec):
    """One workload in this process (see measure.py)."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise SystemExit(f"benchmarks/e2e: no src/repro under {ROOT}: "
                         "nothing to measure")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # Whatever the program or the probe writes (the tiered store's disk
    # log) goes under this directory, which is removed on the way out.
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    os.environ["TMPDIR"] = tempfile.tempdir = tmp
    try:
        import measure

        try:
            return measure.measure(args, spec, OUT, tmp, STARTED)
        except measure.NoResult as exc:
            raise SystemExit(f"benchmarks/e2e: {exc}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# --------------------------------------------------------------------------
# the suite: every workload, both runs, in child processes
# --------------------------------------------------------------------------

def _spawn(args, workload, trace):
    """Run one child; returns ``(exit code, output lines, result)``."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, lines, json.loads(lines[-1])
    except (IndexError, ValueError):
        return done.returncode, lines, None


def _name_problems(lines, declared):
    """Every declared name is printed exactly once, with a unit."""
    printed = [line.split() for line in lines if line.startswith("metric ")]
    names = [parts[1] for parts in printed]
    problems = [f"{n} printed {names.count(n)} times"
                for n in declared if names.count(n) != 1]
    problems += [f"{parts[1]} has no unit" for parts in printed
                 if len(parts) < 4]
    problems += [f"{n} is not a valid name" for n in names
                 if not NAME_RE.match(n)]
    problems += [f"{n} is not declared" for n in names if n not in declared]
    return problems


def run_suite(args, spec):
    import probe

    chosen = [w for w in spec["workloads"]
              if args.workload in (None, w["name"])]
    if not chosen:
        raise SystemExit(f"unknown workload {args.workload!r}")
    report = {
        "benchmark": "BENCH_E2E", "seed": args.seed,
        "seconds": args.seconds, "smoke": args.smoke, "runs": args.runs,
        "host": probe.fingerprint(), "workloads": {},
    }
    for workload in chosen:
        name = workload["name"]
        entry = report["workloads"][name] = {
            "why": workload["why"], "unstable": False, "attempted": 0,
            "failed": 0, "problems": [], "end_to_end": {}, "per_layer": {}}
        for index in range(args.runs):
            for trace, kind in enumerate(("end_to_end", "per_layer")):
                print(f"== {name} run {index + 1}/{args.runs} "
                      f"--trace {trace}", flush=True)
                code, lines, result = _spawn(args, name, trace)
                problems = _name_problems(
                    lines, [m["name"] for m in spec[kind]])
                if result is None:
                    problems.append(f"child exited {code} without a result")
                    entry["problems"] += problems
                    continue
                if code != 0 or not result["correct"]:
                    problems.append(
                        f"child exited {code}, correct={result['correct']}")
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                for metric, m in result["metrics"].items():
                    slot = entry[kind].setdefault(
                        metric, {"unit": m["unit"], "values": []})
                    slot["values"].append(m["value"])
                with open(os.path.join(
                        OUT, f"{name}.trace{trace}.json")) as fh:
                    detail = json.load(fh)
                entry["unstable"] |= detail["unstable"]
                if index == 0:
                    entry[f"first_run_trace{trace}"] = detail
                entry["problems"] += problems + detail["failures"]
        for kind in ("end_to_end", "per_layer"):
            for slot in entry[kind].values():
                slot["value"] = statistics.median(slot["values"])
    report["wall_seconds"] = time.perf_counter() - STARTED

    print("\n== summary (median of runs)")
    ok = True
    for name, entry in report["workloads"].items():
        flag = " UNSTABLE (canary drift)" if entry["unstable"] else ""
        print(f"-- {name}{flag}")
        for kind in ("end_to_end", "per_layer"):
            for metric, slot in entry[kind].items():
                print(f"{name} {metric} {slot['value']!r} {slot['unit']}")
        for problem in entry["problems"]:
            print(f"{name} PROBLEM: {problem}")
        ok &= not entry["problems"]
    out = args.out or os.path.join(
        OUT, "smoke.json" if args.smoke else f"result_seed{args.seed}.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"wrote {os.path.relpath(out)} after {report['wall_seconds']:.1f} "
          f"s; {'all checks passed' if ok else 'CHECKS FAILED'}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run one workload in this process: 0 = "
                             "end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--runs", type=int, default=1,
                        help="suite: how many times each child is run")
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, fixed repeat counts, < 20 s")
    parser.add_argument("--out", help="suite: result file")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    os.makedirs(OUT, exist_ok=True)
    if args.trace is None and not args.setup_only:
        return run_suite(args, spec)
    if args.workload is None:
        parser.error("--trace needs --workload")
    args.trace = args.trace or 0
    return run_child(args, spec)


if __name__ == "__main__":
    sys.exit(main())
