#!/usr/bin/env python3
"""Verification-job benchmark for nonmask.

Builds the library and the jobbench program from source (Release), then runs
one workload and prints its metrics as the last line of standard output:

    python3 jobbench/run.py --workload ring-check --seed 1 --seconds 20 --trace 0

--trace 0 runs the workload's end-to-end loop in a fresh process and reports
the end-to-end metrics. --trace 1 runs the traced run (all four workloads,
spans around every layer call, one-thread reruns) and the serial microprobes,
each in its own process, and reports the per-layer metrics; the Chrome trace
and a results file land in <build root>/jobbench-out/. --small shrinks every
workload for the benchmark's own tests. See README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ring-check", "ring-fair-native", "ring-campaign", "ring-containment"]
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo")
CHILD_TIMEOUT_S = 170


def fail(message):
    print("jobbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build():
    """Configure and build jobbench; returns the program's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("nonmask sources (src/) not found next to " + HERE)
    for tool in ("cmake", "g++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    bdir = os.path.join(build_root(), "jobbench")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, os.cpu_count() or 1))
    cmd = ["cmake", "--build", bdir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    build_type = ""
    with open(os.path.join(bdir, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type not in OPTIMIZED_BUILD_TYPES:
        fail("refusing to report from build type '%s'" % build_type)
    return os.path.join(bdir, "jobbench")


def source_id():
    """The commit, or a digest of the sources when there is no git checkout."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def child(binary, args):
    """Run one jobbench mode in a fresh process; returns its result object."""
    # The library's own tracing, telemetry and backend overrides stay off.
    env = {k: v for k, v in os.environ.items() if not k.startswith("NONMASK_")}
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                          env=env, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s %s exited with %d" % (binary, " ".join(args), proc.returncode))
    return json.loads(lines[-1])


def derived_residuals(metrics, info):
    """ns per transition of the one-thread convergence pass left after the
    successor expansion and the S/T predicate sweep: the DFS (or Tarjan)
    bookkeeping. Derived, and labeled so, until spans inside the program
    exist; all three inputs are serial, so they are comparable."""
    for workload, span in (("ring-check", "converge"), ("ring-fair-native", "fair")):
        p = workload + "."
        transitions = metrics[p + "checker.transitions"]["value"]
        if transitions == 0:  # the job failed its checks; nothing to derive
            continue
        states = info[p + "states"]
        pass_ns = (metrics[p + "checker." + span + "_s"]["value"] *
                   metrics[p + "checker." + span + "_speedup"]["value"] * 1e9)
        sweep_ns = (metrics[p + "core.pred_S_ns"]["value"] +
                    metrics[p + "core.pred_T_ns"]["value"]) * states
        residual = (pass_ns - sweep_ns) / transitions - metrics[p + "store.successors_ns"]["value"]
        metrics[p + "checker." + span + "_residual_ns"] = {"value": residual, "unit": "ns"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="small problem sizes, for the benchmark's own tests")
    ap.add_argument("--corrupt-verdict", action="store_true",
                    help="flip each job's verdict before checking it (tests only)")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    common = ["--seed", str(args.seed)] + (["--small"] if args.small else [])
    if args.trace == 0:
        extra = ["--corrupt-verdict"] if args.corrupt_verdict else []
        results = [child(binary, ["e2e", "--workload", args.workload,
                                  "--seconds", repr(args.seconds)] + common + extra)]
    else:
        out_dir = os.path.join(build_root(), "jobbench-out")
        os.makedirs(out_dir, exist_ok=True)
        trace_file = os.path.join(out_dir, "trace-s%d.json" % args.seed)
        results = [child(binary, ["trace", "--out", trace_file] + common),
                   child(binary, ["probes"] + common)]

    metrics, info = {}, {}
    for r in results:
        metrics.update(r["metrics"])
        info.update(r["info"])
    if args.trace == 1:
        derived_residuals(metrics, info)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [p for r in results for p in r["problems"]]
    context = dict(results[0]["context"], source=source_id(), workload=args.workload,
                   seed=args.seed, seconds=args.seconds, trace=args.trace)

    for p in problems[:20]:
        print("check failed: " + p)
    print("context " + json.dumps(context, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    if args.trace == 1:
        with open(os.path.join(out_dir, "results-s%d.json" % args.seed), "w") as f:
            json.dump({"context": context, "metrics": metrics, "info": info,
                       "problems": problems}, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
