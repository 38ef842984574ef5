#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first call configures and builds
`perfbench` (and the simulator library it links) under .bench_build/;
later calls rebuild only what changed. The benchmark binary prints a
detail line and, last, the result line
{"correct", "attempted", "failed", "metrics"}; this script passes both
through and exits with the binary's status.

--smoke runs every workload of BENCHMARK.json for a few ops, untraced
and traced, and checks that every named metric is emitted with its unit
and a finite value, that every per-layer metric has an entry in
layer_map.json, and that each traced run's span file is Chrome
trace-event JSON with a non-empty traceEvents list.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build the perfbench target."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no %s at the checkout root; run from a full checkout"
                 % needed)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (full log: %s)" % log_path)


def fingerprint():
    """Commit id when the checkout root is a git work tree, and a digest
    of the sources either way. Git is not asked about directories above
    the checkout."""
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def run_binary(args, state_dir):
    """Run perfbench; return (exit code, stdout lines)."""
    commit, digest = fingerprint()
    cmd = [BINARY] + args + ["--state-dir", state_dir,
                             "--git-commit", commit,
                             "--source-digest", digest]
    os.makedirs(state_dir, exist_ok=True)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (RUN_TIMEOUT_S, " ".join(cmd)))
    return proc.returncode, proc.stdout.splitlines()


def check_metrics(result, specs, layer_map, where):
    """Every metric in @specs present with its unit and a finite value."""
    problems = []
    metrics = result.get("metrics", {})
    for spec in specs:
        got = metrics.get(spec["name"])
        if got is None:
            problems.append("%s: missing %s" % (where, spec["name"]))
        elif got.get("unit") != spec["unit"]:
            problems.append("%s: %s has unit %r, want %r"
                            % (where, spec["name"], got.get("unit"),
                               spec["unit"]))
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append("%s: %s is not a finite number"
                            % (where, spec["name"]))
        if layer_map is not None and spec["name"] not in layer_map:
            problems.append("layer_map.json has no entry for %s"
                            % spec["name"])
    if not result.get("correct"):
        problems.append("%s: the run reported correct=false" % where)
    return problems


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layer_map.json")) as f:
        layer_map = json.load(f)
    build()
    state_dir = os.path.join(ROOT, ".bench_build", "smoke-state")
    problems = []
    for workload in bench["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            where = "%s trace=%d" % (name, trace)
            code, lines = run_binary(["--workload", name, "--seed", "1",
                                      "--seconds", "1", "--trace",
                                      str(trace), "--smoke"], state_dir)
            if code != 0 or not lines:
                problems.append("%s: exit %d" % (where, code))
                continue
            result = json.loads(lines[-1])
            if trace == 0:
                problems += check_metrics(result, bench["end_to_end"], None,
                                          where)
                continue
            problems += check_metrics(result, bench["per_layer"], layer_map,
                                      where)
            span_file = os.path.join(state_dir, name + ".spans.json")
            with open(span_file) as f:
                events = json.load(f).get("traceEvents", [])
            if not events:
                problems.append("%s: %s has no traceEvents"
                                % (where, span_file))
            print("smoke: %-24s ran %d ops, %d spans"
                  % (where, result["attempted"], len(events)))
    for p in problems:
        print("smoke: FAIL " + p)
    print("smoke: %s" % ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    build()
    code, lines = run_binary(["--workload", args.workload,
                              "--seed", str(args.seed),
                              "--seconds", str(args.seconds),
                              "--trace", args.trace],
                             os.path.join(ROOT, ".bench_build", "state"))
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
