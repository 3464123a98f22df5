#!/usr/bin/env python3
"""Runs one benchmark workload end to end.

    python3 perfbench/run.py --workload dense-enum --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the harness from source into
.bench_build/ (Release), generates the workload's inputs from the seed,
runs the measured process, and prints as its last line one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list (the traced run also writes its spans under .bench_build/).

    python3 perfbench/run.py --self-test

builds and runs the harness helpers' unit tests instead.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
HARNESS_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs cmd with its output on stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, cwd=ROOT).returncode
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return 1


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        if run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"], 300) != 0:
            return False
    return run_quiet(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                     900) == 0


def commit_stamp():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, timeout=10, capture_output=True, text=True)
        top_and_head = out.stdout.split()
        if (out.returncode == 0 and len(top_and_head) == 2
                and os.path.realpath(top_and_head[0]) == os.path.realpath(ROOT)):
            return top_and_head[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "src-sha1:" + digest.hexdigest()[:12]


def exact_counts_repeat(args, lines, commit):
    """Checks the run's answer digests and exact work counters against an
    earlier run of the same code, workload and seed in this build tree."""
    exact = [l for l in lines if l.startswith(("# query ", "# threads=1 work counters"))]
    harness = hashlib.sha1()
    for name in sorted(os.listdir(os.path.join(ROOT, "perfbench", "harness"))):
        with open(os.path.join(ROOT, "perfbench", "harness", name), "rb") as fh:
            harness.update(fh.read())
    key = "%s|%s|%s|%d" % (commit, harness.hexdigest()[:12], args.workload, args.seed)
    path = os.path.join(OUT, "exact-counts.json")
    try:
        with open(path) as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    if key in known and known[key] != exact:
        log("exact counters differ from an earlier run of the same code and seed")
        return False
    known[key] = exact
    with open(path, "w") as fh:
        json.dump(known, fh)
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.self_test:
        if not build("perfbench_helpers_test"):
            return 1
        return run_quiet([os.path.join(BUILD, "perfbench_helpers_test")], 120)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        log("unknown workload %r; expected one of %s" % (args.workload, names))
        return 2
    if not build("perfbench_harness"):
        log("build failed")
        return 1

    harness = os.path.join(BUILD, "perfbench_harness")
    # Inputs are regenerated on every run (a few seconds at most), so they
    # always match the harness that reads them.
    inputs = os.path.join(OUT, "inputs", "%s-seed%d" % (args.workload, args.seed))
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(inputs)
    try:
        if run_quiet([harness, "generate", "--workload", args.workload,
                      "--seed", str(args.seed), "--dir", inputs], 120) != 0:
            log("input generation failed")
            return 1
        cmd = [harness, "measure", "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--dir", inputs]
        if args.trace:
            cmd += ["--trace-out", os.path.join(
                OUT, "trace-%s-seed%d.ndjson" % (args.workload, args.seed))]
        env = dict(os.environ, PERFBENCH_COMMIT=commit_stamp())
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("the measured run exceeded %d s" % HARNESS_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("the measured run printed nothing (exit %d)" % proc.returncode)
        return 1
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    if not exact_counts_repeat(args, lines[:-1], env["PERFBENCH_COMMIT"]):
        result["correct"] = False

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            log("metric %s was not measured" % m["name"])
            return 1
        if got["unit"] != m["unit"]:
            log("metric %s: unit %s, BENCHMARK.json says %s"
                % (m["name"], got["unit"], m["unit"]))
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
