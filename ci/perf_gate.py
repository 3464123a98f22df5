#!/usr/bin/env python3
"""Runs the end-to-end benchmark in a parent and a head checkout and fails
when head is worse.

    python3 ci/perf_gate.py PARENT_DIR HEAD_DIR
    python3 ci/perf_gate.py --self-test

The workloads, the end_to_end metrics with their `better` and `bound`, and
`run_seconds` come from HEAD_DIR's BENCHMARK.json; a workload that the
parent's BENCHMARK.json does not declare is not run, and a metric the
parent's runs do not print reads `unresolved`. For each workload the gate
runs

    python3 perfbench/run.py --workload W --seed 1 --seconds <run_seconds> --trace 0

in both checkouts, 10 pairs, one run at a time, alternating which side
goes first: the host's speed drifts over minutes, and alternating spreads
the drift over both sides. It prints one table and exits 1 when

  - a run exits non-zero or prints "correct": false;
  - head's failed share (failed / attempted over all its runs) is above
    the parent's;
  - a (workload, metric) reads `worse`.

A metric whose parent runs spread wider than its bound (q3 - q1 above
bound x median) reads `unresolved`: a median test would pass or fail at
random on it. It reads `worse` only when every head run is worse than
every parent run. Any other metric reads `worse` when head's median is
worse than the parent's by more than bound x parent median.

--self-test checks these rules on synthetic result lines.
"""
import json
import os
import statistics
import subprocess
import sys
import time

PAIRS = 10
SEED = 1


def log(msg):
    print("perf_gate: " + msg, file=sys.stderr, flush=True)


def load_bench(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_run(returncode, stdout):
    """One run's record from run.py's exit code and its last stdout line."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict):
        return {"ok": False, "why": "printed no result line (exit %d)" % returncode}
    run = {"ok": returncode == 0 and result.get("correct") is True,
           "attempted": result.get("attempted", 0),
           "failed": result.get("failed", 0),
           "metrics": {name: m["value"]
                       for name, m in result.get("metrics", {}).items()}}
    if not run["ok"]:
        run["why"] = "exit %d, correct=%s" % (returncode, result.get("correct"))
    return run


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(metric, parent, head):
    """ok, worse or unresolved for one metric's parent and head values."""
    if not parent or not head:
        return "unresolved"
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    q1, median, q3 = quartiles(parent)
    if q3 - q1 > bound * abs(median):
        all_worse = min(head) > max(parent) if lower else max(head) < min(parent)
        return "worse" if all_worse else "unresolved"
    head_median = statistics.median(head)
    limit = median * (1 + bound if lower else 1 - bound)
    worse = head_median > limit if lower else head_median < limit
    return "worse" if worse else "ok"


def failed_share(runs):
    attempted = sum(r.get("attempted", 0) for r in runs)
    return sum(r.get("failed", 0) for r in runs) / attempted if attempted else 0.0


def evaluate(metrics, runs):
    """Table rows, each side's failed share, and the reasons the gate fails.

    runs maps "parent" and "head" to {workload: [run records]}."""
    problems = []
    for side in ("parent", "head"):
        for workload, records in runs[side].items():
            for i, r in enumerate(records):
                if not r["ok"]:
                    problems.append("%s %s run %d: %s" % (side, workload, i + 1, r["why"]))
    shares = {side: failed_share([r for rs in runs[side].values() for r in rs])
              for side in ("parent", "head")}
    if shares["head"] > shares["parent"]:
        problems.append("head's failed share %.5f is above the parent's %.5f"
                        % (shares["head"], shares["parent"]))
    rows = []
    for workload in runs["head"]:
        for metric in metrics:
            name = metric["name"]
            values = {side: [r["metrics"][name] for r in runs[side][workload]
                             if name in r.get("metrics", {})]
                      for side in ("parent", "head")}
            v = verdict(metric, values["parent"], values["head"])
            if v == "worse":
                problems.append("%s %s is worse" % (workload, name))
            rows.append((workload, name, values["parent"], values["head"], v))
    return rows, shares, problems


def fmt(x):
    return "%.4g" % x


def print_table(rows):
    table = [("workload", "metric", "parent median [q1, q3]", "head median",
              "ratio", "verdict")]
    for workload, name, parent, head, v in rows:
        if parent and head:
            q1, median, q3 = quartiles(parent)
            head_median = statistics.median(head)
            ratio = fmt(head_median / median) if median else "-"
            table.append((workload, name, "%s [%s, %s]" % (fmt(median), fmt(q1), fmt(q3)),
                          fmt(head_median), ratio, v))
        else:
            table.append((workload, name, "-", "-", "-", v))
    widths = [max(len(row[c]) for row in table) for c in range(len(table[0]))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def run_once(checkout, workload, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
           str(SEED), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    run = parse_run(proc.returncode, proc.stdout)
    if not run["ok"]:
        sys.stderr.write("".join(proc.stderr.splitlines(True)[-40:]))
    return run


def gate(parent_dir, head_dir):
    bench = load_bench(head_dir)
    known = {w["name"] for w in load_bench(parent_dir)["workloads"]}
    workloads = [w["name"] for w in bench["workloads"] if w["name"] in known]
    for w in bench["workloads"]:
        if w["name"] not in known:
            print("not run: the parent's BENCHMARK.json has no workload " + w["name"])
    dirs = {"parent": parent_dir, "head": head_dir}
    runs = {side: {w: [] for w in workloads} for side in dirs}
    for workload in workloads:
        for pair in range(PAIRS):
            order = ("parent", "head") if pair % 2 == 0 else ("head", "parent")
            for side in order:
                start = time.monotonic()
                run = run_once(dirs[side], workload, bench["run_seconds"])
                runs[side][workload].append(run)
                log("%s pair %d/%d %s: %s (%.0f s)" % (
                    workload, pair + 1, PAIRS, side, "ok" if run["ok"] else run["why"],
                    time.monotonic() - start))
    rows, shares, problems = evaluate(bench["end_to_end"], runs)
    print_table(rows)
    for side, share in shares.items():
        print("%s failed share: %.5f" % (side, share))
    for p in problems:
        print("FAIL: " + p)
    print("perf gate: " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def self_test():
    metrics = load_bench(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))["end_to_end"]
    base = {m["name"]: 1.0 if m["better"] == "higher" else 5.0 for m in metrics}

    def line(correct=True, failed=0, **values):
        got = dict(base, **values)
        return json.dumps({"correct": correct, "attempted": 1000, "failed": failed,
                           "metrics": {k: {"value": v, "unit": "u"} for k, v in got.items()}})

    def runs(lines):
        # An item is a result line (exit 0) or (exit code, result line).
        return {"w": [parse_run(*(l if isinstance(l, tuple) else (0, l)))
                      for l in lines]}

    # A 1% jitter, well inside every bound.
    steady = [line(enum_rel=5.0 * (1 + 0.01 * (i % 3))) for i in range(PAIRS)]
    failures = []

    def expect(name, head_lines, want_fail, want_verdicts, parent_lines=steady):
        rows, _, problems = evaluate(metrics, {"parent": runs(parent_lines),
                                               "head": runs(head_lines)})
        verdicts = {row[1]: row[4] for row in rows}
        if bool(problems) != want_fail:
            failures.append("%s: expected %s, got problems %r"
                            % (name, "a failure" if want_fail else "a pass", problems))
        for metric, want in want_verdicts.items():
            if verdicts.get(metric) != want:
                failures.append("%s: %s reads %r, expected %r"
                                % (name, metric, verdicts.get(metric), want))

    expect("identical runs", steady, False, {m["name"]: "ok" for m in metrics})
    expect("30% higher enum_rel",
           [line(enum_rel=6.5 * (1 + 0.01 * (i % 3))) for i in range(PAIRS)], True,
           {"enum_rel": "worse", "setup_s": "ok"})
    expect("one incorrect run", steady[:-1] + [line(correct=False)], True,
           {"enum_rel": "ok"})
    expect("one non-zero exit", steady[:-1] + [(1, steady[-1])], True,
           {"enum_rel": "ok"})
    expect("higher failed share", steady[:-1] + [line(failed=3)], True,
           {"enum_rel": "ok"})
    # setup_s as dense-enum reads it within one commit: 2.3 to 4.9 ms.
    wide = [2.33, 4.93, 2.40, 4.12, 2.5, 3.9, 2.45, 4.5, 2.6, 4.0]
    expect("wide spread", [line(setup_s=v) for v in reversed(wide)], False,
           {"setup_s": "unresolved"}, [line(setup_s=v) for v in wide])
    expect("wide spread, every head run worse", [line(setup_s=v + 3) for v in wide], True,
           {"setup_s": "worse"}, [line(setup_s=v) for v in wide])
    expect("no result line", steady[:-1] + [(1, "# stamp\nnot json")], True, {})
    if failures:
        print("SELF-TEST FAILED")
        for f in failures:
            print("  " + f)
        return 1
    print("self-test passed: identical runs pass; a 30% higher enum_rel, an "
          "incorrect run, a non-zero exit, a higher failed share and a missing "
          "result line fail; a wide-spread metric reads unresolved unless every "
          "head run is worse")
    return 0


def main():
    args = sys.argv[1:]
    if args == ["--self-test"]:
        return self_test()
    if len(args) != 2 or any(a.startswith("-") for a in args):
        print(__doc__, file=sys.stderr)
        return 2
    return gate(*args)


if __name__ == "__main__":
    sys.exit(main())
