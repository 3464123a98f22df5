#!/usr/bin/env python3
"""Diff committed BENCH_*.json files against the previous commit.

For every BENCH_*.json tracked at HEAD, fetches the same file at HEAD~1
(via `git show`) and compares per-record wall_seconds and, when present,
the serving counters requests_per_sec / p50_s / p99_s. A record regresses
when it got slower (or lower-throughput) beyond TOLERANCE. Records are
matched by their "name" and "dataset" labels together (one bench can
time the same algorithm/threads name on several datasets); added or
removed records are reported but never fail the check, and a file with
no previous version is skipped — the first commit of a bench cannot
regress.

Bench numbers come from shared CI runners, so the tolerance is generous:
this check catches "accidentally quadratic", not single-digit noise.

A baseline can be missing for two distinct reasons, and the notice says
which: the file has no version at HEAD~1 at all (first commit of that
bench — cannot regress, skipped), or the previous version exists but does
not parse as JSON (also skipped, but called out loudly so a corrupted
baseline never silently disables the gate).

`--list` prints every tracked BENCH_*.json with its record count and
baseline status, without comparing anything; the CI job logs it first so
a "no perf regressions" verdict always shows what was actually checked.

Exit status: 1 when any matched record regressed beyond tolerance.
"""

import argparse
import glob
import json
import subprocess
import sys

TOLERANCE = 0.50  # fail only on >50% regressions; CI runners are noisy
MIN_SECONDS = 0.01  # ignore records too fast to measure reliably

# counter name -> direction ("higher"/"lower" is better)
SERVING_COUNTERS = {
    "requests_per_sec": "higher",
    "p50_s": "lower",
    "p99_s": "lower",
}


def load_previous(path):
    """Returns (doc, status): (parsed, "ok"), (None, "missing") when the
    baseline commit has no such file, (None, "unparsable") when it does
    but the content is not valid JSON."""
    try:
        out = subprocess.run(
            ["git", "show", f"HEAD~1:{path}"],
            capture_output=True,
            check=True,
        ).stdout
    except subprocess.CalledProcessError:
        return None, "missing"  # new file, or HEAD has no parent
    try:
        return json.loads(out), "ok"
    except json.JSONDecodeError:
        return None, "unparsable"


def records_by_name(doc):
    """Keys records by "name [dataset]" so that equal names on different
    datasets neither shadow each other nor get compared across datasets."""
    return {f"{r['name']} [{r.get('dataset', '')}]": r
            for r in doc.get("records", []) if "name" in r}


def ratio_regressed(old, new, direction):
    if old <= 0 or new <= 0:
        return False
    if direction == "lower":  # lower is better: new may be old * (1 + tol)
        return new > old * (1.0 + TOLERANCE)
    return new < old * (1.0 - TOLERANCE)


def check_file(path):
    new_doc = json.load(open(path))
    old_doc, baseline = load_previous(path)
    if baseline == "missing":
        print(f"  {path}: SKIPPED — baseline commit has no {path} "
              f"(first commit of this bench; nothing to compare against)")
        return []
    if baseline == "unparsable":
        print(f"  {path}: SKIPPED — baseline {path} exists at HEAD~1 but "
              f"is not valid JSON; fix or regenerate the baseline, the "
              f"regression gate is OFF for this file until then")
        return []
    old_records = records_by_name(old_doc)
    new_records = records_by_name(new_doc)
    regressions = []
    for name in sorted(set(old_records) | set(new_records)):
        if name not in old_records:
            print(f"  {path}: {name}: added")
            continue
        if name not in new_records:
            print(f"  {path}: {name}: removed")
            continue
        old, new = old_records[name], new_records[name]
        old_s, new_s = old.get("wall_seconds", 0), new.get("wall_seconds", 0)
        if old_s >= MIN_SECONDS and ratio_regressed(old_s, new_s, "lower"):
            regressions.append(
                f"{path}: {name}: wall_seconds {old_s:.4f} -> {new_s:.4f}")
        old_counters = dict(old.get("counters", {}))
        new_counters = dict(new.get("counters", {}))
        for counter, direction in SERVING_COUNTERS.items():
            if counter in old_counters and counter in new_counters:
                if ratio_regressed(old_counters[counter],
                                   new_counters[counter], direction):
                    regressions.append(
                        f"{path}: {name}: {counter} "
                        f"{old_counters[counter]:.4g} -> "
                        f"{new_counters[counter]:.4g}")
    status = "OK" if not regressions else f"{len(regressions)} regression(s)"
    print(f"  {path}: {len(new_records)} records, {status}")
    return regressions


def tracked_bench_files():
    tracked = subprocess.run(
        ["git", "ls-files", "BENCH_*.json"],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    return [p for p in tracked if glob.glob(p)]


def list_files(paths):
    if not paths:
        print("no committed BENCH_*.json files")
        return 0
    print(f"{len(paths)} tracked bench file(s):")
    for path in paths:
        try:
            records = len(records_by_name(json.load(open(path))))
        except (OSError, json.JSONDecodeError):
            records = -1
        _, baseline = load_previous(path)
        status = {"ok": "baseline at HEAD~1",
                  "missing": "NO baseline at HEAD~1 (gate skips this file)",
                  "unparsable": "UNPARSABLE baseline at HEAD~1 (gate skips "
                                "this file)"}[baseline]
        head = f"{records} records" if records >= 0 else "UNPARSABLE at HEAD"
        print(f"  {path}: {head}, {status}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--list", action="store_true",
                        help="list tracked bench files and baseline status "
                             "without comparing")
    args = parser.parse_args()
    paths = tracked_bench_files()
    if args.list:
        return list_files(paths)
    if not paths:
        print("no committed BENCH_*.json files; nothing to check")
        return 0
    print(f"checking {len(paths)} bench file(s) against HEAD~1 "
          f"(tolerance {TOLERANCE:.0%}):")
    regressions = []
    for path in paths:
        regressions.extend(check_file(path))
    if regressions:
        print("\nperf regressions beyond tolerance:")
        for r in regressions:
            print(f"  {r}")
        return 1
    print("no perf regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
