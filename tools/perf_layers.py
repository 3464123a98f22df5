#!/usr/bin/env python3
"""Splits a traced benchmark run's wall time into named layers.

    python3 perfbench/run.py --workload dense-enum --seed 1 --seconds 50 --trace 1
    python3 tools/perf_layers.py .bench_build/perfbench-out/trace-dense-enum-seed1.ndjson

Reads the span file a `--trace 1` run writes (first line: the machine
stamp; then one span per line) and prints, as markdown:

  - the machine stamp and the run's wall time, from the first span's
    start to the last span's end;
  - each span name's self time (its spans' durations minus their direct
    children's) and span count;
  - the share of wall time the root spans cover (their union, so that
    concurrent serving requests count once), and the uncovered gaps
    grouped by the root spans on either side of each gap.

docs/performance.md is built from its output.
"""
import collections
import json
import sys


def report(path):
    with open(path) as fh:
        stamp = fh.readline().strip()
        spans = [json.loads(line) for line in fh if line.strip()]
    start = min(s["start"] for s in spans)
    end = max(s["end"] for s in spans)
    wall = end - start

    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    self_s = collections.defaultdict(float)
    count = collections.Counter()
    for s, c in zip(spans, child):
        self_s[s["name"]] += s["end"] - s["start"] - c
        count[s["name"]] += 1

    # Union of the root spans; each gap is keyed by the root span that
    # ended last before it and the one that starts after it.
    roots = sorted((s for s in spans if s["parent"] < 0), key=lambda s: s["start"])
    covered = 0.0
    gaps = collections.defaultdict(float)
    reach, last = start, roots[0]
    for s in roots:
        if s["start"] > reach:
            gaps["`%s` → `%s`" % (last["name"], s["name"])] += s["start"] - reach
        if s["end"] > reach:
            covered += s["end"] - max(s["start"], reach)
            reach, last = s["end"], s
    print("machine: `%s`\n" % stamp)
    print("wall time %.2f s; root spans cover %.2f s (%.1f%%)\n"
          % (wall, covered, 100 * covered / wall))
    print("| layer (span) | self time (s) | share of wall | spans |")
    print("|---|---:|---:|---:|")
    for name, secs in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print("| `%s` | %.3f | %.1f%% | %d |" % (name, secs, 100 * secs / wall, count[name]))
    print("\n| not covered, between root spans | seconds | share of wall |")
    print("|---|---:|---:|")
    for between, secs in sorted(gaps.items(), key=lambda kv: -kv[1]):
        print("| %s | %.3f | %.1f%% |" % (between, secs, 100 * secs / wall))


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    for i, path in enumerate(sys.argv[1:]):
        if i:
            print()
        report(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
