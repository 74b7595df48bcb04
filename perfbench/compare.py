"""Compare two sets of benchmark results, workload by workload.

Usage: python3 perfbench/compare.py BASE NEW

BASE and NEW are each a result file written by run.py
(``.bench_out/BENCH_*.json``) or a directory of them. For every workload and
end-to-end metric the samples of a side are the medians of its untraced runs;
a side with a single run uses that run's per-execution samples instead. Each
row gives both sides' median and quartiles, the ratio NEW/BASE, the metric's
bound from BENCHMARK.json and a verdict:

* unresolved: the spread (quartile distance over median) of either side is
  wider than the bound, unless every NEW sample beats every BASE sample;
* worse: the median got worse by more than the bound;
* better: the median improved by more than BASE's own spread;
* unchanged: otherwise.

Per-layer self times from the traced runs follow, as medians and deltas.
This is a report, not a gate: it always exits 0 once it has printed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

from run import ROOT, quartiles


def load(path: str) -> list[dict]:
    if os.path.isdir(path):
        paths = [os.path.join(path, n) for n in sorted(os.listdir(path))
                 if n.startswith("BENCH_") and n.endswith(".json")]
    else:
        paths = [path]
    records = []
    for p in paths:
        with open(p) as fh:
            records.append(json.load(fh))
    return records


def samples(records: list[dict], trace: int, metric: str) -> dict[str, list[float]]:
    """workload -> the samples of `metric` on one side (see the module docstring)."""
    runs = defaultdict(list)
    for r in records:
        if r["trace"] == trace and metric in r["summary"]:
            runs[r["workload"]].append(r)
    out = {}
    for workload, rs in runs.items():
        if len(rs) == 1:
            out[workload] = rs[0]["samples"][metric]
        else:
            out[workload] = [r["summary"][metric]["median"] for r in rs]
    return out


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1) / median)."""
    q = quartiles(values)
    share = (q["q3"] - q["q1"]) / q["median"] if q["median"] else float("inf")
    return q["q1"], q["median"], q["q3"], share


def verdict(base: list[float], new: list[float], bound: float, better: str) -> tuple[float, str]:
    """(NEW/BASE ratio of medians, verdict) for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    _, b, _, b_spread = spread(base)
    _, n, _, n_spread = spread(new)
    if b == 0:
        return float("nan"), "unresolved"
    ratio = n / b
    worse = sign * (ratio - 1.0)
    all_better = all(sign * (x - y) < 0 for x in new for y in base)
    if max(b_spread, n_spread) > bound:
        return ratio, "better" if all_better else "unresolved"
    if worse > bound:
        return ratio, "worse"
    if -worse > b_spread:
        return ratio, "better"
    return ratio, "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    base, new = load(argv[0]), load(argv[1])

    print("workload,metric,base_median,base_q1,base_q3,new_median,new_q1,new_q3,"
          "ratio,bound,verdict")
    for m in bench["end_to_end"]:
        b_all, n_all = samples(base, 0, m["name"]), samples(new, 0, m["name"])
        for workload in sorted(set(b_all) & set(n_all)):
            b, n = b_all[workload], n_all[workload]
            ratio, word = verdict(b, n, m["bound"], m["better"])
            bq1, bmed, bq3, _ = spread(b)
            nq1, nmed, nq3, _ = spread(n)
            print(f"{workload},{m['name']},{bmed:.6g},{bq1:.6g},{bq3:.6g},"
                  f"{nmed:.6g},{nq1:.6g},{nq3:.6g},{ratio:.4f},{m['bound']},{word}")

    print()
    print("workload,layer_self_s,base_median,new_median,delta_s,ratio")
    for m in bench["per_layer"]:
        if not m["name"].endswith(".self_s"):
            continue
        b_all, n_all = samples(base, 1, m["name"]), samples(new, 1, m["name"])
        for workload in sorted(set(b_all) & set(n_all)):
            b = statistics.median(b_all[workload])
            n = statistics.median(n_all[workload])
            if b == 0 and n == 0:
                continue
            ratio = f"{n / b:.4f}" if b else "nan"
            print(f"{workload},{m['name']},{b:.6g},{n:.6g},{n - b:+.6g},{ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
