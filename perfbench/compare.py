#!/usr/bin/env python3
"""Compare two sets of perfbench result files, one row per workload x metric.

    python3 perfbench/compare.py --base base_results/ --head head_results/

Each PATH is a result file written by perfbench/run.py or a directory
searched for them. Every row shows each side's median and quartiles and
one verdict; there is no combined score. For end-to-end metrics, with
the bound and direction BENCHMARK.json fixes:

  unresolved  either side's quartile spread is wider than the bound
  regressed   head's median is worse than base's by more than the bound
  improved    head's median is better by more than base's quartile
              spread, and the two quartile ranges do not overlap
  unchanged   otherwise

Per-layer metrics have no bound; their rows read higher or lower when
the quartile ranges do not overlap, else overlap. Exits 1 when any row
regressed.
"""

import json
import statistics
import sys
from pathlib import Path

from run import REPO, StrictParser

OPTIONS = [
    ("--base", dict(nargs="+", required=True,
                    help="result files or directories of the parent")),
    ("--head", dict(nargs="+", required=True,
                    help="result files or directories of the change")),
    ("--benchmark", dict(default=str(REPO / "BENCHMARK.json"),
                         help="benchmark definition with the bounds "
                              "(default: BENCHMARK.json of this checkout)")),
]


def load(paths):
    """{(workload, metric): [values]}, the CPU models seen, CPU steal."""
    files = []
    for p in map(Path, paths):
        files += sorted(p.rglob("*.json")) if p.is_dir() else [p]
    values, hosts, steal = {}, set(), []
    for f in files:
        r = json.loads(f.read_text())
        if not r.get("correct", False):
            print(f"note: {f} reports incorrect output; skipped",
                  file=sys.stderr)
            continue
        host = r.get("host", {})
        hosts.add(str(host.get("cpu_model")))
        steal.append(host.get("cpu_steal_frac", 0.0))
        for name, m in r["metrics"].items():
            values.setdefault((r["workload"], name), []).append(m["value"])
    return values, hosts, statistics.median(steal) if steal else 0.0


def summary(vals):
    if len(vals) < 2:
        return statistics.median(vals), vals[0], vals[0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return statistics.median(vals), q1, q3


def share(x, base):
    return x / abs(base) if base else float("inf") if x else 0.0


def verdict(base, head, metric):
    (bm, b1, b3), (hm, h1, h3) = summary(base), summary(head)
    if metric is None or "bound" not in metric:
        if h1 > b3:
            return "higher"
        return "lower" if h3 < b1 else "overlap"
    if len(base) < 2 or len(head) < 2:
        return "unresolved"
    bound = metric["bound"]
    if max(share(b3 - b1, bm), share(h3 - h1, hm)) > bound:
        return "unresolved"
    lower_better = metric["better"] == "lower"
    worse = share(hm - bm if lower_better else bm - hm, bm)
    if worse > bound:
        return "regressed"
    separated = h3 < b1 if lower_better else h1 > b3
    if -worse > share(b3 - b1, bm) and separated:
        return "improved"
    return "unchanged"


def main(argv):
    parser = StrictParser(description=__doc__.split("\n\n")[0],
                          allow_abbrev=False)
    for flag, kwargs in OPTIONS:
        parser.add_argument(flag, **kwargs)
    args = parser.parse_args(argv)

    bench = json.loads(Path(args.benchmark).read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, base_hosts, base_steal = load(args.base)
    head, head_hosts, head_steal = load(args.head)
    if base_hosts != head_hosts:
        print(f"note: hosts differ: {sorted(base_hosts)} vs "
              f"{sorted(head_hosts)}", file=sys.stderr)
    print(f"median CPU steal during the runs: base {base_steal:.2%}, "
          f"head {head_steal:.2%}")

    header = (f"{'workload':17s} {'metric':32s} "
              f"{'base median [q1, q3] n':>40s} {'head median [q1, q3] n':>40s} "
              f"{'change':>8s}  verdict")
    print(header)
    regressed = False
    for key in sorted(base.keys() & head.keys()):
        b, h = base[key], head[key]
        v = verdict(b, h, metrics.get(key[1]))
        regressed |= v == "regressed"
        (bm, b1, b3), (hm, h1, h3) = summary(b), summary(h)
        change = share(hm - bm, bm)
        print(f"{key[0]:17s} {key[1]:32s} "
              f"{bm:12.6g} [{b1:9.4g}, {b3:9.4g}] n={len(b):<2d} "
              f"{hm:12.6g} [{h1:9.4g}, {h3:9.4g}] n={len(h):<2d} "
              f"{change:+8.1%}  {v}")
    for key in sorted(base.keys() ^ head.keys()):
        print(f"note: {key[0]} {key[1]} present on one side only",
              file=sys.stderr)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
