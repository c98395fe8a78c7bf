#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fib_fine --seed 1 --trace 0

Builds the perfbench binary from the sources of this checkout into
.bench_build/perfbench (Release, no sanitizer), runs one workload (or
all three, in one process, with --workload all), prints every metric
by name and unit, and ends stdout with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(spans and per-round counter deltas go to .bench_build/perfbench/traces).
Each run also writes a result file, with host and build recorded, under
--results-dir for perfbench/compare.py.
"""

import argparse
import datetime
import difflib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
BUILD = REPO / ".bench_build" / "perfbench"
WORKLOADS = ["fib_fine", "fanout_blocked", "stencil_observed"]

# The one option table: argparse builds parsing and --help from it.
OPTIONS = [
    ("--workload", dict(required=True, choices=WORKLOADS + ["all"],
                        help="workload to run; 'all' runs the three in one "
                             "process")),
    ("--seed", dict(type=int, default=1, help="input seed (default 1)")),
    ("--seconds", dict(type=float, default=30.0,
                       help="measured window per workload (default 30)")),
    ("--trace", dict(type=int, choices=[0, 1], default=0,
                     help="0: end-to-end metrics; 1: per-layer metrics "
                          "from a traced run")),
    ("--results-dir", dict(default=str(BUILD / "results"),
                           help="where result files go "
                                "(default .bench_build/perfbench/results)")),
]


class StrictParser(argparse.ArgumentParser):
    """Rejects unknown flags with a did-you-mean instead of a bare list."""

    def parse_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        known = [s for a in self._actions for s in a.option_strings]
        for token in args:
            name = token.split("=", 1)[0]
            if token.startswith("--") and name not in known:
                close = difflib.get_close_matches(name, known, n=1,
                                                  cutoff=0.5)
                hint = f"; did you mean {close[0]}?" if close else ""
                self.error(f"unknown flag {name!r}{hint}")
        return super().parse_args(args, namespace)


def parse_args(argv):
    parser = StrictParser(description=__doc__.split("\n\n")[0],
                          allow_abbrev=False)
    for flag, kwargs in OPTIONS:
        parser.add_argument(flag, **kwargs)
    return parser.parse_args(argv)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build the binary; returns its path."""
    if not (REPO / "src" / "runtime" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"minihpx sources not found under {REPO / 'src'}")
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release", "-DMINIHPX_SANITIZE="],
        ["cmake", "--build", str(BUILD), "--target", "perfbench",
         "-j", str(len(os.sched_getaffinity(0)))],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=850)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return BUILD / "perfbench"


def read_text(path, default="unknown"):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def host_info():
    cpu = "unknown"
    for line in read_text("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "kernel": platform.release(),
        "perf_event_paranoid": read_text(
            "/proc/sys/kernel/perf_event_paranoid"),
        "git_commit": commit,
    }


def cpu_ticks():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        ticks = [int(x) for x in fields[1:9]]
        return ticks[7], sum(ticks)
    except (OSError, ValueError, IndexError):
        return 0, 0


def run_binary(binary, args):
    (BUILD / "traces").mkdir(parents=True, exist_ok=True)
    count = len(WORKLOADS) if args.workload == "all" else 1
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--trace-out={BUILD / 'traces' / 'trace'}"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=count * (args.seconds + 60) + 30)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    if len(results) != count:
        raise RuntimeError("perfbench printed no result")
    return results


def save(result, host, results_dir):
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S%f")
    out = Path(results_dir) / (f"{result['workload']}-trace{result['trace']}"
                               f"-seed{result['seed']}-{stamp}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(dict(result, host=host), indent=1) + "\n")


def main(argv):
    args = parse_args(argv)
    try:
        binary = build()
        steal0, total0 = cpu_ticks()
        results = run_binary(binary, args)
        steal1, total1 = cpu_ticks()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(str(e))
        return 1

    host = host_info()
    # Time the hypervisor ran something else on our CPUs during the run:
    # fine-grained workloads slow down far more than this share.
    host["cpu_steal_frac"] = ((steal1 - steal0) / (total1 - total0)
                              if total1 > total0 else 0.0)
    print("host: " + ", ".join(f"{k}={v:.4g}" if isinstance(v, float)
                               else f"{k}={v}" for k, v in host.items()))
    build_info = results[0]["build"]
    print(f"build: {build_info['type']}, sanitizer {build_info['sanitizer']}")
    for r in results:
        save(r, host, args.results_dir)
        fail_frac = r["failed"] / r["attempted"]
        print(f"{r['workload']}  seed={r['seed']}  trace={r['trace']}  "
              f"rounds={r['rounds']}  fail_frac={fail_frac:.6g}")
        for name, m in r["metrics"].items():
            print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
