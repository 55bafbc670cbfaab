#!/usr/bin/env python3
"""Build and run the fusion-service benchmark, or compare two result files.

Run one measurement (from the root of a checkout):

    python3 rifbench/run.py --workload host_full --seed 7 --seconds 30 --trace 0
        [--record results.jsonl] [--inject corrupt | --inject delay_ms=N]

The first call configures and builds rifbench/ (the repo's sources plus
the benchmark binary in rifbench/src) under .bench_build/; later calls only
re-check the build. Inputs go to a private directory under
.bench_build/work/ that is removed when the run ends. The last stdout line
is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). The line before it is the full record (host
fingerprint, tail percentile and sample count, failed_frac, ...), which
--record also appends to a JSON-lines file. The exit code is 0 only when
every composite passed the oracle gate.

Compare two record files (per workload: median, quartiles and delta of
every metric; end-to-end metrics worse than their BENCHMARK.json bound are
marked, and make the exit code 1):

    python3 rifbench/run.py --compare base.jsonl new.jsonl
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure (once) and build the benchmark binary; returns its path."""
    cmake_dir = os.path.join(BUILD, "cmake")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("rifbench: build failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "rifbench")


def measure(args):
    spec = load_spec()
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        sys.exit("rifbench: unknown workload " + args.workload)
    binary = build()
    work_root = os.path.join(BUILD, "work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("rifbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit("rifbench: benchmark binary failed with exit code %d"
                 % proc.returncode)
    record = json.loads(lines[-1])

    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n in wanted if n not in record["metrics"]]
    if missing:
        sys.exit("rifbench: benchmark binary did not report "
                 + ", ".join(missing))
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps(record) + "\n")
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: record["metrics"][n] for n in wanted},
    }
    print(json.dumps(record))
    print(json.dumps(result), flush=True)
    return 0 if record["correct"] and proc.returncode == 0 else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def compare(base_path, new_path):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    def group(path):
        out = {}
        with open(path) as f:
            for line in f:
                if not line.strip():
                    continue
                rec = json.loads(line)
                key = (rec["workload"], rec["trace"])
                for name, m in rec["metrics"].items():
                    out.setdefault(key, {}).setdefault(name, []).append(
                        m["value"])
        return out

    base, new = group(base_path), group(new_path)
    flagged = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print("== %s (%s)" % (workload, "per-layer" if trace else "end-to-end"))
        print("  %-26s %26s %26s %9s" % ("metric", "base median [q1, q3]",
                                         "new median [q1, q3]", "delta"))
        for name in base[key]:
            if name not in new[key]:
                continue
            b1, bm, b3 = quartiles(base[key][name])
            n1, nm, n3 = quartiles(new[key][name])
            delta = (nm - bm) / abs(bm) if bm else 0.0
            mark = ""
            if name in bounds and bm:
                worse = -delta if bounds[name]["better"] == "higher" else delta
                if worse > bounds[name]["bound"]:
                    mark = "  BEYOND BOUND (%.0f%%)" % (
                        100 * bounds[name]["bound"])
                    flagged += 1
            print("  %-26s %10.4g [%.4g, %.4g] %10.4g [%.4g, %.4g] %+8.1f%%%s"
                  % (name, bm, b1, b3, nm, n1, n3, 100 * delta, mark))
    return 1 if flagged else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="append the full record to this file")
    p.add_argument("--inject", help="test hook: corrupt | delay_ms=N")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        p.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
