#!/usr/bin/env python3
"""Build the benchmark harness, run one workload, check it, report.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload miss-bound --seed 1 --seconds 30 --trace 0

The harness (perfbench/perfbench.cc) and the svrsim_sweep tool are built
from source as a Release build in $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench under the repository root). The run's
artifacts (cells.json, cells.csv, cells.journal, result.json and, when
traced, trace.json) go to <build dir>/out/<workload>-trace<0|1>/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit status is 0 only when
every cell was correct.

For miss-bound, the harness's CSV rows are also compared byte for byte
with an `svrsim_sweep --suite hpcdb` artifact of the same cells.

Options beyond the benchmark contract (the self-test uses them):
    --window N            instructions per cell (default: the workload's)
    --digests FILE        expected digests (default: perfbench/digests.txt)
    --write-digests FILE  append this run's digests to FILE
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MACHINES = "ino,imp,ooo,svr16,svr64"
WORKLOADS = ("miss-bound", "compute-bound", "graph-sweep")
# Time the harness may take beyond --seconds: its last pass may overrun
# the budget, and the correctness and traced-only work follow the passes.
HARNESS_MARGIN_S = 140
SWEEP_TIMEOUT_S = 120


def fail(msg):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configure and build; the log goes to <bdir>/build.log."""
    bdir.mkdir(parents=True, exist_ok=True)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if (bdir / "CMakeCache.txt").exists():
        generator = []  # keep whatever generator the tree was made with
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(bdir), *generator,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(bdir), "-j", jobs,
         "--target", "perfbench", "svrsim_sweep"],
    ]
    log_path = bdir / "build.log"
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-20:]
                sys.stderr.write("\n".join(tail) + "\n")
                fail(f"build failed (see {log_path})")


def sweep_crosscheck(bdir, out_dir, window):
    """Rows of the harness's CSV that differ from svrsim_sweep's."""
    cmd = [str(bdir / "svrsim_sweep"), "--suite", "hpcdb", "--configs",
           MACHINES, "--window", str(window), "--jobs", "2"]
    res = subprocess.run(cmd, capture_output=True, text=True,
                         timeout=SWEEP_TIMEOUT_S)
    ours = (out_dir / "cells.csv").read_text().splitlines()
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        return len(ours) - 1
    theirs = res.stdout.splitlines()
    by_cell = {tuple(row.split(",", 2)[:2]): row for row in theirs[1:]}
    bad = 0 if ours[0] == theirs[0] else 1
    for row in ours[1:]:
        cell = tuple(row.split(",", 2)[:2])
        if by_cell.get(cell) != row:
            bad += 1
            sys.stderr.write(f"perfbench: FAIL {'/'.join(cell)}: CSV row "
                             "differs from svrsim_sweep\n")
    return bad


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises, when it is present."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--window", type=int)
    ap.add_argument("--digests", default=str(HERE / "digests.txt"))
    ap.add_argument("--write-digests")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    bdir = build_dir()
    build(bdir)
    out_dir = bdir / "out" / f"{args.workload}-trace{args.trace}"
    cmd = [str(bdir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out_dir),
           "--digests", args.digests]
    if args.window:
        cmd += ["--window", str(args.window)]
    if args.write_digests:
        cmd += ["--write-digests", args.write_digests]
    timeout = args.seconds + HARNESS_MARGIN_S
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {timeout} s")
    lines = res.stdout.splitlines()
    if res.returncode not in (0, 1) or not lines:
        fail(f"harness exited with status {res.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    if args.workload == "miss-bound":
        window = json.loads((out_dir / "result.json").read_text())["window"]
        bad = sweep_crosscheck(bdir, out_dir, window)
        print(f"  svrsim_sweep cross-check: {bad} CSV row(s) differ")
        result["failed"] += bad
        result["correct"] = result["correct"] and bad == 0

    promised = expected_metrics(args.trace == 1)
    got = [(k, v["unit"]) for k, v in result["metrics"].items()]
    if promised is not None and promised != got:
        fail("harness metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(promised) - set(got))}, "
             f"extra {sorted(set(got) - set(promised))}")

    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
