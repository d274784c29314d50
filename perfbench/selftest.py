#!/usr/bin/env python3
"""Self-test of the benchmark: python3 perfbench/selftest.py

Runs each workload at a tiny window (untraced and traced) and checks
that the result line is correct and names exactly the metrics, with the
units, that BENCHMARK.json lists. Then checks that a perturbed expected
digest is caught as a failure, and that the benchmark refuses to run in
a directory that holds only BENCHMARK.json and perfbench/.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import run as bench_run  # noqa: E402  (the benchmark's build_dir())
RUN = [sys.executable, str(HERE / "run.py")]
WINDOW = "20000"  # digests.txt pins every cell at this window too

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = RUN + ["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--window", WINDOW, *extra]
    res = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                         timeout=900)
    lines = res.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return res, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res, result = run(wl, trace)
            tag = f"{wl} --trace {trace}"
            check(res.returncode == 0 and result is not None and
                  result["correct"] and result["failed"] == 0 and
                  result["attempted"] > 0,
                  f"{tag}: exit 0, correct, no failed cells")
            if result is None:
                continue
            want = [(m["name"], m["unit"]) for m in spec[key]]
            got = [(k, v["unit"]) for k, v in result["metrics"].items()]
            check(got == want, f"{tag}: prints every {key} metric")
            printed = res.stdout
            check(all(name in printed for name, _ in want) and
                  "cells_failed" in printed and "fingerprint:" in printed,
                  f"{tag}: human-readable lines name every metric")

    # A perturbed expected digest must turn into a failed cell.
    bdir = bench_run.build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    lines = (HERE / "digests.txt").read_text().splitlines()
    target = next(i for i, l in enumerate(lines)
                  if l.startswith(f"miss-bound * {WINDOW} "))
    fields = lines[target].split()
    fields[-1] = ("0" if fields[-1][0] != "0" else "1") + fields[-1][1:]
    lines[target] = " ".join(fields)
    perturbed = bdir / "digests-perturbed.txt"
    perturbed.write_text("\n".join(lines) + "\n")
    res, result = run("miss-bound", 0, "--digests", str(perturbed))
    check(res.returncode != 0 and result is not None and
          not result["correct"] and result["failed"] >= 1,
          "perturbed digest: non-zero exit, correct=false, failed >= 1")

    # Without the sources the benchmark must fail without a result.
    lone = bdir / "lone"
    shutil.rmtree(lone, ignore_errors=True)
    lone.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", lone)
    shutil.copytree(HERE, lone / "perfbench")
    cmd = [sys.executable, "perfbench/run.py", "--workload", "miss-bound",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    res = subprocess.run(cmd, capture_output=True, text=True, cwd=lone,
                         timeout=180, env=env)
    check(res.returncode != 0 and '"correct"' not in res.stdout,
          "BENCHMARK.json + perfbench/ alone: non-zero exit, no result")
    shutil.rmtree(lone, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else
          "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
