#!/usr/bin/env python3
"""Self-test of hkbench's checker and command line.

    python3 hkbench/selftest.py

1. A clean short run of each workload reports "correct": true.
2. Deleting or overwriting one key behind the model's back (--corrupt)
   makes the same run report "correct": false.
3. Unknown or malformed flags exit 2 and print no result line.
4. A copy of the benchmark without the hashkit sources (only
   BENCHMARK.json and hkbench/) exits non-zero and prints no result line.

Exits 0 when every case behaves as stated, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def run(args, cwd=ROOT, runner=None):
    cmd = [sys.executable, runner or os.path.join(HERE, "run.py")] + args
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stderr.strip().splitlines()


def main():
    failures = []

    def expect(what, ok, detail=""):
        print("%-4s %s%s" % ("ok" if ok else "FAIL", what, (" (" + detail + ")") if not ok and detail else ""))
        if not ok:
            failures.append(what)

    base = ["--seed", "7", "--seconds", "1", "--trace", "0"]
    for workload in WORKLOADS:
        rc, result, err = run(["--workload", workload] + base)
        expect("%s: clean run is correct" % workload,
               rc == 0 and result is not None and result["correct"], "; ".join(err[-3:]))
        for mode in ("delete", "overwrite"):
            rc, result, err = run(["--workload", workload, "--corrupt", mode] + base)
            expect("%s: --corrupt %s is caught" % (workload, mode),
                   rc == 0 and result is not None and not result["correct"], "; ".join(err[-3:]))

    bad_flags = [
        ["--workload", "embed-read-hot", "--seed", "1", "--seconds", "garbage", "--trace", "0"],
        ["--workload", "embed-read-hot", "--seed", "1", "--seconds", "0", "--trace", "0"],
        ["--workload", "embed-read-hot", "--seed", "-1", "--seconds", "1", "--trace", "0"],
        ["--workload", "embed-read-hot", "--seed", "1", "--seconds", "1", "--trace", "2"],
        ["--workload", "no-such-workload", "--seed", "1", "--seconds", "1", "--trace", "0"],
        ["--workload", "embed-read-hot", "--seed", "1", "--seconds", "1", "--trace", "0", "--bogus", "1"],
        ["--workload", "embed-read-hot", "--seconds", "1", "--trace", "0"],
        ["--workload=embed-read-hot", "--seed=1", "--seconds=1", "--trace"],
    ]
    for args in bad_flags:
        rc, result, err = run(args)
        expect("exit 2 for: %s" % " ".join(args), rc == 2 and result is None and len(err) == 1,
               "exit %d, %d stderr lines" % (rc, len(err)))

    # The benchmark alone, without the program's sources.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "hkbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, result, err = run(["--workload", "embed-read-hot"] + base, cwd=bare,
                          runner=os.path.join(bare, "hkbench", "run.py"))
    expect("no sources: non-zero exit, no result line", rc != 0 and result is None,
           "exit %d" % rc)
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
