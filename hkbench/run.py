#!/usr/bin/env python3
"""hkbench: build hashkit from source, run one workload, print one result.

Usage, from the root of a hashkit checkout:

    python3 hkbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                           [--threads <n>] [--corrupt delete|overwrite]

Workloads: embed-read-hot, embed-write-spill, server-binary-pipelined,
server-memcached-rtt (see hkbench/README.md).  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics and writes
the run's spans under .bench_build/hkbench-traces/.

Everything the command writes stays inside the checkout, under
.bench_build/: the Release build tree (never build/), and one scratch
directory per run that is removed on every exit path.

Exit codes (each non-zero one prints a one-line reason to stderr and no
result line):
    0  result printed (a failed check shows as "correct": false)
    2  unknown or malformed flag
    3  hashkit sources absent, or the build failed
    4  set-up failed (store open, preload, server start)
    5  the run could not continue (e.g. a connection was lost)
    6  the run exceeded its time limit and was killed
    7  the benchmark binary crashed or printed no valid result
    8  the per-run scratch directory could not be made
"""

import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("embed-read-hot", "embed-write-spill", "server-binary-pipelined",
             "server-memcached-rtt")
EXIT_USAGE, EXIT_BUILD, EXIT_TIMEOUT, EXIT_BAD_OUTPUT, EXIT_SCRATCH = 2, 3, 6, 7, 8
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170  # a run must end within 180 s, build excluded

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(WORK, "hkbench")
BINARY = os.path.join(BUILD_DIR, "hkbench")


def die(code, why):
    print("hkbench: " + why, file=sys.stderr)
    sys.exit(code)


def parse_int(flag, text, lo, hi):
    if not text.isdigit() or not lo <= int(text) <= hi:
        die(EXIT_USAGE, "--%s: expected a whole number in [%d, %d], got '%s'" % (flag, lo, hi, text))
    return int(text)


def parse_args(argv):
    opts = {"threads": None, "corrupt": None}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if not arg.startswith("--"):
            die(EXIT_USAGE, "unexpected argument '%s'" % arg)
        name, eq, value = arg[2:].partition("=")
        if not eq:
            if i + 1 >= len(argv):
                die(EXIT_USAGE, "--%s needs a value" % name)
            i += 1
            value = argv[i]
        if name == "workload":
            if value not in WORKLOADS:
                die(EXIT_USAGE, "unknown workload '%s' (known: %s)" % (value, ", ".join(WORKLOADS)))
            opts[name] = value
        elif name == "seed":
            opts[name] = parse_int(name, value, 0, 2**64 - 1)
        elif name == "seconds":
            opts[name] = parse_int(name, value, 1, 60)
        elif name == "trace":
            opts[name] = parse_int(name, value, 0, 1)
        elif name == "threads":
            opts[name] = parse_int(name, value, 1, 256)
        elif name == "corrupt":
            if value not in ("delete", "overwrite"):
                die(EXIT_USAGE, "--corrupt: expected delete or overwrite, got '%s'" % value)
            opts[name] = value
        else:
            die(EXIT_USAGE, "unknown flag --%s" % name)
        i += 1
    for required in ("workload", "seed", "seconds", "trace"):
        if required not in opts:
            die(EXIT_USAGE, "--%s is required" % required)
    return opts


def build():
    """Configures once, then brings the Release build up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(EXIT_BUILD, "hashkit sources not found (no src/CMakeLists.txt beside hkbench/)")
    if shutil.which("cmake") is None:
        die(EXIT_BUILD, "cmake not found on PATH")
    os.makedirs(WORK, exist_ok=True)
    log_path = os.path.join(WORK, "hkbench-build.log")
    # One build at a time per checkout.
    with open(os.path.join(WORK, "hkbench.lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"] + generator)
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "hkbench", "-j",
                      str(min(os.cpu_count() or 1, 8))])
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        for step in steps:
            try:
                rc = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=max(1, deadline - time.monotonic())).returncode
            except subprocess.TimeoutExpired:
                die(EXIT_BUILD, "build timed out after %d s (log: %s)" % (BUILD_TIMEOUT_S, log_path))
            if rc != 0:
                die(EXIT_BUILD, "build failed: '%s' exited %d (log: %s)" % (" ".join(step[:2]), rc, log_path))
    if not os.access(BINARY, os.X_OK):
        die(EXIT_BUILD, "build produced no %s" % BINARY)


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    if not isinstance(result["correct"], bool) or not isinstance(result["metrics"], dict):
        return None
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return None
    return result


def run(opts):
    scratch = os.path.join(WORK, "tmp")
    child = None
    run_dir = None

    def on_signal(signum, _frame):
        raise SystemExit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, on_signal)
    try:
        try:
            os.makedirs(scratch, exist_ok=True)
            run_dir = tempfile.mkdtemp(prefix="run-", dir=scratch)
        except OSError as e:
            die(EXIT_SCRATCH, "cannot make a scratch directory under %s: %s" % (scratch, e))
        cmd = [BINARY, "--workload", opts["workload"], "--seed", str(opts["seed"]),
               "--seconds", str(opts["seconds"]), "--trace", str(opts["trace"]),
               "--dir", run_dir]
        if opts["trace"]:
            traces = os.path.join(WORK, "hkbench-traces")
            os.makedirs(traces, exist_ok=True)
            # One file per workload: the latest traced run's spans.
            cmd += ["--trace-out", os.path.join(traces, opts["workload"] + ".spans.tsv")]
        if opts["threads"]:
            cmd += ["--threads", str(opts["threads"])]
        if opts["corrupt"]:
            cmd += ["--corrupt", opts["corrupt"]]
        env = dict(os.environ, TMPDIR=run_dir)
        cmd += ["--spawn-ns", str(time.monotonic_ns())]
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
        try:
            out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die(EXIT_TIMEOUT, "run exceeded %d s and was killed" % RUN_TIMEOUT_S)
        if child.returncode < 0:
            die(EXIT_BAD_OUTPUT, "benchmark binary died of signal %d" % -child.returncode)
        if child.returncode != 0:
            # The binary already printed its reason; keep its documented code.
            sys.exit(child.returncode)
        lines = out.strip().splitlines()
        result = valid_result(lines[-1]) if lines else None
        if result is None:
            die(EXIT_BAD_OUTPUT, "benchmark binary printed no valid result line")
        print(lines[-1])
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()
        if run_dir is not None:
            shutil.rmtree(run_dir, ignore_errors=True)


def main():
    opts = parse_args(sys.argv[1:])
    build()
    run(opts)


if __name__ == "__main__":
    main()
