#!/usr/bin/env python3
"""End-to-end Rounds benchmark for SLIM (see perfbench/design.json).

Run from the root of a checkout:

    python3 perfbench/run.py --workload rounds --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (which compiles the libraries under src/) into
.bench_build/perfbench, runs one workload and prints three JSON lines:
host metadata, run metadata, and last the result
{"correct", "attempted", "failed", "metrics"}. Exits non-zero when the
build fails or any output check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TYPE = "RelWithDebInfo"
# A run ends within 180 s, the first one (which builds) within 900 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no SLIM sources under %s/src; nothing to build" % ROOT)
        return None
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
                      "-DSLIM_ENABLE_OBS=ON"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build step failed: %s" % e)
            return None
        if done.returncode != 0:
            log("build step failed: %s" % " ".join(cmd))
            return None
    return os.path.join(BUILD_DIR, target)


def source_digest():
    """sha256 over the files under src/: names the code that was measured
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def host_meta():
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "cpu_model": cpu_model(), "git_sha": git_sha(),
            "src_sha256": source_digest()}


def warn_on_config(run_meta):
    """Bounds hold only for the configuration they were set on."""
    with open(os.path.join(HERE, "design.json")) as f:
        expected = json.load(f)["bounds_set_on"]
    for key in ("build_type", "slim_enable_obs"):
        if run_meta.get(key) != expected[key]:
            log("WARNING: %s is %r, bounds were set on %r" %
                (key, run_meta.get(key), expected[key]))


def declared_run_seconds():
    """The run length BENCHMARK.json declares, which its bounds were set on."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return int(json.load(f)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 30


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["rounds", "census_query",
                                               "ward"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int,
                        default=declared_run_seconds())
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")
    if args.seconds < 1 or args.seconds > 60:
        parser.error("--seconds must be between 1 and 60")

    binary = build("perfbench_selftest" if args.selftest else
                   "slim_perfbench")
    if binary is None:
        return 2
    tmp_root = os.path.join(BUILD_ROOT, "tmp")
    if args.selftest:
        return subprocess.run([binary, "--tmp-root", tmp_root],
                              timeout=RUN_TIMEOUT_S).returncode

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp-root", tmp_root]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    lines = done.stdout.splitlines()
    for line in lines:
        if line.startswith('{"perfbench_run"'):
            warn_on_config(json.loads(line)["perfbench_run"])
    print(json.dumps({"perfbench_host": host_meta()}))
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
