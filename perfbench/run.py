#!/usr/bin/env python3
"""Builds and runs the edgedrift serving benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark package (perfbench/CMakeLists.txt)
compiles the library from src/ and include/ with the tier-1 default flags into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs only
rebuild what changed. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. A traced run (--trace 1) writes its spans to
<build dir>/traces/<workload>-seed<n>.jsonl.

Exit codes: the benchmark's own (0 ok, 1 failed output check, 2 bad
arguments), 3 when the library sources are missing or the build fails, 4 when
the benchmark overruns its time limit.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Files whose content identifies the build when git is unavailable.
SOURCE_DIRS = ("src", "include", os.path.basename(HERE))


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def source_id():
    """git sha when the tree is a git checkout, else a hash of the sources."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git-" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build(target):
    if not os.path.exists(os.path.join(ROOT, "src", "core",
                                       "pipeline_manager.cpp")):
        log(f"library sources not found under {ROOT}; cannot build")
        return False
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run(cmd):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"benchmark overran {RUN_TIMEOUT_S} s and was stopped")
        return 4
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the harness self-tests")
    args = parser.parse_args()

    if args.self_test:
        if not build("perfbench_selftest"):
            return 3
        return subprocess.run(
            [os.path.join(build_dir(), "perfbench_selftest")]).returncode
    if not args.workload:
        parser.error("--workload is required")
    if not build("perfbench"):
        return 3
    cmd = [os.path.join(build_dir(), "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--source-id", source_id()]
    if args.trace == "1":
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
