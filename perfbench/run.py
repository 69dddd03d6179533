#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload hybrid_anti --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source tree. The first call configures and builds
the skybench library plus the benchmark program (Release) under
.bench_build/perfbench; later calls only rebuild what changed. The program's report goes to stdout and
its last line is the JSON result; build output goes to stderr. The exit code
is the program's: 0 when every answer was correct, 1 on a wrong or failed
answer, 2 on bad arguments or a tree that cannot be built.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ("hybrid_anti", "serve_sharded_cold", "serve_hot_rw")


def fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no skybench sources next to perfbench/; run from a full checkout")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD, target)


def commit_id():
    """The git commit when the tree is a repository, else a digest of the
    sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            return got.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "cmake", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's arithmetic tests")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
    if args.workload is None or args.seed is None or args.seconds is None:
        fail("--workload, --seed and --seconds are required")

    binary = build("perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", commit_id()]
    if args.trace:
        command += ["--spans", os.path.join(
            BUILD, f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", code=1)
    sys.stderr.write(run.stderr)
    sys.stdout.write(run.stdout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
