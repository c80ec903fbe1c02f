#!/usr/bin/env python3
"""Build and run the SpecCC end-to-end benchmark.

    python3 specbench/run.py --workload table1|planted --seed N \
        --seconds S --trace 0|1

Run from the root of a SpecCC source tree. The first call configures and
builds the benchmark program in Release mode (CMake, Ninja when available)
under $CARGO_TARGET_DIR/specbench, or .bench_build/specbench when that
variable is unset; later calls only re-check the build. Build output goes to
stderr, so the last line of stdout is the program's JSON result. With
--trace 1 the traced run's spans are written next to the binary as
spans-<workload>-<seed>.jsonl.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("specbench: " + message, file=sys.stderr)
    return 2


def source_identity():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "--target", "specbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "specbench")


def arg_value(args, flag):
    for i, arg in enumerate(args[:-1]):
        if arg == flag:
            return args[i + 1]
    return None


def main(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "pipeline.hpp")):
        return fail("no SpecCC sources next to " + HERE)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "specbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.SubprocessError) as error:
        return fail("build failed: %s" % error)

    command = [binary] + args + ["--commit", source_identity()]
    if arg_value(args, "--trace") == "1":
        spans = "spans-%s-%s.jsonl" % (arg_value(args, "--workload"),
                                      arg_value(args, "--seed"))
        command += ["--spans-out", os.path.join(build_dir, spans)]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
