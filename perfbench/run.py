#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload sampled_cells [--seed 11]
                             [--seconds 60] [--trace 0|1]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-refs sampled_cells

Every invocation first builds the benchmark (the repo's libraries, the
real dfi-serve daemon and dfi-perfbench) with CMake into the directory
named by $CARGO_TARGET_DIR (default .bench_build); an up-to-date build
takes a second.  Build output goes to stderr, so the last line of
stdout is dfi-perfbench's JSON result.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sampled_cells", "exhaustive_lsq", "served_sweep")
RUN_TIMEOUT_S = 170


def build_dir():
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return build if build.is_absolute() else ROOT / build


def short_path(path):
    """A path relative to the repo root when it lies inside it.

    Unix socket paths are limited to about 100 bytes, so the run
    directory is passed relative to dfi-perfbench's working directory.
    """
    try:
        return str(path.relative_to(ROOT))
    except ValueError:
        return str(path)


def build(cmake_dir):
    configure = ["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", str(cmake_dir), "-j", "3", "--target",
                "dfi-perfbench", "dfi-serve", "perfbench-selftest"]
    for command in (configure, compile_):
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(command)}",
                  file=sys.stderr)
            sys.exit(3)


def source_digest():
    """SHA-256 over the measured sources, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_benchmark(command):
    """Run dfi-perfbench in its own process group; kill the group on timeout
    so no dfi-serve daemon outlives the run."""
    child = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        sys.exit(4)
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the helper tests")
    parser.add_argument("--write-refs", choices=WORKLOADS,
                        help="regenerate one workload's committed gate "
                             "references at the default seed")
    args = parser.parse_args()
    if not (args.workload or args.self_test or args.write_refs):
        parser.error("one of --workload, --self-test, --write-refs is "
                     "required")

    cmake_dir = build_dir() / "cmake"
    build(cmake_dir)
    if args.self_test:
        return run_benchmark([str(cmake_dir / "perfbench-selftest")])

    run_dir = build_dir() / "run"
    run_dir.mkdir(parents=True, exist_ok=True)
    command = [str(cmake_dir / "dfi-perfbench"),
               "--serve-binary", short_path(cmake_dir / "dfi-serve"),
               "--run-dir", short_path(run_dir),
               "--commit", git_commit(),
               "--source-digest", source_digest()]
    refs = short_path(HERE / "references.json")
    if args.write_refs:
        command += ["--workload", args.write_refs, "--write-refs", refs]
    else:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace",
                    str(args.trace), "--refs", refs]
    return run_benchmark(command)


if __name__ == "__main__":
    sys.exit(main())
