#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fleet_campaign --seed 1 --seconds 10 --trace 0

Builds perfbench/, which compiles beesim from src/, into .bench_build at the
root of the checkout (or $CARGO_TARGET_DIR), then runs one workload. The build
log goes to standard error. The last line of standard output is the JSON
result; run records and trace files land in <build dir>/results.

An untraced run first starts SETUP_PROCESSES - 1 fresh processes that only
set the workload up; setup_s is the median of their setup times and the
measured process's own, each from process start to the first timed operation.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("fleet_campaign", "serve_hot", "serve_cold", "queen_detect")
DEFAULT_SEED = 1
# No setting of the benchmark was chosen from its results, so later changes
# can re-check a claim on it.
HELDOUT_SEED = 97
SETUP_PROCESSES = 5
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(directory):
    """Configures once, builds the beebench target, returns its path."""
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", directory,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(["cmake", "--build", directory, "--target", "beebench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(directory, "beebench")


def commit():
    """git rev-parse HEAD, +dirty when src/ or perfbench/ changed; unknown
    when ROOT is not the top of a git work tree."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                               "HEAD"], capture_output=True, text=True,
                              timeout=10)
        lines = head.stdout.splitlines()
        if head.returncode != 0 or len(lines) != 2 or \
                not os.path.samefile(lines[0], ROOT):
            return "unknown"
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--", "src", "perfbench"],
                               capture_output=True, text=True, timeout=10)
        return lines[1] + ("+dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--wrong-reference", action="store_true",
                        help="feed every output check a wrong reference; "
                             "each check must then fail")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    directory = build_dir()
    try:
        binary = build(directory)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + RUN_TIMEOUT_S
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", f"{args.seconds:g}", "--trace", str(args.trace),
               "--commit", commit(),
               "--reference", os.path.join(HERE, "reference_digests.tsv"),
               "--out-dir", os.path.join(directory, "results")]
    if args.wrong_reference:
        command.append("--wrong-reference")
    try:
        if not args.trace:
            setups = []
            for _ in range(SETUP_PROCESSES - 1):
                out = subprocess.run(command + ["--setup-only"], cwd=ROOT,
                                     capture_output=True, text=True,
                                     timeout=deadline - time.monotonic())
                if out.returncode != 0:
                    sys.stderr.write(out.stderr)
                    return out.returncode
                setups.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
            command += ["--prior-setups", ",".join(repr(s) for s in setups)]
        sys.stdout.flush()
        return subprocess.run(command, cwd=ROOT,
                              timeout=deadline - time.monotonic()).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish within "
              f"{RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
