#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Builds the benchmark from source (an optimized CMake build of perfbench/ plus
the pipeline libraries under src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs one workload. The
benchmark prints notes, every metric with its unit and an environment stamp;
its last line is the JSON result. `--workload all` runs every workload in
turn and ends with one combined JSON line. The exit status is non-zero when
the build fails or any output check fails.
"""

import argparse
import ctypes
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["cve-sweep", "stack-churn", "fleet-rollout"]
RUN_TIMEOUT_S = 170  # one workload run, build excluded


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return root if root.is_absolute() else ROOT / root


def build():
    """Configures (once) and builds the benchmark; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no pipeline sources under {ROOT / 'src'}; run from a checkout")
    cmake = shutil.which("cmake")
    if cmake is None:
        die("cmake not found")
    build_dir = build_root() / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append([cmake, "-S", str(HERE), "-B", str(build_dir),
                          *generator, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append([cmake, "--build", str(build_dir), "-j", jobs])
        for step in steps:
            # Build chatter goes to stderr: stdout ends with the result.
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                die("build failed: " + " ".join(step))
    return build_dir / "perfbench"


def git_sha():
    # Only ask git when the checkout itself is a repository: git would
    # otherwise search the parent directories.
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fix_address_layout():
    """Turns off address-space randomization for the benchmark processes
    started from here: layout-dependent cache effects otherwise add
    run-to-run timing swings."""
    addr_no_randomize = 0x0040000
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | addr_no_randomize)
    except (OSError, AttributeError):
        pass


def run_workload(binary, workload, args, capture):
    trace_dir = build_root() / "perfbench-traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-sha", git_sha()]
    if args.trace:
        command += ["--trace-out",
                    str(trace_dir / f"{workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    return done


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        die("--seed must be a whole number")

    binary = build()
    fix_address_layout()
    if args.workload != "all":
        sys.exit(run_workload(binary, args.workload, args, False).returncode)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        print(f"=== {workload} ===", flush=True)
        done = run_workload(binary, workload, args, True)
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (json.JSONDecodeError, IndexError):
            die(f"{workload} printed no result")
        status = status or done.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined), flush=True)
    sys.exit(status or (0 if combined["correct"] else 1))


if __name__ == "__main__":
    main()
