#!/usr/bin/env python3
"""Builds the crsat benchmark harness from source and runs one workload.

Usage, from the root of a crsat checkout:

    python3 perfbench/run.py --workload check_batch|implication|serve_mixed \
        --seed N --seconds S --trace 0|1

The harness (perfbench/src, built with perfbench/CMakeLists.txt against the
checkout's src/ tree) does the measuring and the correctness checks. This
script builds it into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs it, compares the solver work it reports
with earlier runs at the same seed, and ends its output with the
harness's one-line JSON result. It exits non-zero when the build fails,
the harness fails, or any operation failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("check_batch", "implication", "serve_mixed")
# Set-up-only processes launched before the measuring run; setup_s is the
# median of their set-up times and the measuring run's own.
SETUP_PROCESSES = 8


def build(build_dir):
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--parallel", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "crsat_perfbench")


def check_work(build_dir, workload, seed, work_line):
    """Compares this run's solver-work line with the first run at `seed`.

    The harness prints the solver counter totals of a fixed unit of work
    as `name=value` fields. At a fixed seed they repeat unless the program
    did different work, so a changed field tells changed work apart from
    a noisy machine. (On implication the two-thread totals change by
    design, which is the work inflation the workload exposes; its
    one_thread.* fields must not.)
    """
    path = os.path.join(build_dir, "work_log.json")
    try:
        with open(path) as f:
            log = json.load(f)
    except (OSError, ValueError):
        log = {}
    key = "%s:%d" % (workload, seed)
    fields = dict(field.split("=", 1) for field in work_line.split()
                  if "=" in field and not field.startswith(("seed=", "unit=")))
    if key not in log:
        log[key] = fields
        with open(path, "w") as f:
            json.dump(log, f, indent=1, sort_keys=True)
        return "solver work: first run at this seed, recorded"
    changed = ["%s %s -> %s" % (name, log[key].get(name), value)
               for name, value in sorted(fields.items())
               if log[key].get(name) != value]
    if not changed:
        return "solver work: identical to the first run at this seed"
    return "WORK CHANGED against the first run at this seed: " + ", ".join(
        changed)


def measure_setups(binary, args):
    """Launches set-up-only processes; returns their set-up times in s.

    Each time runs from just before the launch (a CLOCK_MONOTONIC reading
    handed to the harness) to the moment its first timed operation could
    be issued, so it includes process start, static initialisation and the
    first pool spawn.
    """
    samples = []
    for _ in range(SETUP_PROCESSES):
        launched = time.monotonic_ns()
        run = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", "0",
             "--setup-only", "1", "--launched-ns", str(launched)],
            stdout=subprocess.PIPE, text=True, timeout=30)
        last = run.stdout.splitlines()[-1:] or [""]
        if run.returncode != 0 or not last[0].startswith("setup_s "):
            sys.stdout.write(run.stdout)
            raise RuntimeError("set-up-only process failed (exit %d)"
                               % run.returncode)
        samples.append(last[0].split()[1])
    return samples


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 2

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_file = os.path.join(
        trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--trace-file", trace_file]
    try:
        if not args.trace:
            command += ["--setup-samples", ",".join(measure_setups(binary,
                                                                   args))]
        command += ["--launched-ns", str(time.monotonic_ns())]
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=150)
    except subprocess.TimeoutExpired:
        print("perfbench: harness timed out", file=sys.stderr)
        return 2
    except RuntimeError as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 2
    lines = run.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        print("perfbench: harness printed no result (exit %d)"
              % run.returncode, file=sys.stderr)
        return run.returncode or 2
    for line in lines[:-1]:
        print(line)
        if line.startswith("solver-work "):
            print(check_work(build_dir, args.workload, args.seed, line))
    print(lines[-1])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
