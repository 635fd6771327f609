#!/usr/bin/env python3
"""Build and run the tlc wall-clock benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ssb-scan --seed 1 --seconds 20 --trace 0

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), runs one workload on one CPU with
TLC_SIM_THREADS and TLC_ENCODE_THREADS pinned to 1 (see README.md,
"Threads and host speed"), passes the report through, and
prints as the last line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` reports the `end_to_end`
metrics of BENCHMARK.json, `--trace 1` the `per_layer` ones. Exits nonzero
on a wrong answer, unbalanced service books, or a failed build or run.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700

# The child process running now, stopped if this script is stopped.
child = None


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def stop_child():
    if child is not None and child.poll() is None:
        child.kill()
        child.wait()


def on_signal(signum, _frame):
    stop_child()
    sys.exit(128 + signum)


def run_child(cmd, timeout, **kwargs):
    """Run `cmd` to completion; return (returncode, stdout or None)."""
    global child
    child = subprocess.Popen(cmd, text=True, **kwargs)
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_child()
        fail(f"{os.path.basename(cmd[0])} exceeded {timeout} s")
    return child.returncode, out


def git_commit():
    """HEAD of the repository at ROOT, or a note when ROOT is no checkout."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout.strip()
        if os.path.realpath(top) != os.path.realpath(ROOT):
            raise ValueError(top)
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, ValueError, subprocess.CalledProcessError):
        return "unknown(not-a-git-checkout)"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except OSError as e:
        fail(f"run from the repository root: {e}")
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("the workspace crates are missing next to the benchmark")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_NET_OFFLINE="true")
    code, _ = run_child(["cargo", "build", "--release", "--offline", "--quiet",
                         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
                        BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        fail("build failed")

    # One thread of work on one CPU: on a few shared vCPUs, worker
    # threads that join after every partition wave measured the host's
    # steal time, and the host-speed probe must run where the work runs.
    env["TLC_SIM_THREADS"] = "1"
    env["TLC_ENCODE_THREADS"] = "1"
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus)
    print(f"# nproc: {len(cpus)}")
    print(f"# pinned to cpu: {cpu}")
    work_root = os.path.join(ROOT, ".bench_work")
    work = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    cmd = [os.path.join(target, "release", "tlc-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--commit", git_commit()]
    try:
        code, out = run_child(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, env=env,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured, counts = {}, {}
    for line in out.splitlines():
        if line.startswith("@metric "):
            _, name, value, unit = line.split()
            measured[name] = (float(value), unit)
        elif line.startswith("@"):
            key, value = line[1:].split()
            counts[key] = value
        else:
            print(line)
    if "correct" not in counts:
        fail(f"run ended without a verdict (exit code {code})")

    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            fail(f"run did not report {m['name']}")
        value, unit = measured[m["name"]]
        if unit != m["unit"]:
            fail(f"{m['name']} reported in {unit}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    correct = counts["correct"] == "true" and code == 0
    print(json.dumps({"correct": correct, "attempted": int(counts["attempted"]),
                      "failed": int(counts["failed"]), "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
