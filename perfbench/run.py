#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is grid, serve-short, serve-long, resume, or all. Run it from the
root of a checkout: it builds the program and the benchmark from source
with dune (release profile, build directory .bench_build), runs the
workload in a process group of its own, and afterwards kills whatever
is left of that group and removes the run's state directory under
.perfbench_state. A run that was killed mid-way leaves its state
directory behind; the next run kills the processes recorded there and
removes it before it starts.

The last line of standard output is the run's JSON result. Exit status:
0 for a correct run, 1 for an incorrect one, 2 if the benchmark could
not be built or run. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
STATE_DIR = ".perfbench_state"
OUT_DIR = ".perfbench_out"
WORKLOADS = ["grid", "serve-short", "serve-long", "resume"]
# What the build needs besides the benchmark's own files.
REQUIRED = ["dune-project", "lib", "bin/cheri_serve.ml"]
BENCH_TARGET = "perfbench/src/bench.exe"
SERVE_TARGET = "bin/cheri_serve.exe"
BENCH_EXE = os.path.join(BUILD_DIR, "default", BENCH_TARGET)
SERVE_EXE = os.path.join(BUILD_DIR, "default", SERVE_TARGET)
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def group_members(pgid):
    """Live (non-zombie) pids in process group pgid, with their command lines."""
    members = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
            with open(f"/proc/{name}/cmdline", "rb") as f:
                cmd = f.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append((int(name), cmd))
    return members


def kill_group(pgid, only_ours=False):
    """SIGKILL process group pgid and wait until none of it is alive."""
    members = group_members(pgid)
    if only_ours and not all("bench.exe" in c or "cheri_serve" in c for _, c in members):
        return
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    deadline = time.time() + 10
    while group_members(pgid) and time.time() < deadline:
        time.sleep(0.02)


def sweep_stale_state():
    """Kill and remove what runs that were killed mid-way left behind."""
    if not os.path.isdir(STATE_DIR):
        return
    for entry in os.listdir(STATE_DIR):
        path = os.path.join(STATE_DIR, entry)
        try:
            with open(os.path.join(path, "pgid")) as f:
                kill_group(int(f.read().strip()), only_ours=True)
        except (OSError, ValueError):
            pass
        shutil.rmtree(path, ignore_errors=True)


def remove_if_empty(path):
    try:
        os.rmdir(path)
    except OSError:
        pass


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
           "./" + BENCH_TARGET, "./" + SERVE_TARGET]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return False
    if proc.returncode != 0:
        log(f"build failed with exit code {proc.returncode}")
        return False
    return True


def pin_to_one_cpu():
    """Pin this process, and so every process it starts, to one CPU.

    The benchmark measures CPU time scaled by the speed of a calibration
    loop run right after each unit of work (perfbench/src/calib.ml). The
    host's CPUs are not equally fast at a given moment, so the loop must
    run on the CPU the work ran on: the benchmark, the cheri-serve
    supervisor and its workers all share one. Returns the CPU, or None
    if the process may not be pinned.
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError, ValueError):
        return None


def run_workload(workload, args):
    """Run one workload; returns (exit code, result dict or None)."""
    state = os.path.join(STATE_DIR, f"run-{os.getpid()}-{workload}")
    os.makedirs(state, exist_ok=True)
    cmd = [BENCH_EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", state, "--serve-bin", SERVE_EXE]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(OUT_DIR, f"trace-{workload}-seed{args.seed}.jsonl")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    with open(os.path.join(state, "pgid"), "w") as f:
        f.write(str(proc.pid))

    def on_signal(signum, _frame):
        kill_group(proc.pid)
        shutil.rmtree(state, ignore_errors=True)
        sys.exit(128 + signum)

    old = {s: signal.signal(s, on_signal) for s in (signal.SIGINT, signal.SIGTERM)}
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        kill_group(proc.pid)
        proc.wait()
        out = ""
    finally:
        kill_group(proc.pid)
        for s, h in old.items():
            signal.signal(s, h)
        shutil.rmtree(state, ignore_errors=True)
        remove_if_empty(STATE_DIR)
    lines = [l for l in out.splitlines() if l.strip()]
    for line in lines[:-1]:
        print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(lines[-1])
    if result is None:
        log(f"{workload}: no result (exit code {proc.returncode})")
        return 2, None
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description="Run the repository benchmark.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    os.chdir(ROOT)
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        log("not a checkout of the repository (missing " + ", ".join(missing) + ")")
        return 2
    sweep_stale_state()
    if not build():
        return 2
    cpu = pin_to_one_cpu()
    print("# " + (f"pinned to CPU {cpu}" if cpu is not None else "not pinned to a CPU: scaled times are less steady"))
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    code = 0
    for w in workloads:
        rc, result = run_workload(w, args)
        if result is None:
            return 2
        results[w] = result
        code = max(code, rc)
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]], separators=(",", ":")))
    else:
        for w in workloads:
            print(f"# {w}: " + json.dumps(results[w], separators=(",", ":")))
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}:{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }, separators=(",", ":")))
    return code


if __name__ == "__main__":
    sys.exit(main())
