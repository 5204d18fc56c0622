#!/usr/bin/env python3
"""Build and run the serving-tier benchmark (see perfbench/README.md).

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
       python3 perfbench/run.py --self-test

Run from the root of a checkout.  The program is built from source with
dune; the benchmark itself is perfbench/perfbench.exe.  The last line of
standard output is the run's JSON result.  Exit status is 0 only for a
correct run.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# Counts that must repeat exactly for one seed on serve-cpu.
EXACT_COUNTS = ["net.visits_per_query", "net.bytes_per_query", "kernel.ops_per_query"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.exists("dune-project"):
        log("perfbench: no dune-project here; run from the root of a checkout")
        return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return False
    return r.returncode == 0 and os.path.exists(EXE)


def stop_group(pgid):
    """Kill a process group and wait until every member has ended."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_exe(args):
    """Run the benchmark in its own process group (it forks the site
    servers); returns (exit status or None on timeout, stdout)."""
    p = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(p.pid)
        out, _ = p.communicate()
        log("perfbench: run timed out")
        return None, out
    stop_group(p.pid)
    return p.returncode, out


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it is here."""
    if not os.path.exists("BENCHMARK.json"):
        return None
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_result(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return res if isinstance(res, dict) and set(res) == RESULT_KEYS else None


def run(workload, seed, seconds, trace):
    status, out = run_exe(["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)])
    res = parse_result(out)
    if res is None:
        sys.stdout.write(out)
        log("perfbench: no result line")
        return 1, None
    declared = declared_metrics(trace)
    if declared is not None and set(res["metrics"]) != declared:
        log(f"perfbench: metrics {sorted(res['metrics'])} differ from "
            f"BENCHMARK.json's {sorted(declared)}")
        return 1, None
    body = out.splitlines()[:-1]
    if body:
        print("\n".join(body))
    print(json.dumps(res), flush=True)
    ok = status == 0 and res["correct"] is True
    return (0 if ok else 1), res


def self_test():
    status, out = run_exe(["selftest"])
    sys.stdout.write(out)
    if status != 0:
        log("perfbench self-test: unit checks failed")
        return 1
    failures = []
    for w in ["serve-cpu", "serve-latency", "serve-update"]:
        code, res = run(w, 11, 3, 1)
        if code != 0:
            failures.append(f"{w}: traced run not correct")
    counts = []
    for _ in range(2):
        code, res = run("serve-cpu", 12, 3, 1)
        if code != 0:
            failures.append("serve-cpu: traced run not correct")
            break
        counts.append([res["metrics"][k]["value"] for k in EXACT_COUNTS])
    if len(counts) == 2 and counts[0] != counts[1]:
        failures.append(f"serve-cpu: counts differ for one seed: {counts}")
    for f in failures:
        log(f"perfbench self-test: FAIL {f}")
    print("perfbench self-test:", "FAIL" if failures else "ok")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        return 2
    if a.self_test:
        return self_test()
    code, _ = run(a.workload, a.seed, a.seconds, a.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
