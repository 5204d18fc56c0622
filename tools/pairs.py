#!/usr/bin/env python3
"""Alternating pairs of serving-benchmark runs: a base revision against a head.

usage: python3 tools/pairs.py --base REV [--head REV] --pairs N
           [--seconds S] [--seed K] [--workload NAME ...]
           [--out BENCH_X.json] [--label L] [--work DIR] [--keep]

Run from the root of a checkout.  Each side is exported from the local
repository with `git archive` (no network, and nothing is registered in
the repository, unlike a `git worktree`) into a scratch directory, and
built there with dune.  Without --head the head side is the current
checkout as it stands, uncommitted edits included.

For each workload, N pairs of untraced perfbench runs alternate which
side goes first.  Each run's end-to-end metrics come from perfbench's
result line.  Its user CPU, system CPU and voluntary context switches
come from `os.wait4` on the benchmark process, whose rusage includes
the site servers it forks and reaps: the whole process tree.  They are
divided by the run's operations (perfbench's "attempted": every read
and write, set-up reads included).

The output file holds, per workload and metric, both sides' medians,
quartiles and runs, the head's win count, and a verdict:
  better     the head wins at least nine pairs in ten, and the medians
             differ by more than the base runs' interquartile range;
  worse      beyond the metric's BENCHMARK.json bound (relative change of
             the median), or, for a metric with no bound, losing by the
             rule above;
  unresolved the base runs spread wider than the bound allows to tell;
  unchanged  otherwise.
It also records the host, and whether any head run stalled (a p95 above
three times the base's median p95).  bench/validate_bench.ml checks the
schema ("bench": "pairs").
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 1200
RUN_TIMEOUT_S = 300
WORKLOADS = ["serve-cpu", "serve-latency", "serve-update"]

# Whole-tree costs per operation, from the run's rusage.
RUSAGE = [
    {"name": "user_ms_per_op", "unit": "ms", "better": "lower"},
    {"name": "sys_ms_per_op", "unit": "ms", "better": "lower"},
    {"name": "vcsw_per_op", "unit": "count", "better": "lower"},
]

STALL_FACTOR = 3.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git"] + list(args), check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def export(rev, dest):
    """The tree of local revision [rev], unpacked into [dest]."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"pairs: git archive {rev} failed")


def copy_checkout(dest):
    """The current checkout's tracked and untracked, non-ignored files."""
    files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for f in files.split("\0"):
        if not f or not os.path.isfile(f):
            continue
        os.makedirs(os.path.join(dest, os.path.dirname(f)), exist_ok=True)
        shutil.copy2(f, os.path.join(dest, f))


def build(root):
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", "./" + EXE[len("_build/default/"):]],
                       cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    if r.returncode != 0 or not os.path.exists(os.path.join(root, EXE)):
        raise SystemExit(f"pairs: build failed in {root}")


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_once(root, workload, seed, seconds):
    """One untraced run: its result line and the tree's rusage."""
    args = [os.path.join(root, EXE), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.Popen(args, cwd=root, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True,
                         start_new_session=True)
    timer = threading.Timer(RUN_TIMEOUT_S, kill_group, [p.pid])
    timer.start()
    out = p.stdout.read()
    _, status, ru = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    timer.cancel()
    kill_group(p.pid)
    lines = [l for l in out.splitlines() if l.strip()]
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"pairs: {workload} run in {root} printed no result")
    ops = max(1, res["attempted"])
    m = {k: v["value"] for k, v in res["metrics"].items()}
    m["user_ms_per_op"] = 1000.0 * ru.ru_utime / ops
    m["sys_ms_per_op"] = 1000.0 * ru.ru_stime / ops
    m["vcsw_per_op"] = ru.ru_nvcsw / ops
    return {"metrics": m, "attempted": res["attempted"], "failed": res["failed"],
            "correct": res["correct"] is True and p.returncode == 0}


def summary(runs):
    s = sorted(runs)
    if len(s) >= 2:
        q1, med, q3 = statistics.quantiles(s, n=4, method="inclusive")
    else:
        q1 = med = q3 = s[0]
    return {"median": statistics.median(s), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "runs": runs}


def verdict(spec, base, head, wins, losses, pairs):
    """The metric's verdict, by the rules in this file's docstring."""
    higher = spec["better"] == "higher"
    b, h, iqr = base["median"], head["median"], base["iqr"]
    need = math.ceil(0.9 * pairs)
    gain = h - b if higher else b - h
    if wins >= need and gain > iqr:
        return "better"
    bound = spec.get("bound")
    if bound is not None:
        if b != 0 and -gain / abs(b) > bound:
            return "worse"
        if b != 0 and iqr / abs(b) > bound:
            return "unresolved"
    elif losses >= need and -gain > iqr:
        return "worse"
    return "unchanged"


def host():
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"node": platform.node(), "platform": platform.platform(),
            "cpus": os.cpu_count(), "cpu_model": model or "unknown",
            "python": platform.python_version()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="local git revision")
    ap.add_argument("--head", help="local git revision (default: the checkout)")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--out", default="bench-results/pairs.json")
    ap.add_argument("--label", default="pairs")
    ap.add_argument("--work", help="scratch directory (default: a new temporary one)")
    ap.add_argument("--keep", action="store_true", help="keep the scratch directory")
    a = ap.parse_args()
    if a.pairs < 1:
        ap.error("--pairs must be at least 1")
    if not os.path.exists("dune-project"):
        raise SystemExit("pairs: run from the root of a checkout")
    with open("BENCHMARK.json") as f:
        e2e = json.load(f)["end_to_end"]
    specs = e2e + RUSAGE
    work = a.work or tempfile.mkdtemp(prefix="pax-pairs-")
    os.makedirs(work, exist_ok=True)
    sides = {}
    try:
        for side, rev in (("base", a.base), ("head", a.head)):
            root = os.path.join(work, side)
            if os.path.exists(root):
                shutil.rmtree(root)
            if rev is None:
                os.makedirs(root)
                copy_checkout(root)
                sides[side] = {"rev": "checkout", "commit": git("rev-parse", "HEAD"),
                               "dirty": git("status", "--porcelain") != ""}
            else:
                export(rev, root)
                sides[side] = {"rev": rev, "commit": git("rev-parse", rev + "^{commit}"),
                               "dirty": False}
            log(f"pairs: building {side} ({sides[side]['rev']})")
            build(root)
        workloads = []
        for w in a.workload or WORKLOADS:
            runs = {"base": [], "head": []}
            for i in range(a.pairs):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    r = run_once(os.path.join(work, side), w, a.seed, a.seconds)
                    runs[side].append(r)
                    log(f"pairs: {w} pair {i + 1}/{a.pairs} {side}: "
                        f"qps {r['metrics']['qps']:.1f} "
                        f"vcsw/op {r['metrics']['vcsw_per_op']:.1f} "
                        f"sys ms/op {r['metrics']['sys_ms_per_op']:.3f}")
            metrics = []
            for spec in specs:
                b = [r["metrics"][spec["name"]] for r in runs["base"]]
                h = [r["metrics"][spec["name"]] for r in runs["head"]]
                sign = 1 if spec["better"] == "higher" else -1
                wins = sum(1 for x, y in zip(b, h) if sign * (y - x) > 0)
                losses = sum(1 for x, y in zip(b, h) if sign * (y - x) < 0)
                bs, hs = summary(b), summary(h)
                metrics.append({
                    "name": spec["name"], "unit": spec["unit"],
                    "better": spec["better"], "bound": spec.get("bound"),
                    "base": bs, "head": hs, "wins": wins, "losses": losses,
                    "change": (hs["median"] - bs["median"]) / bs["median"]
                    if bs["median"] else 0.0,
                    "verdict": verdict(spec, bs, hs, wins, losses, a.pairs)})
            p95 = statistics.median(r["metrics"]["p95_ms"] for r in runs["base"])
            share = {s: sum(r["failed"] for r in runs[s])
                     / max(1, sum(r["attempted"] for r in runs[s])) for s in runs}
            workloads.append({
                "name": w, "pairs": a.pairs,
                "correct": all(r["correct"] for s in runs for r in runs[s]),
                "failed_share": share,
                "stall_free": all(r["metrics"]["p95_ms"] <= STALL_FACTOR * p95
                                  for r in runs["head"]),
                "metrics": metrics})
    finally:
        if not a.keep and not a.work:
            shutil.rmtree(work, ignore_errors=True)
    doc = {"bench": "pairs", "label": a.label, "base": sides["base"],
           "head": sides["head"], "seed": a.seed, "seconds": a.seconds,
           "pairs": a.pairs, "host": host(), "workloads": workloads}
    os.makedirs(os.path.dirname(a.out) or ".", exist_ok=True)
    with open(a.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for wl in workloads:
        for m in wl["metrics"]:
            log(f"{wl['name']:14} {m['name']:15} base {m['base']['median']:10.3f} "
                f"head {m['head']['median']:10.3f} ({100 * m['change']:+6.1f}%) "
                f"wins {m['wins']}/{a.pairs} {m['verdict']}")
    log(f"pairs: wrote {a.out}")
    return 0 if all(wl["correct"] for wl in workloads) else 1


if __name__ == "__main__":
    sys.exit(main())
