#!/usr/bin/env python3
"""The mqce benchmark: builds the program from source, runs one workload (or
all of them) and prints every metric by name and unit.

Run from the root of the repository:

    python3 perfbench/run.py --workload dense-communities --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --workload sparse-planted --steady 5 --seconds 20

A single-workload run prints a table, then as its last line one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics of BENCHMARK.json with `--trace 0`, the per-layer ones with
`--trace 1`. `--workload all` runs each workload untraced and traced and adds
the tracing overhead; `--steady K` runs one workload on K seeds and prints
each metric's quartile spread against its bound. See perfbench/README.md.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["dense-communities", "sparse-planted", "serve-mixed"]
# Longest one harness process may run once the build is done.
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds `mqce` (the program) and `perfbench` (the harness) in release
    mode. Returns the two binary paths; exits 1 if either build fails."""
    if not os.path.exists("Cargo.toml"):
        log("no Cargo.toml here: run from the root of the repository")
        sys.exit(1)
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "mqce-cli", "--bin", "mqce"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
    ):
        res = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            sys.exit(1)
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "mqce"), os.path.join(release, "perfbench")


def become_subreaper():
    """Orphaned descendants (a daemon or shard worker whose parent died) are
    re-parented to this process, so `reap_all` can find and wait for them."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def children_of(pid):
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # The command name may hold spaces; the fields after it do not.
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[1]) == pid:
            kids.append(int(entry))
    return kids


def reap_all():
    """Kills and waits for every remaining descendant of this process."""
    for _ in range(100):
        kids = children_of(os.getpid())
        if not kids:
            return
        for pid in kids:
            try:
                os.killpg(pid, signal.SIGKILL)
            except OSError:
                pass
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        for pid in kids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
        time.sleep(0.01)


def run_harness(bins, workload, seed, seconds, trace):
    """Runs one workload in the harness; returns its full report (a dict) or
    None if it crashed or timed out. Every process it started is gone when
    this returns."""
    mqce, harness = bins
    out_dir = os.path.abspath(".bench_out")
    work = os.path.join(out_dir, f"work-{workload}-{seed}-{trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [harness, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--mqce", mqce, "--work", work]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed} timed out after {RUN_TIMEOUT_S}s")
        out = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        proc.wait()
        reap_all()
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        log(f"{workload} seed {seed}: harness exited with {proc.returncode}")
        return None
    report = json.loads(lines[-1])
    trace_file = os.path.join(work, f"trace-{workload}-{seed}.json")
    if os.path.exists(trace_file):
        shutil.move(trace_file, os.path.join(out_dir, f"trace-{workload}-{seed}.json"))
    with open(os.path.join(out_dir, f"report-{workload}-{seed}-{trace}.json"), "w") as f:
        json.dump(report, f, indent=1)
    shutil.rmtree(work, ignore_errors=True)
    return report


def select(report, names, key):
    """The report's `key` metrics restricted to `names`; None if one is
    missing."""
    picked = {}
    for name in names:
        m = report[key].get(name)
        if m is None or m["value"] is None:
            log(f"metric {name} missing from the {report['workload']} report")
            return None
        picked[name] = {"value": m["value"], "unit": m["unit"]}
    return picked


def print_table(report, title):
    print(f"== {report['workload']} seed {report['seed']} ({title}) ==")
    for key in ("metrics", "layers"):
        for name, m in report[key].items():
            value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {name:<28} {value:>14} {m['unit']}")
    frac = report["failed"] / max(report["attempted"], 1)
    print(f"  {'failed_frac':<28} {frac:>14.6g} ratio ({report['failed']} of {report['attempted']})")
    for name, n in report["samples"].items():
        print(f"  samples {name:<20} {n:>14}")
    for name, value in report["fingerprint"].items():
        print(f"  exact {name:<22} {value:>14}")
    for name, value in report["counters"].items():
        print(f"  counter {name:<20} {value:>14}")
    bad = [c for c in report["checks"] if not c["ok"]]
    print(f"  exactness checks: {len(report['checks']) - len(bad)} passed, {len(bad)} failed")
    for c in bad:
        print(f"    FAILED {c['name']}: {c['detail']}")


def single(args, spec, bins):
    report = run_harness(bins, args.workload, args.seed, args.seconds, args.trace)
    if report is None:
        sys.exit(1)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    metrics = select(report, names, "layers" if args.trace else "metrics")
    if metrics is None:
        sys.exit(1)
    print_table(report, "traced" if args.trace else "untraced")
    print(json.dumps({"correct": bool(report["correct"]), "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    sys.exit(0 if report["correct"] else 1)


def run_all(args, spec, bins):
    """Every workload, untraced then traced, plus the tracing overhead."""
    ok = True
    summary = {}
    for workload in WORKLOADS:
        plain = run_harness(bins, workload, args.seed, args.seconds, 0)
        traced = run_harness(bins, workload, args.seed, args.seconds, 1)
        if plain is None or traced is None:
            ok = False
            continue
        print_table(plain, "untraced")
        print_table(traced, "traced")
        print(f"  tracing overhead (traced / untraced - 1):")
        for m in spec["end_to_end"]:
            a, b = plain["metrics"].get(m["name"]), traced["metrics"].get(m["name"])
            if a and b and a["value"] and b["value"] is not None:
                print(f"    {m['name']:<26} {b['value'] / a['value'] - 1:+.3f}")
        ok &= plain["correct"] and traced["correct"]
        summary[workload] = {
            "correct": plain["correct"] and traced["correct"],
            "failed_frac": plain["failed"] / max(plain["attempted"], 1),
            "metrics": {k: v["value"] for k, v in plain["metrics"].items()},
        }
    print(json.dumps({"correct": ok, "workloads": summary}))
    sys.exit(0 if ok else 1)


def steady(args, spec, bins):
    """Runs one workload on `--steady` seeds (`--sets` times) and prints,
    per end-to-end metric, median, quartiles and spread against its bound."""
    sets = []
    for s in range(args.sets):
        values = {}
        for i in range(args.steady):
            report = run_harness(bins, args.workload, args.seed + i, args.seconds, 0)
            if report is None or not report["correct"]:
                log(f"seed {args.seed + i} failed")
                sys.exit(1)
            for name, m in report["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        sets.append(values)
    ok = True
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        medians = []
        for s, values in enumerate(sets):
            v = values[name]
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2
            medians.append(q2)
            flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            if spread > bound and name != "setup_s":
                ok = False
            print(f"{name:<18} set {s + 1}: median {q2:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.3f} bound {bound} [{flag}]")
        for s in range(1, len(medians)):
            worse = medians[s] / medians[0] - 1
            if m["better"] == "higher":
                worse = medians[0] / medians[s] - 1
            agree = worse <= bound
            ok &= agree
            print(f"{name:<18} set {s + 1} vs set 1: worse by {worse:+.3f} "
                  f"[{'agree' if agree else 'DISAGREE'}]")
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, default=0, metavar="K",
                   help="run K seeds and report each metric's spread")
    p.add_argument("--sets", type=int, default=1,
                   help="with --steady: repeat the K seeds this many times and compare medians")
    args = p.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    bins = build()
    become_subreaper()
    if args.workload == "all":
        run_all(args, spec, bins)
    elif args.steady:
        steady(args, spec, bins)
    else:
        single(args, spec, bins)


if __name__ == "__main__":
    main()
