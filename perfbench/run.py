#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the E9Patch reproduction.

Run from the root of a checkout:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload. The last line of standard output is one
      JSON object: correct, attempted, failed and metrics (the end-to-end
      metrics with --trace 0, the per-layer metrics with --trace 1).

  python3 perfbench/run.py --all [--seed N] [--seconds S]
      Every workload once; prints each end-to-end metric by name and unit.

  python3 perfbench/run.py --steadiness --workload W [--seconds S]
      Repeats one workload on seeds 1 to 10 and writes each metric's
      median and quartiles, with the host facts, to
      perfbench/steadiness/W.json. It also reruns the first seed to check
      that every count repeats exactly.

Workloads: table1_cold, cache_zipf, daemon_unix (see perfbench/README.md).
Builds `e9patchd` and the benchmark binary in release mode into
$CARGO_TARGET_DIR (default .bench_build); scratch files go to .bench_work.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ["table1_cold", "cache_zipf", "daemon_unix"]
RUN_TIMEOUT_S = 175
DEFAULT_SECONDS = 10
# Metrics that are counts: a fixed seed must reproduce them exactly.
EXACT = ("core.", "cache.hits_", "cache.misses", "cache.bypasses", "cache.stores",
         "cache.evictions", "proto.calls", "x86.insns", "front.sites", "hook.hooks",
         "vm.", "succ_pct", "size_pct", "run_cost_pct", "ok_frac")
EXACT_EXCLUDE = ("core.rewrite_ms", "core.ns_per_site")


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Build e9patchd (from the repository's workspace) and the benchmark
    package; return the paths of both binaries."""
    for need in ("Cargo.toml", "crates", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(need):
            fail(f"{need} not found: run from the root of a full checkout", 2)
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir(), CARGO_NET_OFFLINE="true")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "e9proto", "--bin", "e9patchd"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "e9perfbench"), os.path.join(release, "e9patchd")


def run_once(bench, daemon, workload, seed, seconds, trace, echo=True):
    """One benchmark process; returns (result dict, its output lines)."""
    cmd = [bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--daemon", daemon, "--work", ".bench_work"]
    # A session of its own, so a run that overstays is killed together
    # with the e9patchd it started.
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True,
                         preexec_fn=pin_to_one_cpu)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"{workload} seed {seed} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    if p.returncode != 0 or not lines:
        fail(f"{workload} seed {seed} exited with code {p.returncode}")
    if echo:
        for line in lines[:-1]:
            print(line)
    return json.loads(lines[-1]), lines


def pin_to_one_cpu():
    """Run the benchmark, and the e9patchd it starts, on one CPU: the
    first this process may use. On a two-vCPU VM a wake-up across vCPUs
    on every daemon round trip made daemon_unix 1.5x slower and its
    run-to-run spread four times wider; one CPU also keeps the host-speed
    reference on the CPU whose speed it stands for."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def host_facts(info_lines):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    fs = next((l.split(":", 1)[1].strip() for l in info_lines
               if l.startswith("# cache/work filesystem:")), "unknown")
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "work_fs": fs}


def steadiness(bench, daemon, workload, seconds):
    seeds = list(range(1, 11))
    results, info = [], []
    for s in seeds:
        started = time.time()
        res, info = run_once(bench, daemon, workload, s, seconds, 0, echo=False)
        results.append(res)
        print(f"# {workload} seed {s}: {time.time() - started:.1f} s, correct {res['correct']}",
              file=sys.stderr)
    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = quartiles(values)
        metrics[name] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0, "values": values}
    # A fixed seed repeats every count exactly, end-to-end and per layer.
    again, _ = run_once(bench, daemon, workload, seeds[0], seconds, 0, echo=False)
    traced = [run_once(bench, daemon, workload, seeds[0], seconds, 1, echo=False)[0]
              for _ in range(2)]
    exact = {}
    for first, second in ((results[0], again), tuple(traced)):
        for name, m in first["metrics"].items():
            if name.startswith(EXACT) and name not in EXACT_EXCLUDE:
                exact[name] = {"value": m["value"],
                               "repeats": m["value"] == second["metrics"][name]["value"]}
    record = {
        "workload": workload,
        "host": host_facts(info),
        "seconds": seconds,
        "seeds": seeds,
        "all_correct": all(r["correct"] for r in results + [again] + traced),
        "ok_frac_1_on_every_seed": all(r["metrics"]["ok_frac"]["value"] == 1 for r in results),
        "counts_repeat": all(v["repeats"] for v in exact.values()),
        "metrics": metrics,
        "counts": exact,
    }
    os.makedirs(os.path.join("perfbench", "steadiness"), exist_ok=True)
    path = os.path.join("perfbench", "steadiness", f"{workload}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"{'metric':<14} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name, m in metrics.items():
        print(f"{name:<14} {m['median']:>14.6g} {m['q1']:>14.6g} {m['q3']:>14.6g} "
              f"{m['spread']:>8.4f}  {m['unit']}")
    print(f"counts repeat exactly: {record['counts_repeat']}; "
          f"ok_frac = 1 on every seed: {record['ok_frac_1_on_every_seed']}; wrote {path}")
    return record["all_correct"] and record["counts_repeat"]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--steadiness", action="store_true")
    a = ap.parse_args()
    if not a.all and a.workload is None:
        fail("give --workload W or --all", 2)
    bench, daemon = build()
    if a.steadiness:
        sys.exit(0 if steadiness(bench, daemon, a.workload, a.seconds) else 1)
    if a.all:
        ok = True
        for w in WORKLOADS:
            res, _ = run_once(bench, daemon, w, a.seed, a.seconds, 0)
            ok &= res["correct"]
            print(f"{w}: correct {res['correct']}, {res['attempted']} jobs, "
                  f"{res['failed']} failed")
            for name, m in res["metrics"].items():
                print(f"  {w}/{name:<14} {m['value']:>16.6g} {m['unit']}")
        sys.exit(0 if ok else 1)
    _, lines = run_once(bench, daemon, a.workload, a.seed, a.seconds, a.trace)
    print(lines[-1])


if __name__ == "__main__":
    main()
