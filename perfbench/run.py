#!/usr/bin/env python3
"""The repository's benchmark: one command for every workload.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--self-test]

Builds the ssq library and the benchmark binary from this checkout's
sources (into $CARGO_TARGET_DIR or .bench_build), then runs each workload
in a process of its own and prints, per workload, every metric by name with
its unit and sample count. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones of the traced run (see perfbench/README.md). The exit status
is non-zero when an output check fails or nothing could be built.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sym-unfair", "fanout-fair", "pool-open"]
# Printed in the table but left out of the last line. failed_frac is 0 in
# every valid run and appears there as failed/attempted. The tail
# percentiles of pool-open are set by how fast the host wakes an idle vCPU
# for a parked worker, and drift by 20-35% between runs, beyond any bound
# the benchmark could hold them to (see README.md).
UNTRACKED = {"failed_frac", "latency_p90_ns", "latency_p99_ns"}
START = time.monotonic()


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure and build; returns the binary path and whether it built."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found beside perfbench/")
    out = os.path.join(build_root(), "perfbench")
    os.makedirs(out, exist_ok=True)
    binary = os.path.join(out, "perfbench_ssq")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        before = os.path.getmtime(binary) if os.path.exists(binary) else None
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
        subprocess.run(["cmake", "--build", out, "-j", "4"], check=True,
                       stdout=sys.stderr, env=env)
        after = os.path.getmtime(binary)
    return binary, before != after


def source_digest():
    """sha256 of the library and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".hpp", ".cpp", ".txt", ".py")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                           capture_output=True, text=True, env=env, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_binary(binary, args, deadline):
    r = subprocess.run([binary] + args, capture_output=True, text=True,
                       timeout=max(5.0, deadline - time.monotonic()))
    if r.stderr:
        log(r.stderr.rstrip())
    try:
        return r.returncode, json.loads(r.stdout)
    except json.JSONDecodeError:
        return r.returncode, None


def report(doc, rev, digest):
    m = doc["meta"]
    p = doc["params"]
    sp = m["spin_policy"]
    print(f"== {doc['workload']} ({'traced' if doc['traced'] else 'untraced'})")
    print(f"   host: nproc={m['nproc']} cpu={m['cpu_model']!r}")
    print(f"   build: {m['compiler']} {m['build_type']} "
          f"memory_order={m['memory_order_mode']} spin_policy=adaptive"
          f"({sp['front_spins']},{sp['back_spins']},{sp['yield_every']}) "
          f"git_rev={rev} src_sha256={digest}")
    print("   params: " + " ".join(f"{k}={v}" for k, v in p.items()))
    print(f"   check: attempted={doc['attempted']} failed={doc['failed']} "
          f"-> {'exactly-once OK' if doc['correct'] else 'FAILED'}")
    for name, v in doc["metrics"].items():
        print(f"   {name:32s} {v['value']:>16.6g} {v['unit']:6s} "
              f"(n={v['samples']})")
    for name, v in doc["notes"].items():
        print(f"   note {name} = {v:.6g}")
    for s in doc.get("spans", {}).get("by_name", []):
        print(f"   span {s['name']:8s} parent={s['parent']:8s} "
              f"n={s['count']:<8d} dur_p50={s['duration_p50_ns']:.0f}ns "
              f"self_p50={s['self_p50_ns']:.0f}ns "
              f"self_p99={s['self_p99_ns']:.0f}ns")
    sys.stdout.flush()


def self_test(binary, deadline):
    """Unit checks of the histogram and tally, then every workload with one
    dropped and one duplicated output injected: each must be flagged."""
    ok = subprocess.run([binary, "selftest"], timeout=60).returncode == 0
    for w in WORKLOADS:
        for fault in ("none", "drop", "dup"):
            args = ["run", "--workload", w, "--seed", "7", "--seconds", "0.5",
                    "--trace", "0"]
            if fault != "none":
                args += ["--inject", fault]
            rc, doc = run_binary(binary, args, deadline)
            want_fail = fault != "none"
            flagged = doc is not None and doc["failed"] >= 1 and \
                not doc["correct"] and rc != 0
            clean = doc is not None and doc["failed"] == 0 and \
                doc["correct"] and rc == 0
            good = flagged if want_fail else clean
            print(f"{'ok  ' if good else 'FAIL'} {w} inject={fault}: "
                  f"rc={rc} failed={doc and doc['failed']}")
            ok = ok and good
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    # BENCHMARK.json's run_seconds; the binary checks the range.
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()

    try:
        binary, built = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2
    names = WORKLOADS if a.workload == "all" else [a.workload]
    # The first run in a checkout pays for the build; after that each
    # workload must finish well inside three minutes.
    deadline = START + (880 if built else 175) + 175 * (len(names) - 1)
    if a.self_test:
        return self_test(binary, deadline)
    if subprocess.run([binary, "selftest"], stdout=subprocess.DEVNULL,
                      timeout=60).returncode != 0:
        log("perfbench: benchmark self-test failed")
        return 1

    rev, digest = git_rev(), source_digest()
    trace_dir = os.path.join(build_root(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in names:
        args = ["run", "--workload", w, "--seed", str(a.seed),
                "--seconds", repr(a.seconds), "--trace", str(a.trace)]
        if a.trace:
            args += ["--trace-out",
                     os.path.join(trace_dir, f"{w}.csv")]
        try:
            rc, doc = run_binary(binary, args, deadline)
        except subprocess.TimeoutExpired:
            log(f"perfbench: workload {w} ran past its time limit")
            return 1
        if doc is None:
            log(f"perfbench: workload {w} produced no result (exit {rc})")
            return 1
        report(doc, rev, digest)
        correct = correct and doc["correct"] and rc == 0
        attempted += doc["attempted"]
        failed += doc["failed"]
        prefix = "" if len(names) == 1 else w + "."
        for name, v in doc["metrics"].items():
            if name not in UNTRACKED:
                metrics[prefix + name] = {"value": v["value"],
                                          "unit": v["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
