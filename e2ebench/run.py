#!/usr/bin/env python3
"""Build and run one workload of the LAORAM end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test

Run from the root of a LAORAM checkout. The benchmark (e2ebench/src)
and the library it measures are built from source into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench); run
outputs (the Chrome trace of a --trace 1 run, node scratch
directories) go to .bench_out/. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 only when every output check passed.

With --trace 1 the per-layer metrics are reported, and the span counts
of the Chrome trace are reconciled here against the program's own
traffic counters and the nodes' RPC counts.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("train-kaggle-enc", "serve-zipf-cache", "shard-nodes-perm")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configure once, then build the benchmark and laoram_node."""
    src = root / "e2ebench"
    jobs = str(min(os.cpu_count() or 1, 4))
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(src), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", str(build_dir), "--target", "e2ebench",
           "laoram_node", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def die_with_parent():
    """Child pre-exec hook: receive SIGKILL when this script dies."""
    try:
        ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGKILL)
    except OSError:
        pass


def count_spans(trace_path):
    """Span counts and summed args per name, from a Chrome trace."""
    with open(trace_path) as f:
        doc = json.load(f)
    events = doc["traceEvents"]
    counts, args = {}, {}
    for ev in events:
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                raise ValueError("trace event without '%s': %r" % (key, ev))
        if ev["ph"] != "X":
            continue
        if "ts" not in ev or "dur" not in ev:
            raise ValueError("span without 'ts'/'dur': %r" % (ev,))
        name = ev["name"]
        counts[name] = counts.get(name, 0) + 1
        args[name] = args.get(name, 0) + ev.get("args", {}).get("arg", 0)
    return counts, args


def reconcile(counts, args, expect):
    """Compare trace span totals with the program's own counters.

    Returns a list of mismatch descriptions (empty when they agree).
    """
    rpc_spans = sum(n for name, n in counts.items() if name.startswith("rpc"))
    pairs = [
        ("path-read spans", counts.get("path-read", 0),
         expect["path_read_spans"]),
        ("path-read slots", args.get("path-read", 0),
         expect["path_read_slots"]),
        ("path-read slots vs traffic meter", args.get("path-read", 0),
         expect["meter_blocks_read"]),
        ("path-write spans", counts.get("path-write", 0),
         expect["path_write_spans"]),
        ("path-write slots", args.get("path-write", 0),
         expect["path_write_slots"]),
        ("rpc spans vs node-reported RPCs", rpc_spans, expect["node_rpcs"]),
        ("dropped spans", expect["dropped_spans"], 0),
    ]
    return ["%s: trace has %d, program counted %d" % (what, int(got), int(want))
            for what, got, want in pairs if int(got) != int(want)]


def self_test(build_dir):
    rc = subprocess.run([str(build_dir / "e2ebench"), "--self-test"],
                        preexec_fn=die_with_parent).returncode
    counts = {"path-read": 3, "path-write": 2, "rpc-read": 3, "rpc-write": 2}
    args = {"path-read": 30, "path-write": 20}
    expect = {"path_read_spans": 3, "path_read_slots": 30,
              "meter_blocks_read": 30, "path_write_spans": 2,
              "path_write_slots": 20, "node_rpcs": 5, "dropped_spans": 0}
    ok = True
    clean = reconcile(counts, args, expect)
    print("self-test reconcile-clean: %s" % ("fired" if clean else "quiet"))
    ok &= not clean
    for key in expect:
        bad = dict(expect)
        bad[key] += 1
        fired = reconcile(counts, args, bad)
        print("self-test reconcile-corrupt-%s: %s"
              % (key, "fired" if fired else "quiet"))
        ok &= bool(fired)
    ok &= rc == 0
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    opt = ap.parse_args()
    if not opt.self_test and opt.workload is None:
        ap.error("--workload is required")

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build_dir = target / "e2ebench"
    if not build(root, build_dir):
        log("e2ebench: build failed (is this a LAORAM checkout?)")
        return 2
    if opt.self_test:
        return self_test(build_dir)

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(build_dir / "e2ebench"), "--workload", opt.workload,
           "--seed", str(opt.seed), "--seconds", str(opt.seconds),
           "--trace", str(opt.trace), "--out-dir", str(out_dir),
           "--node-bin", str(build_dir / "laoram" / "laoram_node")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S,
                              preexec_fn=die_with_parent)
    except subprocess.TimeoutExpired:
        log("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("e2ebench: no result line (exit code %d)" % proc.returncode)
        return 3
    for line in lines[:-1]:
        print(line)

    correct = bool(result["correct"]) and proc.returncode == 0
    if opt.trace:
        counts = {}
        try:
            counts, args = count_spans(result["trace_file"])
            problems = reconcile(counts, args, result["reconcile"])
        except (OSError, ValueError, KeyError) as e:
            problems = ["trace unreadable: %s" % e]
        for p in problems:
            log("CHECK FAILED: " + p)
        correct = correct and not problems
        if not problems:
            print("trace %s: %d spans reconciled with the program's "
                  "counters" % (result["trace_file"], sum(counts.values())))

    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
