#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark is built from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first use;
build output goes to stderr. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; traced runs also write their
spans under <build dir>/traces.

--self-test checks that every correctness check fires on a corrupted output
and that a short run of every workload prints exactly the metrics
BENCHMARK.json names, with their units.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build the benchmark; return the binary path."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            return None
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(bdir, "ncfn-perfbench")


def run_workload(binary, workload, seed, seconds, trace):
    """Run one workload; return (exit code, stdout lines, parsed result)."""
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--root", ROOT, "--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, [], None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"perfbench: {workload} printed no result", file=sys.stderr)
        return proc.returncode or 1, lines, None
    return proc.returncode, lines, result


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = subprocess.run([binary, "--self-test"]).returncode == 0
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            code, _, res = run_workload(binary, w["name"], 1, 1, trace)
            problems = []
            if code != 0 or res is None:
                problems.append(f"exit {code}, result {'missing' if res is None else 'present'}")
            else:
                got = {k: v.get("unit") for k, v in res["metrics"].items()}
                if got != want:
                    problems.append(f"metrics differ from BENCHMARK.json: "
                                    f"missing {sorted(set(want) - set(got))}, "
                                    f"extra {sorted(set(got) - set(want))}, "
                                    f"unit mismatch {sorted(k for k in want if k in got and got[k] != want[k])}")
                if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
                    problems.append(f"correct={res['correct']} attempted={res['attempted']} "
                                    f"failed={res['failed']}")
                for name, m in res["metrics"].items():
                    v = m.get("value")
                    if not isinstance(v, (int, float)) or not math.isfinite(v):
                        problems.append(f"{name} is not a finite number")
                    elif trace == 0 and v <= 0:
                        problems.append(f"{name} reads {v}")
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print(f"self-test: {w['name']} trace={trace}: {status}")
            ok = ok and not problems
    print("self-test:", "OK" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test(binary)
    code, lines, result = run_workload(binary, args.workload, args.seed,
                                       args.seconds, args.trace)
    if result is None:
        return code or 1
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
