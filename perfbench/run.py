#!/usr/bin/env python3
"""Served-path host benchmark for HIPStR.

Builds the benchmark driver (perfbench/CMakeLists.txt, which compiles
the repository's src/ libraries unmodified) and runs one workload:

    python3 perfbench/run.py --workload fleet-hostile --seed 1 \
        --seconds 30 --trace 0

The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; with --trace 0 it holds
every end-to-end metric of BENCHMARK.json, with --trace 1 every
per-layer metric. The exit code is nonzero when the tree cannot be
built, an output check fails or the printed metrics do not match
BENCHMARK.json.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own unit tests instead.

Build files go to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) under the checkout root; traced runs write
their spans next to it, in perfbench-spans/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet-hostile", "fleet-clean", "vm-matrix")
# Knobs that would change which layers run, or record/replay the run.
PINNED_KNOBS = ("HIPSTR_TRACE", "HIPSTR_JIT", "HIPSTR_BENCH_SMOKE",
                "HIPSTR_RECORD", "HIPSTR_REPLAY")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build(target):
    """Configure once, then build @p target; logs go to stderr."""
    out = os.path.join(build_root(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, target)


def check_metrics(result, trace):
    """The printed metric names and units must be BENCHMARK.json's."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        units = sorted(k for k in set(declared) & set(printed)
                       if declared[k] != printed[k])
        return "metrics differ from BENCHMARK.json: missing %s, " \
            "undeclared %s, unit mismatch %s" % (missing, extra, units)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("no src/ tree at %s; run from a full checkout" % ROOT)

    if args.selftest:
        exe = build("perfbench_test")
        if exe is None:
            return fail("build of perfbench_test failed")
        return subprocess.run([exe], stdout=sys.stderr).returncode

    if args.workload is None or args.seed is None or args.seed < 0 or \
            args.seconds is None or not 1 <= args.seconds <= 60 or \
            args.trace is None:
        return fail("--workload, --seed >= 0, --seconds 1-60 and "
                    "--trace 0|1 are required")
    exe = build("hipstr_perfbench")
    if exe is None:
        return fail("build failed")

    env = dict(os.environ)
    for knob in PINNED_KNOBS:
        env.pop(knob, None)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build_root(), "perfbench-spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    out = proc.stdout.decode()
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return fail("driver printed no result line", 3)
    err = check_metrics(result, args.trace)
    if err:
        return fail(err, 3)
    return 0


if __name__ == "__main__":
    sys.exit(main())
