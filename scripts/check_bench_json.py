#!/usr/bin/env python3
"""Validate every BENCH_*.json a benchmark run produced.

Each harness writes a pair of files through bench/bench_util.cc:

  BENCH_<name>.json       deterministic: {"bench", "smoke", "metrics"}
                          where "metrics" is the registry export --
                          byte-identical for every HIPSTR_JOBS value.
  BENCH_<name>_host.json  host-variable: {"bench", "jobs",
                          "figure_wall_seconds"} plus free-form numeric
                          host metrics (wall-clock rates etc.).

This checker is the CI tripwire for the telemetry exporter's contract:
metric names are well-formed and sorted, values are finite numbers or
well-formed histogram objects, and the two files of a pair agree on
the bench name. Run from a directory containing the files (ctest runs
it in build/bench after the bench_smoke tier):

  python3 scripts/check_bench_json.py [dir]

Exit codes: 0 ok, 1 validation failure, 77 no files found (ctest
SKIP_RETURN_CODE, so a tree that never ran the benches skips).
"""

import json
import math
import re
import sys
from pathlib import Path

METRIC_NAME_RE = re.compile(
    r"^[a-z0-9_]+(\.[a-z0-9_]+)*"  # dotted hierarchical name
    r"(\{[a-z0-9_]+=[^,{}=]+(,[a-z0-9_]+=[^,{}=]+)*\})?$"  # labels
)
HISTOGRAM_KEYS = {"type", "bin_width", "samples", "mean", "bins"}

errors = []


def fail(path, msg):
    errors.append(f"{path.name}: {msg}")


def is_finite_number(v):
    return (
        isinstance(v, (int, float))
        and not isinstance(v, bool)
        and math.isfinite(v)
    )


def check_histogram(path, name, h):
    if set(h.keys()) != HISTOGRAM_KEYS:
        fail(path, f"{name}: histogram keys {sorted(h.keys())}, "
                   f"want {sorted(HISTOGRAM_KEYS)}")
        return
    if h["type"] != "histogram":
        fail(path, f"{name}: type {h['type']!r}")
    if not isinstance(h["bin_width"], int) or h["bin_width"] <= 0:
        fail(path, f"{name}: bad bin_width {h['bin_width']!r}")
    if not isinstance(h["samples"], int) or h["samples"] < 0:
        fail(path, f"{name}: bad samples {h['samples']!r}")
    if not is_finite_number(h["mean"]):
        fail(path, f"{name}: non-finite mean")
    bins = h["bins"]
    if not isinstance(bins, list) or not bins or any(
        not isinstance(b, int) or b < 0 for b in bins
    ):
        fail(path, f"{name}: bad bins {bins!r}")
    elif sum(bins) != h["samples"]:
        fail(path, f"{name}: bins sum {sum(bins)} != "
                   f"samples {h['samples']}")


def check_metrics(path, metrics):
    if not isinstance(metrics, dict) or not metrics:
        fail(path, "metrics must be a non-empty object")
        return
    names = list(metrics.keys())
    if names != sorted(names):
        fail(path, "metric names are not sorted")
    for name, value in metrics.items():
        if not METRIC_NAME_RE.match(name):
            fail(path, f"malformed metric name {name!r}")
        if isinstance(value, dict):
            check_histogram(path, name, value)
        elif not is_finite_number(value):
            fail(path, f"{name}: non-finite or non-numeric value "
                       f"{value!r}")


def check_fault_tolerance(path, metrics):
    """BENCH_fault_tolerance.json carries an availability sweep: at
    least 3 distinct "fault.r<permille>." groups, each with an
    availability gauge in [0, 1] and a mean-rounds-to-recover
    gauge."""
    groups = set()
    for name in metrics:
        m = re.match(r"^fault\.r(\d+)\.", name)
        if m:
            groups.add(int(m.group(1)))
    if len(groups) < 3:
        fail(path, f"fault sweep has {len(groups)} rate group(s), "
                   f"want >= 3")
    for rate in sorted(groups):
        prefix = f"fault.r{rate}."
        avail = metrics.get(prefix + "availability")
        if avail is None:
            fail(path, f"{prefix}availability missing")
        elif not is_finite_number(avail) or not 0.0 <= avail <= 1.0:
            fail(path, f"{prefix}availability {avail!r} not in "
                       f"[0, 1]")
        recover = metrics.get(prefix + "mean_rounds_to_recover")
        if recover is None:
            fail(path, f"{prefix}mean_rounds_to_recover missing")
        elif not is_finite_number(recover) or recover < 0:
            fail(path, f"{prefix}mean_rounds_to_recover "
                       f"{recover!r} invalid")


def check_record_replay(path, metrics):
    """BENCH_record_replay.json carries the record/replay fidelity
    claims: recording perturbed nothing, the replay matched the
    journal bit-exactly (with at least one verified sync point), a
    non-empty journal was produced, and the windowed replay restored
    a mid-run checkpoint."""
    for name in ("record.zero_perturbation", "replay.match"):
        v = metrics.get(name)
        if v != 1:
            fail(path, f"{name} is {v!r}, want 1")
    for name in ("record.journal_bytes", "record.checkpoints",
                 "replay.sync_checks", "window.start_round"):
        v = metrics.get(name)
        if v is None:
            fail(path, f"{name} missing")
        elif not is_finite_number(v) or v <= 0:
            fail(path, f"{name} {v!r} invalid, want > 0")


def check_fleet_serving(path, metrics):
    """BENCH_fleet_serving.json carries the fleet's merged report:
    availability gauges in [0, 1], the full latency percentile
    ladder in non-decreasing order, request conservation
    (served + shed + abandoned == offered), and the shard-count
    invariance witness."""
    for prefix in ("fleet.", "fleet.slo."):
        avail = metrics.get(prefix + "availability")
        if avail is None:
            fail(path, f"{prefix}availability missing")
        elif not is_finite_number(avail) or not 0.0 <= avail <= 1.0:
            fail(path, f"{prefix}availability {avail!r} not in "
                       f"[0, 1]")
    ladder = []
    for q in ("p50", "p99", "p999", "max"):
        name = f"fleet.latency_{q}_rounds"
        v = metrics.get(name)
        if v is None or not is_finite_number(v) or v < 0:
            fail(path, f"{name} missing or invalid: {v!r}")
            return
        ladder.append(v)
    if ladder != sorted(ladder):
        fail(path, f"latency percentiles not non-decreasing: "
                   f"{ladder}")
    counts = {}
    for part in ("offered", "served", "shed", "abandoned"):
        name = f"fleet.requests_{part}"
        v = metrics.get(name)
        if v is None or not isinstance(v, int) or v < 0:
            fail(path, f"{name} missing or invalid: {v!r}")
            return
        counts[part] = v
    if counts["served"] + counts["shed"] + counts["abandoned"] != \
            counts["offered"]:
        fail(path, f"request conservation violated: {counts}")
    if metrics.get("fleet.kinv.match") != 1:
        fail(path, "fleet.kinv.match != 1 (outcome set depends on "
                   "shard count)")


def check_campaign_pareto(path, metrics):
    """BENCH_campaign_pareto.json carries the adaptive-adversary
    sweep: every sweep point has a positive time-to-compromise and an
    availability in [0, 1]; the published frontier is monotone (rising
    ttc never buys better p99 — otherwise a dominated point leaked
    in); and the headline claims hold (adaptive strictly beats
    one-shot at equal probe budget, the hostile replay matched)."""
    points = set()
    for name in metrics:
        m = re.match(r"^pareto\.p(\d+)\.", name)
        if m:
            points.add(int(m.group(1)))
    if len(points) < 4:
        fail(path, f"pareto sweep has {len(points)} point(s), "
                   f"want >= 4")
    for i in sorted(points):
        prefix = f"pareto.p{i}."
        ttc = metrics.get(prefix + "ttc_rounds")
        if not is_finite_number(ttc) or ttc <= 0:
            fail(path, f"{prefix}ttc_rounds {ttc!r} invalid, "
                       f"want > 0")
        avail = metrics.get(prefix + "availability")
        if avail is None:
            fail(path, f"{prefix}availability missing")
        elif not is_finite_number(avail) or not 0.0 <= avail <= 1.0:
            fail(path, f"{prefix}availability {avail!r} not in "
                       f"[0, 1]")
    size = metrics.get("pareto.frontier.size")
    if not isinstance(size, int) or size < 1:
        fail(path, f"pareto.frontier.size {size!r} invalid")
        size = 0
    frontier = []
    for j in range(size):
        prefix = f"pareto.frontier.f{j}."
        ttc = metrics.get(prefix + "ttc_rounds")
        p99 = metrics.get(prefix + "latency_p99_rounds")
        if not is_finite_number(ttc) or not is_finite_number(p99):
            fail(path, f"{prefix}: missing ttc/p99 pair")
            return
        frontier.append((ttc, p99))
    for (t0, l0), (t1, l1) in zip(frontier, frontier[1:]):
        if t1 <= t0:
            fail(path, f"frontier ttc not strictly increasing: "
                       f"{t0} -> {t1}")
        if l1 < l0:
            fail(path, f"frontier p99 improves as ttc rises "
                       f"({l0} -> {l1}): a dominated point leaked in")
    one = metrics.get("pareto.duel.oneshot_ttc_probes")
    ada = metrics.get("pareto.duel.adaptive_ttc_probes")
    if not is_finite_number(one) or not is_finite_number(ada):
        fail(path, "duel ttc metrics missing")
    elif not ada < one:
        fail(path, f"adaptive ttc {ada} not strictly below "
                   f"one-shot {one}")
    for name in ("pareto.duel.adaptive_beats_oneshot",
                 "pareto.replay_match"):
        v = metrics.get(name)
        if v != 1:
            fail(path, f"{name} is {v!r}, want 1")


FIG9_JIT_KEYS = (
    "jit.compiledTraces", "jit.codeBytes", "jit.executions",
    "jit.sideExits", "jit.bailouts", "jit.invalidated",
    "jit.execFallbacks",
)


def check_fig9_host(path, doc):
    """BENCH_fig9_performance_host.json carries the trace-JIT
    observability counters next to the wall-clock rates. All seven are
    required (an HIPSTR_JIT=0 run publishes zeros); when the JIT did
    run, the counters must be internally consistent: every execution
    comes from a compiled trace, compiled traces occupy code bytes,
    and at most one side exit fires per entry."""
    for key in FIG9_JIT_KEYS:
        v = doc.get(key)
        if v is None:
            fail(path, f"missing jit counter {key!r}")
            return
        if not is_finite_number(v) or v < 0 or v != int(v):
            fail(path, f"{key} {v!r} is not a non-negative integer")
            return
    if doc["jit.executions"] > 0 and doc["jit.compiledTraces"] < 1:
        fail(path, "jit.executions > 0 without a compiled trace")
    if (doc["jit.compiledTraces"] > 0) != (doc["jit.codeBytes"] > 0):
        fail(path, "jit.compiledTraces and jit.codeBytes disagree "
                   "about whether anything was compiled")
    if doc["jit.sideExits"] > doc["jit.executions"]:
        fail(path, f"jit.sideExits {doc['jit.sideExits']} exceeds "
                   f"jit.executions {doc['jit.executions']} (at most "
                   f"one side exit per entry)")


def check_deterministic(path, bench_name):
    doc = json.loads(path.read_text())
    if set(doc.keys()) != {"bench", "smoke", "metrics"}:
        fail(path, f"top-level keys {sorted(doc.keys())}, want "
                   f"['bench', 'metrics', 'smoke']")
        return
    if doc["bench"] != bench_name:
        fail(path, f"bench {doc['bench']!r} != file name "
                   f"{bench_name!r}")
    if not isinstance(doc["smoke"], bool):
        fail(path, f"smoke must be a bool, got {doc['smoke']!r}")
    check_metrics(path, doc["metrics"])
    if bench_name == "fault_tolerance" and \
            isinstance(doc["metrics"], dict):
        check_fault_tolerance(path, doc["metrics"])
    if bench_name == "record_replay" and \
            isinstance(doc["metrics"], dict):
        check_record_replay(path, doc["metrics"])
    if bench_name == "fleet_serving" and \
            isinstance(doc["metrics"], dict):
        check_fleet_serving(path, doc["metrics"])
    if bench_name == "campaign_pareto" and \
            isinstance(doc["metrics"], dict):
        check_campaign_pareto(path, doc["metrics"])


def check_host(path, bench_name):
    doc = json.loads(path.read_text())
    for key in ("bench", "jobs", "figure_wall_seconds"):
        if key not in doc:
            fail(path, f"missing key {key!r}")
            return
    if doc["bench"] != bench_name:
        fail(path, f"bench {doc['bench']!r} != file name "
                   f"{bench_name!r}")
    if not isinstance(doc["jobs"], int) or doc["jobs"] < 0:
        fail(path, f"bad jobs {doc['jobs']!r}")
    if not is_finite_number(doc["figure_wall_seconds"]) or \
            doc["figure_wall_seconds"] <= 0:
        fail(path, f"bad figure_wall_seconds "
                   f"{doc['figure_wall_seconds']!r}")
    for key, value in doc.items():
        if key != "bench" and not is_finite_number(value):
            fail(path, f"host metric {key!r} is not a finite number")
    if bench_name == "fig9_performance":
        check_fig9_host(path, doc)


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else Path(".")
    files = sorted(root.glob("BENCH_*.json"))
    if not files:
        print(f"check_bench_json: no BENCH_*.json under {root} "
              f"(run the bench_smoke tier first); skipping")
        return 77

    det, host = {}, {}
    for path in files:
        stem = path.stem[len("BENCH_"):]
        try:
            if stem.endswith("_host"):
                name = stem[: -len("_host")]
                host[name] = path
                check_host(path, name)
            else:
                det[stem] = path
                check_deterministic(path, stem)
        except (json.JSONDecodeError, OSError) as e:
            fail(path, f"unreadable: {e}")

    for name in sorted(set(det) - set(host)):
        fail(det[name], "has no _host.json companion")
    for name in sorted(set(host) - set(det)):
        fail(host[name], "has no deterministic companion")

    if errors:
        for e in errors:
            print(f"FAIL {e}")
        print(f"check_bench_json: {len(errors)} error(s) across "
              f"{len(files)} file(s)")
        return 1
    print(f"check_bench_json: {len(files)} file(s) ok "
          f"({len(det)} bench pair(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
