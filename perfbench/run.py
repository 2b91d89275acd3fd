#!/usr/bin/env python3
"""Host cost ledger: SiMany's paper-scale benchmark.

Builds the `ledger` program (perfbench/CMakeLists.txt, which compiles the
simulator from ../src) into .bench_build/perfbench, runs it for one
workload, and turns its raw measurements into medians, correctness
checks and one JSON result line, the last line on stdout:

  {"correct": true, "attempted": N, "failed": 0,
   "metrics": {"wall_over_native": {"value": 3.5, "unit": "ratio"}, ...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones (see perfbench/README.md for every name).
Deterministic counters go to .bench_build/perfbench-out/ as a
{"counters":…,"gauges":…} JSON that tools/run_diff.py can diff, and a
traced run also writes its span tree there as a Chrome trace.

Usage:
  python3 perfbench/run.py --workload shared-1024 --seed 1 --seconds 26 \\
      --trace 0
  python3 perfbench/run.py --smoke --workload observed-64 --trace 1
"""

import argparse
import collections
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

WORKLOADS = ("shared-1024", "distributed-1024", "observed-64")
PAPER_DWARFS = ("barnes-hut", "connected-components", "dijkstra",
                "quicksort", "spmxv", "octree")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")

END_TO_END_UNITS = {
    "wall_over_native": "ratio",
    "sim_over_native": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Absolute host times of the untraced run: printed beside the result, not
# gated, because the shared host's speed drifts more than any bound
# (README.md, "Host noise"). The traced run reports them as bench.wall_s
# and core.ns_per_event.
HOST_TIME_UNITS = {"wall_s": "s", "ns_per_event": "ns"}

# Datasets per workload seed; see perfbench/README.md for the choice.
DATASETS = 8

# Smoke mode: every code path at a fraction of the cost.
SMOKE_FACTOR = 0.05
SMOKE_DWARFS = 1
SMOKE_DATASETS = 2
SMOKE_SECONDS = 0.5


class BenchError(Exception):
    """The benchmark could not produce a result (build or ledger failure)."""


# ---- statistics -------------------------------------------------------------


def median(values):
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def geomean(values):
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def residual(untraced_wall, covered):
    """Part of the untraced wall time that no traced layer span covers,
    as (seconds, share of the wall time). Negative when the traced spans
    took longer than the whole untraced pass."""
    r = untraced_wall - covered
    return r, r / untraced_wall


# ---- consistency digests -----------------------------------------------------


def digest(stats):
    """Digest of one run's simulated results: completion time, every
    SimStats counter and the network stats, as the ledger printed them."""
    canon = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def inconsistent_runs(groups):
    """Counts runs whose digest disagrees with their group's majority.

    `groups` maps a key (a dwarf) to the digests of every run that must
    agree: repetitions, and runs with telemetry flipped. Returns
    (failures, reference digest per key)."""
    failures = 0
    reference = {}
    for key, digests in groups.items():
        ref, _ = collections.Counter(digests).most_common(1)[0]
        reference[key] = ref
        failures += sum(1 for d in digests if d != ref)
    return failures, reference


# ---- aggregation -------------------------------------------------------------


def dataset_mean(passes, value):
    """Mean over datasets of the median over each dataset's passes.

    Inputs differ a lot between datasets and host noise between
    repetitions: the median takes out the noise, the mean over the
    seed's datasets is the figure for the seed."""
    by_dataset = collections.defaultdict(list)
    for p in passes:
        by_dataset[p["dataset"]].append(value(p))
    if not by_dataset:
        raise ValueError("no passes")
    return statistics.fmean(median(v) for v in by_dataset.values())


def measured(raw, traced):
    return [p for p in raw["passes"]
            if not p["warmup"] and p["traced"] == traced]


def _attached_runs(raw):
    """(dataset, run) of every run with telemetry attached: the passes
    on an observed workload, the telemetry-flip twins elsewhere."""
    if raw["observed"]:
        return [(p["dataset"], r) for p in raw["passes"] for r in p["runs"]]
    return [(t["dataset"], t["run"]) for t in raw["twins"]
            if t["kind"] == "obs"]


def events_by_run(raw):
    """Telemetry events of each (dataset, dwarf); the count depends only
    on config, dwarf and dataset."""
    return {(k, r["dwarf"]): r["events"] for k, r in _attached_runs(raw)
            if r["ok"]}


def check_runs(raw):
    """(attempted, failed, reference digest per run key, error messages).

    A dwarf run fails when it threw, failed its own verification, or its
    simulated results differ from the other runs of the same dwarf and
    dataset: every repetition and the telemetry-flipped twin must agree.
    The sync twins simulate a different T and are only checked for
    errors."""
    runs = [(p["dataset"], r) for p in raw["passes"] for r in p["runs"]]
    twins = [(t["dataset"], t["run"]) for t in raw["twins"]]
    attempted = len(runs) + len(twins)
    errors = [f"dataset {k} {r['dwarf']}: {r['error']}"
              for k, r in runs + twins if not r["ok"]]
    failed = len(errors)
    groups = collections.OrderedDict()
    flip = [(t["dataset"], t["run"]) for t in raw["twins"]
            if t["kind"] == "obs"]
    for k, r in runs + flip:
        if r["ok"]:
            groups.setdefault((k, r["dwarf"]), []).append(
                digest(r["stats"]))
    mismatched, reference = inconsistent_runs(groups)
    if mismatched:
        errors.append(f"{mismatched} run(s) disagree with their "
                      "repetitions or telemetry-flipped twin")
    return attempted, failed + mismatched, reference, errors


def end_to_end_metrics(raw):
    passes = measured(raw, traced=False)
    events = events_by_run(raw)
    datasets = sorted({p["dataset"] for p in passes})
    dwarfs = [r["dwarf"] for r in passes[0]["runs"]]
    run_time = collections.defaultdict(float)
    native_time = collections.defaultdict(float)
    wall = native = 0.0
    for k in datasets:
        of_k = [p for p in passes if p["dataset"] == k]
        for i, d in enumerate(dwarfs):
            run_time[d] += median(p["runs"][i]["run_s"] for p in of_k)
            native_time[d] += median(p["runs"][i]["native_s"] for p in of_k)
        wall += median(p["wall_s"] for p in of_k)
        native += median(sum(r["native_s"] for r in p["runs"]) for p in of_k)
    return {
        "wall_over_native": wall / native,
        "sim_over_native": geomean(run_time[d] / native_time[d]
                                   for d in dwarfs),
        "setup_s": median(sum(r["setup_s"] for r in p["runs"])
                          for p in passes),
        "peak_rss_mb": raw["peak_rss_mb"],
        "wall_s": dataset_mean(passes, lambda p: p["wall_s"]),
        "ns_per_event": 1e9 * sum(run_time.values()) / sum(
            events[(k, d)] for k in datasets for d in dwarfs),
    }


# Layer calls of the core pass, timed from the traced pass's spans.
CORE_CALLS = (
    ("config.build_s", "config.build"),
    ("dwarfs.make_root_s", "dwarfs.make_root"),
    ("core.setup_s", "core.setup"),
    ("core.run_s", "core.run"),
    ("core.teardown_s", "core.teardown"),
)

# obs calls, read from the telemetry-attached run of each traced pass:
# the pass itself on observed-64, its telemetry-flip twin elsewhere.
OBS_CALLS = (
    ("obs.attach_s", "attach_s"),
    ("obs.critpath_s", "critpath_s"),
    ("obs.trace_export_s", "trace_export_s"),
    ("obs.metrics_export_s", "metrics_export_s"),
    ("obs.teardown_s", "obs_teardown_s"),
)

COUNTERS = (
    ("core.fiber_switches", "fiber_switches"),
    ("core.sync_stalls", "sync_stalls"),
    ("core.limit_recomputes", "limit_recomputes"),
    ("core.tasks_spawned", "tasks_spawned"),
    ("core.tasks_inlined", "tasks_inlined"),
    ("core.tasks_migrated", "tasks_migrated"),
    ("core.probes_denied", "probes_denied"),
    ("core.joins_suspended", "joins_suspended"),
    ("core.inbox_heap_allocs", "inbox_heap_allocs"),
    ("net.messages", "net_messages"),
    ("net.bytes", "net_bytes"),
    ("net.hops", "net_hops"),
    ("net.contention_ticks", "net_contention_ticks"),
)


def counter_metrics(runs):
    """Deterministic work counts of one pass, summed over dwarfs."""
    out = {name: sum(r["stats"][field] for r in runs)
           for name, field in COUNTERS}
    samples = sum(r["stats"]["parallelism_samples"] for r in runs)
    out["core.avg_parallelism"] = (
        sum(r["stats"]["parallelism_sum"] for r in runs) / samples
        if samples else 0.0)
    out["core.live_fibers_peak"] = max(r["stats"]["live_fibers_peak"]
                                       for r in runs)
    return out


PROBES = ("core.fiber_switch_ns", "net.send_ns", "timing.block_ns",
          "mem.l1_access_ns", "mem.cache_access_ns")


def span_sums(spans, pass_id):
    """Per-span-name total seconds of one pass's layer calls, plus the
    covered total: the layer calls are the spans under a dwarf span."""
    sums = collections.defaultdict(float)
    covered = 0.0
    for s in spans:
        if s["pass"] != pass_id:
            continue
        d = s["t1"] - s["t0"]
        sums[s["name"]] += d
        if s["name"] == "core.run":
            sums["core.run." + s["dwarf"]] += d
        if s["parent"] >= 0 and spans[s["parent"]]["parent"] >= 0:
            covered += d
    return sums, covered


def per_layer_metrics(raw):
    untraced = measured(raw, traced=False)
    traced = [(i, p) for i, p in enumerate(raw["passes"]) if p["traced"]]
    spans = raw["spans"]
    sums = {i: span_sums(spans, i) for i, _ in traced}
    observed = raw["observed"]
    twins = collections.defaultdict(list)
    for t in raw["twins"]:
        twins[(t["kind"], t["pass"])].append(t["run"])
    by_pass = [dict(p, id=i) for i, p in traced]

    def per_pass(f):
        return dataset_mean(by_pass, lambda p: f(p["id"], p))

    m = {}
    for name, span in CORE_CALLS:
        m[name] = per_pass(lambda i, p: sums[i][0].get(span, 0.0))
    for r in traced[0][1]["runs"]:
        key = "core.run." + r["dwarf"]
        m["core.run_s." + r["dwarf"]] = per_pass(
            lambda i, p: sums[i][0][key])
    m["core.self_s"] = per_pass(lambda i, p: sum(
        sums[i][0].get(span, 0.0) for name, span in CORE_CALLS
        if name.startswith("core.")))
    m["runtime.native_s"] = per_pass(
        lambda i, p: sums[i][0].get("runtime.native", 0.0))

    def attached(i, p):
        return p["runs"] if observed else twins[("obs", i)]

    def detached(i, p):
        return twins[("obs", i)] if observed else p["runs"]

    for name, field in OBS_CALLS:
        m[name] = per_pass(
            lambda i, p: sum(r[field] for r in attached(i, p)))
    m["obs.self_s"] = sum(m[name] for name, _ in OBS_CALLS)
    m["obs.record_s"] = per_pass(
        lambda i, p: sum(r["run_s"] for r in attached(i, p)) -
        sum(r["run_s"] for r in detached(i, p)))
    m["sync.bound_s"] = per_pass(
        lambda i, p: sums[i][0]["core.run"] -
        sum(r["run_s"] for r in twins[("sync", i)]))
    for name, field in (("obs.events", "events"),
                        ("obs.trace_bytes", "trace_bytes")):
        m[name] = per_pass(
            lambda i, p: sum(r[field] for r in attached(i, p)))
    for name in counter_metrics(traced[0][1]["runs"]):
        m[name] = per_pass(lambda i, p: counter_metrics(p["runs"])[name])

    probes = raw["probes"]
    for name in PROBES:
        m[name] = probes[name]
    # Micro-vs-end-to-end reconciliation: per-call cost x call count,
    # to set beside the measured core.run_s.
    m["core.fiber_switch_est_s"] = (probes["core.fiber_switch_ns"] * 1e-9 *
                                    m["core.fiber_switches"])
    m["net.send_est_s"] = probes["net.send_ns"] * 1e-9 * m["net.messages"]

    m["core.ns_per_event"] = 1e9 * m["core.run_s"] / m["obs.events"]

    wall_u = dataset_mean(untraced, lambda p: p["wall_s"])
    m["bench.wall_s"] = wall_u
    covered = per_pass(lambda i, p: sums[i][1])
    m["bench.self_s"] = per_pass(lambda i, p: p["wall_s"] - sums[i][1])
    m["bench.residual_s"], m["bench.residual_share"] = residual(wall_u,
                                                                covered)
    m["bench.trace_overhead"] = per_pass(lambda i, p: p["wall_s"]) / wall_u
    return m


def unit_of(name):
    """Unit of a per-layer metric, from its naming convention."""
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith(("_ns", "ns_per_event")):
        return "ns"
    if name.endswith("_ticks"):
        return "ticks"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("_share", "_overhead")):
        return "ratio"
    if name.endswith("avg_parallelism"):
        return "cores"
    return "count"


# ---- artifacts ---------------------------------------------------------------


def counters_doc(raw):
    """Deterministic counters of each dataset's first pass, per dwarf, in
    the metrics-export shape tools/run_diff.py reads. No host times."""
    counters, gauges = {}, {}
    events = events_by_run(raw)
    seen = set()
    for p in raw["passes"]:
        k = p["dataset"]
        if k in seen:
            continue
        seen.add(k)
        for r in p["runs"]:
            prefix = f"d{k}.{r['dwarf']}"
            for field, value in r["stats"].items():
                if field != "core_busy_fnv":
                    counters[f"{prefix}.{field}"] = value
            if (k, r["dwarf"]) in events:
                counters[f"{prefix}.events"] = events[(k, r["dwarf"])]
            samples = r["stats"]["parallelism_samples"]
            gauges[f"{prefix}.avg_parallelism"] = (
                r["stats"]["parallelism_sum"] / samples if samples else 0.0)
    return {"counters": counters, "gauges": gauges}


def chrome_trace_doc(raw):
    """The traced run's span tree as Chrome trace events (microseconds)."""
    events = []
    for i, s in enumerate(raw["spans"]):
        events.append({
            "name": s["name"], "cat": s["name"].split(".")[0], "ph": "X",
            "ts": s["t0"] * 1e6, "dur": (s["t1"] - s["t0"]) * 1e6,
            "pid": 1, "tid": 1,
            "args": {"id": i, "parent": s["parent"], "pass": s["pass"],
                     "dwarf": s["dwarf"]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_json(path, doc):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


# ---- build and run -----------------------------------------------------------


def build():
    """Configures once and builds the ledger program; build output goes to
    stderr so stdout stays the benchmark's own."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "ledger",
                  "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                stdin=subprocess.DEVNULL).returncode
        except OSError as e:
            raise BenchError(f"cannot run {cmd[0]}: {e}") from e
        if rc != 0:
            raise BenchError(f"build step failed ({rc}): {' '.join(cmd)}")
    return os.path.join(BUILD_DIR, "ledger")


def run_ledger(binary, workload, seed, seconds, trace, factor, dwarfs,
               datasets):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(int(trace)),
           "--factor", repr(float(factor)), "--dwarfs", str(dwarfs),
           "--datasets", str(datasets)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          stdin=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise BenchError(f"ledger exited with {proc.returncode}")
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        raise BenchError(f"unreadable ledger output: {e}") from e


def result_line(raw):
    """(result object, reference digests, errors, ungated host times)."""
    attempted, failed, reference, errors = check_runs(raw)
    metrics, host_times = {}, {}
    try:
        if raw["trace"]:
            values = per_layer_metrics(raw)
            units = {k: unit_of(k) for k in values}
        else:
            values = end_to_end_metrics(raw)
            units = END_TO_END_UNITS
        for k, v in values.items():
            if k in units:
                metrics[k] = {"value": v, "unit": units[k]}
            else:
                host_times[k] = {"value": v, "unit": HOST_TIME_UNITS[k]}
    except (KeyError, ValueError, ZeroDivisionError, IndexError) as e:
        errors.append(f"metrics unavailable: {e!r}")
        metrics = {}
    result = {"correct": failed == 0 and not errors,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, reference, errors, host_times


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small factor, one dwarf, short run: exercises "
                         "every code path in seconds")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")

    factor, dwarfs, datasets = 1.0, len(PAPER_DWARFS), DATASETS
    seconds = args.seconds
    if args.smoke:
        factor, dwarfs, datasets = SMOKE_FACTOR, SMOKE_DWARFS, SMOKE_DATASETS
        seconds = min(seconds, SMOKE_SECONDS)
    try:
        binary = build()
        raw = run_ledger(binary, args.workload, args.seed, seconds,
                         args.trace, factor, dwarfs, datasets)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    result, reference, errors, host_times = result_line(raw)
    stem = os.path.join(OUT_DIR, f"{args.workload}.seed{args.seed}")
    if args.smoke:
        stem += ".smoke"
    write_json(stem + ".counters.json", counters_doc(raw))
    if args.trace:
        write_json(stem + ".spans.json", chrome_trace_doc(raw))

    for e in errors:
        print(f"perfbench: FAILED {e}", file=sys.stderr)
    passes = len(measured(raw, bool(args.trace)))
    print(f"# {args.workload} seed={args.seed} factor={factor} "
          f"datasets={datasets} passes={passes} trace={args.trace}")
    for (k, dwarf), d in reference.items():
        print(f"digest {args.workload} seed={args.seed} dataset={k} "
              f"{dwarf} {d}")
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    for name, m in host_times.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}  (not gated)")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
