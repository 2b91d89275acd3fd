#!/usr/bin/env python3
"""Tests of the host cost ledger's arithmetic, checks and output schema.

  python3 perfbench/test_run.py            # unit tests + smoke runs
  PERFBENCH_SKIP_SMOKE=1 python3 perfbench/test_run.py   # unit tests only

The smoke runs build the ledger program if needed (.bench_build/) and run
every workload with --smoke, traced and untraced.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def stats(**over):
    s = {"completion_ticks": 1000, "fiber_switches": 10, "sync_stalls": 2,
         "limit_recomputes": 3, "tasks_spawned": 4, "tasks_inlined": 1,
         "tasks_migrated": 0, "probes_denied": 1, "joins_suspended": 2,
         "inbox_heap_allocs": 0, "parallelism_samples": 4,
         "parallelism_sum": 10, "live_fibers_peak": 0, "core_busy_fnv": 7,
         "net_messages": 5, "net_bytes": 40, "net_hops": 9,
         "net_contention_ticks": 0}
    s.update(over)
    return s


def dwarf_run(dwarf, run_s, native_s=0.01, events=0, **over):
    r = {"dwarf": dwarf, "config_s": 0.001, "make_root_s": 0.002,
         "attach_s": 0.0, "engine_s": 0.003, "setup_s": 0.006,
         "run_s": run_s, "critpath_s": 0.0, "trace_export_s": 0.0,
         "metrics_export_s": 0.0, "teardown_s": 0.001,
         "obs_teardown_s": 0.0, "native_s": native_s, "events": events,
         "trace_bytes": 0, "ok": True, "error": "",
         "stats": stats()}
    r.update(over)
    return r


def untraced_raw():
    """Two datasets of two dwarfs: a warm-up pass, three measured passes
    and the telemetry-flip twins that carry the event counts."""
    def runs(a, b, ticks):
        native = ticks / 10000  # 0.1 s on dataset 0, 0.2 s on dataset 1
        return [dwarf_run("a", a, native_s=native,
                          stats=stats(completion_ticks=ticks)),
                dwarf_run("b", b, native_s=native / 10,
                          stats=stats(completion_ticks=ticks + 1))]

    passes = [
        {"dataset": 0, "traced": False, "warmup": True, "wall_s": 5.0,
         "runs": runs(2.0, 2.0, 1000)},
        {"dataset": 0, "traced": False, "warmup": False, "wall_s": 1.0,
         "runs": runs(0.4, 0.5, 1000)},
        {"dataset": 0, "traced": False, "warmup": False, "wall_s": 1.2,
         "runs": runs(0.5, 0.6, 1000)},
        {"dataset": 1, "traced": False, "warmup": False, "wall_s": 2.0,
         "runs": runs(0.9, 1.0, 2000)},
    ]
    twins = []
    for k, d, events, ticks in ((0, "a", 1000, 1000), (0, "b", 4000, 1001),
                                (1, "a", 2000, 2000), (1, "b", 3000, 2001)):
        twins.append({"kind": "obs", "dataset": k, "pass": -1,
                      "run": dwarf_run(d, 0.7, events=events,
                                       stats=stats(completion_ticks=ticks))})
    return {"workload": "shared-1024", "observed": False, "trace": False,
            "peak_rss_mb": 99.5,
            "passes": passes, "twins": twins, "probes": None, "spans": []}


class StatisticsTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(run.median([3, 1, 2]), 2)
        self.assertEqual(run.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(ValueError):
            run.median([])

    def test_geomean(self):
        self.assertAlmostEqual(run.geomean([1, 4, 16]), 4.0)
        self.assertAlmostEqual(run.geomean([7.5]), 7.5)
        for bad in ([], [1.0, 0.0], [2.0, -1.0]):
            with self.assertRaises(ValueError):
                run.geomean(bad)

    def test_residual(self):
        r, share = run.residual(2.0, 1.9)
        self.assertAlmostEqual(r, 0.1)
        self.assertAlmostEqual(share, 0.05)
        r, share = run.residual(1.0, 1.02)
        self.assertAlmostEqual(r, -0.02)
        self.assertAlmostEqual(share, -0.02)


class DigestTest(unittest.TestCase):
    def test_digest_is_order_independent_and_sensitive(self):
        a = stats()
        b = dict(reversed(list(a.items())))
        self.assertEqual(run.digest(a), run.digest(b))
        for field in a:
            changed = dict(a)
            changed[field] += 1
            self.assertNotEqual(run.digest(a), run.digest(changed), field)

    def test_inconsistent_runs_counts_minority(self):
        failures, ref = run.inconsistent_runs(
            {"a": ["x", "x", "y", "x"], "b": ["z", "z"]})
        self.assertEqual(failures, 1)
        self.assertEqual(ref, {"a": "x", "b": "z"})

    def test_check_runs_counts_errors_and_telemetry_mismatch(self):
        raw = untraced_raw()
        attempted, failed, ref, errors = run.check_runs(raw)
        self.assertEqual((attempted, failed, errors), (12, 0, []))
        self.assertEqual(set(ref), {(0, "a"), (0, "b"), (1, "a"), (1, "b")})

        raw["twins"][0]["run"]["stats"] = stats(completion_ticks=999)
        attempted, failed, _, errors = run.check_runs(raw)
        self.assertEqual((attempted, failed), (12, 1))
        self.assertIn("telemetry-flipped", errors[-1])

        raw = untraced_raw()
        raw["passes"][1]["runs"][0]["stats"]["fiber_switches"] += 1
        self.assertEqual(run.check_runs(raw)[1], 1)

        raw = untraced_raw()
        raw["passes"][3]["runs"][1].update(ok=False, error="verify")
        _, failed, _, errors = run.check_runs(raw)
        self.assertEqual(failed, 1)
        self.assertEqual(errors, ["dataset 1 b: verify"])

    def test_sync_twin_may_differ(self):
        raw = untraced_raw()
        raw["twins"].append({"kind": "sync", "dataset": 0, "pass": 1,
                             "run": dwarf_run(
                                 "a", 0.3, stats=stats(completion_ticks=5))})
        self.assertEqual(run.check_runs(raw)[1], 0)


class EndToEndTest(unittest.TestCase):
    def test_dataset_mean(self):
        passes = [{"dataset": 0, "v": 1.0}, {"dataset": 0, "v": 3.0},
                  {"dataset": 0, "v": 2.0}, {"dataset": 1, "v": 10.0}]
        self.assertAlmostEqual(run.dataset_mean(passes, lambda p: p["v"]),
                               6.0)
        with self.assertRaises(ValueError):
            run.dataset_mean([], lambda p: 0)

    def test_metrics(self):
        m = run.end_to_end_metrics(untraced_raw())
        # Warm-up excluded; mean of dataset 0's median (1.1) and 2.0.
        self.assertAlmostEqual(m["wall_s"], 1.55)
        # Same medians over native pass sums 0.11 and 0.22.
        self.assertAlmostEqual(m["wall_over_native"], 3.1 / 0.33)
        self.assertAlmostEqual(m["setup_s"], 0.012)
        # Per-dataset median run times, pooled over 10000 events.
        self.assertAlmostEqual(m["ns_per_event"], 1e9 * 2.9 / 10000)
        self.assertAlmostEqual(m["sim_over_native"],
                               run.geomean([1.35 / 0.3, 1.55 / 0.03]))
        self.assertEqual(m["peak_rss_mb"], 99.5)


def traced_raw():
    """A warm-up, an untraced and a traced pass of one dwarf, with spans
    and twins of the traced pass (id 2)."""
    raw = untraced_raw()
    raw["trace"] = True
    raw["passes"] = [
        {"dataset": 0, "traced": False, "warmup": True, "wall_s": 3.0,
         "runs": [dwarf_run("a", 2.0)]},
        {"dataset": 0, "traced": False, "warmup": False, "wall_s": 1.0,
         "runs": [dwarf_run("a", 0.8)]},
        {"dataset": 0, "traced": True, "warmup": False, "wall_s": 1.02,
         "runs": [dwarf_run("a", 0.8)]},
    ]
    t = 0.0
    spans = [{"name": "shared-1024", "dwarf": "", "parent": -1, "pass": 2,
              "t0": 0.0, "t1": 1.02},
             {"name": "a", "dwarf": "a", "parent": 0, "pass": 2,
              "t0": 0.0, "t1": 1.01}]
    for name, d in (("config.build", 0.01), ("dwarfs.make_root", 0.02),
                    ("core.setup", 0.05), ("core.run", 0.8),
                    ("core.teardown", 0.1)):
        spans.append({"name": name, "dwarf": "a", "parent": 1, "pass": 2,
                      "t0": t, "t1": t + d})
        t += d
    spans.append({"name": "runtime.native", "dwarf": "a", "parent": -1,
                  "pass": 2, "t0": 1.1, "t1": 1.2})
    raw["spans"] = spans
    raw["twins"] = [
        {"kind": "sync", "dataset": 0, "pass": 2,
         "run": dwarf_run("a", 0.5)},
        {"kind": "obs", "dataset": 0, "pass": 2, "run": dwarf_run(
            "a", 1.1, events=100, attach_s=0.001, critpath_s=0.2,
            trace_export_s=0.3, metrics_export_s=0.1, obs_teardown_s=0.05,
            trace_bytes=4096)},
    ]
    raw["probes"] = {name: 10.0 for name in run.PROBES}
    return raw


class PerLayerTest(unittest.TestCase):
    def test_spans_twins_and_residual(self):
        m = run.per_layer_metrics(traced_raw())
        self.assertAlmostEqual(m["core.run_s"], 0.8)
        self.assertAlmostEqual(m["core.run_s.a"], 0.8)
        self.assertAlmostEqual(m["core.self_s"], 0.95)
        self.assertAlmostEqual(m["runtime.native_s"], 0.1)
        self.assertAlmostEqual(m["sync.bound_s"], 0.3)
        self.assertAlmostEqual(m["obs.record_s"], 0.3)
        self.assertAlmostEqual(m["obs.self_s"], 0.651)
        self.assertEqual(m["obs.trace_bytes"], 4096)
        self.assertEqual(m["obs.events"], 100)
        # Layer calls cover 0.98 s of the traced 1.02 s pass and of the
        # untraced 1.0 s one.
        self.assertAlmostEqual(m["bench.self_s"], 0.04)
        self.assertAlmostEqual(m["bench.residual_s"], 0.02)
        self.assertAlmostEqual(m["bench.residual_share"], 0.02)
        self.assertAlmostEqual(m["bench.trace_overhead"], 1.02)
        self.assertAlmostEqual(m["bench.wall_s"], 1.0)
        self.assertAlmostEqual(m["core.ns_per_event"], 1e9 * 0.8 / 100)
        self.assertAlmostEqual(m["core.fiber_switch_est_s"], 10e-9 * 10)
        self.assertAlmostEqual(m["net.send_est_s"], 10e-9 * 5)

    def test_observed_workload_reads_obs_from_the_pass(self):
        raw = traced_raw()
        raw["workload"], raw["observed"] = "observed-64", True
        raw["passes"][2]["runs"][0].update(critpath_s=0.25, events=7)
        raw["twins"][1]["run"]["run_s"] = 0.6
        m = run.per_layer_metrics(raw)
        self.assertAlmostEqual(m["obs.critpath_s"], 0.25)
        self.assertEqual(m["obs.events"], 7)
        self.assertAlmostEqual(m["obs.record_s"], 0.2)


class SchemaTest(unittest.TestCase):
    def setUp(self):
        with open(BENCHMARK) as f:
            self.bench = json.load(f)

    def check_result(self, result, names):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(names))
        for m in result["metrics"].values():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertIsInstance(m["value"], (int, float))

    def test_end_to_end_schema(self):
        result, _, _, host_times = run.result_line(untraced_raw())
        self.assertTrue(result["correct"])
        names = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        self.check_result(result, names)
        for k, m in result["metrics"].items():
            self.assertEqual(m["unit"], names[k])
        self.assertEqual(set(host_times), set(run.HOST_TIME_UNITS))

    def test_failed_run_is_not_correct(self):
        raw = untraced_raw()
        raw["passes"][1]["runs"][0].update(ok=False, error="boom")
        result, _, _, _ = run.result_line(raw)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_per_layer_units_match_benchmark(self):
        for m in self.bench["per_layer"]:
            self.assertEqual(run.unit_of(m["name"]), m["unit"], m["name"])


@unittest.skipIf(os.environ.get("PERFBENCH_SKIP_SMOKE"), "smoke skipped")
class SmokeTest(unittest.TestCase):
    """Every workload, traced and untraced, at smoke scale."""

    def run_smoke(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--smoke",
             "--workload", workload, "--seed", "3", "--trace", str(trace)],
            cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        lines = proc.stdout.strip().splitlines()
        self.assertTrue(any(l.startswith(f"digest {workload} seed=3 "
                                         "dataset=")
                            for l in lines))
        return json.loads(lines[-1])

    def test_smoke_all_workloads(self):
        with open(BENCHMARK) as f:
            bench = json.load(f)
        end_to_end = {m["name"] for m in bench["end_to_end"]}
        per_layer = {m["name"] for m in bench["per_layer"]}
        smoke_dwarfs = run.PAPER_DWARFS[:run.SMOKE_DWARFS]
        not_run = {"core.run_s." + d for d in run.PAPER_DWARFS
                   if d not in smoke_dwarfs}
        for w in [x["name"] for x in bench["workloads"]]:
            with self.subTest(workload=w):
                r0 = self.run_smoke(w, 0)
                self.assertTrue(r0["correct"])
                self.assertEqual(r0["failed"], 0)
                self.assertEqual(set(r0["metrics"]), end_to_end)
                for m in r0["metrics"].values():
                    self.assertGreater(m["value"], 0)
                r1 = self.run_smoke(w, 1)
                self.assertTrue(r1["correct"])
                self.assertEqual(set(r1["metrics"]), per_layer - not_run)

                stem = os.path.join(run.OUT_DIR, f"{w}.seed3.smoke")
                self.assertTrue(os.path.isfile(stem + ".spans.json"))
                counters = stem + ".counters.json"
                diff = os.path.join(run.ROOT, "tools", "run_diff.py")
                if os.path.isfile(diff):
                    rc = subprocess.run(
                        [sys.executable, diff, counters, counters,
                         "--rel-tol", "0"], stdout=subprocess.DEVNULL
                    ).returncode
                    self.assertEqual(rc, 0)


if __name__ == "__main__":
    unittest.main()
