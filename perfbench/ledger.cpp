// Host cost ledger: times the simulator's layers from outside.
//
// One process, one host thread (HostMode::kSequential). For a workload
// (an architecture plus a telemetry setting) it runs the six paper
// dwarfs in a closed loop — the next dwarf starts when the previous one
// returns — and times every public call it makes into a layer:
//
//   config.build        ArchConfig preset
//   dwarfs.make_root    DwarfSpec::make_root
//   obs.attach          obs::Telemetry construction (observed runs)
//   core.setup          Engine constructor
//   core.run            Engine::run
//   obs.critpath        analyze_critical_path
//   obs.trace_export    write_chrome_trace
//   obs.metrics_export  MetricsRegistry::write_json + write_critpath_json
//   core.teardown       Engine destructor
//   obs.teardown        Telemetry / report destructors
//   runtime.native      the same root task on runtime::NativeCtx
//
// The workload seed yields K dataset seeds. One pass runs every dwarf on
// one dataset. Every dataset gets one pass, then passes go round-robin
// over the datasets until the time budget is spent. Dataset sizes, and with them host time, vary a
// lot from seed to seed (a Dijkstra source may reach almost nothing),
// so the figures are means over the K datasets, not one draw.
//
// It prints one raw JSON document on stdout: every pass with its per-
// dwarf timings and simulated-result fields, the twin runs and layer
// probes of a traced run, and the span tree. perfbench/run.py turns
// that into medians, checks and the benchmark's result line; nothing
// here does statistics.
//
//   ledger --workload shared-1024 --seed 1 --seconds 20 --trace 0
//          [--factor 1.0] [--dwarfs 6] [--datasets K]

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "config/arch_config.h"
#include "core/engine.h"
#include "core/fiber.h"
#include "dwarfs/dwarfs.h"
#include "mem/pessimistic_l1.h"
#include "mem/setassoc_cache.h"
#include "net/network.h"
#include "obs/critpath.h"
#include "obs/export.h"
#include "obs/telemetry.h"
#include "runtime/native_sim.h"
#include "timing/cost_model.h"

using namespace simany;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- Workloads ----------------------------------------------------------

struct Workload {
  const char* name;
  std::uint32_t cores;
  bool distributed;
  /// Telemetry attached to every measured run, with analysis and export
  /// after it.
  bool observed;
};

constexpr Workload kWorkloads[] = {
    {"shared-1024", 1024, false, false},
    {"distributed-1024", 1024, true, false},
    {"observed-64", 64, false, true},
};

/// T of the sync twin: large enough that spatial sync almost never
/// stalls, so the twin's run time bounds what sync costs at T=100.
constexpr Cycles kLooseDriftT = 100000;
constexpr std::uint64_t kMetricsIntervalCycles = 1000;
/// Dataset k of workload seed s has seed s * kMaxDatasets + k.
constexpr std::size_t kMaxDatasets = 1000;

enum class Tel : std::uint8_t {
  kOff,
  kEvents,  // event stream only: what counting events needs
  kFull,    // events, sync events and periodic metric samples
};

ArchConfig make_config(const Workload& w, std::uint64_t seed,
                       Cycles drift_t, Tel tel) {
  ArchConfig cfg = w.distributed ? ArchConfig::distributed_mesh(w.cores)
                                 : ArchConfig::shared_mesh(w.cores);
  cfg.seed = seed;
  cfg.drift_t_cycles = drift_t;
  if (tel == Tel::kFull) {
    cfg.obs.metrics_interval_cycles = kMetricsIntervalCycles;
  }
  return cfg;
}

obs::TelemetryOptions telemetry_options(Tel tel) {
  obs::TelemetryOptions opt;
  opt.events = true;
  opt.sync_events = true;
  if (tel == Tel::kFull) opt.metrics_interval_cycles = kMetricsIntervalCycles;
  return opt;
}

// ---- Spans ----------------------------------------------------------------

struct Span {
  std::string name;
  std::string dwarf;  // empty for workload-level spans
  int parent = -1;
  int pass = -1;
  double t0 = 0.0;  // seconds since the process's time origin
  double t1 = 0.0;
};

/// In-memory span log of a traced run; written out once at the end.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int add(std::string name, std::string dwarf, int parent, int pass,
          Clock::time_point a, Clock::time_point b) {
    spans_.push_back(Span{std::move(name), std::move(dwarf), parent, pass,
                          seconds_between(origin_, a),
                          seconds_between(origin_, b)});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Opens a span whose end is not known yet (parents of layer calls).
  int open(std::string name, std::string dwarf, int parent, int pass) {
    const auto now = Clock::now();
    return add(std::move(name), std::move(dwarf), parent, pass, now, now);
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].t1 =
        seconds_between(origin_, Clock::now());
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Where a layer call's span goes: nowhere when `log` is null (the
/// untraced run only keeps the durations its metrics need).
struct SpanSite {
  SpanLog* log = nullptr;
  int parent = -1;
  int pass = -1;
  const std::string* dwarf = nullptr;
};

/// Runs `f` as one layer call and returns its host seconds.
template <class F>
double timed(const SpanSite& site, const char* name, F&& f) {
  const auto a = Clock::now();
  f();
  const auto b = Clock::now();
  if (site.log != nullptr) {
    site.log->add(name, *site.dwarf, site.parent, site.pass, a, b);
  }
  return seconds_between(a, b);
}

// ---- Output sink ------------------------------------------------------------

/// Counts the bytes written through it and discards them: exports are
/// serialized in memory at full cost, but a 1024-core trace never has
/// to be held or written to disk.
class CountingBuf final : public std::streambuf {
 public:
  CountingBuf() { setp(buf_, buf_ + sizeof(buf_)); }
  [[nodiscard]] std::uint64_t bytes() const noexcept {
    return flushed_ + static_cast<std::uint64_t>(pptr() - pbase());
  }

 protected:
  int_type overflow(int_type c) override {
    flushed_ += static_cast<std::uint64_t>(pptr() - pbase());
    setp(buf_, buf_ + sizeof(buf_));
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }

 private:
  char buf_[1 << 16];
  std::uint64_t flushed_ = 0;
};

// ---- One dwarf run ------------------------------------------------------------

struct Variant {
  Cycles drift_t = 100;
  Tel telemetry = Tel::kOff;
  bool analyze = false;  // critical path + exports after the run
};

struct DwarfRun {
  std::string dwarf;
  double config_s = 0, make_root_s = 0, attach_s = 0, engine_s = 0;
  double run_s = 0, critpath_s = 0, trace_export_s = 0,
         metrics_export_s = 0, teardown_s = 0, obs_teardown_s = 0;
  double native_s = 0;
  std::uint64_t events = 0;
  std::uint64_t trace_bytes = 0;
  bool ok = true;
  std::string error;
  SimStats stats;

  [[nodiscard]] double setup_s() const {
    return config_s + make_root_s + attach_s + engine_s;
  }
};

DwarfRun run_dwarf(const Workload& w, const dwarfs::DwarfSpec& spec,
                   std::uint64_t seed, double factor, const Variant& v,
                   const SpanSite& site) {
  DwarfRun r;
  r.dwarf = spec.name;
  ArchConfig cfg;
  TaskFn root;
  std::optional<obs::Telemetry> telemetry;
  std::optional<Engine> engine;
  std::optional<obs::CritPathReport> report;
  r.config_s = timed(site, "config.build", [&] {
    cfg = make_config(w, seed, v.drift_t, v.telemetry);
  });
  r.make_root_s = timed(site, "dwarfs.make_root",
                        [&] { root = spec.make_root(seed, factor); });
  if (v.telemetry != Tel::kOff) {
    r.attach_s = timed(site, "obs.attach", [&] {
      telemetry.emplace(telemetry_options(v.telemetry));
    });
  }
  r.engine_s = timed(site, "core.setup", [&] {
    engine.emplace(cfg);
    if (telemetry) engine->set_telemetry(&*telemetry);
  });
  try {
    r.run_s = timed(site, "core.run",
                    [&] { r.stats = engine->run(std::move(root)); });
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  if (r.ok && telemetry) {
    r.events = telemetry->events().size();
    if (v.analyze) {
      r.critpath_s = timed(site, "obs.critpath", [&] {
        report.emplace(obs::analyze_critical_path(telemetry->events()));
      });
      r.trace_export_s = timed(site, "obs.trace_export", [&] {
        CountingBuf buf;
        std::ostream os(&buf);
        obs::ChromeTraceOptions opt;
        opt.critpath = &*report;
        obs::write_chrome_trace(os, *telemetry, opt);
        r.trace_bytes = buf.bytes();
      });
      r.metrics_export_s = timed(site, "obs.metrics_export", [&] {
        CountingBuf buf;
        std::ostream os(&buf);
        telemetry->metrics().write_json(os);
        obs::write_critpath_json(os, *report);
      });
      // Conservation: the critical path attributes every tick of the
      // completion time exactly once.
      if (report->total_ticks != r.stats.completion_ticks) {
        r.ok = false;
        r.error = "critical path covers " +
                  std::to_string(report->total_ticks) + " of " +
                  std::to_string(r.stats.completion_ticks) + " ticks";
      }
    }
  }
  r.teardown_s = timed(site, "core.teardown", [&] { engine.reset(); });
  if (telemetry) {
    r.obs_teardown_s = timed(site, "obs.teardown", [&] {
      report.reset();
      telemetry.reset();
    });
  }
  return r;
}

/// Host seconds of one native execution of the dwarf's root task,
/// averaged over enough repetitions to cover a few milliseconds. Root
/// construction is not timed.
double native_seconds(const dwarfs::DwarfSpec& spec, std::uint64_t seed,
                      double factor) {
  constexpr double kMinTotal = 0.005;
  constexpr int kMaxReps = 200;
  double total = 0.0;
  int reps = 0;
  while (reps < 1 || (total < kMinTotal && reps < kMaxReps)) {
    const TaskFn root = spec.make_root(seed, factor);
    total += runtime::run_native(root, seed);
    ++reps;
  }
  return total / reps;
}

// ---- Passes -------------------------------------------------------------------

struct Pass {
  int dataset = 0;
  bool traced = false;
  bool warmup = false;  // first pass of the run: checked, not timed
  double wall_s = 0;
  std::vector<DwarfRun> runs;
};

/// The same dwarf and dataset with one knob changed. `sync` raises T
/// so spatial sync nearly never binds; `obs` flips telemetry, which must
/// leave every simulated result unchanged.
struct Twin {
  const char* kind;
  int dataset;
  int pass;  // the traced pass it belongs to, or -1
  DwarfRun run;
};

struct Context {
  const Workload* w = nullptr;
  double factor = 1.0;
  std::vector<const dwarfs::DwarfSpec*> dwarfs;
  /// Dataset seeds derived from the workload seed; pass k runs every
  /// dwarf on dataset k.
  std::vector<std::uint64_t> datasets;
  SpanLog* log = nullptr;  // null in the untraced run
};

Tel pass_telemetry(const Workload& w) {
  return w.observed ? Tel::kFull : Tel::kOff;
}

/// One closed-loop pass of the dwarfs over dataset `k`, then their native
/// runs: right after the simulations, so both see the same host speed,
/// and outside wall_s.
Pass run_pass(const Context& cx, int k, bool traced, int pass_id) {
  Pass p;
  p.dataset = k;
  p.traced = traced;
  SpanLog* log = traced ? cx.log : nullptr;
  const std::uint64_t seed = cx.datasets[static_cast<std::size_t>(k)];
  const Variant v{100, pass_telemetry(*cx.w), cx.w->observed};
  const int root =
      log != nullptr ? log->open(cx.w->name, "", -1, pass_id) : -1;
  const auto t0 = Clock::now();
  for (const dwarfs::DwarfSpec* spec : cx.dwarfs) {
    const int d = log != nullptr ? log->open(spec->name, spec->name, root,
                                             pass_id)
                                 : -1;
    const SpanSite site{log, d, pass_id, &spec->name};
    p.runs.push_back(run_dwarf(*cx.w, *spec, seed, cx.factor, v, site));
    if (log != nullptr) log->close(d);
  }
  p.wall_s = seconds_between(t0, Clock::now());
  if (log != nullptr) log->close(root);
  for (std::size_t i = 0; i < cx.dwarfs.size(); ++i) {
    const dwarfs::DwarfSpec& spec = *cx.dwarfs[i];
    DwarfRun& r = p.runs[i];
    try {
      timed(SpanSite{log, -1, pass_id, &spec.name}, "runtime.native",
            [&] { r.native_s = native_seconds(spec, seed, cx.factor); });
    } catch (const std::exception& e) {
      r.ok = false;
      r.error = std::string("native: ") + e.what();
    }
  }
  return p;
}

/// Twins of dataset `k`. A traced run (`pass` >= 0) adds the sync twin
/// and exports the attached obs twin's telemetry.
void run_twins(const Context& cx, int k, int pass,
               std::vector<Twin>& out) {
  const bool traced = pass >= 0;
  const Tel tel = pass_telemetry(*cx.w);
  // The flipped twin of a detached workload records the event stream
  // (counting events), and in a traced run analyses and exports it for
  // the obs.* metrics. Periodic samples stay off: at 1024 cores they
  // cost more than the run itself.
  const Variant flip = tel == Tel::kOff
                           ? Variant{100, Tel::kEvents, traced}
                           : Variant{100, Tel::kOff, false};
  const std::uint64_t seed = cx.datasets[static_cast<std::size_t>(k)];
  for (const dwarfs::DwarfSpec* spec : cx.dwarfs) {
    if (traced) {
      out.push_back({"sync", k, pass,
                     run_dwarf(*cx.w, *spec, seed, cx.factor,
                               {kLooseDriftT, tel, false}, {})});
    }
    out.push_back({"obs", k, pass,
                   run_dwarf(*cx.w, *spec, seed, cx.factor, flip, {})});
  }
}

// ---- Layer probes --------------------------------------------------------------

/// Median per-call nanoseconds of `call` over `batches` timed batches of
/// `per_batch` calls, after one untimed warm-up batch.
template <class F>
double probe_ns(int batches, int per_batch, F&& call) {
  for (int i = 0; i < per_batch; ++i) call();
  std::vector<double> ns;
  for (int b = 0; b < batches; ++b) {
    const auto a = Clock::now();
    for (int i = 0; i < per_batch; ++i) call();
    ns.push_back(seconds_between(a, Clock::now()) * 1e9 / per_batch);
  }
  std::nth_element(ns.begin(), ns.begin() + ns.size() / 2, ns.end());
  return ns[ns.size() / 2];
}

struct Probes {
  double fiber_switch_ns = 0, net_send_ns = 0, block_ns = 0,
         l1_access_ns = 0, cache_access_ns = 0;
  std::uint64_t sink = 0;  // keeps the probed results observable
};

Probes run_probes(const Workload& w, std::uint64_t seed) {
  constexpr int kBatches = 21;
  constexpr int kPerBatch = 20000;
  const ArchConfig cfg = make_config(w, seed, 100, Tel::kOff);
  Probes p;

  {
    FiberPool pool(cfg.fiber_stack_bytes, cfg.fiber_backend);
    bool stop = false;
    auto fiber = pool.create([&] {
      while (!stop) Fiber::yield();
    });
    // One resume is what SimStats::fiber_switches counts.
    p.fiber_switch_ns =
        probe_ns(kBatches, kPerBatch, [&] { fiber->resume(); });
    stop = true;
    fiber->resume();
  }

  {
    net::Network network(cfg.topology, cfg.network);
    const std::uint32_t n = cfg.num_cores();
    // Touch every (src, dst) route once so lazily built routing state
    // is complete before timing.
    Tick t = 0;
    for (std::uint32_t s = 0; s < n; ++s) {
      for (std::uint32_t d = 0; d < n; ++d) {
        p.sink += network.send(s, d, cfg.runtime.spawn_msg_bytes, t);
      }
      t += 12;
    }
    std::uint64_t i = 0;
    p.net_send_ns = probe_ns(kBatches, kPerBatch, [&] {
      const auto src = static_cast<net::CoreId>(i % n);
      const auto dst = static_cast<net::CoreId>((i * 37 + 11) % n);
      p.sink += network.send(src, dst, cfg.runtime.spawn_msg_bytes, t);
      t += 12;
      ++i;
    });
  }

  {
    const timing::CostModel model(cfg.cost_table, cfg.branch);
    Rng rng(seed);
    const timing::InstMix mix{.int_alu = 12, .int_mul = 2, .fp_alu = 4,
                              .fp_mul_div = 1, .branches = 3,
                              .branches_static = 1};
    p.block_ns = probe_ns(kBatches, kPerBatch,
                          [&] { p.sink += model.block_cost(mix, rng); });
  }

  {
    mem::PessimisticL1 l1(cfg.mem.line_bytes);
    std::uint64_t addr = 0;
    // Flushed at every 8 KiB, as at a function boundary.
    p.l1_access_ns = probe_ns(kBatches, kPerBatch, [&] {
      p.sink += l1.access(addr, 8).miss_lines;
      addr += 8;
      if (addr >= 8 * 1024) {
        l1.flush();
        addr = 0;
      }
    });
  }

  {
    mem::SetAssocCache cache({16 * 1024, cfg.mem.line_bytes, 4});
    std::uint64_t addr = seed;
    p.cache_access_ns = probe_ns(kBatches, kPerBatch, [&] {
      p.sink += cache.access(addr, false).hit ? 1 : 0;
      addr = addr * 1664525 + 1013904223;
    });
  }
  return p;
}

// ---- JSON output -----------------------------------------------------------------

void put_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', f);
      std::fputc(c, f);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f, "\\u%04x", static_cast<unsigned>(c));
    } else {
      std::fputc(c, f);
    }
  }
  std::fputc('"', f);
}

void put_num(std::FILE* f, const char* key, double v, bool comma = true) {
  std::fprintf(f, "\"%s\":%.17g%s", key, v, comma ? "," : "");
}

void put_u64(std::FILE* f, const char* key, std::uint64_t v,
             bool comma = true) {
  std::fprintf(f, "\"%s\":%llu%s", key, static_cast<unsigned long long>(v),
               comma ? "," : "");
}

std::uint64_t fnv1a(const std::vector<Tick>& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Tick t : v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (static_cast<std::uint64_t>(t) >> (i * 8)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// Every simulated-result field of SimStats: the counters that feed the
/// consistency digest. Host wall time is the only field left out.
void put_stats(std::FILE* f, const SimStats& s) {
  std::fputc('{', f);
  put_u64(f, "completion_ticks", s.completion_ticks);
  put_u64(f, "tasks_spawned", s.tasks_spawned);
  put_u64(f, "tasks_inlined", s.tasks_inlined);
  put_u64(f, "tasks_migrated", s.tasks_migrated);
  put_u64(f, "probes_sent", s.probes_sent);
  put_u64(f, "probes_denied", s.probes_denied);
  put_u64(f, "messages", s.messages);
  put_u64(f, "sync_stalls", s.sync_stalls);
  put_u64(f, "fiber_switches", s.fiber_switches);
  put_u64(f, "joins_suspended", s.joins_suspended);
  put_u64(f, "limit_recomputes", s.limit_recomputes);
  put_u64(f, "faults_injected", s.faults_injected);
  put_u64(f, "fault_msgs_delayed", s.fault_msgs_delayed);
  put_u64(f, "fault_msgs_duplicated", s.fault_msgs_duplicated);
  put_u64(f, "fault_msgs_dropped", s.fault_msgs_dropped);
  put_u64(f, "fault_msg_retries", s.fault_msg_retries);
  put_u64(f, "fault_msgs_reordered", s.fault_msgs_reordered);
  put_u64(f, "fault_core_stalls", s.fault_core_stalls);
  put_u64(f, "fault_spawn_denials", s.fault_spawn_denials);
  put_u64(f, "fault_mem_spikes", s.fault_mem_spikes);
  put_u64(f, "fault_core_wedges", s.fault_core_wedges);
  put_u64(f, "fault_dead_cores", s.fault_dead_cores);
  put_u64(f, "guard_inbox_overflows", s.guard_inbox_overflows);
  put_u64(f, "guard_fiber_overflows", s.guard_fiber_overflows);
  put_u64(f, "inbox_depth_peak", s.inbox_depth_peak);
  put_u64(f, "live_fibers_peak", s.live_fibers_peak);
  put_u64(f, "parallelism_samples", s.parallelism_samples);
  put_u64(f, "parallelism_sum", s.parallelism_sum);
  put_u64(f, "parallelism_max", s.parallelism_max);
  put_u64(f, "drift_max_ticks", s.drift_max_ticks);
  put_u64(f, "host_rounds", s.host_rounds);
  put_u64(f, "host_threads_used", s.host_threads_used);
  put_u64(f, "inbox_heap_allocs", s.inbox_heap_allocs);
  put_u64(f, "core_busy_fnv", fnv1a(s.core_busy_ticks));
  put_u64(f, "net_messages", s.network.messages);
  put_u64(f, "net_bytes", s.network.bytes);
  put_u64(f, "net_hops", s.network.hops);
  put_u64(f, "net_contention_ticks", s.network.contention_ticks, false);
  std::fputc('}', f);
}

void put_run(std::FILE* f, const DwarfRun& r) {
  std::fputs("{\"dwarf\":", f);
  put_string(f, r.dwarf);
  std::fputc(',', f);
  put_num(f, "config_s", r.config_s);
  put_num(f, "make_root_s", r.make_root_s);
  put_num(f, "attach_s", r.attach_s);
  put_num(f, "engine_s", r.engine_s);
  put_num(f, "setup_s", r.setup_s());
  put_num(f, "run_s", r.run_s);
  put_num(f, "critpath_s", r.critpath_s);
  put_num(f, "trace_export_s", r.trace_export_s);
  put_num(f, "metrics_export_s", r.metrics_export_s);
  put_num(f, "teardown_s", r.teardown_s);
  put_num(f, "obs_teardown_s", r.obs_teardown_s);
  put_num(f, "native_s", r.native_s);
  put_u64(f, "events", r.events);
  put_u64(f, "trace_bytes", r.trace_bytes);
  std::fprintf(f, "\"ok\":%s,\"error\":", r.ok ? "true" : "false");
  put_string(f, r.error);
  std::fputs(",\"stats\":", f);
  put_stats(f, r.stats);
  std::fputc('}', f);
}

void put_runs(std::FILE* f, const std::vector<DwarfRun>& runs) {
  std::fputc('[', f);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) std::fputc(',', f);
    put_run(f, runs[i]);
  }
  std::fputc(']', f);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "ledger: %s\nusage: ledger --workload NAME --seed N "
               "--seconds S --trace 0|1 [--factor F] [--dwarfs N] "
               "[--datasets K]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* w = nullptr;
  std::uint64_t seed = 1;
  double budget_s = 10.0;
  bool trace = false;
  double factor = 1.0;
  std::size_t max_dwarfs = 6;
  std::size_t num_datasets = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        for (const Workload& k : kWorkloads) {
          if (v == k.name) w = &k;
        }
        if (w == nullptr) usage(("unknown workload " + v).c_str());
      } else if (a == "--seed") {
        seed = std::stoull(v);
      } else if (a == "--seconds") {
        budget_s = std::stod(v);
      } else if (a == "--trace") {
        trace = v == "1";
      } else if (a == "--factor") {
        factor = std::stod(v);
      } else if (a == "--dwarfs") {
        max_dwarfs = std::stoul(v);
      } else if (a == "--datasets") {
        num_datasets = std::stoul(v);
      } else {
        usage(("unknown option " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (w == nullptr) usage("--workload is required");
  if (!(factor > 0.0) || max_dwarfs == 0 || num_datasets == 0 ||
      num_datasets > kMaxDatasets) {
    usage("bad --factor, --dwarfs or --datasets");
  }

  const auto origin = Clock::now();
  SpanLog log(origin);
  Context cx;
  cx.w = w;
  cx.factor = factor;
  cx.log = trace ? &log : nullptr;
  for (const dwarfs::DwarfSpec& s : dwarfs::all_dwarfs()) {
    if (cx.dwarfs.size() < max_dwarfs) cx.dwarfs.push_back(&s);
  }
  for (std::size_t k = 0; k < num_datasets; ++k) {
    cx.datasets.push_back(seed * kMaxDatasets + k);
  }

  std::optional<Probes> probes;
  if (trace) probes = run_probes(*w, seed);

  std::vector<Pass> passes;
  std::vector<Twin> twins;
  passes.push_back(run_pass(cx, 0, false, 0));
  passes.back().warmup = true;
  // Every dataset once, then round-robin repetitions until the budget
  // is spent.
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(budget_s);
  std::size_t n = 0;
  do {
    const int k = static_cast<int>(n % num_datasets);
    const int id = static_cast<int>(passes.size());
    if (!trace) {
      passes.push_back(run_pass(cx, k, false, id));
    } else {
      // Untraced and traced pass of a dataset back to back, in
      // alternating order so drifting host speed favours neither.
      const bool traced_first = n % 2 == 1;
      passes.push_back(run_pass(cx, k, traced_first, id));
      passes.push_back(run_pass(cx, k, !traced_first, id + 1));
      run_twins(cx, k, traced_first ? id : id + 1, twins);
    }
    ++n;
  } while (n < num_datasets || Clock::now() < deadline);
  const double rss_mb = peak_rss_mb();
  if (!trace) {
    // Event counts and the telemetry-flip check, after the peak-RSS
    // reading, which belongs to the measured passes.
    for (int k = 0; k < static_cast<int>(num_datasets); ++k) {
      run_twins(cx, k, -1, twins);
    }
  }

  std::FILE* f = stdout;
  std::fputs("{\"workload\":", f);
  put_string(f, w->name);
  std::fputc(',', f);
  put_u64(f, "seed", seed);
  std::fputs("\"datasets\":[", f);
  for (std::size_t k = 0; k < cx.datasets.size(); ++k) {
    std::fprintf(f, "%s%llu", k > 0 ? "," : "",
                 static_cast<unsigned long long>(cx.datasets[k]));
  }
  std::fputs("],", f);
  put_num(f, "factor", factor);
  put_u64(f, "cores", w->cores);
  std::fprintf(f, "\"observed\":%s,", w->observed ? "true" : "false");
  std::fprintf(f, "\"trace\":%s,", trace ? "true" : "false");
  put_num(f, "peak_rss_mb", rss_mb);
  std::fputs("\"passes\":[", f);
  for (std::size_t i = 0; i < passes.size(); ++i) {
    if (i > 0) std::fputc(',', f);
    std::fprintf(f, "{\"dataset\":%d,\"traced\":%s,\"warmup\":%s,",
                 passes[i].dataset, passes[i].traced ? "true" : "false",
                 passes[i].warmup ? "true" : "false");
    put_num(f, "wall_s", passes[i].wall_s);
    std::fputs("\"runs\":", f);
    put_runs(f, passes[i].runs);
    std::fputc('}', f);
  }
  std::fputs("],\"twins\":[", f);
  for (std::size_t i = 0; i < twins.size(); ++i) {
    if (i > 0) std::fputc(',', f);
    std::fputs("{\"kind\":", f);
    put_string(f, twins[i].kind);
    std::fprintf(f, ",\"dataset\":%d,\"pass\":%d,\"run\":",
                 twins[i].dataset, twins[i].pass);
    put_run(f, twins[i].run);
    std::fputc('}', f);
  }
  std::fputs("],\"probes\":", f);
  if (probes) {
    std::fputc('{', f);
    put_num(f, "core.fiber_switch_ns", probes->fiber_switch_ns);
    put_num(f, "net.send_ns", probes->net_send_ns);
    put_num(f, "timing.block_ns", probes->block_ns);
    put_num(f, "mem.l1_access_ns", probes->l1_access_ns);
    put_num(f, "mem.cache_access_ns", probes->cache_access_ns);
    put_u64(f, "sink", probes->sink, false);
    std::fputc('}', f);
  } else {
    std::fputs("null", f);
  }
  std::fputs(",\"spans\":[", f);
  const std::vector<Span>& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) std::fputc(',', f);
    std::fputs("{\"name\":", f);
    put_string(f, spans[i].name);
    std::fputs(",\"dwarf\":", f);
    put_string(f, spans[i].dwarf);
    std::fprintf(f, ",\"parent\":%d,\"pass\":%d,", spans[i].parent,
                 spans[i].pass);
    put_num(f, "t0", spans[i].t0);
    put_num(f, "t1", spans[i].t1, false);
    std::fputc('}', f);
  }
  std::fputs("]}\n", f);
  return std::fflush(f) == 0 ? 0 : 1;
}
