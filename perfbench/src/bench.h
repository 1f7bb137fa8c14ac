// The end-to-end benchmark of the ABase simulator: workload definitions,
// the runner and its result. One process runs one workload; see
// README.md for the workloads, metrics and how they are checked.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/abase.h"

namespace perfbench {

namespace sim = abase::sim;
using SteadyClock = std::chrono::steady_clock;

/// Which deliberate defect the reference-model check should catch
/// (used only by the benchmark's own tests).
enum class Inject {
  kNone,
  kWrongReply,    ///< Corrupts the first checked kPrimary Get reply.
  kDroppedWrite,  ///< The model forgets the first acked Set.
};

/// The share of session commands of each kind that varies by workload
/// (the rest of the session shape is fixed, see sessions.cc).
struct SessionSpec {
  double scan_share = 0;      ///< ScanPrefix of one key group.
  double eventual_share = 0;  ///< Get with Consistency::kEventual.
};

/// One named workload.
struct Spec {
  std::string name;
  size_t nodes = 16;
  int workers = 1;
  int replication_lag_ticks = 0;
  bool latency = false;   ///< Timed settle: lognormal service, 3 AZs.
  bool hedging = false;   ///< With `latency`: hedged reads, gray detector.
  size_t active_tenants = 8;
  size_t idle_tenants = 0;
  uint32_t partitions = 8;
  uint64_t preload_keys = 0;    ///< Per active tenant, via PreloadKeys.
  uint64_t client_load_keys = 0;  ///< Per active tenant, via Client MSet.
  sim::WorkloadProfile profile;   ///< Per active tenant (tenant id set later).
  uint64_t memtable_bytes = 256 << 10;
  uint64_t node_cache_bytes = 1 << 20;
  uint64_t proxy_cache_bytes = 64 << 10;
  SessionSpec sessions;
  /// Online split of active tenant 1 at this window tick (< 0 = none).
  int split_at_window_tick = -1;
  int resched_interval_ticks = 0;
  /// Window ticks per requested second: the timed window is a fixed
  /// number of ticks (so the virtual metrics are deterministic for a
  /// seed), sized to take about `--seconds` on the reference host.
  double ticks_per_second = 4;
};

/// Names of every workload, in BENCHMARK.json order.
std::vector<std::string> WorkloadNames();

/// The named workload; returns false for an unknown name.
bool MakeSpec(const std::string& name, Spec* spec);

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Perfetto trace output of the simulator (traced runs; "" = none).
  std::string perfetto_path;
  /// The benchmark's own spans, as Chrome-trace JSON (traced runs).
  std::string spans_path;
  /// Overrides for the benchmark's own tests (0 = the spec's value).
  int workers = 0;
  size_t window_ticks = 0;
  size_t warmup_ticks = 0;
  Inject inject = Inject::kNone;
  /// Time the standalone components after a traced run.
  bool components = true;
};

/// One named metric value.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> failures;  ///< Why `correct` is false.
  uint64_t attempted = 0;  ///< Operations issued in the timed window.
  uint64_t failed = 0;     ///< Of those, settled with an error.
  uint64_t settled_ok = 0;
  double setup_s = 0;
  double window_s = 0;
  double ops_per_s = 0;
  double virtual_p50_us = 0;
  double virtual_p99_us = 0;
  uint64_t latency_samples = 0;
  double peak_rss_mb = 0;
  /// FNV-1a fold of the window's per-tick, per-tenant counters and the
  /// virtual percentiles: equal digests mean the same simulation.
  uint64_t digest = 0;
  size_t first_window_tick = 0;  ///< Sim ticks run before the window.
  size_t window_ticks = 0;
  int workers = 1;
  std::vector<Metric> layer;  ///< Per-layer metrics (traced runs only).
};

/// Runs one workload end to end: set-up, warm-up, timed window, drain
/// and output checks. `process_start` is when main() began (setup_s is
/// measured from it).
RunResult RunWorkload(const RunOptions& options,
                      SteadyClock::time_point process_start);

/// Times the real hot-path classes on their own, fed from the spec's
/// generator stream; appends `component.*` metrics.
void TimeComponents(const Spec& spec, uint64_t seed,
                    std::vector<Metric>* out);

/// Looks up a metric by name (nullptr when absent).
const Metric* FindMetric(const std::vector<Metric>& metrics,
                         const std::string& name);

/// Elapsed nanoseconds between two steady-clock points.
inline uint64_t NanosBetween(SteadyClock::time_point a,
                             SteadyClock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

}  // namespace perfbench
