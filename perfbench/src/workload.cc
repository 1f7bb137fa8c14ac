// The three workloads and the runner: set-up, warm-up, the timed
// window, drain, output checks, and (traced runs) the per-layer ledger.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "sessions.h"
#include "spans.h"

namespace perfbench {

using abase::PartitionId;
using abase::TenantId;

namespace {

// Tenant ids: active tenants are 1..A, idle tenants follow.
constexpr TenantId kFirstTenant = 1;

// A quota no workload comes near: none of the three may throttle.
constexpr double kAmpleQuota = 1e9;

constexpr int kReplicas = 3;
constexpr size_t kWarmupTicks = 6;

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"kv_uncached", "kv_hot_timed", "scan_split"};
}

bool MakeSpec(const std::string& name, Spec* spec) {
  Spec s;
  s.name = name;
  sim::WorkloadProfile& p = s.profile;
  if (name == "kv_uncached") {
    // Point traffic over data several times larger than every cache:
    // per tenant 60k keys x 256 B (~15 MB) against 256 KB memtables per
    // partition, 1 MB SA-LRU per node and 64 KB proxy stores.
    s.nodes = 16;
    s.workers = 4;
    s.active_tenants = 8;
    s.partitions = 8;
    s.preload_keys = 40000;
    p.base_qps = 5000;
    p.read_ratio = 0.8;
    p.num_keys = 40000;
    p.key_dist = sim::KeyDist::kZipfian;
    p.zipf_theta = 0.7;
    p.value_bytes = 256;
    s.memtable_bytes = 256 << 10;
    s.node_cache_bytes = 1 << 20;
    s.proxy_cache_bytes = 64 << 10;
    s.ticks_per_second = 8;
  } else if (name == "kv_hot_timed") {
    // A hot spot the proxy stores absorb, on the timed settle path, with
    // tens of thousands of idle tenants registered beside the active.
    s.nodes = 16;
    s.workers = 1;
    s.replication_lag_ticks = 1;
    s.latency = true;
    s.hedging = true;
    s.active_tenants = 4;
    s.idle_tenants = 20000;
    s.partitions = 8;
    s.preload_keys = 20000;
    p.base_qps = 25000;
    p.read_ratio = 0.95;
    p.eventual_read_fraction = 0.5;
    p.num_keys = 20000;
    p.key_dist = sim::KeyDist::kHotSpot;
    p.hot_fraction = 0.01;
    p.hot_share = 0.9;
    p.value_bytes = 256;
    s.memtable_bytes = 4 << 20;
    s.node_cache_bytes = 8 << 20;
    s.proxy_cache_bytes = 1 << 20;
    s.sessions.eventual_share = 0.1;
    s.ticks_per_second = 4;
  } else if (name == "scan_split") {
    // Grouped-prefix scans beside writes, through an online split.
    s.nodes = 8;
    s.workers = 2;
    s.latency = true;
    s.active_tenants = 2;
    s.partitions = 4;
    s.client_load_keys = 60000;
    p.base_qps = 8000;
    p.read_ratio = 0.7;
    p.scan_fraction = 0.3;
    p.scan_limit = 20;
    p.scan_prefix_groups = 200;
    p.num_keys = 60000;
    p.key_dist = sim::KeyDist::kZipfian;
    p.zipf_theta = 0.9;
    p.value_bytes = 128;
    s.memtable_bytes = 256 << 10;
    s.node_cache_bytes = 1 << 20;
    s.proxy_cache_bytes = 512 << 10;
    s.sessions.scan_share = 0.3;
    s.sessions.eventual_share = 0.1;
    s.split_at_window_tick = 2;
    s.resched_interval_ticks = 5;
    s.ticks_per_second = 4.5;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

const Metric* FindMetric(const std::vector<Metric>& metrics,
                         const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

namespace {

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Seconds(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Cumulative public counters, summed over the active tenants, their
/// proxies, and every engine of every node. Diffed across the window.
struct Counters {
  uint64_t issued = 0, ok = 0, errors = 0;
  uint64_t node_cache_hits = 0, disk_reads = 0,
           reads_completed = 0, replica_reads = 0, hedged_reads = 0,
           hedge_wins = 0;
  // ProxyStats + PrefixTreeStore.
  uint64_t proxy_requests = 0, proxy_cache_hits = 0, proxy_forwarded = 0,
           proxy_refresh = 0, tree_evictions = 0, scan_hits = 0,
           scan_misses = 0, scans_dropped = 0;
  // SA-LRU.
  uint64_t sa_hits = 0, sa_misses = 0;
  // LsmStats.
  uint64_t gets = 0, memtable_hits = 0, block_reads = 0, bloom_filtered = 0,
           puts = 0, repl_applied = 0, flushed_bytes = 0,
           compaction_write_bytes = 0, scans = 0, scan_entries = 0;
};

void AddTenantMetrics(const sim::TenantTickMetrics& m, Counters* c) {
  c->issued += m.issued;
  c->ok += m.ok;
  c->errors += m.errors;
  c->node_cache_hits += m.node_cache_hits;
  c->disk_reads += m.disk_reads;
  c->reads_completed += m.reads_completed;
  c->replica_reads += m.replica_reads;
  c->hedged_reads += m.hedged_reads;
  c->hedge_wins += m.hedge_wins;
}

class Bench {
 public:
  Bench(const RunOptions& options, SteadyClock::time_point process_start)
      : options_(options), process_start_(process_start) {}

  RunResult Run();

 private:
  abase::ClusterOptions MakeClusterOptions() const;
  void Setup();
  void ClientLoad(TenantId tenant);
  /// One tick: Step, then harvest and refill the sessions.
  void StepOnce(bool refill);
  Counters Snapshot(bool engines) const;
  void MeasureWindow();
  void DrainAll();
  void CheckOutputs();
  void LayerMetrics(const Counters& a, const Counters& b);
  /// component.explained_share.<Stage>: component ns x the window's op
  /// counts / the stage's measured ns.
  void ExplainStages();
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      result_.correct = false;
      result_.failures.push_back(what);
    }
  }
  void AddLayer(const std::string& name, double value,
                const std::string& unit) {
    result_.layer.push_back(Metric{name, value, unit});
  }

  RunOptions options_;
  SteadyClock::time_point process_start_;
  Spec spec_;
  RunResult result_;
  std::unique_ptr<SpanLog> spans_;
  std::unique_ptr<abase::Cluster> cluster_;
  std::unique_ptr<SessionFleet> fleet_;
  std::vector<TenantId> active_;

  // Set-up ledger.
  uint64_t add_tenant_ns_ = 0;
  size_t tenants_added_ = 0;
  uint64_t load_ns_ = 0;
  uint64_t keys_loaded_ = 0;

  // Window ledger.
  std::vector<uint64_t> tick_ns_;  ///< Cluster::Step wall per tick.
  uint64_t step_ns_ = 0;
  uint64_t window_submit_ns_ = 0;
  uint64_t window_submitted_ = 0;
  std::vector<uint64_t> stage_ns_;
  std::vector<std::string> stage_names_;
  // Sampled over the window's last tick (see README, sched.*).
  uint64_t wfq_io_blocks_ = 0, wfq_io_scheduled_ = 0;
};

abase::ClusterOptions Bench::MakeClusterOptions() const {
  abase::ClusterOptions o;
  sim::SimOptions& so = o.sim;
  so.seed = options_.seed;
  so.data_plane_workers = options_.workers > 0 ? options_.workers
                                               : spec_.workers;
  so.replication_lag_ticks = spec_.replication_lag_ticks;
  so.trace_path = options_.perfetto_path;
  so.striped_placement = true;
  // Generous capacity everywhere: no request may defer past its
  // deadline or be refused.
  so.node.wfq.cpu_budget_ru = 1e9;
  so.node.wfq.io_blocks_per_thread = 1 << 24;
  so.node.storage_capacity = 1ull << 40;
  so.node.replicas = kReplicas;
  so.node.lsm.memtable_flush_bytes = spec_.memtable_bytes;
  so.node.cache.capacity_bytes = spec_.node_cache_bytes;
  so.proxy.cache.capacity_bytes = spec_.proxy_cache_bytes;
  so.proxy.replicas = kReplicas;
  so.split_invalidation = sim::ProxyInvalidationMode::kPrefixSubtree;
  so.split_bytes_per_tick = 128 << 10;
  so.resched_interval_ticks = spec_.resched_interval_ticks;
  if (spec_.latency) {
    so.node.service_time.enabled = true;
    so.node.service_time.dist = abase::latency::DistKind::kLognormal;
    so.node.service_time.mean_micros = 150;
    so.node.service_time.sigma = 1.0;
    so.latency.enabled = true;
    so.latency.num_azs = 3;
    so.latency.hedge.enabled = spec_.hedging;
    so.latency.hedge.min_observations = 32;
    so.latency.hedge.min_threshold_micros = 100;
    so.latency.gray.enabled = spec_.hedging;
  }
  return o;
}

void Bench::ClientLoad(TenantId tenant) {
  // Grouped scan keys ("t<T>:g<G>:k<I>") have no PreloadKeys form: they
  // are written through the client API, in batches, as set-up.
  abase::Client client = cluster_->OpenClient(tenant);
  const sim::WorkloadProfile& p = spec_.profile;
  abase::Rng rng(options_.seed * 31 + tenant);
  const uint64_t n = spec_.client_load_keys;
  constexpr uint64_t kBatch = 2000;
  for (uint64_t base = 0; base < n; base += kBatch) {
    std::vector<abase::Command> cmds;
    for (uint64_t i = base; i < std::min(n, base + kBatch); i++) {
      std::string key = "t" + std::to_string(tenant) + ":g" +
                        std::to_string(i % p.scan_prefix_groups) + ":k" +
                        std::to_string(i);
      size_t len = p.value_bytes / 2 + rng.NextUint64(p.value_bytes);
      cmds.push_back(abase::Command::Set(std::move(key),
                                         std::string(len, 'v')));
    }
    std::vector<abase::Future<abase::Reply>> futures;
    {
      Scoped s(spans_.get(), "Client::SubmitBatch");
      futures = client.SubmitBatch(std::move(cmds));
    }
    cluster_->Drain();
    for (const auto& f : futures) {
      Check(f.ready() && f->ok(), "client load: a Set did not settle OK");
      if (!f.ready() || !f->ok()) return;
    }
  }
  keys_loaded_ += n;
}

void Bench::Setup() {
  Scoped setup(spans_.get(), "setup");
  {
    Scoped s(spans_.get(), "setup.cluster");
    cluster_ = std::make_unique<abase::Cluster>(MakeClusterOptions());
  }
  abase::PoolId pool;
  {
    Scoped s(spans_.get(), "setup.pool");
    pool = cluster_->CreatePool(spec_.nodes);
  }
  auto add_tenant = [&](TenantId id, uint32_t partitions, uint32_t proxies) {
    abase::meta::TenantConfig cfg;
    cfg.id = id;
    cfg.name = "t" + std::to_string(id);
    cfg.tenant_quota_ru = kAmpleQuota;
    cfg.storage_quota_bytes = 1ull << 40;
    cfg.num_partitions = partitions;
    cfg.num_proxies = proxies;
    cfg.num_proxy_groups = proxies > 1 ? 2 : 1;
    cfg.replicas = kReplicas;
    cfg.partition_quota_upper = kAmpleQuota;
    auto t0 = SteadyClock::now();
    abase::Status st = cluster_->CreateTenant(cfg, pool);
    add_tenant_ns_ += NanosBetween(t0, SteadyClock::now());
    tenants_added_++;
    Check(st.ok(), "CreateTenant failed: " + st.ToString());
  };
  {
    Scoped s(spans_.get(), "setup.tenants");
    for (size_t i = 0; i < spec_.active_tenants; i++) {
      TenantId id = kFirstTenant + static_cast<TenantId>(i);
      add_tenant(id, spec_.partitions, 4);
      active_.push_back(id);
    }
  }
  if (spec_.idle_tenants > 0) {
    Scoped s(spans_.get(), "setup.idle_tenants");
    for (size_t i = 0; i < spec_.idle_tenants; i++) {
      add_tenant(kFirstTenant + static_cast<TenantId>(spec_.active_tenants + i),
                 1, 1);
    }
  }
  if (spec_.preload_keys > 0) {
    Scoped s(spans_.get(), "setup.preload");
    auto t0 = SteadyClock::now();
    for (TenantId t : active_) {
      cluster_->sim().PreloadKeys(t, spec_.preload_keys,
                                  spec_.profile.value_bytes);
    }
    load_ns_ += NanosBetween(t0, SteadyClock::now());
    keys_loaded_ += spec_.preload_keys * active_.size();
  }
  if (spec_.client_load_keys > 0) {
    Scoped s(spans_.get(), "setup.client_load");
    auto t0 = SteadyClock::now();
    for (TenantId t : active_) ClientLoad(t);
    load_ns_ += NanosBetween(t0, SteadyClock::now());
  }
  {
    Scoped s(spans_.get(), "setup.sessions");
    fleet_ = std::make_unique<SessionFleet>(cluster_.get(), active_,
                                            spec_.sessions, options_.seed,
                                            options_.inject, spans_.get());
    fleet_->Load();
  }
  for (TenantId t : active_) {
    // Each tenant's generator draws its own stream from the run's seed.
    cluster_->AttachWorkload(t, spec_.profile);
  }
}

void Bench::StepOnce(bool refill) {
  auto t0 = SteadyClock::now();
  {
    Scoped s(spans_.get(), "Cluster::Step");
    cluster_->Step();
  }
  auto t1 = SteadyClock::now();
  tick_ns_.push_back(NanosBetween(t0, t1));
  {
    Scoped s(spans_.get(), "sessions.pump");
    fleet_->Pump(refill);
  }
}

Counters Bench::Snapshot(bool engines) const {
  Counters c;
  sim::ClusterSim& sim = cluster_->sim();
  for (TenantId t : active_) {
    for (const sim::TenantTickMetrics& m : sim.History(t)) {
      AddTenantMetrics(m, &c);
    }
    const sim::TenantRuntime* rt = sim.Tenant(t);
    for (const auto& proxy : rt->proxies) {
      const abase::proxy::ProxyStats& ps = proxy->stats();
      c.proxy_requests += ps.requests;
      c.proxy_cache_hits += ps.cache_hits;
      c.proxy_forwarded += ps.forwarded;
      c.proxy_refresh += ps.refresh_fetches;
      c.tree_evictions += proxy->cache().stats().evictions;
      const abase::cache::PrefixTreeStats& ts = proxy->cache().tree_stats();
      c.scan_hits += ts.scan_hits;
      c.scan_misses += ts.scan_misses;
      c.scans_dropped += ts.scans_dropped_by_write;
    }
  }
  if (!engines) return c;
  for (const auto& node : sim.nodes()) {
    const abase::cache::CacheStats& cs = node->data_cache().stats();
    c.sa_hits += cs.hits;
    c.sa_misses += cs.misses;
    for (const abase::node::PartitionReplica* rep : node->Replicas()) {
      const abase::storage::LsmStats& ls = rep->engine->stats();
      c.gets += ls.gets;
      c.memtable_hits += ls.memtable_hits;
      c.block_reads += ls.block_reads;
      c.bloom_filtered += ls.bloom_filtered;
      c.puts += ls.puts;
      c.repl_applied += ls.repl_applied;
      c.flushed_bytes += ls.flushed_bytes;
      c.compaction_write_bytes += ls.compaction_write_bytes;
      c.scans += ls.scans;
      c.scan_entries += ls.scan_entries;
    }
  }
  return c;
}

void Bench::MeasureWindow() {
  sim::ClusterSim& sim = cluster_->sim();
  const size_t warmup = options_.warmup_ticks > 0 ? options_.warmup_ticks
                                                  : kWarmupTicks;
  const size_t window =
      options_.window_ticks > 0
          ? options_.window_ticks
          : std::max<size_t>(1, static_cast<size_t>(
                                    options_.seconds * spec_.ticks_per_second +
                                    0.5));
  {
    Scoped s(spans_.get(), "warmup");
    for (size_t i = 0; i < warmup; i++) StepOnce(true);
  }

  // Window start: the merged client-latency distribution covers only
  // the window (latency_hist is a report the simulation never reads).
  for (TenantId t : active_) sim.MutableTenant(t)->latency_hist.Reset();
  const bool traced = options_.trace;
  Counters before = Snapshot(traced);
  if (traced) {
    sim.pipeline().SetStageTiming(true);
    sim.pipeline().ResetStageNanos();
  }
  const uint64_t submit_ns0 = fleet_->submit_ns();
  const uint64_t submitted0 = fleet_->submitted();
  const size_t hist0 = sim.History(active_.front()).size();
  result_.first_window_tick = hist0;  // Every tick since the tenants exist.
  result_.window_ticks = window;
  tick_ns_.clear();

  auto w0 = SteadyClock::now();
  {
    Scoped s(spans_.get(), "window");
    for (size_t i = 0; i < window; i++) {
      if (spec_.split_at_window_tick >= 0 &&
          i == static_cast<size_t>(spec_.split_at_window_tick)) {
        abase::Status st = sim.StartPartitionSplit(active_.front());
        Check(st.ok(), "StartPartitionSplit: " + st.ToString());
      }
      StepOnce(true);
    }
  }
  auto w1 = SteadyClock::now();
  result_.window_s = Seconds(w0, w1);

  if (traced) {
    sim.pipeline().SetStageTiming(false);
    for (size_t i = 0; i < sim.pipeline().num_stages(); i++) {
      stage_names_.push_back(sim.pipeline().stage(i).name());
      stage_ns_.push_back(sim.pipeline().stage_nanos(i));
    }
  }
  window_submit_ns_ = fleet_->submit_ns() - submit_ns0;
  window_submitted_ = fleet_->submitted() - submitted0;
  for (uint64_t ns : tick_ns_) step_ns_ += ns;

  // The scheduler's per-tick WFQ counters are only readable by draining
  // them; both traced and untraced runs do so here, once, after the
  // window, so the two runs stay one simulation.
  for (const auto& node : sim.nodes()) {
    abase::node::NodeTickStats ts = node->TakeTickStats();
    wfq_io_blocks_ += ts.wfq.io_blocks_used;
    wfq_io_scheduled_ += ts.wfq.io_scheduled;
  }

  Counters after = Snapshot(traced);
  uint64_t digest = 14695981039346656037ull;
  auto fold = [&digest](uint64_t v) {
    digest = abase::Fnv1a64(
        std::string_view(reinterpret_cast<const char*>(&v), sizeof(v)),
        digest);
  };
  abase::Histogram merged(1e9);
  for (TenantId t : active_) {
    const auto& h = sim.History(t);
    for (size_t i = hist0; i < h.size(); i++) {
      fold(h[i].issued);
      fold(h[i].ok);
      fold(h[i].errors);
      fold(h[i].proxy_hits);
      fold(h[i].node_cache_hits);
      fold(h[i].disk_reads);
      fold(h[i].reads_completed);
      fold(h[i].replica_reads);
      fold(h[i].hedged_reads);
      fold(h[i].hedge_wins);
    }
    merged.Merge(sim.Tenant(t)->latency_hist);
  }
  result_.attempted = after.issued - before.issued;
  result_.failed = after.errors - before.errors;
  result_.settled_ok = after.ok - before.ok;
  result_.ops_per_s = Ratio(static_cast<double>(result_.settled_ok),
                            result_.window_s);
  result_.virtual_p50_us = merged.P50();
  result_.virtual_p99_us = merged.P99();
  result_.latency_samples = merged.count();
  fold(merged.count());
  fold(static_cast<uint64_t>(result_.virtual_p50_us * 1000));
  fold(static_cast<uint64_t>(result_.virtual_p99_us * 1000));
  result_.digest = digest;
  if (traced) LayerMetrics(before, after);
}

void Bench::DrainAll() {
  Scoped s(spans_.get(), "drain");
  sim::ClusterSim& sim = cluster_->sim();
  // Stop the open-loop generators; let every session command settle.
  for (TenantId t : active_) sim.MutableWorkload(t)->base_qps = 0;
  auto busy = [&] {
    if (fleet_->InFlight() > 0 || cluster_->PendingCommands() > 0 ||
        sim.InflightCount() > 0 || sim.PendingMigrationCount() > 0) {
      return true;
    }
    for (TenantId t : active_) {
      if (sim.SplitInProgress(t)) return true;
    }
    return false;
  };
  for (int i = 0; i < 400 && busy(); i++) StepOnce(false);
  Check(!busy(), "the cluster did not drain within 400 ticks");
}

void Bench::CheckOutputs() {
  sim::ClusterSim& sim = cluster_->sim();
  {
    Scoped s(spans_.get(), "check.model");
    fleet_->FinalSweep();
    for (const std::string& f : fleet_->failures()) Check(false, f);
  }
  // Replication lag > 0 ships the last writes on later ticks.
  for (int i = 0; i < 8; i++) StepOnce(false);

  Scoped s(spans_.get(), "check.cluster");
  // Conservation: every issued operation settled OK or as an error, and
  // every one passed through a proxy.
  Counters c = Snapshot(false);
  for (TenantId t : active_) {
    Counters one;
    for (const sim::TenantTickMetrics& m : sim.History(t)) {
      AddTenantMetrics(m, &one);
    }
    Check(one.issued == one.ok + one.errors,
          "tenant " + std::to_string(t) + ": issued != ok + errors");
  }
  Check(c.proxy_requests == c.issued, "proxy requests != issued (" +
                                          std::to_string(c.proxy_requests) +
                                          " vs " + std::to_string(c.issued) +
                                          ")");
  Check(cluster_->PendingCommands() == 0, "pending futures after drain");
  Check(sim.InflightCount() == 0, "InflightCount() != 0 after drain");
  if (spec_.split_at_window_tick >= 0) {
    Check(sim.SplitCutovers() >= 1, "no split cutover happened");
  }

  // Replica convergence: every replica engine equals its primary.
  uint64_t live_bytes = 0;
  abase::storage::ScanBuffer pbuf, rbuf;
  for (TenantId t : active_) {
    const abase::meta::TenantMeta* tm = sim.meta().GetTenant(t);
    for (PartitionId p = 0; p < static_cast<PartitionId>(tm->partitions.size());
         p++) {
      Check(sim.ReplicationLag(t, p) == 0, "replication lag after drain");
      const auto& reps = tm->partitions[p].replicas;
      abase::node::DataNode* pn = sim.FindNode(reps[0]);
      abase::storage::LsmEngine* pe = pn ? pn->EngineFor(t, p) : nullptr;
      if (pe == nullptr) {
        Check(false, "primary engine missing");
        continue;
      }
      pbuf.Clear();
      pe->ScanRange("", "", SIZE_MAX, pbuf);
      for (size_t i = 0; i < pbuf.size(); i++) {
        live_bytes += (pbuf[i].key.size() + pbuf[i].value.size()) *
                      reps.size();
      }
      for (size_t r = 1; r < reps.size(); r++) {
        abase::node::DataNode* rn = sim.FindNode(reps[r]);
        abase::storage::LsmEngine* re = rn ? rn->EngineFor(t, p) : nullptr;
        bool same = re != nullptr;
        if (same) {
          rbuf.Clear();
          re->ScanRange("", "", SIZE_MAX, rbuf);
          same = rbuf.size() == pbuf.size();
          for (size_t i = 0; same && i < pbuf.size(); i++) {
            same = rbuf[i].key == pbuf[i].key &&
                   rbuf[i].value == pbuf[i].value;
          }
        }
        Check(same, "tenant " + std::to_string(t) + " partition " +
                        std::to_string(p) + ": replica differs from primary");
      }
    }
  }
  if (options_.trace) {
    uint64_t stored = 0;
    for (const auto& node : sim.nodes()) stored += node->StoredBytes();
    AddLayer("storage.space_amp", Ratio(stored, live_bytes), "ratio");
  }
}

void Bench::LayerMetrics(const Counters& a, const Counters& b) {
  const double ops = static_cast<double>(result_.attempted);
  // Doubles: a replica that moved away during the window takes its
  // engine counters with it, so a sum may shrink.
  auto d = [](uint64_t x, uint64_t y) {
    return static_cast<double>(y) - static_cast<double>(x);
  };
  const double ticks = static_cast<double>(result_.window_ticks);

  uint64_t stage_total = 0;
  for (size_t i = 0; i < stage_ns_.size(); i++) {
    AddLayer("sim." + stage_names_[i] + ".ns_per_op",
             Ratio(stage_ns_[i], ops), "ns");
    stage_total += stage_ns_[i];
  }
  std::vector<uint64_t> sorted = tick_ns_;
  std::sort(sorted.begin(), sorted.end());
  auto pct = [&sorted](double q) {
    size_t i = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
    return static_cast<double>(sorted[i]) / 1e6;
  };
  AddLayer("sim.tick_ms_p50", pct(0.5), "ms");
  AddLayer("sim.tick_ms_p99", pct(0.99), "ms");
  AddLayer("core.submit_ns_per_cmd",
           Ratio(window_submit_ns_, window_submitted_), "ns");
  AddLayer("core.step_overhead_ns_per_tick",
           Ratio(static_cast<double>(step_ns_) - static_cast<double>(stage_total), ticks),
           "ns");
  AddLayer("meta.add_tenant_us", Ratio(add_tenant_ns_ / 1e3, tenants_added_),
           "us");
  AddLayer("meta.preload_ns_per_key", Ratio(load_ns_, keys_loaded_), "ns");

  AddLayer("proxy.hit_ratio",
           Ratio(d(a.proxy_cache_hits, b.proxy_cache_hits),
                 d(a.proxy_requests, b.proxy_requests)),
           "ratio");
  AddLayer("proxy.forwarded_per_op",
           Ratio(d(a.proxy_forwarded, b.proxy_forwarded), ops), "ratio");
  AddLayer("proxy.refresh_fetches_per_op",
           Ratio(d(a.proxy_refresh, b.proxy_refresh), ops), "ratio");
  AddLayer("cache.prefix_tree.evictions_per_op",
           Ratio(d(a.tree_evictions, b.tree_evictions), ops), "ratio");
  AddLayer("cache.prefix_tree.scan_hit_ratio",
           Ratio(d(a.scan_hits, b.scan_hits),
                 d(a.scan_hits, b.scan_hits) + d(a.scan_misses, b.scan_misses)),
           "ratio");
  const double writes = d(a.puts, b.puts);
  AddLayer("cache.prefix_tree.scans_dropped_per_write",
           Ratio(d(a.scans_dropped, b.scans_dropped), writes), "ratio");

  const double node_reads = d(a.reads_completed, b.reads_completed);
  AddLayer("node.cache_hit_ratio",
           Ratio(d(a.sa_hits, b.sa_hits),
                 d(a.sa_hits, b.sa_hits) + d(a.sa_misses, b.sa_misses)),
           "ratio");
  AddLayer("node.disk_served_per_read",
           Ratio(d(a.disk_reads, b.disk_reads), node_reads), "ratio");
  AddLayer("sched.io_blocks_per_read",
           Ratio(wfq_io_blocks_, wfq_io_scheduled_), "ratio");
  const double gets = d(a.gets, b.gets);
  AddLayer("storage.block_reads_per_get",
           Ratio(d(a.block_reads, b.block_reads), gets), "ratio");
  AddLayer("storage.bloom_filtered_per_get",
           Ratio(d(a.bloom_filtered, b.bloom_filtered), gets), "ratio");
  AddLayer("storage.memtable_hit_ratio",
           Ratio(d(a.memtable_hits, b.memtable_hits), gets), "ratio");
  AddLayer("storage.repl_applied_per_write",
           Ratio(d(a.repl_applied, b.repl_applied), writes), "ratio");
  const double flushed = d(a.flushed_bytes, b.flushed_bytes);
  AddLayer("storage.write_amp",
           Ratio(flushed + d(a.compaction_write_bytes, b.compaction_write_bytes),
                 flushed),
           "ratio");
  AddLayer("storage.scan_entries_per_scan",
           Ratio(d(a.scan_entries, b.scan_entries), d(a.scans, b.scans)),
           "ratio");

  const double hedged = d(a.hedged_reads, b.hedged_reads);
  AddLayer("latency.hedged_per_eventual_read",
           Ratio(hedged, d(a.replica_reads, b.replica_reads)), "ratio");
  AddLayer("latency.hedge_win_ratio",
           Ratio(d(a.hedge_wins, b.hedge_wins), hedged), "ratio");

  // Op counts the component timings are multiplied by (explained share).
  AddLayer("count.proxy_requests", d(a.proxy_requests, b.proxy_requests),
           "count");
  AddLayer("count.engine_gets", gets, "count");
  AddLayer("count.scan_entries", d(a.scan_entries, b.scan_entries), "count");
  AddLayer("count.node_reads", node_reads, "count");
  AddLayer("count.forwarded", d(a.proxy_forwarded, b.proxy_forwarded),
           "count");
  AddLayer("count.repl_applied", d(a.repl_applied, b.repl_applied), "count");
  for (size_t i = 0; i < stage_ns_.size(); i++) {
    AddLayer("count.stage_ns." + stage_names_[i],
             static_cast<double>(stage_ns_[i]), "ns");
  }
}

void Bench::ExplainStages() {
  auto get = [this](const std::string& name) {
    const Metric* m = FindMetric(result_.layer, name);
    return m == nullptr ? 0.0 : m->value;
  };
  auto share = [&](const char* stage, double explained_ns) {
    AddLayer(std::string("component.explained_share.") + stage,
             Ratio(explained_ns, get(std::string("count.stage_ns.") + stage)),
             "ratio");
  };
  share("ProxyAdmit", get("component.prefix_tree.lookup_ns") *
                          get("count.proxy_requests"));
  share("NodeSchedule",
        get("component.wfq.push_pop_ns") * get("count.forwarded") +
            get("component.sa_lru.lookup_ns") * get("count.node_reads") +
            get("component.lsm.get_ns") * get("count.engine_gets") +
            get("component.lsm.scan_range_ns_per_entry") *
                get("count.scan_entries"));
  share("Replicate",
        get("component.repl.apply_ns") * get("count.repl_applied"));
}

RunResult Bench::Run() {
  if (!MakeSpec(options_.workload, &spec_)) {
    result_.correct = false;
    result_.failures.push_back("unknown workload " + options_.workload);
    return result_;
  }
  result_.workers = options_.workers > 0 ? options_.workers : spec_.workers;
  if (options_.trace) spans_ = std::make_unique<SpanLog>(process_start_);

  Setup();
  result_.setup_s = Seconds(process_start_, SteadyClock::now());
  MeasureWindow();
  DrainAll();
  CheckOutputs();
  result_.peak_rss_mb = PeakRssMb();

  if (options_.trace && options_.components) {
    Scoped s(spans_.get(), "components");
    TimeComponents(spec_, options_.seed, &result_.layer);
    ExplainStages();
  }
  if (spans_ != nullptr && !options_.spans_path.empty() &&
      !spans_->Write(options_.spans_path)) {
    Check(false, "cannot write " + options_.spans_path);
  }
  return result_;
}

}  // namespace

RunResult RunWorkload(const RunOptions& options,
                      SteadyClock::time_point process_start) {
  Bench bench(options, process_start);
  return bench.Run();
}

}  // namespace perfbench
