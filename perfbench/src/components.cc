// Component timings: the real hot-path classes, each timed on its own,
// fed from the workload's own generator stream (traced runs only).
#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "cache/prefix_tree_store.h"
#include "cache/sa_lru.h"
#include "common/clock.h"
#include "common/hash.h"
#include "common/key_ref.h"
#include "sched/wfq_queue.h"
#include "sim/workload.h"
#include "storage/lsm_engine.h"
#include "storage/replication_log.h"

namespace perfbench {

namespace {

using abase::OpType;

constexpr size_t kStreamOps = 200000;  ///< Requests drawn per component run.
constexpr size_t kBatch = 32;          ///< MultiFind batch size.

/// Keeps a value observable so the timed loop cannot be elided.
volatile uint64_t g_sink = 0;

struct Stream {
  std::vector<std::string> keys;    ///< Point-op keys, in stream order.
  std::vector<std::string> writes;  ///< Keys of the stream's writes.
  std::vector<std::pair<std::string, std::string>> scans;  ///< [start, end).
};

Stream Draw(const Spec& spec, uint64_t seed) {
  Stream s;
  sim::WorkloadGenerator gen(1, spec.profile, seed);
  std::vector<abase::ClientRequest> out;
  abase::Micros now = 0;
  while (s.keys.size() + s.scans.size() < kStreamOps) {
    gen.Tick(now, abase::kMicrosPerSecond, out);
    now += abase::kMicrosPerSecond;
    if (out.empty()) break;
    for (const abase::ClientRequest& r : out) {
      if (r.op == OpType::kScan) {
        s.scans.emplace_back(r.key, r.field);
      } else {
        s.keys.push_back(r.key);
        if (r.op != OpType::kGet) s.writes.push_back(r.key);
      }
    }
  }
  return s;
}

/// The keyspace share one partition engine holds: hash-routed like the
/// MetaServer, so an engine holds 1/partitions of the tenant's keys.
bool InPartition(const std::string& key, uint32_t partitions) {
  return abase::Fnv1a64(key) % partitions == 0;
}

template <typename Fn>
double NanosPer(size_t n, Fn&& fn) {
  if (n == 0) return 0;
  auto t0 = SteadyClock::now();
  fn();
  return static_cast<double>(NanosBetween(t0, SteadyClock::now())) /
         static_cast<double>(n);
}

}  // namespace

void TimeComponents(const Spec& spec, uint64_t seed, std::vector<Metric>* out) {
  Stream s = Draw(spec, seed);
  abase::SimClock clock(abase::kMicrosPerSecond);
  const std::string value(spec.profile.value_bytes, 'v');
  auto add = [out](const char* name, double v) {
    out->push_back(Metric{std::string("component.") + name, v, "ns"});
  };

  {
    abase::KeyArena arena;
    add("key_arena.intern_ns", NanosPer(s.keys.size(), [&] {
          for (size_t i = 0; i < s.keys.size(); i++) {
            if (i % 4096 == 0) arena.Reset();  // Once per simulated tick.
            g_sink = g_sink + arena.Intern(s.keys[i]).hash;
          }
        }));
  }
  {
    abase::cache::AuLruOptions o;
    o.capacity_bytes = spec.proxy_cache_bytes;
    abase::cache::PrefixTreeStore store(o, &clock);
    std::vector<uint64_t> hashes;
    for (const std::string& k : s.keys) hashes.push_back(abase::Fnv1a64(k));
    for (size_t i = 0; i < s.keys.size(); i++) {  // Fill as misses settle.
      if (!store.GetHashed(hashes[i], s.keys[i]).hit) {
        store.PutHashed(hashes[i], s.keys[i], value, value.size() + s.keys[i].size());
      }
    }
    add("prefix_tree.lookup_ns", NanosPer(s.keys.size(), [&] {
          for (size_t i = 0; i < s.keys.size(); i++) {
            g_sink = g_sink + store.GetHashed(hashes[i], s.keys[i]).hit;
          }
        }));

    abase::cache::SaLruOptions so;
    so.capacity_bytes = spec.node_cache_bytes;
    abase::cache::SaLruCache cache(so);
    abase::Micros expire_at = 0;
    for (size_t i = 0; i < s.keys.size(); i++) {
      if (cache.GetRefHashed(hashes[i], s.keys[i], &expire_at) == nullptr) {
        cache.PutHashed(hashes[i], s.keys[i], value, value.size() + s.keys[i].size());
      }
    }
    add("sa_lru.lookup_ns", NanosPer(s.keys.size(), [&] {
          for (size_t i = 0; i < s.keys.size(); i++) {
            g_sink = g_sink +
                     (cache.GetRefHashed(hashes[i], s.keys[i], &expire_at) != nullptr);
          }
        }));
  }
  {
    // One partition's engine, loaded with its share of the keyspace
    // (the generator's key shape) and probed with the stream's keys.
    abase::storage::LsmOptions lo;
    lo.memtable_flush_bytes = spec.memtable_bytes;
    abase::storage::LsmEngine engine(lo, &clock);
    const sim::WorkloadProfile& p = spec.profile;
    for (uint64_t i = 0; i < p.num_keys; i++) {
      std::string key = p.scan_prefix_groups > 0
                            ? "t1:g" + std::to_string(i % p.scan_prefix_groups) +
                                  ":k" + std::to_string(i)
                            : "t1:k" + std::to_string(i);
      if (InPartition(key, spec.partitions)) (void)engine.Put(key, value);
    }
    std::vector<std::string_view> probe;
    for (const std::string& k : s.keys) {
      if (InPartition(k, spec.partitions)) probe.push_back(k);
    }
    add("lsm.get_ns", NanosPer(probe.size(), [&] {
          for (std::string_view k : probe) g_sink = g_sink + engine.Get(k).ok();
        }));
    std::vector<const abase::storage::ValueEntry*> found(kBatch);
    std::vector<abase::storage::ReadIo> ios(kBatch);
    add("lsm.multifind_ns_per_key", NanosPer(probe.size(), [&] {
          for (size_t i = 0; i < probe.size(); i += kBatch) {
            size_t n = std::min(kBatch, probe.size() - i);
            engine.MultiFind(probe.data() + i, n, found.data(), ios.data());
            g_sink = g_sink + (found[0] != nullptr);
          }
        }));
    // Scans: the stream's own ranges, or (point workloads) 20-entry
    // ranges starting at the stream's keys.
    abase::storage::ScanBuffer buf;
    size_t entries = 0;
    auto t0 = SteadyClock::now();
    if (!s.scans.empty()) {
      for (const auto& r : s.scans) {
        buf.Clear();
        entries += engine.ScanRange(r.first, r.second, spec.profile.scan_limit,
                                    buf).entries;
      }
    } else {
      for (size_t i = 0; i < probe.size(); i += 16) {
        buf.Clear();
        entries += engine.ScanRange(probe[i], "", 20, buf).entries;
      }
    }
    out->push_back(Metric{"component.lsm.scan_range_ns_per_entry",
                          entries == 0 ? 0
                                       : static_cast<double>(NanosBetween(
                                             t0, SteadyClock::now())) /
                                             static_cast<double>(entries),
                          "ns"});
  }
  {
    abase::sched::WfqQueue q;
    std::vector<abase::sched::SchedRequest> reqs(s.keys.size());
    for (size_t i = 0; i < reqs.size(); i++) {
      reqs[i].req_id = i + 1;
      reqs[i].tenant = static_cast<abase::TenantId>(
          1 + abase::Fnv1a64(s.keys[i]) % 8);
      reqs[i].key_hash = abase::Fnv1a64(s.keys[i]);
    }
    add("wfq.push_pop_ns", NanosPer(reqs.size(), [&] {
          for (size_t i = 0; i < reqs.size(); i += 1024) {
            size_t n = std::min<size_t>(1024, reqs.size() - i);
            for (size_t j = 0; j < n; j++) q.Push(reqs[i + j], 1.0);
            for (size_t j = 0; j < n; j++) g_sink = g_sink + q.Pop().req_id;
          }
        }));
  }
  {
    std::vector<abase::storage::ReplRecordPtr> recs;
    // One partition's share of the stream's writes, like lsm.get.
    for (const std::string& k : s.writes.empty() ? s.keys : s.writes) {
      if (!InPartition(k, spec.partitions)) continue;
      recs.push_back(abase::storage::MakeReplRecord(
          k, abase::storage::ValueEntry::String(value, recs.size() + 1, 0)));
    }
    abase::storage::LsmOptions lo;
    lo.memtable_flush_bytes = spec.memtable_bytes;
    abase::storage::LsmEngine replica(lo, &clock);
    add("repl.apply_ns", NanosPer(recs.size(), [&] {
          for (const auto& r : recs) g_sink = g_sink + replica.ApplyReplicated(r).ok();
        }));
  }
}

}  // namespace perfbench
