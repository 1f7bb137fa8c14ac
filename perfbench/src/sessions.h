// Closed-loop client sessions and the ordered-map reference model that
// checks every reply they receive.
//
// Each session owns a key space no generator touches ("m<session>:g<group>:
// k<key>"), split into groups. A group has at most one command in flight,
// so no two commands on one key (or a scan and a write under one prefix)
// overlap, and each reply has exactly one right answer: acked writes
// apply to the model in ack order, every kPrimary Get must equal the
// model, every ScanPrefix must equal the model's range cut at its limit,
// and an eventual Get may only return a value once written to its key.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "spans.h"

namespace perfbench {

class SessionFleet {
 public:
  static constexpr size_t kSessions = 8;  ///< Round-robin over tenants.
  static constexpr size_t kDepth = 8;     ///< Commands in flight each.
  static constexpr size_t kGroups = 64;   ///< Key groups per session.
  static constexpr size_t kKeysPerGroup = 16;
  static constexpr size_t kValueBytes = 64;

  SessionFleet(abase::Cluster* cluster,
               const std::vector<abase::TenantId>& tenants,
               const SessionSpec& spec, uint64_t seed, Inject inject,
               SpanLog* spans);

  SessionFleet(const SessionFleet&) = delete;
  SessionFleet& operator=(const SessionFleet&) = delete;

  /// Writes every owned key once through batched client Sets and drains
  /// (the set-up load of the model's key space).
  void Load();

  /// Harvests resolved futures, checking each reply against the model,
  /// then (when `refill`) tops every session back up to its depth.
  /// Call after every Cluster::Step.
  void Pump(bool refill);

  /// After the cluster has drained: reads every owned key with a
  /// kPrimary Get and scans every group, and compares with the model.
  void FinalSweep();

  size_t InFlight() const;

  uint64_t submitted() const { return submitted_; }
  uint64_t checked_gets() const { return checked_gets_; }
  uint64_t checked_scans() const { return checked_scans_; }
  /// Wall time spent inside Client::Submit, and the commands submitted.
  uint64_t submit_ns() const { return submit_ns_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  enum class Kind { kSet, kDel, kGet, kGetEventual, kScan };

  struct Op {
    abase::Future<abase::Reply> future;
    Kind kind = Kind::kGet;
    size_t group = 0;
    size_t key = 0;
    std::string value;  ///< Sets: the value written.
    uint64_t version = 0;
    uint32_t limit = 0;  ///< Scans.
  };

  struct Session {
    abase::Client client;
    abase::Rng rng;
    size_t index = 0;
    std::map<std::string, std::string> model;
    /// Highest version written (acked) per key, for eventual reads.
    std::map<std::string, uint64_t> acked_version;
    std::vector<bool> group_busy;
    std::vector<Op> inflight;
  };

  std::string KeyName(size_t session, size_t group, size_t key) const;
  std::string GroupPrefix(size_t session, size_t group) const;
  std::string ValueFor(const std::string& key, uint64_t version) const;

  void Submit(Session& s, Op op, abase::Command cmd);
  void IssueOne(Session& s);
  /// Applies (writes) or checks (reads) one resolved command.
  void Settle(Session& s, Op& op);
  void CheckScan(Session& s, const std::string& prefix, uint32_t limit,
                 const abase::Reply& reply);
  void Fail(const std::string& what);

  abase::Cluster* cluster_;
  SessionSpec spec_;
  Inject inject_;
  SpanLog* spans_;  ///< Null in untraced runs.
  bool injected_ = false;
  std::vector<Session> sessions_;
  uint64_t next_version_ = 1;
  uint64_t submitted_ = 0;
  uint64_t checked_gets_ = 0;
  uint64_t checked_scans_ = 0;
  uint64_t submit_ns_ = 0;
  std::vector<std::string> failures_;
};

}  // namespace perfbench
