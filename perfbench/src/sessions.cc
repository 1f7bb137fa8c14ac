#include "sessions.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/keyspace.h"

namespace perfbench {

using abase::Command;
using abase::Reply;

namespace {
constexpr size_t kMaxFailures = 16;  ///< Failure messages kept.
constexpr double kSetShare = 0.3;
constexpr double kDelShare = 0.05;
/// Below kKeysPerGroup, so limits cut some scans; the other half of the
/// scans use a limit that covers the whole group.
constexpr uint32_t kScanLimit = 12;
}  // namespace

SessionFleet::SessionFleet(abase::Cluster* cluster,
                           const std::vector<abase::TenantId>& tenants,
                           const SessionSpec& spec, uint64_t seed,
                           Inject inject, SpanLog* spans)
    : cluster_(cluster), spec_(spec), inject_(inject), spans_(spans) {
  sessions_.reserve(kSessions);
  for (size_t i = 0; i < kSessions; i++) {
    sessions_.push_back(Session{cluster->OpenClient(tenants[i % tenants.size()]),
                                abase::Rng(seed * 7919 + i * 104729 + 1), i,
                                {}, {}, std::vector<bool>(kGroups, false),
                                {}});
  }
}

std::string SessionFleet::KeyName(size_t session, size_t group,
                                  size_t key) const {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "m%03zu:g%03zu:k%03zu", session, group,
                key);
  return buf;
}

std::string SessionFleet::GroupPrefix(size_t session, size_t group) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "m%03zu:g%03zu:", session, group);
  return buf;
}

std::string SessionFleet::ValueFor(const std::string& key,
                                   uint64_t version) const {
  std::string v = key + "#" + std::to_string(version) + "#";
  if (v.size() < kValueBytes) v.resize(kValueBytes, 'x');
  return v;
}

void SessionFleet::Fail(const std::string& what) {
  if (failures_.size() < kMaxFailures) failures_.push_back(what);
}

size_t SessionFleet::InFlight() const {
  size_t n = 0;
  for (const Session& s : sessions_) n += s.inflight.size();
  return n;
}

void SessionFleet::Submit(Session& s, Op op, Command cmd) {
  auto t0 = SteadyClock::now();
  {
    Scoped span(spans_, "Client::Submit");
    op.future = s.client.Submit(std::move(cmd));
  }
  submit_ns_ += NanosBetween(t0, SteadyClock::now());
  submitted_++;
  s.group_busy[op.group] = true;
  s.inflight.push_back(std::move(op));
}

void SessionFleet::Load() {
  for (Session& s : sessions_) {
    std::vector<Command> cmds;
    std::vector<Op> ops;
    for (size_t g = 0; g < kGroups; g++) {
      for (size_t k = 0; k < kKeysPerGroup; k++) {
        Op op;
        op.kind = Kind::kSet;
        op.group = g;
        op.key = k;
        op.version = next_version_++;
        std::string key = KeyName(s.index, g, k);
        op.value = ValueFor(key, op.version);
        cmds.push_back(Command::Set(std::move(key), op.value));
        ops.push_back(std::move(op));
      }
    }
    auto t0 = SteadyClock::now();
    std::vector<abase::Future<Reply>> futures;
    {
      Scoped span(spans_, "Client::SubmitBatch");
      futures = s.client.SubmitBatch(std::move(cmds));
    }
    submit_ns_ += NanosBetween(t0, SteadyClock::now());
    submitted_ += futures.size();
    for (size_t i = 0; i < ops.size(); i++) {
      ops[i].future = std::move(futures[i]);
      s.inflight.push_back(std::move(ops[i]));
    }
  }
  cluster_->Drain();
  Pump(false);
  if (InFlight() != 0) Fail("session load did not settle");
}

void SessionFleet::IssueOne(Session& s) {
  // A free group: at most one command per group is ever in flight.
  size_t group = s.rng.NextUint64(kGroups);
  for (size_t tries = 0; s.group_busy[group]; tries++) {
    if (tries == kGroups) return;
    group = (group + 1) % kGroups;
  }
  Op op;
  op.group = group;
  op.key = s.rng.NextUint64(kKeysPerGroup);
  std::string key = KeyName(s.index, group, op.key);
  double u = s.rng.NextDouble();
  if (u < spec_.scan_share) {
    op.kind = Kind::kScan;
    // Alternate a limit that cuts the group with one that covers it.
    uint32_t limit = s.rng.NextBool(0.5)
                         ? kScanLimit
                         : static_cast<uint32_t>(kKeysPerGroup + 1);
    op.limit = limit;
    Submit(s, std::move(op),
           Command::ScanPrefix(GroupPrefix(s.index, group), limit));
  } else if ((u -= spec_.scan_share) < kSetShare) {
    op.kind = Kind::kSet;
    op.version = next_version_++;
    op.value = ValueFor(key, op.version);
    std::string value = op.value;
    Submit(s, std::move(op), Command::Set(std::move(key), std::move(value)));
  } else if ((u -= kSetShare) < kDelShare) {
    op.kind = Kind::kDel;
    Submit(s, std::move(op), Command::Del(std::move(key)));
  } else if ((u -= kDelShare) < spec_.eventual_share) {
    op.kind = Kind::kGetEventual;
    Submit(s, std::move(op), Command::GetEventual(std::move(key)));
  } else {
    op.kind = Kind::kGet;
    Submit(s, std::move(op), Command::Get(std::move(key)));
  }
}

void SessionFleet::Pump(bool refill) {
  for (Session& s : sessions_) {
    for (size_t i = 0; i < s.inflight.size();) {
      if (!s.inflight[i].future.ready()) {
        i++;
        continue;
      }
      Op op = std::move(s.inflight[i]);
      s.inflight[i] = std::move(s.inflight.back());
      s.inflight.pop_back();
      s.group_busy[op.group] = false;
      Settle(s, op);
    }
    if (refill) {
      while (s.inflight.size() < kDepth) {
        size_t before = s.inflight.size();
        IssueOne(s);
        if (s.inflight.size() == before) break;
      }
    }
  }
}

void SessionFleet::Settle(Session& s, Op& op) {
  const Reply& reply = op.future.value();
  const std::string key = KeyName(s.index, op.group, op.key);
  switch (op.kind) {
    case Kind::kSet:
      if (!reply.ok()) {
        Fail("Set " + key + " failed: " + reply.status.ToString());
        return;
      }
      if (inject_ == Inject::kDroppedWrite && !injected_) {
        injected_ = true;  // The model "forgets" this acked write.
        return;
      }
      s.model[key] = op.value;
      s.acked_version[key] = op.version;
      return;
    case Kind::kDel:
      if (!reply.ok() && !reply.status.IsNotFound()) {
        Fail("Del " + key + " failed: " + reply.status.ToString());
        return;
      }
      s.model.erase(key);
      return;
    case Kind::kGet: {
      checked_gets_++;
      std::string got = reply.value;
      if (inject_ == Inject::kWrongReply && !injected_ && reply.ok()) {
        injected_ = true;
        got += "!";
      }
      auto it = s.model.find(key);
      if (reply.status.IsNotFound()) {
        if (it != s.model.end()) Fail("Get " + key + ": NotFound, model has it");
      } else if (!reply.ok()) {
        Fail("Get " + key + " failed: " + reply.status.ToString());
      } else if (it == s.model.end()) {
        Fail("Get " + key + ": value for a key the model deleted");
      } else if (got != it->second) {
        Fail("Get " + key + ": reply differs from the model");
      }
      return;
    }
    case Kind::kGetEventual: {
      checked_gets_++;
      if (reply.status.IsNotFound()) return;
      if (!reply.ok()) {
        Fail("eventual Get " + key + " failed: " + reply.status.ToString());
        return;
      }
      // Bounded staleness: some version once acked for this key.
      const std::string head = key + "#";
      auto vit = s.acked_version.find(key);
      uint64_t version = 0;
      bool parsed = reply.value.compare(0, head.size(), head) == 0;
      if (parsed) {
        version = std::strtoull(reply.value.c_str() + head.size(), nullptr, 10);
      }
      if (!parsed || vit == s.acked_version.end() || version == 0 ||
          version > vit->second) {
        Fail("eventual Get " + key + ": value never acked for this key");
      }
      return;
    }
    case Kind::kScan:
      CheckScan(s, GroupPrefix(s.index, op.group), op.limit, reply);
      return;
  }
}

void SessionFleet::CheckScan(Session& s, const std::string& prefix,
                             uint32_t limit, const Reply& reply) {
  checked_scans_++;
  if (!reply.ok()) {
    Fail("ScanPrefix " + prefix + " failed: " + reply.status.ToString());
    return;
  }
  auto entries = reply.ScanEntries();
  if (entries.size() > limit) {
    Fail("ScanPrefix " + prefix + ": more entries than its limit");
    return;
  }
  for (size_t i = 1; i < entries.size(); i++) {
    if (!(entries[i - 1].first < entries[i].first)) {
      Fail("ScanPrefix " + prefix + ": keys not strictly ascending");
      return;
    }
  }
  const std::string end = abase::PrefixUpperBound(prefix);
  auto it = s.model.lower_bound(prefix);
  size_t i = 0;
  for (; it != s.model.end() && it->first < end && i < limit; ++it, ++i) {
    if (i >= entries.size() || entries[i].first != it->first ||
        entries[i].second != it->second) {
      Fail("ScanPrefix " + prefix + ": differs from the model at entry " +
           std::to_string(i));
      return;
    }
  }
  if (i != entries.size()) {
    Fail("ScanPrefix " + prefix + ": entries the model does not have");
  }
}

void SessionFleet::FinalSweep() {
  for (Session& s : sessions_) {
    std::vector<Command> cmds;
    std::vector<Op> ops;
    for (size_t g = 0; g < kGroups; g++) {
      for (size_t k = 0; k < kKeysPerGroup; k++) {
        Op op;
        op.kind = Kind::kGet;
        op.group = g;
        op.key = k;
        cmds.push_back(Command::Get(KeyName(s.index, g, k)));
        ops.push_back(std::move(op));
      }
      Op scan;
      scan.kind = Kind::kScan;
      scan.group = g;
      scan.limit = static_cast<uint32_t>(kKeysPerGroup + 1);
      cmds.push_back(Command::ScanPrefix(GroupPrefix(s.index, g), scan.limit));
      ops.push_back(std::move(scan));
    }
    std::vector<abase::Future<Reply>> futures;
    {
      Scoped span(spans_, "Client::SubmitBatch");
      futures = s.client.SubmitBatch(std::move(cmds));
    }
    submitted_ += futures.size();
    for (size_t i = 0; i < ops.size(); i++) {
      ops[i].future = std::move(futures[i]);
      s.inflight.push_back(std::move(ops[i]));
    }
  }
  cluster_->Drain();
  for (Session& s : sessions_) {
    for (Op& op : s.inflight) {
      if (!op.future.ready()) {
        Fail("final sweep command did not settle");
        continue;
      }
      Settle(s, op);
    }
    s.inflight.clear();
    for (size_t g = 0; g < kGroups; g++) s.group_busy[g] = false;
  }
}

}  // namespace perfbench
