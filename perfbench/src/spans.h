// In-memory spans around the public calls the benchmark makes (traced
// runs): name, start, end and the enclosing span, written out at the end
// as Chrome-trace JSON (loads in ui.perfetto.dev).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/// The span recorder. Not thread-safe: the benchmark calls the cluster
/// from one thread.
class SpanLog {
 public:
  explicit SpanLog(SteadyClock::time_point t0) : t0_(t0) {}

  /// Opens a span; it is the parent of spans opened before it closes.
  void Open(const char* name) {
    long parent = open_.empty() ? -1 : static_cast<long>(open_.back());
    spans_.push_back(Span{name, Now(), 0, parent});
    open_.push_back(spans_.size() - 1);
  }
  void Close() {
    spans_[open_.back()].end_ns = Now();
    open_.pop_back();
  }

  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%ld}}",
                   i == 0 ? "" : ",", s.name, s.start_ns / 1e3,
                   (s.end_ns - s.start_ns) / 1e3, i, s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    long parent;
  };
  uint64_t Now() const { return NanosBetween(t0_, SteadyClock::now()); }

  SteadyClock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Span guard that is a no-op when the log is null (untraced runs).
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name) : log_(log) {
    if (log_ != nullptr) log_->Open(name);
  }
  ~Scoped() {
    if (log_ != nullptr) log_->Close();
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
};

}  // namespace perfbench
