// abase_perfbench: runs one workload and prints one JSON object on its
// last line of standard output. Usually driven through run.py.
//
//   abase_perfbench --workload kv_uncached --seed 1 --seconds 10 --trace 0
//       [--perfetto PATH] [--spans PATH]
//
// Exit code 0 when every output check passed, 1 when one failed, 2 on a
// usage error.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  std::putchar('"');
}

void PrintMetric(bool* first, const std::string& name, double value,
                 const std::string& unit) {
  std::printf("%s", *first ? "" : ",");
  *first = false;
  PrintJsonString(name);
  std::printf(":{\"value\":%.17g,\"unit\":", value);
  PrintJsonString(unit);
  std::printf("}");
}

int Usage(const char* why) {
  std::fprintf(stderr, "abase_perfbench: %s\n", why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = perfbench::SteadyClock::now();
  perfbench::RunOptions o;
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    std::string v = argv[++i];
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = v == "1";
    } else if (arg == "--perfetto") {
      o.perfetto_path = v;
    } else if (arg == "--spans") {
      o.spans_path = v;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  perfbench::Spec spec;
  if (!perfbench::MakeSpec(o.workload, &spec)) {
    return Usage(("unknown workload '" + o.workload + "'").c_str());
  }
  if (!(o.seconds > 0)) return Usage("--seconds must be positive");

  perfbench::RunResult r = perfbench::RunWorkload(o, process_start);
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("{\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"settled_ok\":%" PRIu64 ",\"latency_samples\":%" PRIu64
              ",\"digest\":\"%016" PRIx64 "\",\"first_window_tick\":%zu"
              ",\"window_ticks\":%zu,\"workers\":%d,\"failures\":[",
              r.correct ? "true" : "false", r.attempted, r.failed,
              r.settled_ok, r.latency_samples, r.digest, r.first_window_tick,
              r.window_ticks, r.workers);
  for (size_t i = 0; i < r.failures.size(); i++) {
    if (i > 0) std::putchar(',');
    PrintJsonString(r.failures[i]);
  }
  std::printf("],\"metrics\":{");
  bool first = true;
  PrintMetric(&first, "setup_s", r.setup_s, "s");
  PrintMetric(&first, "ops_per_s", r.ops_per_s, "ops/s");
  PrintMetric(&first, "virtual_p50_us", r.virtual_p50_us, "us");
  PrintMetric(&first, "virtual_p99_us", r.virtual_p99_us, "us");
  PrintMetric(&first, "peak_rss_mb", r.peak_rss_mb, "MB");
  PrintMetric(&first, "window_s", r.window_s, "s");
  for (const perfbench::Metric& m : r.layer) {
    PrintMetric(&first, m.name, m.value, m.unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
