// The benchmark's own tests.
//
//  * Worker independence: a shortened run of every workload settles the
//    same counts and the same virtual metrics at 1 and 4 data-plane
//    workers (the simulator's determinism contract, seen end to end).
//  * Observation is free of side effects: a traced run is the same
//    simulation as an untraced one.
//  * The reference model has teeth: a deliberately wrong reply and a
//    dropped acked write each make the run report a failed check.
//
// Exit code 0 when every test passed.
#include <cinttypes>
#include <cstdio>
#include <string>

#include "bench.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "[ OK ]" : "[FAIL]", what.c_str());
  if (!ok) g_failures++;
}

perfbench::RunResult Short(const std::string& workload, int workers,
                           bool trace, perfbench::Inject inject) {
  perfbench::RunOptions o;
  o.workload = workload;
  o.seed = 7;
  o.workers = workers;
  o.window_ticks = 4;
  o.warmup_ticks = 2;
  o.trace = trace;
  o.components = false;
  o.inject = inject;
  return perfbench::RunWorkload(o, perfbench::SteadyClock::now());
}

bool SameSimulation(const perfbench::RunResult& a,
                    const perfbench::RunResult& b) {
  return a.digest == b.digest && a.attempted == b.attempted &&
         a.failed == b.failed && a.settled_ok == b.settled_ok &&
         a.virtual_p50_us == b.virtual_p50_us &&
         a.virtual_p99_us == b.virtual_p99_us;
}

}  // namespace

int main() {
  using perfbench::Inject;
  for (const std::string& w : perfbench::WorkloadNames()) {
    perfbench::RunResult one = Short(w, 1, false, Inject::kNone);
    perfbench::RunResult four = Short(w, 4, false, Inject::kNone);
    Expect(one.correct && four.correct, w + ": every output check passes");
    Expect(one.failed == 0 && one.attempted > 0,
           w + ": operations attempted, none failed");
    Expect(SameSimulation(one, four),
           w + ": same counts and virtual metrics at 1 and 4 workers");
    std::printf("       attempted=%" PRIu64 " ok=%" PRIu64
                " p50=%.3fus p99=%.3fus digest=%016" PRIx64 "/%016" PRIx64
                "\n",
                one.attempted, one.settled_ok, one.virtual_p50_us,
                one.virtual_p99_us, one.digest, four.digest);
  }

  perfbench::RunResult plain = Short("scan_split", 0, false, Inject::kNone);
  perfbench::RunResult traced = Short("scan_split", 0, true, Inject::kNone);
  Expect(SameSimulation(plain, traced),
         "scan_split: tracing does not change the simulation");
  Expect(!traced.layer.empty(), "scan_split: traced run emits layer metrics");

  perfbench::RunResult wrong =
      Short("kv_uncached", 0, false, Inject::kWrongReply);
  Expect(!wrong.correct, "a wrong kPrimary Get reply fails the model check");
  perfbench::RunResult dropped =
      Short("scan_split", 0, false, Inject::kDroppedWrite);
  Expect(!dropped.correct, "a dropped acked write fails the model check");

  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
