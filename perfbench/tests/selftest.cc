// The benchmark's own tests. Run after building:
//   .bench_build/perfbench/perfbench_selftest
// Exits nonzero on the first failed check.
//
// Soak equivalence: for the same seed and options, the benchmark's
// open-loop delivery run must reproduce soak::SoakHarness::Run() — the
// same events logged, the same chaos schedule and the same delivery-audit
// snapshot — so the soak workload measures the harness's run, event for
// event.

#include <cstdio>
#include <string>
#include <vector>

#include "delivery.h"
#include "ledger.h"
#include "soak/harness.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void SoakEquivalence(uint64_t seed, bool traced) {
  unilog::soak::SoakOptions options;
  options.seed = seed;
  options.hours = 3;
  options.daemons_per_dc = 30;
  options.users_per_hour = 4000;

  auto harness = unilog::soak::SoakHarness(options).Run();
  Expect(harness.ok(), "harness run, seed " + std::to_string(seed));
  if (!harness.ok()) return;

  perfbench::Ledger ledger(traced);
  perfbench::DeliveryConfig config;
  config.soak = options;
  config.chaos = true;
  perfbench::DeliveryRun run(config, &ledger);
  Expect(run.Setup().ok() && run.Run().ok(), "benchmark delivery run");
  perfbench::DeliveryOutcome out = run.Verify();
  const std::string tag = " (seed " + std::to_string(seed) +
                          (traced ? ", traced)" : ", untraced)");
  Expect(out.events_logged == harness->events_logged,
         "events_logged " + std::to_string(out.events_logged) + " == " +
             std::to_string(harness->events_logged) + tag);
  Expect(out.chaos_events == harness->chaos_events,
         "chaos_events " + std::to_string(out.chaos_events) + " == " +
             std::to_string(harness->chaos_events) + tag);
  Expect(out.audit.ToString() == harness->audit.ToString(),
         "delivery snapshot matches" + tag + "\n  benchmark: " +
             out.audit.ToString() + "\n  harness:   " +
             harness->audit.ToString());
  // The read-back must miss exactly the events the audit counts as lost
  // (quarantined parts would hide more; the seeds used have none).
  Expect(harness->parts_quarantined == 0, "no quarantined parts" + tag);
  const uint64_t lost = perfbench::LostEvents(harness->audit);
  Expect(out.failed_events == lost,
         "events not landed " + std::to_string(out.failed_events) +
             " == audit losses " + std::to_string(lost) + tag);
}

void Quantiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Expect(perfbench::Quantile(v, 0.5) == 50, "p50 of 1..100 is 50");
  Expect(perfbench::Quantile(v, 0.99) == 99, "p99 of 1..100 is 99");
  Expect(perfbench::Quantile({7}, 0.99) == 7, "quantile of one sample");
  Expect(perfbench::Quantile({}, 0.5) == 0, "quantile of no samples");
}

}  // namespace

int main() {
  Quantiles();
  SoakEquivalence(1, /*traced=*/false);  // aggregator-crash losses
  SoakEquivalence(7, /*traced=*/true);
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
