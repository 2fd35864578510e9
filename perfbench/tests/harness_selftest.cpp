// Self-test of the traced harness: on a smoke-sized copy of every workload
// (n = 100, every regime kept: UCB/subset/vanilla rounds, static cells,
// ideal bound, churn + queued egress + hetero bandwidth), the harness must
// reproduce the untraced SweepRunner's raw λ vectors byte for byte, the
// aggregated result JSON must match, and the parity check must notice a
// single flipped bit. Exits nonzero on the first failure.
#include <sched.h>

#include <algorithm>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "runner/sweep.hpp"
#include "workloads.hpp"

namespace {

using namespace perigee;

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

std::string result_json(const runner::SweepSpec& spec,
                        std::vector<runner::SlotCurves> slots) {
  std::ostringstream os;
  runner::write_json(os, spec, runner::aggregate_slots(spec, std::move(slots)));
  return os.str();
}

double metric(const std::vector<std::pair<std::string, double>>& metrics,
              const std::string& name) {
  for (const auto& [key, value] : metrics) {
    if (key == name) return value;
  }
  check(false, "metric " + name + " missing");
  return 0;
}

}  // namespace

int main() {
  cpu_set_t set;
  CPU_ZERO(&set);
  sched_getaffinity(0, sizeof(set), &set);
  const auto workers =
      static_cast<unsigned>(std::clamp(CPU_COUNT(&set), 1, 4));

  for (const perfbench::Workload& workload : perfbench::workloads()) {
    const std::string name = workload.name;
    runner::SweepSpec spec = perfbench::make_spec(workload, 7);
    perfbench::shrink(spec, 100, 3);

    const runner::SweepRunner sweep(static_cast<int>(workers));
    const std::vector<runner::SlotCurves> reference =
        sweep.run_slots(spec, runner::SweepOptions{});
    obs::Registry::instance().reset();
    perfbench::TracedRun traced = perfbench::run_traced(spec, workers);

    check(traced.slots.size() == reference.size(), name + ": job count");
    check(perfbench::count_mismatches(traced.slots, reference) == 0,
          name + ": traced λ bytes differ from SweepRunner");
    check(result_json(spec, traced.slots) == result_json(spec, reference),
          name + ": aggregated result JSON differs");

    std::vector<runner::SlotCurves> flipped = traced.slots;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &flipped.back().lambda.back(), sizeof(bits));
    bits ^= 1;
    std::memcpy(&flipped.back().lambda.back(), &bits, sizeof(bits));
    check(perfbench::count_mismatches(flipped, reference) == 1,
          name + ": a flipped λ bit went unnoticed");

    const auto metrics = perfbench::layer_metrics(
        traced.totals, obs::Registry::instance().scrape());
    for (const auto& [key, value] : metrics) {
      check(value >= 0, name + ": " + key + " is negative");
    }
    const perfbench::InputSize inputs = perfbench::input_size(spec);
    check(traced.totals.eval_sources + traced.totals.ideal_sources ==
              inputs.lambda_sources,
          name + ": evaluated sources disagree with the input size");
    check(traced.totals.blocks == inputs.blocks,
          name + ": simulated blocks disagree with the input size");
    check(metric(metrics, "sim.unattributed_frac") <= 1.0,
          name + ": unattributed share above 1");
    std::cout << name << ": " << traced.slots.size() << " jobs, "
              << metric(metrics, "sim.rounds") << " rounds, parity ok\n";
  }
  if (failures > 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "harness self-test passed\n";
  return 0;
}
