// Traced harness: runs every (cell, seed) job of a sweep grid through the
// same public calls `core::run_cell_curves` makes, timing each layer from
// the outside. No span or counter is added inside the library; the harness
// only brackets its calls into it:
//
//   scenario  build_scenario / clone_scenario, ChurnDriver::before_round
//   topo      build_initial_topology
//   net       RoundRunner::current_csr (refresh), CsrTopology::build
//   sim       run_round, split at the block hook and the first selector call
//   core      every NeighborSelector::on_round_end (timing decorator)
//   metrics   eval_all_sources[_egress], eval_ideal_multi
//
// Jobs run on a runner::ThreadPool of the same size as the untraced
// SweepRunner, with the same build-reuse groups, and produce the same raw
// λ vectors (the parity guard compares them byte for byte).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "runner/sweep.hpp"

namespace perfbench {

// Layer totals of one traced grid. Times are thread time summed over the
// jobs (so over workers), in ms unless the name says otherwise.
struct LayerTotals {
  unsigned workers = 0;
  double wall_s = 0;          // pool start to last job done
  double job_s_sum = 0;       // Σ job time
  double critical_job_s = 0;  // slowest job

  double build_ms = 0;        // build_scenario + clone_scenario
  double churn_ms = 0;        // ChurnDriver::before_round (+ hash refresh)
  double initial_ms = 0;      // build_initial_topology
  double csr_refresh_ms = 0;  // RoundRunner::current_csr, all calls
  double round_csr_ms = 0;    // ... of which inside rounds (pre-round hook)
  double csr_compile_ms = 0;  // CsrTopology::build (static cells)

  std::vector<double> round_ms;  // every round of every job
  double round_ms_sum = 0;
  double broadcast_ms = 0;  // hook end to first block hook: the batch
  double observe_ms = 0;    // first block hook to first selector call
  std::uint64_t blocks = 0;

  // Per adaptive algorithm (ucb, subset, vanilla): Σ time in
  // on_round_end and every call's duration in ns.
  double select_ms[3] = {0, 0, 0};
  std::vector<std::uint32_t> select_ns[3];
  double static_select_ms = 0;  // StaticSelector calls (churned baselines)
  std::uint64_t select_calls = 0;  // adaptive selector calls
  std::uint64_t mutations = 0;     // Topology::version() advance in them

  double eval_ms = 0;
  std::uint64_t eval_sources = 0;
  double ideal_ms = 0;
  std::uint64_t ideal_sources = 0;
};

struct TracedRun {
  std::vector<perigee::runner::SlotCurves> slots;  // sorted by (cell, seed)
  LayerTotals totals;
};

// Runs every job of `spec` on `workers` threads through the traced harness.
TracedRun run_traced(const perigee::runner::SweepSpec& spec,
                     unsigned workers);

// Jobs of `traced` whose λ or λ50 bytes differ from the job with the same
// (cell, seed) in `reference`, or that `reference` lacks.
std::size_t count_mismatches(
    const std::vector<perigee::runner::SlotCurves>& traced,
    const std::vector<perigee::runner::SlotCurves>& reference);

// The named per-layer metrics (BENCHMARK.json `per_layer`, except the
// trace overhead, which needs the untraced run) from the totals and the
// library's own counters scraped after the traced run.
std::vector<std::pair<std::string, double>> layer_metrics(
    const LayerTotals& totals, const perigee::obs::MetricsSnapshot& counters);

}  // namespace perfbench
