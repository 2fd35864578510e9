#include "workloads.hpp"

#include <algorithm>

namespace perfbench {
namespace {

using perigee::core::Algorithm;
using perigee::runner::SweepSpec;

// The paper's learning loop: selectors and observations dominate, and the
// UCB job (1000 single-block rounds) is the critical path.
SweepSpec learn() {
  SweepSpec spec;
  spec.name = "learn";
  spec.algorithms = {Algorithm::PerigeeUcb, Algorithm::PerigeeSubset,
                     Algorithm::PerigeeVanilla, Algorithm::Random};
  spec.nodes = {1000};
  spec.rounds = {10};
  spec.seeds = 2;
  return spec;
}

// Static topologies only: λ evaluation over the batched relaxation engine,
// no selector runs (the no-change control for selector work).
SweepSpec evaluate() {
  SweepSpec spec;
  spec.name = "evaluate";
  spec.algorithms = {Algorithm::Random, Algorithm::Geographic,
                     Algorithm::Kademlia};
  spec.nodes = {2000};
  spec.seeds = 4;
  return spec;
}

// The ideal bound alone: a dense O(n^3) full-mesh Dijkstra sharing no code
// with the sparse engines; in a mixed grid it would be the critical path.
SweepSpec bound() {
  SweepSpec spec;
  spec.name = "bound";
  spec.algorithms = {Algorithm::Ideal};
  spec.nodes = {1000};
  spec.seeds = 4;
  return spec;
}

// Write-heavy rounds under queued physics: churn patches the CSR every
// round and the egress DES replaces relaxation, on two capability tiers.
SweepSpec churn_queue() {
  SweepSpec spec;
  spec.name = "churn-queue";
  spec.algorithms = {Algorithm::PerigeeSubset, Algorithm::Random};
  spec.nodes = {500};
  spec.rounds = {20};
  spec.churn_rates = {0.05};
  spec.hetero_profiles = {perigee::scenario::HeteroProfile::Bandwidth};
  spec.transmission_models = {perigee::scenario::TransmissionModel::Queue};
  spec.seeds = 2;
  return spec;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"learn",
       "--algorithms perigee-ucb,perigee-subset,perigee-vanilla,random "
       "--nodes 1000 --rounds 10 --seeds 2",
       learn},
      {"evaluate",
       "--algorithms random,geographic,kademlia --nodes 2000 --seeds 4",
       evaluate},
      {"bound",
       "--algorithms ideal --nodes 1000 --seeds 4", bound},
      {"churn-queue",
       "--algorithms perigee-subset,random --nodes 500 --rounds 20 "
       "--churn 0.05 --hetero bandwidth --transmission queue --seeds 2",
       churn_queue},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

SweepSpec make_spec(const Workload& workload, std::uint64_t seed) {
  SweepSpec spec = workload.make();
  spec.base.seed = seed;
  return spec;
}

void shrink(SweepSpec& spec, std::size_t nodes, int rounds) {
  spec.nodes = {nodes};
  if (!spec.rounds.empty()) spec.rounds = {rounds};
}

InputSize input_size(const SweepSpec& spec) {
  InputSize size;
  const auto seeds = static_cast<std::size_t>(spec.seeds);
  for (const auto& cell : perigee::runner::expand_grid(spec)) {
    const auto& config = cell.config;
    const std::size_t n = config.net.n;
    size.nodes = std::max(size.nodes, n);
    size.jobs += seeds;
    if (config.algorithm == Algorithm::Ideal) {
      // One dense pass per source serves both coverages.
      size.lambda_sources += n * seeds;
      continue;
    }
    // Two batched passes (coverage and 50%) over every source.
    size.lambda_sources += 2 * n * seeds;
    const auto rounds = static_cast<std::size_t>(config.rounds);
    const auto per_round = static_cast<std::size_t>(config.blocks_per_round);
    if (perigee::core::is_adaptive(config.algorithm)) {
      // UCB runs rounds * |B| single-block rounds: the same block budget.
      size.blocks += rounds * per_round * seeds;
    } else if (config.scenario.churn.enabled()) {
      // Static baselines live through churn on one block per round.
      size.blocks += rounds * seeds;
    }
  }
  return size;
}

}  // namespace perfbench
