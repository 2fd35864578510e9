#include "sim/rounds.hpp"

#include <numeric>

#include "obs/trace.hpp"
#include "sim/broadcast.hpp"
#include "sim/gossip.hpp"
#include "util/assert.hpp"

namespace perigee::sim {

RoundRunner::RoundRunner(const net::Network& network, net::Topology& topology,
                         std::vector<std::unique_ptr<NeighborSelector>> selectors,
                         int blocks_per_round, std::uint64_t seed,
                         Engine engine)
    : network_(&network),
      topology_(&topology),
      selectors_(std::move(selectors)),
      blocks_per_round_(blocks_per_round),
      engine_(engine),
      sampler_(mining::AliasSampler::from_hash_power(network)),
      miner_rng_(util::Rng(seed).split(0xB10C)),
      update_rng_(util::Rng(seed).split(0x5E1E)) {
  PERIGEE_ASSERT(topology_->size() == network_->size());
  PERIGEE_ASSERT(selectors_.size() == network_->size());
  PERIGEE_ASSERT(blocks_per_round_ > 0);
  for (const auto& s : selectors_) PERIGEE_ASSERT(s != nullptr);
}

void RoundRunner::refresh_hash_power() {
  sampler_ = mining::AliasSampler::from_hash_power(*network_);
}

void RoundRunner::run_round() {
  PERIGEE_TRACE_SPAN_ARGS(round_span, "round",
                          obs::TraceArgs()
                              .arg("round", rounds_run_)
                              .arg("blocks", blocks_per_round_)
                              .json());
  // Scenario mutations (churn joins/leaves) land before the observation
  // capture and the CSR compile, so the whole round sees the mutated graph.
  if (pre_round_hook_) pre_round_hook_(rounds_run_);
  obs_.begin_round(*topology_, static_cast<std::size_t>(blocks_per_round_));
  // One flat-graph refresh for the whole round: the topology only mutates in
  // the update phase below, so the cache replays last round's mutation
  // journal onto the standing snapshot (a full recompile only on mass churn
  // or journal truncation) and is free when nothing rewired at all.
  const net::CsrTopology& csr = csr_cache_.get(*topology_, *network_);
  if (engine_ == Engine::Fast) {
    // Miner sampling is independent of the block simulations, so the whole
    // round's miners are drawn up front (same draw sequence as the old
    // per-block loop) and dispatched as one multi-source batch. Hooks and
    // observation recording then replay the stripes in block order, which
    // keeps every downstream byte identical at any worker count.
    miners_.resize(static_cast<std::size_t>(blocks_per_round_));
    for (auto& miner : miners_) {
      miner = static_cast<net::NodeId>(sampler_.sample(miner_rng_));
    }
    if (egress_config_.has_value()) {
      // Queued-transmission regime: the egress engine replaces the
      // delay-only relaxation outright (it owns serialization + queue
      // wait). Stripe layout is identical, so hooks and observation
      // recording are untouched.
      const EgressPlan& plan =
          egress_plans_.get(*network_, *egress_config_);
      simulate_broadcast_egress_batch(csr, *egress_config_, plan, miners_,
                                      egress_scratch_, batch_result_, pool_);
    } else {
      simulate_broadcast_batch(csr, miners_, batch_scratch_, batch_result_,
                               pool_);
    }
    for (std::size_t b = 0; b < miners_.size(); ++b) {
      if (block_hook_) {
        batch_result_.extract(b, block_result_);
        block_hook_(block_result_);
      }
      obs_.record_block(csr, miners_[b], batch_result_.ready_of(b));
    }
  } else {
    for (int b = 0; b < blocks_per_round_; ++b) {
      const auto miner = static_cast<net::NodeId>(sampler_.sample(miner_rng_));
      GossipConfig config;
      config.mode = GossipConfig::Mode::InvGetdata;
      config.record_edge_times = true;
      const GossipResult result = simulate_gossip(csr, miner, config);
      if (block_hook_) {
        // Present the gossip outcome through the fast engine's result shape
        // so hooks (convergence tracking, tests) work with either engine.
        BroadcastResult shim;
        shim.miner = miner;
        shim.arrival = result.arrival;
        shim.ready = result.arrival;
        for (net::NodeId v = 0; v < network_->size(); ++v) {
          if (v != miner && std::isfinite(shim.ready[v])) {
            shim.ready[v] += network_->validation_ms(v);
          }
        }
        block_hook_(shim);
      }
      obs_.record_gossip_block(result);
    }
  }

  std::vector<net::NodeId> order(topology_->size());
  std::iota(order.begin(), order.end(), 0);
  update_rng_.shuffle(order);

  RoundContext ctx{obs_,        *topology_,  *network_,
                   update_rng_, rounds_run_, addrman_};
  for (net::NodeId v : order) {
    selectors_[v]->on_round_end(v, ctx);
  }
  if (addrman_ != nullptr) {
    addrman_->gossip_round(*topology_, update_rng_);
  }
  ++rounds_run_;
}

void RoundRunner::run_rounds(int count) {
  for (int i = 0; i < count; ++i) run_round();
}

}  // namespace perigee::sim
