#include "sim/broadcast.hpp"

#include <cmath>
#include <queue>
#include <utility>

#include "sim/batch.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace perigee::sim {

double link_delay_ms(const net::Topology::Link& link, net::NodeId from,
                     const net::Network& network) {
  return link.is_infra() ? link.infra_ms
                         : network.edge_delay_ms(from, link.peer);
}

BroadcastResult simulate_broadcast(const net::Topology& topology,
                                   const net::Network& network,
                                   net::NodeId miner) {
  PERIGEE_ASSERT(topology.size() == network.size());
  PERIGEE_ASSERT(miner < network.size());
  const std::size_t n = network.size();

  BroadcastResult result;
  result.miner = miner;
  result.arrival.assign(n, util::kInf);
  result.ready.assign(n, util::kInf);
  result.arrival[miner] = 0.0;
  result.ready[miner] = 0.0;  // the miner does not validate its own block

  using Item = std::pair<double, net::NodeId>;  // (arrival, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
  queue.emplace(0.0, miner);
  std::vector<bool> settled(n, false);

  while (!queue.empty()) {
    const auto [t, u] = queue.top();
    queue.pop();
    if (settled[u]) continue;
    settled[u] = true;
    // A withholding node receives blocks but never relays them; its own
    // blocks still propagate (otherwise mining would be pointless).
    if (!network.profile(u).forwards && u != miner) continue;
    const double ready = result.ready[u];
    for (const auto& link : topology.adjacency(u)) {
      const net::NodeId v = link.peer;
      if (settled[v]) continue;
      const double cand = ready + link_delay_ms(link, u, network);
      if (cand < result.arrival[v]) {
        result.arrival[v] = cand;
        result.ready[v] = cand + network.validation_ms(v);
        queue.emplace(cand, v);
      }
    }
  }
  return result;
}

BroadcastResult simulate_broadcast(const net::CsrTopology& csr,
                                   net::NodeId miner) {
  MultiSourceScratch scratch;
  MultiSourceResult batch;
  simulate_broadcast_batch(csr, {&miner, 1}, scratch, batch);
  BroadcastResult result;
  batch.extract(0, result);
  return result;
}

double delivery_time(const BroadcastResult& result,
                     const net::Topology::Link& link_from_v, net::NodeId v,
                     const net::Network& network) {
  const net::NodeId u = link_from_v.peer;
  if (!network.profile(u).forwards && u != result.miner) return util::kInf;
  const double ready = result.ready[u];
  if (std::isinf(ready)) return util::kInf;
  // δ is symmetric, so the v-side link entry carries the right cost.
  return ready + link_delay_ms(link_from_v, v, network);
}

}  // namespace perigee::sim
