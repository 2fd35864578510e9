/// \file
/// \brief Fast per-block broadcast engine (paper §2.1 dynamics).
///
/// When a node u mines or finishes validating a block it immediately starts
/// relaying to every adjacent node v, the copy arriving after δ(u,v). Arrival
/// times therefore satisfy
///   arrival(v)  = min over adjacent u of ready(u) + δ(u,v)
///   ready(u)    = arrival(u) + Δu          (the miner skips validation)
/// which a Dijkstra-style relaxation computes exactly in O(E log V).
///
/// Two engines compute that relaxation, to the same bytes:
///  - the reference engine walks `net::Topology` link lists through a
///    binary `std::priority_queue`, resolving δ per edge visit; it is the
///    parity oracle every engine test compares against;
///  - the settle-once bucket kernel (sim/parallel.hpp) over a compiled
///    `net::CsrTopology`, run once per source on one scratch lane by the
///    batched engine (sim/batch.hpp), which fans a batch's sources across
///    the pool. The round loop, the metrics and the single-shot CSR
///    overload below all run it.
/// Their outputs are bit-identical — arrival is the exact minimum over
/// identical per-path sums, independent of relaxation order — and
/// `tests/sim_csr_parity_test.cpp` + `tests/sim_engine_diff_test.cpp`
/// enforce it byte for byte.
#pragma once

#include <vector>

#include "net/csr.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"

namespace perigee::sim {

/// Outcome of one block broadcast.
struct BroadcastResult {
  net::NodeId miner = net::kInvalidNode;  ///< the mining node
  /// Time (ms after mining) each node first holds the block; +inf if
  /// unreachable; arrival[miner] == 0.
  std::vector<double> arrival;
  /// Time each node starts relaying: arrival + validation (miner: 0).
  std::vector<double> ready;
};

/// Reference engine over the mutable Topology (kept as the parity oracle).
BroadcastResult simulate_broadcast(const net::Topology& topology,
                                   const net::Network& network,
                                   net::NodeId miner);

/// Single-shot CSR broadcast: a one-source `simulate_broadcast_batch`
/// copied out into the single-source result shape. Allocates its own
/// scratch; loops over many sources should batch them instead.
BroadcastResult simulate_broadcast(const net::CsrTopology& csr,
                                   net::NodeId miner);

/// δ used by the engine for a specific adjacency link (infra override or the
/// network's edge delay). Exposed so observation collection and tests use the
/// exact same edge costs; `net::CsrTopology::build` resolves the same value
/// into its delay array.
double link_delay_ms(const net::Topology::Link& link, net::NodeId from,
                     const net::Network& network);

/// Time at which u's copy of the block reaches v (u adjacent to v):
/// ready[u] + δ(u,v); +inf if u never got the block.
double delivery_time(const BroadcastResult& result,
                     const net::Topology::Link& link_from_v,
                     net::NodeId v, const net::Network& network);

}  // namespace perigee::sim
