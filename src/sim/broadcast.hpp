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
/// Three engines compute that relaxation, all to the same bytes:
///  - the reference engine walks `net::Topology` link lists through a
///    binary `std::priority_queue`, resolving δ per edge visit;
///  - the single-source CSR engine runs on a compiled `net::CsrTopology`
///    (pre-resolved δ, contiguous rows) with a 4-ary heap and caller-owned
///    reusable scratch buffers.
///  Both are kept as parity oracles and for single-shot callers. The round
///  loop and the metrics use the third:
///  - the settle-once bucket kernel (sim/parallel.hpp) over the same CSR,
///    run per source by the batched engine (sim/batch.hpp) or by a worker
///    team inside one source.
/// Their outputs are bit-identical — arrival is the exact minimum over
/// identical per-path sums, independent of relaxation order — and
/// `tests/sim_csr_parity_test.cpp` + `tests/sim_engine_diff_test.cpp`
/// enforce it byte for byte.
#pragma once

#include <utility>
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

/// Reusable per-worker arena for the single-source CSR engine: the heap and
/// settled buffers survive across calls, so a caller simulating many blocks
/// allocates them once. Not thread-safe; give each worker its own instance.
/// (The round loop and the multi-source eval run the relaxation kernel on
/// the batched engine's `MultiSourceScratch` arena instead — this one
/// serves the parity oracle and single-shot callers.)
struct BroadcastScratch {
  std::vector<std::pair<double, net::NodeId>> heap;  ///< 4-ary (arrival, node)
  std::vector<std::uint8_t> settled;                 ///< per-node visited flag
};

/// Reference engine over the mutable Topology (kept as the parity oracle).
BroadcastResult simulate_broadcast(const net::Topology& topology,
                                   const net::Network& network,
                                   net::NodeId miner);

/// CSR fast path: relaxation over pre-resolved δ arrays with a 4-ary heap.
/// Reuses `scratch` buffers and writes into `result` (vectors are resized as
/// needed), so a caller looping over miners performs no steady-state
/// allocation. Bit-identical to the reference engine.
void simulate_broadcast(const net::CsrTopology& csr, net::NodeId miner,
                        BroadcastScratch& scratch, BroadcastResult& result);

/// Convenience CSR overload allocating its own scratch and result.
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
