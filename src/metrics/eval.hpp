/// \file
/// \brief The paper's performance metric (§2.2): λv is the minimum time for a
/// block mined and broadcast by v to reach nodes totalling at least a target
/// fraction (default 90%) of the network's hash power.
#pragma once

#include <vector>

#include "net/csr.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/broadcast.hpp"

namespace perigee::runner {
class ThreadPool;
}  // namespace perigee::runner

namespace perigee::sim {
class EgressPlan;
class EgressScratch;
class MultiSourceScratch;
struct EgressConfig;
}  // namespace perigee::sim

namespace perigee::metrics {

/// λ for one broadcast: sorts nodes by arrival and accumulates hash power
/// (the miner's own power counts at time 0) until `coverage` of the total is
/// reached; +inf if the reachable set never covers it.
double lambda_for_broadcast(const sim::BroadcastResult& result,
                            const net::Network& network, double coverage);

/// λv for every source v (unsorted, index == NodeId), one vector per entry
/// of `coverages` in input order. Each source is relaxed once on the batched
/// multi-source engine (sim/batch.hpp) over the caller's snapshot of
/// `network`, its arrivals sorted once, and every coverage read from them.
/// `scratch` (optional) reuses the caller's engine arena; `pool` (optional)
/// fans sources across workers — output is byte-identical at any count.
std::vector<std::vector<double>> eval_all_sources_multi(
    const net::CsrTopology& csr, const net::Network& network,
    const std::vector<double>& coverages,
    sim::MultiSourceScratch* scratch = nullptr,
    runner::ThreadPool* pool = nullptr);

/// The same evaluation on the queued egress engine (sim/egress.hpp), so λ
/// reflects serialization + queue wait; with `config.unlimited_rate` it is
/// byte-identical to the delay-only form. `plan` must be built from
/// `network`'s current profiles (`sim::EgressPlanCache`).
std::vector<std::vector<double>> eval_all_sources_egress_multi(
    const net::CsrTopology& csr, const net::Network& network,
    const sim::EgressConfig& config, const sim::EgressPlan& plan,
    const std::vector<double>& coverages,
    sim::EgressScratch* scratch = nullptr,
    runner::ThreadPool* pool = nullptr);

/// Single-coverage forms of the two above (one-element coverage list).
std::vector<double> eval_all_sources(
    const net::CsrTopology& csr, const net::Network& network,
    double coverage = 0.90, sim::MultiSourceScratch* scratch = nullptr,
    runner::ThreadPool* pool = nullptr);
std::vector<double> eval_all_sources_egress(
    const net::CsrTopology& csr, const net::Network& network,
    const sim::EgressConfig& config, const sim::EgressPlan& plan,
    double coverage = 0.90, sim::EgressScratch* scratch = nullptr,
    runner::ThreadPool* pool = nullptr);

/// Standalone convenience: compiles `topology` into a `net::CsrTopology`
/// and evaluates one coverage on the delay-only engine.
std::vector<double> eval_all_sources(const net::Topology& topology,
                                     const net::Network& network,
                                     double coverage = 0.90);

/// λv on the fully-connected topology ("ideal" in Figure 3), computed as a
/// dense per-source Dijkstra without materializing an O(n^2) Topology. When
/// `infra` is given, its infrastructure links (e.g. the §5.4 relay tree) are
/// overlaid on the complete graph so the bound stays a true lower bound for
/// scenarios where the overlay exists.
std::vector<double> eval_ideal(const net::Network& network,
                               double coverage = 0.90,
                               const net::Topology* infra = nullptr);

/// Same bound evaluated at several coverages from a single Dijkstra pass and
/// a single sort per source (the pass dominates; extra coverages are nearly
/// free). Returns one λ vector per coverage, in input order. The pass keeps
/// the unsettled nodes in a packed list in ascending id order, with their
/// tentative arrival and ready times beside the ids; each settle is one
/// streaming loop over it that relaxes over the settler's δ row (unless the
/// settler withholds and is not the source), compacts the settler out and
/// picks the next one (earliest arrival, lowest id on ties). Byte-identical
/// to the two-scan dense Dijkstra kept as the oracle in
/// tests/metrics_eval_test.cpp.
std::vector<std::vector<double>> eval_ideal_multi(
    const net::Network& network, const std::vector<double>& coverages,
    const net::Topology* infra = nullptr);

}  // namespace perigee::metrics
