#include "metrics/eval.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "runner/thread_pool.hpp"
#include "sim/batch.hpp"
#include "sim/egress.hpp"
#include "util/radix.hpp"

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace perigee::metrics {
namespace {

// Accumulation over pairs already sorted ascending by (arrival, power):
// the earliest time at which cumulative power reaches
// coverage * total_power.
double coverage_time_sorted(
    const std::vector<std::pair<double, double>>& by_arrival,
    double total_power, double coverage) {
  PERIGEE_ASSERT(coverage > 0.0 && coverage <= 1.0);
  const double target = coverage * total_power;
  double acc = 0;
  for (const auto& [t, power] : by_arrival) {
    if (std::isinf(t)) break;  // unreachable tail
    acc += power;
    // Tolerate fp round-off in normalized hash powers.
    if (acc >= target - 1e-12) return t;
  }
  return util::kInf;
}

// Hash powers in NodeId order and their sum, accumulated in that order
// exactly as lambda_for_broadcast does.
struct Powers {
  std::vector<double> of;
  double total = 0;
};

Powers hash_powers(const net::Network& network) {
  Powers powers;
  powers.of.resize(network.size());
  for (net::NodeId v = 0; v < network.size(); ++v) {
    powers.of[v] = network.profile(v).hash_power;
    powers.total += powers.of[v];
  }
  return powers;
}

// The one λ reader of all three evaluators: sorts source `s`'s
// (arrival, power) pairs once in `by_arrival` and reads every coverage from
// them into lambda[k][s]. Radix replaces std::sort but yields the identical
// sequence, so λ stays bit-equal to lambda_for_broadcast on the same
// arrival set.
void read_lambda(std::span<const double> arrival, const Powers& powers,
                 const std::vector<double>& coverages,
                 std::vector<std::pair<double, double>>& by_arrival,
                 std::vector<std::pair<double, double>>& sort_scratch,
                 std::vector<std::vector<double>>& lambda, std::size_t s) {
  const std::size_t n = arrival.size();
  by_arrival.resize(n);
  const double* arr = arrival.data();
  const double* pow = powers.of.data();
  for (std::size_t v = 0; v < n; ++v) {
    by_arrival[v] = {arr[v], pow[v]};
  }
  util::radix_sort_arrival_pairs(by_arrival, sort_scratch);
  for (std::size_t k = 0; k < coverages.size(); ++k) {
    lambda[k][s] =
        coverage_time_sorted(by_arrival, powers.total, coverages[k]);
  }
}

// The one λ body of both sparse engines. Hash powers are batch constants,
// extracted once. `run_engine(arena, sources, sink)` relaxes each source
// once on its engine; the sink reads every coverage through read_lambda in
// its lane's buffers.
template <typename Scratch, typename RunEngine>
std::vector<std::vector<double>> eval_sources(
    const net::CsrTopology& csr, const net::Network& network,
    const std::vector<double>& coverages, Scratch* scratch,
    const RunEngine& run_engine) {
  PERIGEE_ASSERT(csr.size() == network.size());
  PERIGEE_ASSERT(!coverages.empty());
  Scratch local_scratch;
  Scratch& arena = scratch != nullptr ? *scratch : local_scratch;
  const std::size_t n = network.size();
  const Powers powers = hash_powers(network);
  std::vector<net::NodeId> sources(n);
  std::iota(sources.begin(), sources.end(), net::NodeId{0});

  std::vector<std::vector<double>> lambda(coverages.size(),
                                          std::vector<double>(n));
  run_engine(arena, sources, [&](std::size_t lane, std::size_t s,
                                 std::span<const double> arrival) {
    auto& buffers = arena.lane(lane);
    read_lambda(arrival, powers, coverages, buffers.by_arrival,
                buffers.sort_scratch, lambda, s);
  });
  return lambda;
}

// The ideal bound's unsettled nodes, packed in ascending id order, with
// their tentative arrival and ready times stored beside the ids.
struct OpenList {
  explicit OpenList(std::size_t n) : id(n), arrival(n), ready(n) {}

  // Every node open; only `src` reached, at time 0.
  void reset(net::NodeId src) {
    size = id.size();
    std::iota(id.begin(), id.end(), net::NodeId{0});
    std::fill(arrival.begin(), arrival.end(), util::kInf);
    std::fill(ready.begin(), ready.end(), util::kInf);
    arrival[src] = 0.0;
    ready[src] = 0.0;
  }

  // Settles the node at `pos` in one streaming pass over the other open
  // nodes: relaxes each over the settler's δ row `row` (when kRelax),
  // compacts the settler out — [0, pos) is rewritten in place, (pos, size)
  // shifts down by one — and tracks the next node to settle. Returns its
  // position: the earliest finite arrival, lowest id on ties (ascending ids
  // and a strict <), or the new size when none is left.
  template <bool kRelax>
  std::size_t settle(std::size_t pos, const double* row,
                     const double* validation) {
    net::NodeId* ids = id.data();
    double* arr = arrival.data();
    double* rdy = ready.data();
    const double r = rdy[pos];
    double best = util::kInf;
    std::size_t next = size - 1;
    const auto visit = [&](std::size_t from, std::size_t to) {
      const net::NodeId v = ids[from];
      double a = arr[from];
      double ready_v = rdy[from];
      if constexpr (kRelax) {
        const double cand = r + row[v];
        if (cand < a) {
          a = cand;
          ready_v = cand + validation[v];
        }
      }
      ids[to] = v;
      arr[to] = a;
      rdy[to] = ready_v;
      if (a < best) {
        best = a;
        next = to;
      }
    };
    for (std::size_t i = 0; i < pos; ++i) visit(i, i);
    for (std::size_t i = pos + 1; i < size; ++i) visit(i, i - 1);
    --size;
    return next;
  }

  std::vector<net::NodeId> id;
  std::vector<double> arrival, ready;
  std::size_t size = 0;
};

}  // namespace

double lambda_for_broadcast(const sim::BroadcastResult& result,
                            const net::Network& network, double coverage) {
  PERIGEE_ASSERT(result.arrival.size() == network.size());
  std::vector<std::pair<double, double>> by_arrival;
  by_arrival.reserve(network.size());
  double total = 0;
  for (net::NodeId v = 0; v < network.size(); ++v) {
    const double power = network.profile(v).hash_power;
    total += power;
    by_arrival.emplace_back(result.arrival[v], power);
  }
  std::sort(by_arrival.begin(), by_arrival.end());
  return coverage_time_sorted(by_arrival, total, coverage);
}

std::vector<double> eval_all_sources(const net::Topology& topology,
                                     const net::Network& network,
                                     double coverage) {
  return eval_all_sources(net::CsrTopology::build(topology, network), network,
                          coverage);
}

std::vector<double> eval_all_sources(const net::CsrTopology& csr,
                                     const net::Network& network,
                                     double coverage,
                                     sim::MultiSourceScratch* scratch,
                                     runner::ThreadPool* pool) {
  return std::move(
      eval_all_sources_multi(csr, network, {coverage}, scratch, pool).front());
}

std::vector<std::vector<double>> eval_all_sources_multi(
    const net::CsrTopology& csr, const net::Network& network,
    const std::vector<double>& coverages, sim::MultiSourceScratch* scratch,
    runner::ThreadPool* pool) {
  return eval_sources(csr, network, coverages, scratch,
                      [&](sim::MultiSourceScratch& arena,
                          std::span<const net::NodeId> sources,
                          const sim::SourceSink& sink) {
                        sim::for_each_source_broadcast(csr, sources, arena,
                                                       sink, pool);
                      });
}

std::vector<double> eval_all_sources_egress(const net::CsrTopology& csr,
                                            const net::Network& network,
                                            const sim::EgressConfig& config,
                                            const sim::EgressPlan& plan,
                                            double coverage,
                                            sim::EgressScratch* scratch,
                                            runner::ThreadPool* pool) {
  return std::move(eval_all_sources_egress_multi(csr, network, config, plan,
                                                 {coverage}, scratch, pool)
                       .front());
}

std::vector<std::vector<double>> eval_all_sources_egress_multi(
    const net::CsrTopology& csr, const net::Network& network,
    const sim::EgressConfig& config, const sim::EgressPlan& plan,
    const std::vector<double>& coverages, sim::EgressScratch* scratch,
    runner::ThreadPool* pool) {
  return eval_sources(csr, network, coverages, scratch,
                      [&](sim::EgressScratch& arena,
                          std::span<const net::NodeId> sources,
                          const sim::SourceSink& sink) {
                        sim::for_each_source_broadcast_egress(
                            csr, config, plan, sources, arena, sink, pool);
                      });
}

std::vector<double> eval_ideal(const net::Network& network, double coverage,
                               const net::Topology* infra) {
  return std::move(eval_ideal_multi(network, {coverage}, infra).front());
}

std::vector<std::vector<double>> eval_ideal_multi(
    const net::Network& network, const std::vector<double>& coverages,
    const net::Topology* infra) {
  PERIGEE_ASSERT(!coverages.empty());
  // Broadcast on the fully-connected topology. Direct delivery is not
  // always fastest — per-pair jitter can make a two-hop path through a fast
  // intermediary beat a slow direct link — so this is a dense Dijkstra per
  // source over a cached δ matrix, exactly what simulating the complete
  // graph would do, without materializing an O(n^2) Topology.
  const std::size_t n = network.size();
  std::vector<double> delta(n * n, 0.0);
  for (net::NodeId u = 0; u < n; ++u) {
    for (net::NodeId v = u + 1; v < n; ++v) {
      const double d = network.edge_delay_ms(u, v);
      delta[u * n + v] = d;
      delta[v * n + u] = d;
    }
  }
  if (infra != nullptr) {
    PERIGEE_ASSERT(infra->size() == n);
    for (const auto& [u, v] : infra->infra_edges()) {
      const double ms = *infra->infra_latency(u, v);
      delta[u * n + v] = std::min(delta[u * n + v], ms);
      delta[v * n + u] = std::min(delta[v * n + u], ms);
    }
  }

  // Per-node constants, read once instead of once per relaxation.
  const Powers powers = hash_powers(network);
  std::vector<double> validation(n);
  std::vector<unsigned char> forwards(n);
  for (net::NodeId v = 0; v < n; ++v) {
    validation[v] = network.validation_ms(v);
    forwards[v] = network.profile(v).forwards ? 1 : 0;
  }

  std::vector<std::vector<double>> lambda(coverages.size(),
                                          std::vector<double>(n));
  // One streaming pass over the open list per settle: O(n) per settle
  // beats a heap on a complete graph, and fusing the relaxation with the
  // next argmin reads each open node once.
  OpenList open(n);
  std::vector<double> arrival(n);
  std::vector<std::pair<double, double>> by_arrival, sort_scratch;
  for (net::NodeId src = 0; src < n; ++src) {
    open.reset(src);
    arrival.assign(n, util::kInf);
    // The first settle is the source: the only finite arrival.
    std::size_t pos = src;
    while (pos < open.size) {
      const net::NodeId u = open.id[pos];
      arrival[u] = open.arrival[pos];
      pos = forwards[u] != 0 || u == src
                ? open.settle<true>(pos, delta.data() + u * n,
                                    validation.data())
                : open.settle<false>(pos, nullptr, nullptr);
    }
    read_lambda(arrival, powers, coverages, by_arrival, sort_scratch, lambda,
                src);
  }
  return lambda;
}

}  // namespace perigee::metrics
