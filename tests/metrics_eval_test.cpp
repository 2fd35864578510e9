#include "metrics/eval.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "net/csr.hpp"
#include "runner/thread_pool.hpp"
#include "sim/batch.hpp"
#include "sim/egress.hpp"
#include "topo/builders.hpp"
#include "topo/relay.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perigee::metrics {
namespace {

net::Network make_line_network(const std::vector<double>& xs,
                               double validation_ms = 0.0) {
  net::NetworkOptions options;
  options.n = xs.size();
  options.latency = net::NetworkOptions::LatencyKind::Euclidean;
  options.embed_dim = 1;
  options.embed_scale_ms = 1.0;
  options.handshake_factor = 1.0;
  options.validation_mean_ms = validation_ms;
  options.validation_spread = 0.0;
  net::Network network = net::Network::build(options);
  auto& profiles = network.mutable_profiles();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    profiles[i].coords = {xs[i], 0, 0, 0, 0};
  }
  return network;
}

TEST(Lambda, CoverageAccumulatesHashPower) {
  // Chain 0-1-2-3 at x = 0, 10, 20, 30; uniform power (0.25 each).
  auto network = make_line_network({0.0, 10.0, 20.0, 30.0});
  net::Topology t(4);
  t.connect(0, 1);
  t.connect(1, 2);
  t.connect(2, 3);
  const auto result = sim::simulate_broadcast(t, network, 0);
  // Arrivals: 0, 10, 20, 30. Cumulative power 0.25/0.5/0.75/1.0.
  EXPECT_DOUBLE_EQ(lambda_for_broadcast(result, network, 0.25), 0.0);
  EXPECT_DOUBLE_EQ(lambda_for_broadcast(result, network, 0.50), 10.0);
  EXPECT_DOUBLE_EQ(lambda_for_broadcast(result, network, 0.75), 20.0);
  EXPECT_DOUBLE_EQ(lambda_for_broadcast(result, network, 0.90), 30.0);
  EXPECT_DOUBLE_EQ(lambda_for_broadcast(result, network, 1.00), 30.0);
}

TEST(Lambda, MinerPowerCountsImmediately) {
  auto network = make_line_network({0.0, 10.0});
  network.mutable_profiles()[0].hash_power = 0.9;
  network.mutable_profiles()[1].hash_power = 0.1;
  net::Topology t(2);
  t.connect(0, 1);
  const auto result = sim::simulate_broadcast(t, network, 0);
  // The miner alone already covers 90%.
  EXPECT_DOUBLE_EQ(lambda_for_broadcast(result, network, 0.90), 0.0);
  EXPECT_DOUBLE_EQ(lambda_for_broadcast(result, network, 0.95), 10.0);
}

TEST(Lambda, UnreachableCoverageIsInfinite) {
  auto network = make_line_network({0.0, 10.0, 20.0});
  net::Topology t(3);
  t.connect(0, 1);  // node 2 isolated
  const auto result = sim::simulate_broadcast(t, network, 0);
  EXPECT_TRUE(std::isfinite(lambda_for_broadcast(result, network, 0.66)));
  EXPECT_TRUE(std::isinf(lambda_for_broadcast(result, network, 0.90)));
}

TEST(EvalAllSources, MatchesPerSourceBroadcast) {
  net::NetworkOptions options;
  options.n = 60;
  options.seed = 21;
  const auto network = net::Network::build(options);
  net::Topology t(60);
  util::Rng rng(21);
  topo::build_random(t, rng);
  const auto lambda = eval_all_sources(t, network, 0.9);
  ASSERT_EQ(lambda.size(), 60u);
  for (net::NodeId v : {net::NodeId{0}, net::NodeId{30}, net::NodeId{59}}) {
    const auto result = sim::simulate_broadcast(t, network, v);
    EXPECT_DOUBLE_EQ(lambda[v], lambda_for_broadcast(result, network, 0.9));
  }
}

// Bitwise, not approximate: the evaluator promises the reference's exact
// doubles, +inf tails included.
::testing::AssertionResult bytes_equal(const std::vector<double>& a,
                                       const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "first mismatch at index " << i << ": " << a[i] << " vs "
             << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

struct Overlay {
  net::Network network;
  net::Topology topology;
};

// n=60 with uniform hash power and heterogeneous bandwidth. Without
// withholding: a random overlay. With it: nodes 0..49 on a random overlay,
// 50..59 on a chain hanging off node 49, and node 49 plus every fifth node
// withholding — no source in 0..48 reaches the chain, so its λ at 90% is
// +inf while its λ at 50% stays finite.
Overlay make_overlay(bool withholding) {
  net::NetworkOptions options;
  options.n = 60;
  options.seed = 31;
  options.heterogeneous_bandwidth = true;
  net::Network network = net::Network::build(options);
  auto& profiles = network.mutable_profiles();
  for (auto& profile : profiles) profile.hash_power = 1.0 / 60.0;
  net::Topology topology(60);
  util::Rng rng(31);
  if (!withholding) {
    topo::build_random(topology, rng);
    return {std::move(network), std::move(topology)};
  }
  for (net::NodeId u = 0; u < 50; ++u) {
    for (int k = 0; k < 4; ++k) {
      const auto v = static_cast<net::NodeId>(rng.uniform_index(50));
      if (v != u) topology.connect(u, v);
    }
  }
  for (net::NodeId v = 50; v < 60; ++v) topology.connect(v - 1, v);
  for (net::NodeId v = 0; v < 50; v += 5) profiles[v].forwards = false;
  profiles[49].forwards = false;
  return {std::move(network), std::move(topology)};
}

const std::vector<std::vector<double>> kCoverageLists = {
    {0.9, 0.5}, {0.5, 0.9}, {1.0}, {0.9, 0.5, 0.9}};

// One multi-coverage call per list, inline and on a 3-worker pool: vector k
// must equal the single-coverage call at coverages[k] and the per-source
// reference λ over `broadcasts`, byte for byte.
template <typename Multi, typename Single>
void expect_multi_matches_reference(
    const net::Network& network,
    const std::vector<sim::BroadcastResult>& broadcasts, const Multi& multi,
    const Single& single) {
  runner::ThreadPool pool(3);
  for (const auto& coverages : kCoverageLists) {
    const auto inline_eval = multi(coverages, nullptr);
    const auto pooled_eval = multi(coverages, &pool);
    ASSERT_EQ(inline_eval.size(), coverages.size());
    ASSERT_EQ(pooled_eval.size(), coverages.size());
    for (std::size_t k = 0; k < coverages.size(); ++k) {
      std::vector<double> reference;
      for (const auto& result : broadcasts) {
        reference.push_back(
            lambda_for_broadcast(result, network, coverages[k]));
      }
      EXPECT_TRUE(bytes_equal(inline_eval[k], reference))
          << "coverage " << coverages[k];
      EXPECT_TRUE(bytes_equal(pooled_eval[k], reference))
          << "coverage " << coverages[k];
      EXPECT_TRUE(bytes_equal(single(coverages[k]), reference))
          << "coverage " << coverages[k];
    }
  }
}

TEST(EvalAllSourcesMulti, WithholdingOverlayHasInfiniteTails) {
  const Overlay o = make_overlay(/*withholding=*/true);
  const auto csr = net::CsrTopology::build(o.topology, o.network);
  const auto lambda = eval_all_sources(csr, o.network, 0.9);
  EXPECT_TRUE(std::any_of(lambda.begin(), lambda.end(),
                          [](double l) { return std::isinf(l); }));
  EXPECT_TRUE(std::any_of(lambda.begin(), lambda.end(),
                          [](double l) { return std::isfinite(l); }));
}

TEST(EvalAllSourcesMulti, DelayOnlyMatchesSingleAndReference) {
  for (const bool withholding : {false, true}) {
    SCOPED_TRACE(withholding ? "withholding" : "random");
    const Overlay o = make_overlay(withholding);
    const auto csr = net::CsrTopology::build(o.topology, o.network);
    std::vector<sim::BroadcastResult> broadcasts;
    for (net::NodeId v = 0; v < o.network.size(); ++v) {
      broadcasts.push_back(sim::simulate_broadcast(csr, v));
    }
    sim::MultiSourceScratch scratch;
    expect_multi_matches_reference(
        o.network, broadcasts,
        [&](const std::vector<double>& coverages, runner::ThreadPool* pool) {
          return eval_all_sources_multi(csr, o.network, coverages, &scratch,
                                        pool);
        },
        [&](double coverage) {
          return eval_all_sources(csr, o.network, coverage);
        });
  }
}

TEST(EvalAllSourcesMulti, EgressMatchesSingleAndReference) {
  for (const bool withholding : {false, true}) {
    SCOPED_TRACE(withholding ? "withholding" : "random");
    const Overlay o = make_overlay(withholding);
    const auto csr = net::CsrTopology::build(o.topology, o.network);
    sim::EgressConfig config;
    config.block_bytes = 200'000.0;
    const auto plan = sim::EgressPlan::build(o.network, config);
    sim::EgressScratch scratch;
    std::vector<sim::BroadcastResult> broadcasts(o.network.size());
    for (net::NodeId v = 0; v < o.network.size(); ++v) {
      sim::simulate_broadcast_egress(csr, config, plan, v, scratch,
                                     broadcasts[v]);
    }
    expect_multi_matches_reference(
        o.network, broadcasts,
        [&](const std::vector<double>& coverages, runner::ThreadPool* pool) {
          return eval_all_sources_egress_multi(csr, o.network, config, plan,
                                               coverages, &scratch, pool);
        },
        [&](double coverage) {
          return eval_all_sources_egress(csr, o.network, config, plan,
                                         coverage);
        });
  }
}

TEST(EvalIdeal, MatchesMaterializedClique) {
  // The analytic ideal must equal an actually materialized fully-connected
  // topology (the direct-delivery model has no multi-hop shortcuts when the
  // triangle inequality holds, which Euclidean latencies guarantee and the
  // +validation term only strengthens).
  net::NetworkOptions options;
  options.n = 40;
  options.seed = 22;
  options.latency = net::NetworkOptions::LatencyKind::Euclidean;
  options.embed_dim = 2;
  options.embed_scale_ms = 100.0;
  const auto network = net::Network::build(options);

  net::Topology clique(40, {.out_cap = 40, .in_cap = 40});
  for (net::NodeId u = 0; u < 40; ++u) {
    for (net::NodeId v = u + 1; v < 40; ++v) clique.connect(u, v);
  }
  const auto analytic = eval_ideal(network, 0.9);
  const auto simulated = eval_all_sources(clique, network, 0.9);
  for (net::NodeId v = 0; v < 40; ++v) {
    EXPECT_NEAR(analytic[v], simulated[v], 1e-9);
  }
}

TEST(EvalIdeal, LowerBoundsEveryTopology) {
  net::NetworkOptions options;
  options.n = 80;
  options.seed = 23;
  const auto network = net::Network::build(options);
  net::Topology t(80);
  util::Rng rng(23);
  topo::build_random(t, rng);
  const auto sparse = eval_all_sources(t, network, 0.9);
  const auto ideal = eval_ideal(network, 0.9);
  for (net::NodeId v = 0; v < 80; ++v) {
    EXPECT_LE(ideal[v], sparse[v] + 1e-9);
  }
}

TEST(EvalIdeal, HigherCoverageNeverFaster) {
  net::NetworkOptions options;
  options.n = 50;
  options.seed = 24;
  const auto network = net::Network::build(options);
  const auto l50 = eval_ideal(network, 0.5);
  const auto l90 = eval_ideal(network, 0.9);
  for (net::NodeId v = 0; v < 50; ++v) {
    EXPECT_LE(l50[v], l90[v] + 1e-9);
  }
}

// Test-only oracle for eval_ideal_multi: the dense Dijkstra it replaced,
// kept verbatim. Each settle scans all n nodes twice — a min-select over a
// settled bitmap (lowest index wins ties), then a relaxation that reads the
// node's profile through the Network. λ is read per coverage by
// lambda_for_broadcast (std::sort, the same pairs and the same total).
std::vector<std::vector<double>> reference_ideal(
    const net::Network& network, const std::vector<double>& coverages,
    const net::Topology* infra) {
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
    for (const auto& [u, v] : infra->infra_edges()) {
      const double ms = *infra->infra_latency(u, v);
      delta[u * n + v] = std::min(delta[u * n + v], ms);
      delta[v * n + u] = std::min(delta[v * n + u], ms);
    }
  }

  std::vector<std::vector<double>> lambda(coverages.size(),
                                          std::vector<double>(n));
  std::vector<double> arrival(n), ready(n);
  std::vector<bool> settled(n);
  for (net::NodeId src = 0; src < n; ++src) {
    arrival.assign(n, util::kInf);
    ready.assign(n, util::kInf);
    settled.assign(n, false);
    arrival[src] = 0.0;
    ready[src] = 0.0;
    for (std::size_t iter = 0; iter < n; ++iter) {
      std::size_t u = n;
      double best = util::kInf;
      for (std::size_t i = 0; i < n; ++i) {
        if (!settled[i] && arrival[i] < best) {
          best = arrival[i];
          u = i;
        }
      }
      if (u == n) break;
      settled[u] = true;
      if (!network.profile(static_cast<net::NodeId>(u)).forwards && u != src) {
        continue;
      }
      const double r = ready[u];
      const double* row = delta.data() + u * n;
      for (std::size_t v = 0; v < n; ++v) {
        if (settled[v]) continue;
        const double cand = r + row[v];
        if (cand < arrival[v]) {
          arrival[v] = cand;
          ready[v] =
              cand + network.validation_ms(static_cast<net::NodeId>(v));
        }
      }
    }
    sim::BroadcastResult result;
    result.miner = src;
    result.arrival = arrival;
    for (std::size_t k = 0; k < coverages.size(); ++k) {
      lambda[k][src] = lambda_for_broadcast(result, network, coverages[k]);
    }
  }
  return lambda;
}

// eval_ideal_multi must reproduce the oracle's bytes for every coverage
// list, order and repetition.
void expect_ideal_matches_reference(const net::Network& network,
                                    const net::Topology* infra = nullptr) {
  for (const auto& coverages : kCoverageLists) {
    const auto fused = eval_ideal_multi(network, coverages, infra);
    const auto reference = reference_ideal(network, coverages, infra);
    ASSERT_EQ(fused.size(), coverages.size());
    for (std::size_t k = 0; k < coverages.size(); ++k) {
      EXPECT_TRUE(bytes_equal(fused[k], reference[k]))
          << "coverage " << coverages[k];
    }
  }
}

// Geo latencies with the default 40% per-pair jitter and Δv ≈ 2 ms, so
// relaying through a fast intermediary often beats a slow direct link.
net::Network make_jittered_network(std::size_t n) {
  net::NetworkOptions options;
  options.n = n;
  options.seed = 41;
  options.validation_mean_ms = 2.0;
  return net::Network::build(options);
}

bool has_two_hop_shortcut(const net::Network& network) {
  const auto n = static_cast<net::NodeId>(network.size());
  for (net::NodeId u = 0; u < n; ++u) {
    for (net::NodeId v = 0; v < n; ++v) {
      if (v == u) continue;
      const double direct = network.edge_delay_ms(u, v);
      for (net::NodeId w = 0; w < n; ++w) {
        if (w == u || w == v) continue;
        if (network.edge_delay_ms(u, w) + network.validation_ms(w) +
                network.edge_delay_ms(w, v) <
            direct) {
          return true;
        }
      }
    }
  }
  return false;
}

TEST(EvalIdealOracle, JitteredTwoHopPathsMatchBytes) {
  const auto network = make_jittered_network(60);
  ASSERT_TRUE(has_two_hop_shortcut(network));
  expect_ideal_matches_reference(network);
}

TEST(EvalIdealOracle, WithholdingNodesMatchBytes) {
  auto network = make_jittered_network(60);
  const auto all_forward = eval_ideal_multi(network, {0.9, 0.5});
  // Withholders keep their hash power: they count once reached but never
  // relay, so paths through them are cut.
  for (net::NodeId v = 0; v < 60; v += 3) {
    network.mutable_profiles()[v].forwards = false;
  }
  const auto withheld = eval_ideal_multi(network, {0.9, 0.5});
  EXPECT_FALSE(bytes_equal(withheld[0], all_forward[0]));
  expect_ideal_matches_reference(network);
}

TEST(EvalIdealOracle, RelayInfraOverlayMatchesBytes) {
  auto network = make_jittered_network(80);
  net::Topology infra(80);
  util::Rng rng(43);
  topo::RelayConfig config;
  config.members = 20;
  topo::install_relay_tree(infra, network, config, rng);
  ASSERT_FALSE(infra.infra_edges().empty());
  EXPECT_FALSE(bytes_equal(eval_ideal_multi(network, {0.9}, &infra)[0],
                           eval_ideal_multi(network, {0.9})[0]));
  expect_ideal_matches_reference(network, &infra);
}

TEST(EvalIdealOracle, ExactTiesMatchBytes) {
  // Integer positions on a line with δ = |Δx| and Δv = 0: many nodes share
  // an arrival time exactly (x = ±10 from node 0, the duplicate x = 20 and
  // x = -20), so the settle order rests on the lowest-id tie-break.
  auto network = make_line_network(
      {0.0, 10.0, -10.0, 20.0, 20.0, -20.0, 30.0, -30.0, 10.0, 0.0});
  ASSERT_EQ(network.edge_delay_ms(0, 1), network.edge_delay_ms(0, 2));
  ASSERT_EQ(network.edge_delay_ms(0, 3), network.edge_delay_ms(0, 4));
  expect_ideal_matches_reference(network);
  network.mutable_profiles()[1].forwards = false;
  network.mutable_profiles()[4].forwards = false;
  expect_ideal_matches_reference(network);
}

// The smallest networks Network::build accepts (n >= 2).
TEST(EvalIdealOracle, TinyNetworksMatchBytes) {
  for (const auto& xs :
       std::vector<std::vector<double>>{{0.0, 10.0}, {0.0, 10.0, 25.0}}) {
    SCOPED_TRACE(xs.size());
    auto network = make_line_network(xs, /*validation_ms=*/5.0);
    expect_ideal_matches_reference(network);
    // A non-forwarding middle node still relays its own blocks.
    network.mutable_profiles()[xs.size() / 2].forwards = false;
    expect_ideal_matches_reference(network);
  }
}

TEST(Lambda, ExponentialPowerShiftsCoverage) {
  // Nodes: source plus two others, one with almost all remaining power far
  // away. λ at 90% must wait for the heavy node.
  auto network = make_line_network({0.0, 10.0, 500.0});
  network.mutable_profiles()[0].hash_power = 0.05;
  network.mutable_profiles()[1].hash_power = 0.05;
  network.mutable_profiles()[2].hash_power = 0.90;
  net::Topology t(3);
  t.connect(0, 1);
  t.connect(0, 2);
  const auto result = sim::simulate_broadcast(t, network, 0);
  EXPECT_DOUBLE_EQ(lambda_for_broadcast(result, network, 0.9), 500.0);
}

}  // namespace
}  // namespace perigee::metrics
