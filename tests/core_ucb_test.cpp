#include "core/ucb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <vector>

#include "sim/rounds.hpp"
#include "topo/builders.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perigee::core {
namespace {

struct World {
  explicit World(const std::vector<double>& xs) {
    net::NetworkOptions options;
    options.n = xs.size();
    options.latency = net::NetworkOptions::LatencyKind::Euclidean;
    options.embed_dim = 1;
    options.embed_scale_ms = 1.0;
    options.handshake_factor = 1.0;
    options.validation_mean_ms = 0.0;
    options.validation_spread = 0.0;
    network.emplace(net::Network::build(options));
    auto& profiles = network->mutable_profiles();
    for (std::size_t i = 0; i < xs.size(); ++i) {
      profiles[i].coords = {xs[i], 0, 0, 0, 0};
      profiles[i].hash_power = 0.0;
    }
  }
  std::optional<net::Network> network;
};

TEST(UcbBounds, ShrinkWithMoreSamples) {
  PerigeeParams params;
  params.ucb_c = 100.0;
  UcbSelector selector(params);
  // Unknown neighbor: zero samples -> infinite pessimism.
  const auto none = selector.bounds_for(42);
  EXPECT_EQ(none.samples, 0u);
  EXPECT_TRUE(std::isinf(none.estimate));
  EXPECT_TRUE(std::isinf(none.lcb));
}

TEST(UcbBounds, HalfWidthFormula) {
  // Drive samples through a real round so the arm fills, then check the
  // bound width against Eq. (3)-(4).
  World w({0.0, 10.0, 50.0, 200.0});
  w.network->mutable_profiles()[3].hash_power = 1.0;

  net::Topology t(4, {.out_cap = 2, .in_cap = 20});
  ASSERT_TRUE(t.connect(0, 1));
  ASSERT_TRUE(t.connect(0, 2));
  ASSERT_TRUE(t.connect(3, 1));
  ASSERT_TRUE(t.connect(3, 2));

  PerigeeParams params;
  params.ucb_c = 100.0;
  auto* ucb = new UcbSelector(params);
  std::vector<std::unique_ptr<sim::NeighborSelector>> selectors;
  selectors.emplace_back(ucb);
  for (int i = 1; i < 4; ++i) {
    selectors.push_back(std::make_unique<sim::StaticSelector>());
  }
  const int blocks = 16;
  sim::RoundRunner runner(*w.network, t, std::move(selectors), blocks, 5);
  runner.run_round();

  const auto b1 = ucb->bounds_for(1);
  ASSERT_EQ(b1.samples, static_cast<std::size_t>(blocks));
  const double expect_half =
      100.0 * std::sqrt(std::log(16.0) / (2.0 * 16.0));
  EXPECT_NEAR(b1.ucb - b1.estimate, expect_half, 1e-9);
  EXPECT_NEAR(b1.estimate - b1.lcb, expect_half, 1e-9);
  // Deterministic deliveries: rel times are constant, estimate == value.
  // Node 1 (x=10) always beats node 2 (x=50): rel(1)=0, rel(2)=40... but
  // echoes through 0 cap node 2's delivery at 10+0+50=60 vs direct 150+50.
  EXPECT_DOUBLE_EQ(b1.estimate, 0.0);
}

TEST(Ucb, DisconnectsStatisticallyWorseNeighbor) {
  // Node 0 dials two neighbors fed directly by the miner. On a line the
  // positional terms cancel, so the neighbors are separated by validation
  // delay: node 2 validates 80 ms slower and is the statistically worse
  // arm. With a small c the intervals separate after a handful of 1-block
  // rounds and the slow neighbor must be dropped.
  World w({0.0, 10.0, 800.0, 1000.0});
  w.network->mutable_profiles()[3].hash_power = 1.0;
  w.network->mutable_profiles()[2].validation_ms = 80.0;
  net::Topology t(4, {.out_cap = 2, .in_cap = 20});
  ASSERT_TRUE(t.connect(0, 1));
  ASSERT_TRUE(t.connect(0, 2));
  ASSERT_TRUE(t.connect(3, 1));
  ASSERT_TRUE(t.connect(3, 2));

  PerigeeParams params;
  params.ucb_c = 10.0;
  std::vector<std::unique_ptr<sim::NeighborSelector>> selectors;
  selectors.push_back(std::make_unique<UcbSelector>(params));
  for (int i = 1; i < 4; ++i) {
    selectors.push_back(std::make_unique<sim::StaticSelector>());
  }
  sim::RoundRunner runner(*w.network, t, std::move(selectors), 1, 6);
  runner.run_rounds(10);

  EXPECT_TRUE(t.has_out(0, 1));   // fast neighbor kept
  EXPECT_FALSE(t.has_out(0, 2));  // slow neighbor evicted
  EXPECT_EQ(t.out_count(0), 2);   // replacement dialed
}

TEST(Ucb, LargeCPreventsHastyEviction) {
  // Same geometry, but with a huge confidence constant the intervals always
  // overlap: nothing may be disconnected.
  World w({0.0, 10.0, 800.0, 1000.0});
  w.network->mutable_profiles()[3].hash_power = 1.0;
  w.network->mutable_profiles()[2].validation_ms = 80.0;
  net::Topology t(4, {.out_cap = 2, .in_cap = 20});
  ASSERT_TRUE(t.connect(0, 1));
  ASSERT_TRUE(t.connect(0, 2));
  ASSERT_TRUE(t.connect(3, 1));
  ASSERT_TRUE(t.connect(3, 2));

  PerigeeParams params;
  params.ucb_c = 1e7;
  std::vector<std::unique_ptr<sim::NeighborSelector>> selectors;
  selectors.push_back(std::make_unique<UcbSelector>(params));
  for (int i = 1; i < 4; ++i) {
    selectors.push_back(std::make_unique<sim::StaticSelector>());
  }
  sim::RoundRunner runner(*w.network, t, std::move(selectors), 1, 7);
  runner.run_rounds(10);
  EXPECT_TRUE(t.has_out(0, 1));
  EXPECT_TRUE(t.has_out(0, 2));
}

TEST(Ucb, WindowBoundsMemory) {
  World w({0.0, 10.0, 50.0, 200.0});
  w.network->mutable_profiles()[3].hash_power = 1.0;
  net::Topology t(4, {.out_cap = 2, .in_cap = 20});
  ASSERT_TRUE(t.connect(0, 1));
  ASSERT_TRUE(t.connect(0, 2));
  ASSERT_TRUE(t.connect(3, 1));
  ASSERT_TRUE(t.connect(3, 2));

  PerigeeParams params;
  params.ucb_c = 1e7;  // never evict, so arms only accumulate
  params.ucb_window = 8;
  auto* ucb = new UcbSelector(params);
  std::vector<std::unique_ptr<sim::NeighborSelector>> selectors;
  selectors.emplace_back(ucb);
  for (int i = 1; i < 4; ++i) {
    selectors.push_back(std::make_unique<sim::StaticSelector>());
  }
  sim::RoundRunner runner(*w.network, t, std::move(selectors), 1, 8);
  runner.run_rounds(50);
  EXPECT_EQ(ucb->bounds_for(1).samples, 8u);  // capped at the window
}

TEST(Ucb, SingleNeighborNeverDisconnected) {
  World w({0.0, 10.0});
  w.network->mutable_profiles()[1].hash_power = 1.0;
  net::Topology t(2, {.out_cap = 1, .in_cap = 20});
  ASSERT_TRUE(t.connect(0, 1));
  PerigeeParams params;
  params.ucb_c = 0.0;  // maximally trigger-happy
  std::vector<std::unique_ptr<sim::NeighborSelector>> selectors;
  selectors.push_back(std::make_unique<UcbSelector>(params));
  selectors.push_back(std::make_unique<sim::StaticSelector>());
  sim::RoundRunner runner(*w.network, t, std::move(selectors), 1, 9);
  runner.run_rounds(5);
  EXPECT_TRUE(t.has_out(0, 1));
}

// A stream shape that stresses one side of the top-tail window.
enum class Stream { Uniform, Duplicates, MonotoneRuns };

double next_sample(Stream kind, util::Rng& rng, double& run_value,
                   int& run_left, double& run_step) {
  switch (kind) {
    case Stream::Uniform:
      return rng.uniform(0.0, 1000.0);
    case Stream::Duplicates:
      // Four distinct values: ties everywhere, the tail boundary included.
      return 10.0 * static_cast<double>(rng.uniform_index(4));
    case Stream::MonotoneRuns:
      // Rising and falling runs: a falling run evicts tail samples and
      // admits none, which forces the refill path.
      if (run_left == 0) {
        run_left = 1 + static_cast<int>(rng.uniform_index(300));
        run_step = rng.uniform_index(2) == 0 ? 1.0 : -1.0;
      }
      --run_left;
      run_value += run_step;
      return run_value;
  }
  return 0.0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(TailWindow, MatchesSortedPercentileAfterEveryAdd) {
  for (const std::size_t window : {1u, 2u, 3u, 4u, 37u, 256u}) {
    for (const double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
      for (const Stream kind :
           {Stream::Uniform, Stream::Duplicates, Stream::MonotoneRuns}) {
        util::Rng rng(window * 1000 + static_cast<std::uint64_t>(q * 10) +
                      static_cast<std::uint64_t>(kind) * 100);
        TailWindow tail(window, q);
        EXPECT_TRUE(std::isinf(tail.percentile()));
        std::deque<double> recent;
        double run_value = 500.0;
        int run_left = 0;
        double run_step = 1.0;
        const std::size_t length = 10 * window + 20;
        for (std::size_t i = 0; i < length; ++i) {
          if (i == length / 2) {
            // A reused arm: clearing keeps buffers, never stale samples.
            tail.clear();
            recent.clear();
          }
          const double x =
              next_sample(kind, rng, run_value, run_left, run_step);
          tail.add(x);
          recent.push_back(x);
          if (recent.size() > window) recent.pop_front();
          std::vector<double> sorted(recent.begin(), recent.end());
          std::sort(sorted.begin(), sorted.end());
          const double expect = util::percentile_sorted(sorted, q);
          ASSERT_EQ(tail.size(), recent.size());
          ASSERT_TRUE(same_bits(tail.percentile(), expect))
              << "window " << window << " q " << q << " stream "
              << static_cast<int>(kind) << " add " << i << ": "
              << tail.percentile() << " vs " << expect;
        }
      }
    }
  }
}

}  // namespace
}  // namespace perigee::core
