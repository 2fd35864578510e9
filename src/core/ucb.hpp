// UCBScoring (paper §4.2.2): per-neighbor delay estimates with confidence
// bounds accumulated over the rounds a neighbor has stayed connected
// (Eq. 3-4). A neighbor is disconnected only when its lower confidence bound
// exceeds some neighbor's upper bound — i.e. when it is statistically
// distinguishable as worse — which prevents evicting a good neighbor on a
// noisy single-block round. Designed for |B| = 1 rounds.
//
// Implementation note: the paper's multiset union over a neighbor's entire
// connection lifetime grows without bound, making the per-round percentile
// O(history · log history) and the whole run quadratic. We keep a sliding
// window of the most recent `ucb_window` samples per neighbor (beyond a few
// hundred samples the confidence interval is already narrow, and a bounded
// window also adapts faster when the network drifts). The window keeps its
// samples in arrival order in a ring and, beside it, only the largest ones in
// sorted order: type-7 interpolation at quantile q reads ranks
// ⌊q(n−1)⌋ and the one above, so it needs just the top n − ⌊q(n−1)⌋ samples
// (27 of 256 at q = 0.9). An insert or eviction shifts entries of that
// short tail instead of the whole window. The tail carries half as much
// slack again, so refilling it from the ring (an O(W) scan) is rare and
// never happens while a window is still filling. The percentile read is
// O(1).
//
// A selector keeps at most out_cap arms in one flat array, looked up
// linearly by neighbor id; an arm's slot and buffers are reused when a
// neighbor is dropped and another explored.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/params.hpp"
#include "sim/selector.hpp"

namespace perigee::core {

// Sliding window over the last `capacity` samples that answers one fixed
// quantile: percentile() equals util::percentile_sorted of the window's
// samples for any q in [0, 1], bit for bit.
class TailWindow {
 public:
  TailWindow(std::size_t capacity, double q);

  // Appends a sample (not NaN), evicting the oldest one once the window is
  // full.
  void add(double value);
  // Empties the window; buffers are kept for the next neighbor.
  void clear();

  std::size_t size() const { return ring_.size(); }
  // +inf when empty.
  double percentile() const;

 private:
  // Samples the percentile read needs at window fill n: n − ⌊q(n−1)⌋.
  std::size_t needed(std::size_t n) const;
  void refill();

  std::size_t capacity_;
  double q_;
  std::size_t tail_cap_;      // most needed() plus half as much slack
  std::vector<double> ring_;  // samples by slot; oldest at head_ once full
  std::size_t head_ = 0;
  // The window's largest samples as a multiset, descending: every copy of
  // each value above the least entry and at least one of that entry.
  std::vector<double> tail_;
};

class UcbSelector final : public sim::NeighborSelector {
 public:
  explicit UcbSelector(PerigeeParams params = {});

  void on_round_end(net::NodeId self, sim::RoundContext& ctx) override;
  // A rejoining node is a fresh participant: all confidence-bound history
  // refers to connections its predecessor held, so drop every arm.
  void on_reset(net::NodeId self) override;
  const char* name() const override { return "perigee-ucb"; }

  struct Bounds {
    double estimate;  // 90th percentile of windowed samples
    double lcb;
    double ucb;
    std::size_t samples;
  };

  // Current bounds for an outgoing neighbor (for tests/inspection); returns
  // zero-sample bounds if the neighbor is unknown.
  Bounds bounds_for(net::NodeId neighbor) const;

 private:
  // Finite relative delivery times of one connected neighbor.
  struct Arm {
    net::NodeId id = 0;
    bool live = false;
    TailWindow window;
  };
  // An outgoing neighbor of this round: its observation index, then its arm.
  struct Outgoing {
    net::NodeId id;
    std::size_t obs_index;
    std::size_t arm;
  };

  std::size_t arm_for(net::NodeId neighbor);  // finds or creates
  Bounds compute_bounds(const TailWindow& window) const;

  PerigeeParams params_;
  // Eq. 3-4 half-width by sample count, shared by equal-parameter selectors.
  std::shared_ptr<const std::vector<double>> half_width_;
  std::vector<Arm> arms_;
  std::vector<Outgoing> outgoing_;  // reused every round
};

}  // namespace perigee::core
