#include "core/ucb.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <mutex>

#include "topo/builders.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace perigee::core {
namespace {

// c·sqrt(ln n / 2n) for n = 0..window (entry 0 is unused). It depends only
// on (c, window) and a run builds one selector per node, so every selector
// with the same pair shares one table.
std::shared_ptr<const std::vector<double>> half_width_table(
    double c, std::size_t window) {
  struct Entry {
    double c;
    std::size_t window;
    std::shared_ptr<const std::vector<double>> table;
  };
  static std::mutex mutex;
  static std::vector<Entry> tables;
  const std::lock_guard lock(mutex);
  for (const Entry& e : tables) {
    if (e.c == c && e.window == window) return e.table;
  }
  auto table = std::make_shared<std::vector<double>>(window + 1, 0.0);
  for (std::size_t i = 1; i <= window; ++i) {
    const auto n = static_cast<double>(i);
    (*table)[i] = c * std::sqrt(std::log(std::max(n, 1.0)) / (2.0 * n));
  }
  tables.push_back({c, window, table});
  return table;
}

}  // namespace

TailWindow::TailWindow(std::size_t capacity, double q)
    : capacity_(capacity), q_(q) {
  PERIGEE_ASSERT(capacity > 0);
  PERIGEE_ASSERT(q >= 0.0 && q <= 1.0);
  // needed() grows with the fill up to about needed(capacity); take its
  // true maximum so rounding in q·(n−1) can never outgrow the cap.
  std::size_t most = 0;
  for (std::size_t n = 1; n <= capacity_; ++n) {
    most = std::max(most, needed(n));
  }
  tail_cap_ = std::min(capacity_, most + most / 2);
  tail_.reserve(tail_cap_);
}

std::size_t TailWindow::needed(std::size_t n) const {
  if (n == 0) return 0;
  // The rank cast exactly as util::percentile_by_rank takes it.
  return n - static_cast<std::size_t>(q_ * static_cast<double>(n - 1));
}

void TailWindow::clear() {
  ring_.clear();
  head_ = 0;
  tail_.clear();
}

void TailWindow::add(double value) {
  PERIGEE_ASSERT(!std::isnan(value));
  if (ring_.size() < capacity_) {
    ring_.push_back(value);
  } else {
    // Evict the oldest sample. The tail holds every copy of each value
    // above its least entry and at least one copy of that entry, so the
    // sample leaves the tail iff it is not below the least entry; which
    // copy goes makes no difference.
    const double oldest = ring_[head_];
    if (!tail_.empty() && oldest >= tail_.back()) {
      std::size_t i = tail_.size() - 1;
      while (tail_[i] != oldest) --i;
      for (; i + 1 < tail_.size(); ++i) tail_[i] = tail_[i + 1];
      tail_.pop_back();
    }
    ring_[head_] = value;
    if (++head_ == capacity_) head_ = 0;
  }
  // The sample joins the tail while the tail still holds every other
  // sample, or when it beats the tail's least entry, which a full tail then
  // hands to the rest. An empty tail over a non-empty rest cannot rank it:
  // refill() below sees it with the rest.
  const bool grow =
      tail_.size() + 1 == ring_.size() && tail_.size() < tail_cap_;
  if (grow || (!tail_.empty() && value > tail_.back())) {
    if (!grow && tail_.size() == tail_cap_) tail_.pop_back();
    std::size_t i = tail_.size();
    tail_.push_back(value);
    for (; i > 0 && value > tail_[i - 1]; --i) tail_[i] = tail_[i - 1];
    tail_[i] = value;
  }
  if (tail_.size() < needed(ring_.size())) refill();
}

void TailWindow::refill() {
  // Top the tail back up to tail_cap_ from the rest of the window: every
  // sample below the least entry b, and the copies of b the tail does not
  // hold. A min-heap of the best of them grows in the tail's spare room
  // during one pass over the ring, then is sorted into place.
  tail_.reserve(tail_cap_);  // `heap` must survive the push_backs
  const std::size_t kept = tail_.size();
  const double least = kept > 0 ? tail_.back() : 0.0;
  std::size_t held = 0;  // copies of `least` in the tail
  while (held < kept && tail_[kept - 1 - held] == least) ++held;
  const auto heap = tail_.begin() + static_cast<std::ptrdiff_t>(kept);
  for (const double x : ring_) {
    if (kept > 0 && x >= least) {
      if (x > least) continue;
      if (held > 0) {
        --held;
        continue;
      }
    }
    if (tail_.size() < tail_cap_) {
      tail_.push_back(x);
      std::push_heap(heap, tail_.end(), std::greater<>());
    } else if (x > *heap) {
      std::pop_heap(heap, tail_.end(), std::greater<>());
      tail_.back() = x;
      std::push_heap(heap, tail_.end(), std::greater<>());
    }
  }
  std::sort_heap(heap, tail_.end(), std::greater<>());
}

double TailWindow::percentile() const {
  const std::size_t n = ring_.size();
  // Ascending rank i is tail entry n − 1 − i; the ranks read are at least
  // n − needed(n), which the tail always covers.
  return util::percentile_by_rank(
      n, q_, [&](std::size_t i) { return tail_[n - 1 - i]; });
}

UcbSelector::UcbSelector(PerigeeParams params)
    : params_(params),
      half_width_(half_width_table(
          params.ucb_c, static_cast<std::size_t>(params.ucb_window))) {}

UcbSelector::Bounds UcbSelector::compute_bounds(
    const TailWindow& window) const {
  Bounds b;
  b.samples = window.size();
  if (b.samples == 0) {
    // A neighbor with zero finite deliveries after a full round never
    // relayed anything: rank it worst with full confidence.
    b.estimate = util::kInf;
    b.lcb = util::kInf;
    b.ucb = util::kInf;
    return b;
  }
  b.estimate = window.percentile();
  const double half_width = (*half_width_)[b.samples];
  b.lcb = b.estimate - half_width;
  b.ucb = b.estimate + half_width;
  return b;
}

UcbSelector::Bounds UcbSelector::bounds_for(net::NodeId neighbor) const {
  for (const Arm& arm : arms_) {
    if (arm.live && arm.id == neighbor) return compute_bounds(arm.window);
  }
  return {util::kInf, util::kInf, util::kInf, 0};
}

std::size_t UcbSelector::arm_for(net::NodeId neighbor) {
  std::size_t free = arms_.size();
  for (std::size_t a = 0; a < arms_.size(); ++a) {
    if (!arms_[a].live) {
      free = std::min(free, a);
    } else if (arms_[a].id == neighbor) {
      return a;
    }
  }
  if (free == arms_.size()) {
    arms_.push_back({0, false,
                     TailWindow(static_cast<std::size_t>(params_.ucb_window),
                                params_.percentile)});
  }
  Arm& arm = arms_[free];
  arm.id = neighbor;
  arm.live = true;
  arm.window.clear();
  return free;
}

void UcbSelector::on_reset(net::NodeId) {
  for (Arm& arm : arms_) arm.live = false;
}

void UcbSelector::on_round_end(net::NodeId self, sim::RoundContext& ctx) {
  const auto& obs = ctx.obs;
  const auto neighbors = obs.neighbors(self);

  outgoing_.clear();
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    if (obs.is_outgoing(self, i)) outgoing_.push_back({neighbors[i], i, 0});
  }
  // Forget arms of neighbors no longer connected: if they are re-explored
  // later they start fresh, as the paper's per-connection history implies.
  for (Arm& arm : arms_) {
    if (arm.live && std::none_of(outgoing_.begin(), outgoing_.end(),
                                 [&](const Outgoing& o) {
                                   return o.id == arm.id;
                                 })) {
      arm.live = false;
    }
  }
  // Fold this round's finite relative timestamps into each outgoing
  // neighbor's window.
  for (Outgoing& o : outgoing_) {
    o.arm = arm_for(o.id);
    TailWindow& window = arms_[o.arm].window;
    for (double t : obs.rel_times(self, o.obs_index)) {
      if (std::isfinite(t)) window.add(t);
    }
  }
  if (outgoing_.size() < 2) return;

  // Disconnect rule: drop argmax lcb iff max lcb > min ucb.
  const Outgoing* worst = &outgoing_.front();
  double max_lcb = -util::kInf;
  double min_ucb = util::kInf;
  for (const Outgoing& o : outgoing_) {
    const Bounds b = compute_bounds(arms_[o.arm].window);
    // First strictly-greater lcb wins; outgoing is in adjacency order, so
    // ties resolve deterministically.
    if (b.lcb > max_lcb) {
      max_lcb = b.lcb;
      worst = &o;
    }
    min_ucb = std::min(min_ucb, b.ucb);
  }
  if (max_lcb > min_ucb) {
    ctx.topology.disconnect(self, worst->id);
    arms_[worst->arm].live = false;
    if (ctx.addrman != nullptr) {
      topo::dial_peers_from_book(ctx.topology, self, 1, *ctx.addrman,
                                 ctx.rng);
    } else {
      topo::dial_random_peers(ctx.topology, self, 1, ctx.rng);
    }
  }
}

}  // namespace perigee::core
