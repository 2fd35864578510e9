// Statistics toolkit: percentiles, online moments, histograms, summaries.
//
// The 90th-percentile operator defined here is the scoring primitive used by
// every Perigee variant (paper §4.2-4.3); it intentionally propagates +inf
// entries (a neighbor that never delivered a block) to the top of the order.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace perigee::util {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

// Percentile q in [0,1] of an unsorted sample, nearest-rank with linear
// interpolation between order statistics (the "linear" / type-7 estimator).
// An empty sample yields +inf (matches "no observations => worst score").
double percentile(std::span<const double> sample, double q);

// Same, but the caller guarantees `sorted` is ascending. +inf entries are
// permitted and sort last.
double percentile_sorted(std::span<const double> sorted, double q);

// Same value as percentile(sample, q), computed in place: selects the two
// order statistics the interpolation reads (nth_element, then min_element
// above it) instead of sorting, and leaves `sample` permuted. O(n), no
// allocation; the scoring loops pass a reused buffer.
double percentile_in_place(std::span<double> sample, double q);

// The type-7 interpolation every percentile above shares. `kth(i)` returns
// the i-th smallest of n values (0-based, +inf last); it is called for the
// lower rank and then, when it differs, the upper one, so a caller can
// select lazily. Any ordered store of a sample (a sorted array, a
// selection buffer, UCB's top-tail window) reads its percentile through
// this one function and gets the same bits.
template <typename Kth>
double percentile_by_rank(std::size_t n, double q, Kth&& kth) {
  PERIGEE_ASSERT(q >= 0.0 && q <= 1.0);
  if (n == 0) return kInf;
  if (n == 1) return kth(std::size_t{0});
  const double rank = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = rank - static_cast<double>(lo);
  const double a = kth(lo);
  const double b = hi == lo ? a : kth(hi);
  if (std::isinf(a) || std::isinf(b)) {
    // Interpolating with +inf poisons the result; return the dominating end.
    return frac > 0.0 ? b : a;
  }
  return a + (b - a) * frac;
}

double mean(std::span<const double> sample);
double stddev(std::span<const double> sample);  // sample stddev (n-1)

// Welford online accumulator.
class OnlineStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return n_ == 0 ? 0.0 : mean_; }
  double variance() const;  // sample variance, 0 if n < 2
  double stddev() const;
  double min() const { return n_ == 0 ? kInf : min_; }
  double max() const { return n_ == 0 ? -kInf : max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = kInf;
  double max_ = -kInf;
};

struct Summary {
  std::size_t count = 0;
  double min = 0, max = 0, mean = 0, stddev = 0;
  double p10 = 0, p50 = 0, p90 = 0, p99 = 0;
};

// Summary of an unsorted sample (sorts a copy; finite and +inf entries ok).
Summary summarize(std::span<const double> sample);

// Fixed-width histogram over [lo, hi); values outside are clamped into the
// first/last bin. Used for the Figure-5 edge-latency histograms.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void add_all(std::span<const double> xs);

  std::size_t bins() const { return counts_.size(); }
  std::size_t count(std::size_t bin) const { return counts_[bin]; }
  std::size_t total() const { return total_; }
  double bin_lo(std::size_t bin) const;
  double bin_hi(std::size_t bin) const;
  double fraction(std::size_t bin) const;

  // Render as rows of "lo..hi  count  bar" for console output.
  std::string render(std::size_t bar_width = 50) const;

  // Indices of local maxima of the (lightly smoothed) bin counts; used by
  // tests to check the bimodality claim of Figure 5.
  std::vector<std::size_t> modes() const;

 private:
  double lo_, hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace perigee::util
