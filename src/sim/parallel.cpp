#include "sim/parallel.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/dary_heap.hpp"
#include "util/assert.hpp"
#include "util/fixedpoint.hpp"
#include "util/prefetch.hpp"
#include "util/stats.hpp"

namespace perigee::sim {

namespace {

using Lane = MultiSourceScratch::Lane;

/// "No pending bucket" sentinel: the lane is drained.
constexpr std::uint64_t kNoBucket = std::numeric_limits<std::uint64_t>::max();
/// Hard per-lane ring ceiling.
constexpr std::uint64_t kMaxRingBuckets = std::uint64_t{1} << 20;

// The lane's bucket ring is a power-of-two window over absolute bucket
// indices (slot = index & mask) holding bare node ids — settle-once means
// entries need no keys; a stale duplicate is skipped by the settled flag.

void ensure_ring(Lane& lane, std::uint64_t cap) {
  if (!lane.ring.empty() && lane.mask + 1 >= cap) return;
  lane.ring.resize(cap);
  lane.occupied.assign(cap >> 6, 0);
  lane.mask = cap - 1;
}

void insert(Lane& lane, std::uint64_t bucket, net::NodeId node) {
  const std::uint64_t slot = bucket & lane.mask;
  std::vector<net::NodeId>& vec = lane.ring[slot];
  if (vec.empty()) lane.occupied[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  vec.push_back(node);
  ++lane.pending;
}

/// Drops the just-relaxed bucket's entries.
void drop_bucket(Lane& lane, std::uint64_t bucket) {
  const std::uint64_t slot = bucket & lane.mask;
  lane.pending -= lane.ring[slot].size();
  lane.ring[slot].clear();
  lane.occupied[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
}

/// Smallest non-empty absolute bucket index > `cur`; kNoBucket when the
/// lane is drained. All pending entries lie within (cur, cur + capacity]
/// (inserts are bounded by one relaxation reach, which the ring was sized
/// to), so one pass over the window suffices. The word scan is aligned:
/// ring capacity is a multiple of 64, so within any occupancy word the
/// absolute indices are contiguous.
std::uint64_t next_nonempty_after(const Lane& lane, std::uint64_t cur) {
  if (lane.pending == 0) return kNoBucket;
  std::uint64_t idx = cur + 1;
  const std::uint64_t end = cur + lane.mask + 1;
  while (idx <= end) {
    const std::uint64_t slot = idx & lane.mask;
    const std::uint64_t word = lane.occupied[slot >> 6] >> (slot & 63);
    if (word != 0) {
      return idx + static_cast<std::uint64_t>(std::countr_zero(word));
    }
    idx += 64 - (slot & 63);
  }
  return kNoBucket;
}

/// The settle-once drain: bucket by bucket in index order, each entry
/// relaxing its row once. The lane owns every node, so every candidate
/// updates `arrival` in place and queues into the lane's own ring.
void drain_buckets(const net::CsrTopology& csr, const RelaxPlan& plan,
                   net::NodeId src, Lane& lane, double* arrival) {
  const std::size_t n = csr.size();
  const std::size_t* offsets = csr.offsets();
  const std::size_t* row_ends = csr.row_ends();
  const net::NodeId* peers = csr.peer_data();
  const double* delays = csr.delay_data();
  // Exact: key * scale is an exponent shift (scale is a power of two), the
  // cast truncation is the true floor.
  const auto bucket_of = [scale = plan.scale, shift = plan.shift](double key) {
    return static_cast<std::uint64_t>(key * scale) >> shift;
  };

  // The lane's vectors are read through local pointers: the settled-flag
  // byte stores and the ring pushes could otherwise alias them and force a
  // reload per entry.
  ensure_ring(lane, plan.ring_cap);
  lane.settled.assign(n, 0);
  std::uint8_t* const settled = lane.settled.data();
  std::fill_n(arrival, n, util::kInf);
  arrival[src] = 0.0;
  insert(lane, 0, src);
  PERIGEE_TELEMETRY_ONLY(std::uint64_t tally_pops = 0);
  PERIGEE_TELEMETRY_ONLY(std::uint64_t tally_stale = 0);
  PERIGEE_TELEMETRY_ONLY(std::uint64_t tally_buckets = 0);
  for (std::uint64_t cur = 0; cur != kNoBucket;
       cur = next_nonempty_after(lane, cur)) {
    PERIGEE_TELEMETRY_ONLY(++tally_buckets;)
    // Stable while draining: every insert lands in a later bucket, and
    // the ring is sized so no later bucket shares this slot.
    const std::vector<net::NodeId>& slot = lane.ring[cur & lane.mask];
    const net::NodeId* const entries = slot.data();
    const std::size_t count = slot.size();
    PERIGEE_TELEMETRY_ONLY(tally_pops += count;)
    for (std::size_t i = 0; i < count; ++i) {
      const net::NodeId u = entries[i];
      if (i + 1 < count) {
        // Overlap the next entry's data-dependent loads with this row.
        PERIGEE_PREFETCH(&arrival[entries[i + 1]]);
        PERIGEE_PREFETCH(&settled[entries[i + 1]]);
      }
      // Branchless settle: a stale duplicate or non-forwarding node scans
      // an empty row (row_end collapsed onto row_begin) instead of taking
      // a branch the predictor can't learn. The flag is written
      // unconditionally; a stale entry's ready value is computed but
      // never used.
      const std::uint8_t was_settled = settled[u];
      settled[u] = 1;
      const bool live = (was_settled == 0) & (csr.forwards(u) | (u == src));
      PERIGEE_TELEMETRY_ONLY(tally_stale += was_settled;)
      const double ready_u =
          u == src ? 0.0 : arrival[u] + csr.validation_ms(u);
      const std::size_t row_begin = offsets[u];
      const std::size_t row_end = live ? row_ends[u] : row_begin;
      for (std::size_t e = row_begin; e < row_end; ++e) {
        const net::NodeId v = peers[e];
        const double cand = ready_u + delays[e];
        if (cand < arrival[v]) {
          arrival[v] = cand;
          // The exact-grid argument puts every candidate in a bucket
          // > cur already; the max is belt-and-braces, not a rounding
          // repair.
          insert(lane, std::max(bucket_of(cand), cur + 1), v);
        }
      }
    }
    drop_bucket(lane, cur);
  }
  PERIGEE_COUNTER_ADD("engine.bucket.pops", tally_pops);
  PERIGEE_COUNTER_ADD("engine.bucket.stale_pops", tally_stale);
  PERIGEE_COUNTER_ADD("engine.bucket.rounds", tally_buckets);
}

/// The sequential fallback for graphs the exact grid rejects: a lazy
/// decrease-key Dijkstra over the 4-ary heap. Arrival is the exact minimum
/// over identical per-path sums, so the bytes match the kernel's.
void solve_heap(const net::CsrTopology& csr, net::NodeId src,
                std::vector<HeapItem>& heap, double* arrival) {
  const std::size_t n = csr.size();
  std::fill_n(arrival, n, util::kInf);
  arrival[src] = 0.0;
  const std::size_t* offsets = csr.offsets();
  const std::size_t* row_ends = csr.row_ends();
  const net::NodeId* peers = csr.peer_data();
  const double* delays = csr.delay_data();
  PERIGEE_TELEMETRY_ONLY(std::uint64_t tally_pops = 0);
  PERIGEE_TELEMETRY_ONLY(std::uint64_t tally_stale = 0);
  heap.clear();
  heap_push(heap, {0.0, src});
  while (!heap.empty()) {
    const auto [t, u] = heap_pop(heap);
    PERIGEE_TELEMETRY_ONLY(++tally_pops;)
    if (t != arrival[u]) {  // stale: u settled at a smaller key
      PERIGEE_TELEMETRY_ONLY(++tally_stale;)
      continue;
    }
    if (!csr.forwards(u) && u != src) continue;
    const double ready_u = u == src ? 0.0 : t + csr.validation_ms(u);
    const std::size_t row_end = row_ends[u];
    for (std::size_t e = offsets[u]; e < row_end; ++e) {
      const net::NodeId v = peers[e];
      const double cand = ready_u + delays[e];
      if (cand < arrival[v]) {
        arrival[v] = cand;
        heap_push(heap, {cand, v});
      }
    }
  }
  PERIGEE_COUNTER_ADD("engine.heap.sources", 1);
  PERIGEE_COUNTER_ADD("engine.heap.pops", tally_pops);
  PERIGEE_COUNTER_ADD("engine.heap.stale_pops", tally_stale);
}

}  // namespace

RelaxPlan make_relax_plan(const net::CsrTopology& csr) {
  RelaxPlan plan;
  const double min_delay = csr.min_delay_ms();
  const double max_reach = csr.max_delay_ms() + csr.max_validation_ms();
  if (csr.num_links() == 0 || !(min_delay > 0.0) ||
      !std::isfinite(min_delay) || !std::isfinite(max_reach)) {
    return plan;  // degenerate delays: heap fallback
  }
  // Grid resolving the smallest delay into ~2^9 units...
  util::FixedPointScale grid = util::FixedPointScale::fit(min_delay, 10);
  // ... coarsened until the largest conceivable key (<= n relaxations of
  // max_reach each, doubled for slack) quantizes below 2^52 — the bound
  // under which bucket boundaries (index * width / scale) are exact doubles
  // and the settle-once argument is airtight rather than probabilistic.
  const double max_key_bound =
      (static_cast<double>(csr.size()) + 1.0) * max_reach * 2.0;
  while (grid.exponent > -1060 && max_key_bound * grid.scale >= 0x1p52) {
    --grid.exponent;
    grid.scale = std::ldexp(1.0, grid.exponent);
  }
  if (max_key_bound * grid.scale >= 0x1p52) return plan;
  const std::uint64_t min_q = grid.quantize(min_delay);
  const std::optional<int> shift = util::bucket_width_shift(min_q);
  if (!shift.has_value()) return plan;  // grid too coarse for this graph
  const std::uint64_t reach_buckets =
      (grid.quantize(max_reach) >> *shift) + 4;
  if (reach_buckets > kMaxRingBuckets) return plan;
  plan.use_buckets = true;
  plan.scale = grid.scale;
  plan.shift = *shift;
  plan.ring_cap = std::bit_ceil(std::max<std::uint64_t>(reach_buckets, 64));
  return plan;
}

void relax_source(const net::CsrTopology& csr, const RelaxPlan& plan,
                  net::NodeId src, Lane& lane, double* arrival,
                  double* ready) {
  const std::size_t n = csr.size();
  PERIGEE_ASSERT(src < n);
  if (plan.use_buckets) {
    drain_buckets(csr, plan, src, lane, arrival);
    PERIGEE_COUNTER_ADD("engine.bucket.sources", 1);
  } else {
    solve_heap(csr, src, lane.heap, arrival);
  }
  if (ready != nullptr) {
    // One pass after the relaxation: the last value the reference engines
    // store per node is exactly final-arrival + Δv, and +inf + Δv == +inf
    // keeps unreached nodes exact.
    for (std::size_t v = 0; v < n; ++v) {
      ready[v] = arrival[v] + csr.validation_ms(static_cast<net::NodeId>(v));
    }
    ready[src] = 0.0;  // the miner does not validate its own block
  }
}

}  // namespace perigee::sim
