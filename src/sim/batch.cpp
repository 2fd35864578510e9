#include "sim/batch.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runner/thread_pool.hpp"
#include "sim/parallel.hpp"
#include "util/assert.hpp"

namespace perigee::sim {

// The false-sharing guard the SoA audit added: a lane must claim whole
// cache lines so no two workers' lane state straddles one.
static_assert(alignof(MultiSourceScratch::Lane) >= 64,
              "scratch lanes must be cache-line aligned");

namespace {

// Fans `count` sources across the pool as contiguous per-worker ranges;
// work(lane, s) must write only s-indexed output. Worker count never
// affects results — it only changes which lane's scratch a source borrows.
void dispatch(std::size_t count, MultiSourceScratch& scratch,
              runner::ThreadPool* pool,
              const std::function<void(std::size_t lane, std::size_t s)>&
                  work) {
  std::size_t workers =
      pool != nullptr ? std::min<std::size_t>(pool->size(), count) : 1;
  if (workers == 0) workers = 1;
  scratch.ensure_lanes(workers);
  PERIGEE_COUNTER_ADD("engine.batches", 1);
  PERIGEE_HISTOGRAM_OBSERVE("engine.batch.sources", count);
  // Lane occupancy: how many scratch lanes (== workers) the batch actually
  // spread across. A stuck-at-1 distribution under --jobs N flags a
  // dispatch problem, not a pool problem.
  PERIGEE_HISTOGRAM_OBSERVE("engine.batch.lanes", workers);
  if (workers <= 1) {
    for (std::size_t s = 0; s < count; ++s) work(0, s);
    return;
  }
  const std::size_t chunk = (count + workers - 1) / workers;
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t lo = w * chunk;
    const std::size_t hi = std::min(count, lo + chunk);
    if (lo >= hi) break;
    pool->submit([&work, w, lo, hi] {
      for (std::size_t s = lo; s < hi; ++s) work(w, s);
    });
  }
  pool->wait();
}

}  // namespace

void MultiSourceResult::extract(std::size_t s, BroadcastResult& out) const {
  PERIGEE_ASSERT(s < sources.size());
  out.miner = sources[s];
  const auto a = arrival_of(s);
  const auto r = ready_of(s);
  out.arrival.assign(a.begin(), a.end());
  out.ready.assign(r.begin(), r.end());
}

MultiSourceScratch::MultiSourceScratch() = default;
MultiSourceScratch::~MultiSourceScratch() = default;
MultiSourceScratch::MultiSourceScratch(MultiSourceScratch&&) noexcept =
    default;
MultiSourceScratch& MultiSourceScratch::operator=(
    MultiSourceScratch&&) noexcept = default;

MultiSourceScratch::Lane& MultiSourceScratch::lane(std::size_t i) {
  PERIGEE_ASSERT(i < lanes_.size());
  return *lanes_[i];
}

std::size_t MultiSourceScratch::lanes() const { return lanes_.size(); }

void MultiSourceScratch::ensure_lanes(std::size_t count) {
  while (lanes_.size() < count) {
    lanes_.push_back(std::make_unique<Lane>());
  }
}

std::size_t MultiSourceScratch::memory_bytes() const {
  std::size_t bytes = 0;
  for (const auto& lane : lanes_) {
    bytes += lane->ring.capacity() * sizeof(lane->ring[0]) +
             lane->occupied.capacity() * sizeof(std::uint64_t) +
             lane->settled.capacity() +
             lane->heap.capacity() * sizeof(HeapItem) +
             lane->arrival.capacity() * sizeof(double) +
             (lane->by_arrival.capacity() + lane->sort_scratch.capacity()) *
                 sizeof(std::pair<double, double>);
    for (const auto& slot : lane->ring) {
      bytes += slot.capacity() * sizeof(net::NodeId);
    }
  }
  return bytes;
}

void simulate_broadcast_batch(const net::CsrTopology& csr,
                              std::span<const net::NodeId> sources,
                              MultiSourceScratch& scratch,
                              MultiSourceResult& out,
                              runner::ThreadPool* pool) {
  const std::size_t n = csr.size();
  PERIGEE_TRACE_SPAN_ARGS(batch_span, "broadcast_batch",
                          obs::TraceArgs()
                              .arg("sources", sources.size())
                              .arg("nodes", n)
                              .json());
  out.prepare(n, sources);
  const RelaxPlan plan = make_relax_plan(csr);
  dispatch(sources.size(), scratch, pool,
           [&](std::size_t lane_idx, std::size_t s) {
             relax_source(csr, plan, sources[s], scratch.lane(lane_idx),
                          out.arrival_data(s), out.ready_data(s));
           });
  PERIGEE_GAUGE_MAX("mem.batch_scratch_bytes", scratch.memory_bytes());
}

void for_each_source_broadcast(const net::CsrTopology& csr,
                               std::span<const net::NodeId> sources,
                               MultiSourceScratch& scratch,
                               const SourceSink& sink,
                               runner::ThreadPool* pool) {
  const std::size_t n = csr.size();
  const RelaxPlan plan = make_relax_plan(csr);
  dispatch(sources.size(), scratch, pool,
           [&](std::size_t lane_idx, std::size_t s) {
             MultiSourceScratch::Lane& lane = scratch.lane(lane_idx);
             lane.arrival.resize(n);
             relax_source(csr, plan, sources[s], lane, lane.arrival.data(),
                          /*ready=*/nullptr);
             sink(lane_idx, s, lane.arrival);
           });
}

}  // namespace perigee::sim
