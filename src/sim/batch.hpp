/// \file
/// \brief Batched multi-source broadcast engine.
///
/// Every figure and ablation reduces to "broadcast |B| blocks from
/// hash-weighted sources over one static graph": the round loop simulates
/// all blocks of a round on one `net::CsrTopology` snapshot, and the λ
/// metric broadcasts from every node of the network. This engine runs all
/// sources of such a batch through one compile and one arena-backed scratch
/// pool:
///
///  - arrival/ready outputs are laid out SoA, one contiguous per-source
///    stripe of an arena each (`MultiSourceResult`), so a batch performs two
///    allocations total instead of 2·|sources|;
///  - each source runs the settle-once bucket kernel of sim/parallel.hpp
///    on its worker's lane, which owns every node; the exact-grid plan is
///    derived once per batch, and graphs it rejects (no edges, a zero
///    minimum delay, too wide a key span) take the kernel's heap fallback;
///  - sources fan out across an optional `runner::ThreadPool`: each worker
///    owns one scratch lane, every source writes its pre-assigned stripe,
///    and results are therefore byte-identical at any worker count — the
///    same determinism contract as the sweep runner.
///
/// Outputs are byte-for-byte identical to both the legacy Topology-walking
/// engine and the single-source CSR engine; `tests/sim_engine_diff_test.cpp`
/// holds all three to that across every scenario regime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/csr.hpp"
#include "net/types.hpp"
#include "sim/broadcast.hpp"
#include "sim/dary_heap.hpp"
#include "util/aligned.hpp"

namespace perigee::runner {
class ThreadPool;
}  // namespace perigee::runner

namespace perigee::sim {

/// SoA outcome of one batch: per-source stripes of two shared arenas.
/// Stripe `s` of each arena holds what `BroadcastResult::arrival` / `ready`
/// would for `sources[s]`. Stripes are padded to a whole cache line
/// (`stride()` doubles apart, >= nodes) and the arenas themselves are
/// line-aligned (util::AlignedDoubles) — both halves are needed for two
/// pool workers writing adjacent stripes to never false-share the line
/// straddling their boundary. The pad tail is never read (every accessor
/// spans exactly `nodes`).
struct MultiSourceResult {
  /// Doubles per cache line — the stripe padding quantum.
  static constexpr std::size_t kLineDoubles = 64 / sizeof(double);

  std::size_t nodes = 0;               ///< stripe length (without padding)
  std::vector<net::NodeId> sources;    ///< batch echo, stripe index -> source
  util::AlignedDoubles arrival;        ///< sources.size() stripes of stride()
  util::AlignedDoubles ready;          ///< sources.size() stripes of stride()

  /// `nodes` rounded up to a whole cache line of doubles.
  static std::size_t stride_for(std::size_t nodes) {
    return (nodes + (kLineDoubles - 1)) & ~(kLineDoubles - 1);
  }
  /// Doubles between consecutive stripes' starts in each arena.
  std::size_t stride() const { return stride_for(nodes); }

  /// Sets the batch shape and sizes both arenas (`sources × stride()`).
  /// The engines call this before fanning out stripe writers.
  void prepare(std::size_t node_count, std::span<const net::NodeId> srcs) {
    nodes = node_count;
    sources.assign(srcs.begin(), srcs.end());
    arrival.resize(sources.size() * stride());
    ready.resize(sources.size() * stride());
  }

  /// Mutable start of stripe `s` (engine writers only).
  double* arrival_data(std::size_t s) { return arrival.data() + s * stride(); }
  double* ready_data(std::size_t s) { return ready.data() + s * stride(); }

  /// Arrival stripe of batch entry `s`.
  std::span<const double> arrival_of(std::size_t s) const {
    return {arrival.data() + s * stride(), nodes};
  }
  /// Ready stripe of batch entry `s`.
  std::span<const double> ready_of(std::size_t s) const {
    return {ready.data() + s * stride(), nodes};
  }
  /// Copies stripe `s` into the single-source result shape (block hooks,
  /// tests). `out`'s vectors are reused.
  void extract(std::size_t s, BroadcastResult& out) const;
};

/// Reusable arena of per-worker scratch lanes (bucket ring, settled flags,
/// heap fallback, one stripe pair for the streaming form, λ sort buffers).
/// Lanes are grown on demand and survive across batches, so a sweep cell
/// running thousands of rounds performs no steady-state allocation. Not
/// thread-safe to share across concurrent *batches*; within one batch each
/// worker owns one lane.
class MultiSourceScratch {
 public:
  MultiSourceScratch();
  ~MultiSourceScratch();
  MultiSourceScratch(MultiSourceScratch&&) noexcept;
  MultiSourceScratch& operator=(MultiSourceScratch&&) noexcept;

  struct Lane;
  /// Lane `i`, valid until the next `ensure_lanes`. Exposed for the λ
  /// evaluation, which keeps a per-lane sort buffer next to the engine's
  /// scratch.
  Lane& lane(std::size_t i);
  std::size_t lanes() const;
  /// Grows the pool to at least `count` lanes.
  void ensure_lanes(std::size_t count);

  /// Heap bytes across all lanes; reported through the
  /// `mem.batch_scratch_bytes` obs gauge after each batch (memory-budget
  /// accounting for the scale path, next to `mem.csr_bytes`).
  std::size_t memory_bytes() const;

 private:
  std::vector<std::unique_ptr<Lane>> lanes_;
};

/// Per-worker scratch: the relaxation kernel's state (sim/parallel.cpp)
/// plus caller-usable stripes and sort buffers.
///
/// alignas(64): each lane object starts on its own cache line, so the hot
/// scalar state of two workers' lanes (ring cursors, vector headers) never
/// shares one — the vectors' heap blocks are naturally distinct already.
/// `tests/sim_batch_layout_test.cpp` guards both this and the stripe
/// padding above against regression.
struct alignas(64) MultiSourceScratch::Lane {
  /// Bucket ring: a power-of-two window over absolute bucket indices
  /// (slot = index & mask) holding the node ids queued in each bucket.
  std::vector<std::vector<net::NodeId>> ring;
  std::vector<std::uint64_t> occupied;  ///< per-slot non-empty bits
  std::uint64_t mask = 0;               ///< ring capacity - 1
  std::size_t pending = 0;              ///< entries across the ring
  std::vector<std::uint8_t> settled;    ///< per node
  std::vector<HeapItem> heap;           ///< heap-fallback storage
  std::vector<double> arrival;          ///< streaming-form stripe
  std::vector<double> ready;            ///< streaming-form stripe
  /// (arrival, hash power) pairs for the λ coverage accumulation; lives here
  /// so metrics::eval_all_sources is allocation-free per source too.
  std::vector<std::pair<double, double>> by_arrival;
  /// Ping-pong buffer for the radix sort of `by_arrival`.
  std::vector<std::pair<double, double>> sort_scratch;
};

/// Simulates a broadcast from every entry of `sources` over one compiled
/// snapshot, materializing all stripes (the round loop's shape: |B| miners,
/// observation recording wants every result at once). With a pool, sources
/// are partitioned into contiguous per-worker ranges; without one the batch
/// runs inline. Byte-identical to per-source `simulate_broadcast` at any
/// worker count.
void simulate_broadcast_batch(const net::CsrTopology& csr,
                              std::span<const net::NodeId> sources,
                              MultiSourceScratch& scratch,
                              MultiSourceResult& out,
                              runner::ThreadPool* pool = nullptr);

/// Streaming form for batches whose per-source outputs reduce immediately
/// (the λ metric: n sources would otherwise materialize O(n²) doubles).
/// Each source's stripes live in its lane and are valid only during the
/// `sink` call; `sink(lane, s, arrival, ready)` may run concurrently from
/// pool workers for distinct `s` and must write only `s`-indexed slots to
/// preserve the determinism contract. With `need_ready` false the ready
/// fill pass is skipped and the sink receives an empty ready span — the λ
/// evaluation only consumes arrival.
using SourceSink = std::function<void(
    std::size_t lane, std::size_t s, std::span<const double> arrival,
    std::span<const double> ready)>;
void for_each_source_broadcast(const net::CsrTopology& csr,
                               std::span<const net::NodeId> sources,
                               MultiSourceScratch& scratch,
                               const SourceSink& sink,
                               runner::ThreadPool* pool = nullptr,
                               bool need_ready = true);

}  // namespace perigee::sim
