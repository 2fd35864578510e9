/// \file
/// \brief The settle-once bucket relaxation kernel behind every delay-only
/// broadcast.
///
/// The batched engine (sim/batch.hpp) runs this kernel once per source with
/// a team of one on its worker's lane; `simulate_broadcast_parallel` runs it
/// with a team the size of the pool, so one large single-source broadcast
/// spreads over several cores. Both keep the repo's byte-parity contract by
/// bucketing on an exact fixed-point grid (util/fixedpoint.hpp):
///
///  - keys are bucketed by the exact integer index
///    `quantize(key) >> width_shift`, with the power-of-two bucket width
///    chosen so `2 * width <= min-delay` holds as an integer inequality.
///    Since bucket boundaries are exactly representable doubles, every
///    candidate generated while draining bucket `b` is provably >= the
///    start of bucket `b + 1` — not merely up to rounding, *exactly* (the
///    candidate's true sum is >= that representable boundary, and rounding
///    to nearest is monotone). Hence a node's tentative distance is final
///    when its bucket starts draining, and each node relaxes exactly once
///    (settle-once delta stepping: a settled flag replaces the stale-key
///    compare);
///  - settle-once makes the relax order *within* a bucket irrelevant to
///    the outputs: every arrival is the unique fixed point of the Bellman
///    recurrence computed through identical double additions, so a bucket
///    can be drained in any order, and by several workers at once;
///  - nodes are owner-partitioned into contiguous per-member ranges. In the
///    relax phase each member drains its own slice of the current bucket,
///    applies candidates for nodes it owns directly, and buffers candidates
///    for remote nodes per target member — members never read or write
///    another member's arrival entries. A barrier later, the merge phase
///    applies each owner's inbox in fixed member order and the next
///    non-empty bucket is agreed on (two barrier crossings per non-empty
///    bucket, see runner::run_team). A team of one owns every node, never
///    buffers and never waits on a barrier. The result is byte-identical to
///    the sequential oracle at *any* team size;
///    tests/sim_engine_diff_test.cpp pins that at 1, 2 and 4 members.
///
/// Graphs the exact grid cannot serve (no edges, a zero or non-finite
/// minimum delay, a key span beyond 2^52 grid units or the 2^20-bucket
/// ring) take the one sequential 4-ary heap relaxation instead, so the
/// kernel is total over every regime the tests throw at it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "net/csr.hpp"
#include "net/types.hpp"
#include "sim/batch.hpp"
#include "sim/broadcast.hpp"

namespace perigee::runner {
class ThreadPool;
}  // namespace perigee::runner

namespace perigee::sim {

/// Worker layout for the round loop's Fast engine: the batched engine
/// (the round's sources fan out across the pool, a team of one each) or a
/// team the size of the pool inside every source. Outputs are
/// byte-identical either way; the knob is a wall-clock A/B switch plumbed
/// through `core::ExperimentConfig`, `RoundRunner` and
/// `perigee_sweep --engine`.
enum class RelaxEngine {
  Batched,
  ParallelDelta,
};

/// CLI spelling of `engine` ("batched" / "parallel-delta").
const char* relax_engine_name(RelaxEngine engine);
/// Inverse of `relax_engine_name`; nullopt for unknown spellings.
std::optional<RelaxEngine> relax_engine_from_name(std::string_view name);

/// Exact-grid bucketing plan of one snapshot, derived once per batch from
/// its cached delay bounds: the power-of-two grid `scale`, the bucket width
/// `2^shift` grid units and the ring size one relaxation's reach needs.
/// `use_buckets` is false when no grid works; the kernel then runs the heap.
struct RelaxPlan {
  bool use_buckets = false;
  double scale = 1.0;
  int shift = 0;
  std::uint64_t ring_cap = 64;
};

/// The plan for `csr` (see the file comment for when it is rejected).
RelaxPlan make_relax_plan(const net::CsrTopology& csr);

/// One source's relaxation into caller-provided stripes of `csr.size()`
/// doubles, run by a team of `members` workers on the scratch lanes
/// `first_lane .. first_lane + members - 1` (ensured by the caller).
/// `members > 1` needs `pool` with at least that many workers. `ready` may
/// be null to skip the ready fill. Byte-identical to `simulate_broadcast`
/// at any team size.
void relax_source(const net::CsrTopology& csr, const RelaxPlan& plan,
                  net::NodeId src, MultiSourceScratch& scratch,
                  std::size_t first_lane, unsigned members, double* arrival,
                  double* ready, runner::ThreadPool* pool);

/// Single-source broadcast with a team the size of `pool` (inline with a
/// null pool). `arrival`/`ready` are caller-provided stripes of
/// `csr.size()` doubles; `ready` may be null to skip the ready fill.
void simulate_broadcast_parallel(const net::CsrTopology& csr, net::NodeId src,
                                 MultiSourceScratch& scratch, double* arrival,
                                 double* ready,
                                 runner::ThreadPool* pool = nullptr);

/// Convenience form filling a `BroadcastResult` (tests, block hooks).
void simulate_broadcast_parallel(const net::CsrTopology& csr, net::NodeId src,
                                 MultiSourceScratch& scratch,
                                 BroadcastResult& out,
                                 runner::ThreadPool* pool = nullptr);

}  // namespace perigee::sim
