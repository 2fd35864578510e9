/// \file
/// \brief The settle-once bucket relaxation kernel behind every delay-only
/// broadcast.
///
/// One call relaxes one source on one scratch lane; the lane owns every
/// node, so nothing is shared with another call. Parallelism lives one
/// level up: the batched engine (sim/batch.hpp) fans a batch's sources
/// across the pool, one lane per worker, and the sweep runner fans out
/// cells and seeds. The kernel keeps the repo's byte-parity contract by
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
///    recurrence computed through identical double additions, so the
///    result is byte-identical to the reference Topology walker
///    (tests/sim_engine_diff_test.cpp pins it).
///
/// Graphs the exact grid cannot serve (no edges, a zero or non-finite
/// minimum delay, a key span beyond 2^52 grid units or the 2^20-bucket
/// ring) take the one sequential 4-ary heap relaxation instead, so the
/// kernel is total over every regime the tests throw at it.
#pragma once

#include <cstdint>

#include "net/csr.hpp"
#include "net/types.hpp"
#include "sim/batch.hpp"

namespace perigee::sim {

/// The Fast engine's relaxation backend. `Batched` is the only one: the
/// round's sources fan out across the pool, one settle-once relaxation
/// each. The enum and `core::ExperimentConfig::relax_engine` remain only
/// because the frozen benchmark harness (perfbench/harness.cpp) still
/// names them.
enum class RelaxEngine {
  Batched,
};

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

/// One source's relaxation on `lane` into caller-provided stripes of
/// `csr.size()` doubles. `ready` may be null to skip the ready fill.
/// Byte-identical to `simulate_broadcast`.
void relax_source(const net::CsrTopology& csr, const RelaxPlan& plan,
                  net::NodeId src, MultiSourceScratch::Lane& lane,
                  double* arrival, double* ready);

}  // namespace perigee::sim
