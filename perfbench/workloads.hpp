// The benchmark's workloads: four sweep grids, each one network shape run
// from one process on a fixed worker count. Every grid is exactly what
// `perigee_sweep` runs for the flags in `cli`, so a workload's result JSON
// can be reproduced (and diffed) with the shipped CLI.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "runner/sweep.hpp"

namespace perfbench {

struct Workload {
  const char* name;
  const char* cli;  // equivalent perigee_sweep flags (without --seed/--jobs)
  perigee::runner::SweepSpec (*make)();
};

// Every workload, in the order the report lists them.
const std::vector<Workload>& workloads();

// nullptr for unknown names.
const Workload* find_workload(std::string_view name);

// The workload's grid with base seed `seed` (job s of a cell runs seed + s).
perigee::runner::SweepSpec make_spec(const Workload& workload,
                                     std::uint64_t seed);

// Shrinks a grid to a smoke size: every cell at `nodes` nodes and every
// swept round count replaced by `rounds`. Keeps every other axis, so the
// shrunken grid exercises the same regimes (churn, queue, ideal, ...).
void shrink(perigee::runner::SweepSpec& spec, std::size_t nodes, int rounds);

// What one run of a grid computes, for the result file's run context.
struct InputSize {
  std::size_t nodes = 0;           // largest n in the grid
  std::size_t jobs = 0;            // (cell, seed) pairs
  std::size_t blocks = 0;          // block broadcasts simulated in rounds
  std::size_t lambda_sources = 0;  // per-source λ evaluations (all passes)
};
InputSize input_size(const perigee::runner::SweepSpec& spec);

}  // namespace perfbench
