// Input generation (the benchmark's set-up): the two program shapes, the
// seeded per-rank costs, and the simulated 64-rank executions.
//
// The program shape is fixed per workload, so every seed measures the same
// amount of work; the seed draws every rank's statement costs (a load
// imbalance in [1, 1.5) of the nominal cost), the browse script and the
// compare drift. Costs never drop below nominal, so with the generator's
// period-1 sampling every executed statement is still sampled at least once
// and the CCT shape does not depend on the seed.
#pragma once

#include <cstdint>
#include <vector>

#include "pathview/sim/raw_profile.hpp"
#include "pathview/workloads/workload.hpp"

namespace pvbench {

enum class Shape {
  /// Recursive, probabilistic call paths: every rank explores its own slice
  /// of the context space (64 ranks: ~4.3k-node parts, ~111k-node union).
  kDivergent,
  /// Every call taken, no recursion: every rank has the same ~32k-node CCT
  /// (the paper's PFLOTRAN/S3D shape; the merge is pure node matching).
  kSpmd,
};

pathview::workloads::Workload make_program(Shape shape);

/// Simulate `ranks` ranks of `w` on 4 worker threads. `sim_seed` drives the
/// control flow (which calls and branches are taken); `cost_seed` and
/// `stream` the per-rank, per-statement cost factors; `drift` scales every
/// cost on top of them.
std::vector<pathview::sim::RawProfile> simulate(
    const pathview::workloads::Workload& w, std::uint32_t ranks,
    std::uint64_t sim_seed, std::uint64_t cost_seed, std::uint64_t stream,
    double drift = 1.0);

/// Every pool is pinned to this many threads.
inline constexpr std::uint32_t kThreads = 4;

}  // namespace pvbench
