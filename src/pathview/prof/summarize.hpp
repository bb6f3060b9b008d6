// Summarization of large parallel executions (paper Sec. IV "finalization"
// and Sec. VII): instead of keeping a metric column per process, profiles
// are reduced to per-scope summary statistics (mean, min, max, stddev) over
// ranks. analysis::imbalance builds its reports on these.
#pragma once

#include <array>
#include <vector>

#include "pathview/prof/pipeline.hpp"
#include "pathview/support/stats.hpp"

namespace pathview::prof {

struct SummaryCct {
  CanonicalCct cct;  // union tree; samples() hold the SUM over all ranks
  /// Per union-node, per event: statistics of the *inclusive* value across
  /// ranks (a rank where the scope is absent contributes zero).
  std::vector<std::array<OnlineStats, model::kNumEvents>> inclusive_stats;
  std::uint32_t nranks = 0;

  const OnlineStats& stats(CctNodeId n, model::Event e) const {
    return inclusive_stats[n][static_cast<std::size_t>(e)];
  }
};

/// Correlate all ranks and merge them into a union CCT in Pipeline::run's
/// one pass (implemented in pipeline.cpp), and compute per-scope cross-rank
/// statistics of inclusive costs from where each rank's nodes landed.
SummaryCct summarize(const std::vector<sim::RawProfile>& ranks,
                     const structure::StructureTree& tree,
                     std::uint32_t nthreads = 0);

}  // namespace pathview::prof
