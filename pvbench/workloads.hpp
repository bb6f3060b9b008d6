// The four pvbench workloads. Each runs its set-up, then measures for
// cfg.seconds and records its metrics and checks into `run`.
#pragma once

#include "harness.hpp"
#include "inputs.hpp"

namespace pvbench {

/// pvprof's --measurements path (load -> Pipeline::run -> capture ->
/// save_binary, then summarize) over 64 ranks of the given shape.
void run_postmortem(const Config& cfg, Shape shape, Run& run);

/// The divergent 111k-node PVDB2 behind an in-process serve::Server,
/// driven by 4 connections at fixed open-loop rates and closed-loop.
void run_browse(const Config& cfg, Run& run);

/// pvdiff's path: open every ensemble member, align, run the regression
/// query.
void run_compare(const Config& cfg, Run& run);

/// Rep loop bound: keep going until the run's seconds are used (and at
/// least min_reps reps are done), never beyond max_reps.
inline bool more_reps(const Config& cfg, int reps, Clock::time_point t0) {
  if (reps >= cfg.sizes.max_reps) return false;
  return reps < cfg.sizes.min_reps || ms_since(t0) < cfg.seconds * 1e3;
}

}  // namespace pvbench
