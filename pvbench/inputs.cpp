#include "inputs.hpp"

#include "pathview/sim/parallel_runner.hpp"
#include "pathview/support/prng.hpp"
#include "pathview/workloads/random_program.hpp"

namespace pvbench {

namespace pv = pathview;

namespace {

std::uint64_t mix(std::uint64_t x) {
  return pv::splitmix64(x);
}

double unit_interval(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

pv::workloads::Workload make_program(Shape shape) {
  pv::workloads::RandomProgramOptions o;
  o.seed = 7;
  o.num_files = 8;
  o.max_stmt_depth = 4;
  if (shape == Shape::kDivergent) {
    o.num_procs = 40;
    o.max_body_stmts = 4;
  } else {
    o.num_procs = 48;
    o.max_body_stmts = 5;
    o.allow_recursion = false;
    o.random_call_probs = false;
  }
  return pv::workloads::make_random_program(o);
}

std::vector<pv::sim::RawProfile> simulate(const pv::workloads::Workload& w,
                                          std::uint32_t ranks,
                                          std::uint64_t sim_seed,
                                          std::uint64_t cost_seed,
                                          std::uint64_t stream, double drift) {
  pv::sim::ParallelConfig pc;
  pc.nranks = ranks;
  pc.nthreads = kThreads;
  pc.base = w.run;
  pc.base.seed = sim_seed;
  const std::uint64_t key = mix(cost_seed) ^ mix(stream + 0x51ed27);
  pc.base.cost_transform = [key, drift](std::uint32_t rank, std::uint32_t,
                                        pv::model::StmtId stmt,
                                        const pv::model::EventVector& base) {
    const double u = unit_interval(mix(key ^ mix(rank) ^ (stmt * 0x9e37ULL)));
    return base * (drift * (1.0 + 0.5 * u));
  };
  return pv::sim::run_parallel(*w.program, *w.lowering, pc);
}

}  // namespace pvbench
