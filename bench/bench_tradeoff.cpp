// Sec. 5 closing claim — "trade-offs between the relevant design factors
// (e.g. improving performance consuming a little more memory footprint)
// are possible using our methodology, if the requirements of the final
// design need it."
//
// Sweep the search's time weight and print the footprint/work Pareto
// points it lands on for the DRR case study.

#include <cstdio>

#include "bench_util.h"
#include "dmm/core/search.h"

int main() {
  using namespace dmm;

  const workloads::Workload& drr = workloads::case_study("drr");
  const core::AllocTrace trace = workloads::record_trace(drr, 1);

  std::printf("Footprint/performance trade-off sweep (DRR trace, %zu "
              "events)\n",
              trace.size());
  bench::print_rule('=');
  std::printf("%-14s %14s %14s  %s\n", "time weight", "peak (B)",
              "work steps", "decision vector highlights");
  bench::print_rule();

  core::BeamSearch greedy(1);
  for (double weight : {0.0, 0.5, 2.0, 10.0, 100.0}) {
    core::ExplorerOptions opts;
    opts.time_weight = weight;
    const core::ExplorationResult r = core::run_search(trace, greedy, opts);
    std::printf("%-14.1f %14zu %14llu  A5=%s C1=%s B4=%s\n", weight,
                r.best_sim.peak_footprint,
                static_cast<unsigned long long>(r.work_steps),
                alloc::to_string(r.best.flexible).c_str(),
                alloc::to_string(r.best.fit).c_str(),
                alloc::to_string(r.best.adaptivity).c_str());
  }
  bench::print_rule();
  std::printf("weight 0 reproduces the paper's pure-footprint objective;\n"
              "larger weights surrender footprint for cheaper mechanisms "
              "(less splitting,\ncheaper fits) — the trade-off knob the "
              "paper describes.\n");
  return 0;
}
