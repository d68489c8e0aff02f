// Parallel evaluation engine: wall-clock scaling of the greedy ordered
// traversal and the exhaustive validator as ThreadPoolEngine workers grow,
// plus the score cache's replay savings.  Emits BENCH_parallel.json for the
// perf trajectory; speedup is relative to the serial engine on this
// machine (a 1-core container reports ~1x by construction — the numbers
// to watch there are cache_saved_pct and the determinism check).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "dmm/core/search.h"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Run {
  unsigned threads = 1;
  double seconds = 0.0;
  double speedup = 1.0;
  dmm::core::ExplorationResult result;
};

bool same_outcome(const dmm::core::ExplorationResult& a,
                  const dmm::core::ExplorationResult& b) {
  return a.best == b.best &&
         a.best_sim.peak_footprint == b.best_sim.peak_footprint &&
         a.simulations == b.simulations && a.cache_hits == b.cache_hits;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dmm;
  using core::TreeId;

  // Optional positional cap on trace events (0 = full trace; the full DRR
  // trace replays for minutes per engine config, ~20000 keeps a smoke run
  // under a minute without changing what is measured) and --out for where
  // the JSON lands, so CI runs never clobber each other's snapshots.
  const bench::BenchArgs args =
      bench::parse_bench_args(argc, argv, "BENCH_parallel.json");
  const std::size_t max_events = args.max_events;

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> thread_counts = {1, 2, 4};
  if (hw > 4) thread_counts.push_back(hw);

  std::printf("Parallel exploration scaling (%u hardware threads)\n", hw);
  bench::print_rule('=');

  std::FILE* json = std::fopen(args.out.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", args.out.c_str());
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"parallel_explore\",\n");
  std::fprintf(json, "  \"hardware_threads\": %u,\n  \"workloads\": [", hw);

  bool first_workload = true;
  bool all_identical = true;
  for (const char* name : {"drr", "render3d"}) {
    core::AllocTrace trace =
        workloads::record_trace(workloads::case_study(name), 1);
    trace.truncate(max_events);
    // The scaling workload: the greedy walk plus the exhaustive validator
    // over the six highest-impact trees — the paper's full Sec. 5 loop.
    core::GreedySearch greedy;
    core::ExhaustiveSearch validator({TreeId::kA2, TreeId::kA5, TreeId::kE2,
                                      TreeId::kD2, TreeId::kB4, TreeId::kC1});

    std::printf("\n== %s (%zu events) ==\n", name, trace.size());
    std::printf("%8s %12s %9s %9s %11s %11s\n", "threads", "seconds",
                "speedup", "eff.", "replays", "cache hits");
    bench::print_rule();

    std::vector<Run> runs;
    for (const unsigned threads : thread_counts) {
      core::ExplorerOptions opts;
      opts.num_threads = threads;
      const std::unique_ptr<core::EvalEngine> engine =
          core::make_engine(threads);
      const auto t0 = std::chrono::steady_clock::now();
      Run run;
      run.result = core::run_search(trace, greedy, opts, engine.get());
      const core::ExplorationResult validation =
          core::run_search(trace, validator, opts, engine.get());
      run.threads = threads;
      run.seconds = seconds_since(t0);
      run.result.simulations += validation.simulations;
      run.result.cache_hits += validation.cache_hits;
      run.speedup = runs.empty() ? 1.0 : runs[0].seconds / run.seconds;
      if (!runs.empty() && !same_outcome(runs[0].result, run.result)) {
        all_identical = false;
      }
      std::printf("%8u %12.3f %8.2fx %8.0f%% %11llu %11llu\n", threads,
                  run.seconds, run.speedup,
                  100.0 * run.speedup / static_cast<double>(threads),
                  static_cast<unsigned long long>(run.result.simulations),
                  static_cast<unsigned long long>(run.result.cache_hits));
      runs.push_back(std::move(run));
    }

    const Run& base = runs[0];
    const double evals = static_cast<double>(base.result.simulations +
                                             base.result.cache_hits);
    const double saved_pct =
        evals == 0.0
            ? 0.0
            : 100.0 * static_cast<double>(base.result.cache_hits) / evals;
    std::printf("cache saved %.1f%% of %s replays; winning vector %s\n",
                saved_pct, name, alloc::signature(base.result.best).c_str());

    std::fprintf(json, "%s\n    {\n      \"workload\": \"%s\",\n",
                 first_workload ? "" : ",", name);
    std::fprintf(json, "      \"events\": %zu,\n", trace.size());
    std::fprintf(json, "      \"cache_saved_pct\": %.2f,\n", saved_pct);
    std::fprintf(json, "      \"runs\": [");
    for (std::size_t i = 0; i < runs.size(); ++i) {
      std::fprintf(json,
                   "%s\n        {\"threads\": %u, \"seconds\": %.4f, "
                   "\"speedup\": %.3f, \"replays\": %llu, "
                   "\"cache_hits\": %llu}",
                   i == 0 ? "" : ",", runs[i].threads, runs[i].seconds,
                   runs[i].speedup,
                   static_cast<unsigned long long>(runs[i].result.simulations),
                   static_cast<unsigned long long>(runs[i].result.cache_hits));
    }
    std::fprintf(json, "\n      ]\n    }");
    first_workload = false;
  }

  std::fprintf(json, "\n  ],\n  \"results_bit_identical\": %s\n}\n",
               all_identical ? "true" : "false");
  std::fclose(json);

  std::printf("\nresults bit-identical across all thread counts: %s\n",
              all_identical ? "yes" : "NO — engine bug");
  std::printf("wrote %s\n", args.out.c_str());
  return all_identical ? 0 : 1;
}
