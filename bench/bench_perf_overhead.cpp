// Sec. 5 claim — "these DM managers achieve the least memory footprint
// values with only a 10% overhead (on average) over the execution time of
// the fastest general-purpose DM manager observed in these case studies,
// i.e. Kingsley."
//
// google-benchmark harness: one benchmark per (case study x manager)
// replaying the recorded allocation trace; peak footprint is attached as
// a counter so the time/footprint trade-off is visible in one report.
// After the benchmark run, a summary prints the custom-vs-Kingsley time
// overhead per case study and on average, and writes it as JSON
// (`--out PATH`, default BENCH_overhead.json).  No gate: it is a
// wall-clock ratio, which a shared host moves.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "bench_util.h"

namespace {

using namespace dmm;

struct Prepared {
  core::AllocTrace trace;
  core::MethodologyResult design;
};

const std::map<std::string, Prepared>& prepared() {
  static const std::map<std::string, Prepared>* kPrepared = [] {
    auto* m = new std::map<std::string, Prepared>();
    for (const workloads::Workload& w : workloads::case_studies()) {
      core::AllocTrace trace = workloads::record_trace(w, 1);
      core::MethodologyResult design = core::design_manager(trace);
      m->emplace(w.name, Prepared{std::move(trace), std::move(design)});
    }
    return m;
  }();
  return *kPrepared;
}

std::unique_ptr<alloc::Allocator> build(const std::string& manager,
                                        const std::string& workload,
                                        sysmem::SystemArena& arena) {
  if (manager == "custom") {
    // strict accounting off: measure the manager, not the test harness.
    const auto& design = prepared().at(workload).design;
    return design.make_manager(arena, /*strict_accounting=*/false);
  }
  return managers::make_manager(manager, arena);
}

void BM_TraceReplay(benchmark::State& state, const std::string& workload,
                    const std::string& manager) {
  const core::AllocTrace& trace = prepared().at(workload).trace;
  std::size_t peak = 0;
  for (auto _ : state) {
    sysmem::SystemArena arena;
    auto mgr = build(manager, workload, arena);
    const core::SimResult sim = core::simulate(trace, *mgr);
    benchmark::DoNotOptimize(sim.peak_footprint);
    peak = sim.peak_footprint;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
  state.counters["peak_footprint_B"] =
      benchmark::Counter(static_cast<double>(peak));
}

void register_benchmarks() {
  const std::vector<std::string> managers = {"kingsley", "lea", "regions",
                                             "obstacks", "custom"};
  for (const workloads::Workload& w : workloads::case_studies()) {
    for (const std::string& m : managers) {
      benchmark::RegisterBenchmark(
          (w.name + "/" + m).c_str(),
          [name = w.name, m](benchmark::State& st) {
            BM_TraceReplay(st, name, m);
          })
          ->Unit(benchmark::kMillisecond);
    }
  }
}

double application_seconds(const workloads::Workload& w,
                           const std::string& manager, int reps) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    sysmem::SystemArena arena;
    auto mgr = build(manager, w.name, arena);
    const auto t0 = std::chrono::steady_clock::now();
    w.run(*mgr, 1);
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

void print_overhead_summary(const std::string& out) {
  std::printf("\nApplication execution-time overhead of the custom manager "
              "vs Kingsley\n(the fastest general-purpose manager) — the "
              "paper's Sec. 5 metric is the\nwhole application's run time, "
              "where DM management is one component:\n");
  bench::print_rule();
  std::FILE* json = std::fopen(out.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    std::exit(2);
  }
  std::fprintf(json, "{\n  \"bench\": \"perf_overhead\",\n");
  std::fprintf(json, "  \"case_studies\": [");
  double ratio_sum = 0.0;
  int n = 0;
  for (const workloads::Workload& w : workloads::case_studies()) {
    const double kingsley = application_seconds(w, "kingsley", 5);
    const double custom = application_seconds(w, "custom", 5);
    const double overhead = 100.0 * (custom - kingsley) / kingsley;
    std::printf("  %-10s app on kingsley %8.3f ms   app on custom %8.3f ms"
                "   overhead %+6.1f%%\n",
                w.name.c_str(), kingsley * 1e3, custom * 1e3, overhead);
    std::fprintf(json,
                 "%s\n    {\"workload\": \"%s\", \"kingsley_ms\": %.4f, "
                 "\"custom_ms\": %.4f, \"overhead_pct\": %.2f}",
                 n == 0 ? "" : ",", w.name.c_str(), kingsley * 1e3,
                 custom * 1e3, overhead);
    ratio_sum += overhead;
    ++n;
  }
  const double average = ratio_sum / n;
  std::fprintf(json, "\n  ],\n  \"average_overhead_pct\": %.2f\n}\n",
               average);
  std::fclose(json);
  bench::print_rule();
  std::printf("  average overhead: %+.1f%%  [paper: ~10%% on average]\n",
              average);
  std::printf("  (the microbenchmarks above isolate pure allocator cost,\n"
              "   where split/coalesce managers are inherently several "
              "times\n   slower than Kingsley's pop/push)\n");
}

}  // namespace

int main(int argc, char** argv) {
  register_benchmarks();
  // Initialize() consumes the --benchmark_* flags; the rest is ours.
  benchmark::Initialize(&argc, argv);
  const bench::BenchArgs args =
      bench::parse_bench_args(argc, argv, "BENCH_overhead.json");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_overhead_summary(args.out);
  std::printf("\nwrote %s\n", args.out.c_str());
  return 0;
}
