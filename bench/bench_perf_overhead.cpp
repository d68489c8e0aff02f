// Sec. 5 claim — "these DM managers achieve the least memory footprint
// values with only a 10% overhead (on average) over the execution time of
// the fastest general-purpose DM manager observed in these case studies,
// i.e. Kingsley."
//
// google-benchmark harness: one benchmark per (case study x manager)
// replaying the recorded allocation trace; peak footprint is attached as
// a counter so the time/footprint trade-off is visible in one report.
// After the benchmark run, a summary times each case study's application
// on Kingsley and on the custom manager, interleaved, for kRounds rounds,
// and prints the median and quartiles of both times, of their overhead,
// and of the round's average overhead over the case studies; it writes
// them as JSON (`--out PATH`, default BENCH_overhead.json).  No gate: it
// is a wall-clock ratio, which a shared host moves.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

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

/// Rounds of the interleaved Kingsley/custom timing.  Odd, so the median
/// is one measured round.
constexpr int kRounds = 11;

double application_seconds(const workloads::Workload& w,
                           const std::string& manager) {
  sysmem::SystemArena arena;
  auto mgr = build(manager, w.name, arena);
  const auto t0 = std::chrono::steady_clock::now();
  w.run(*mgr, 1);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Median and quartiles (linear interpolation between order statistics).
struct Spread {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

Spread spread(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&v](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

void json_spread(std::FILE* json, const char* key, const Spread& s) {
  std::fprintf(json,
               "\"%s\": {\"median\": %.4f, \"q1\": %.4f, \"q3\": %.4f}", key,
               s.median, s.q1, s.q3);
}

void print_overhead_summary(const std::string& out) {
  std::printf("\nApplication execution-time overhead of the custom manager "
              "vs Kingsley\n(the fastest general-purpose manager) — the "
              "paper's Sec. 5 metric is the\nwhole application's run time, "
              "where DM management is one component.\nMedian [quartiles] "
              "of %d interleaved rounds:\n",
              kRounds);
  bench::print_rule();
  const std::vector<workloads::Workload>& studies = workloads::case_studies();
  // Per case study, per round: Kingsley then custom, back to back, so a
  // slow host period hits both managers of a round alike.
  std::vector<std::vector<double>> kingsley_ms(studies.size());
  std::vector<std::vector<double>> custom_ms(studies.size());
  std::vector<std::vector<double>> overhead_pct(studies.size());
  std::vector<double> average_pct;
  for (int round = 0; round < kRounds; ++round) {
    double sum = 0.0;
    for (std::size_t i = 0; i < studies.size(); ++i) {
      const double kingsley = application_seconds(studies[i], "kingsley");
      const double custom = application_seconds(studies[i], "custom");
      const double overhead = 100.0 * (custom - kingsley) / kingsley;
      kingsley_ms[i].push_back(kingsley * 1e3);
      custom_ms[i].push_back(custom * 1e3);
      overhead_pct[i].push_back(overhead);
      sum += overhead;
    }
    average_pct.push_back(sum / static_cast<double>(studies.size()));
  }

  std::FILE* json = std::fopen(out.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    std::exit(2);
  }
  std::fprintf(json, "{\n  \"bench\": \"perf_overhead\",\n");
  std::fprintf(json, "  \"rounds\": %d,\n", kRounds);
  std::fprintf(json, "  \"case_studies\": [");
  for (std::size_t i = 0; i < studies.size(); ++i) {
    const Spread k = spread(kingsley_ms[i]);
    const Spread c = spread(custom_ms[i]);
    const Spread o = spread(overhead_pct[i]);
    std::printf("  %-10s kingsley %8.3f ms [%.3f, %.3f]   custom %8.3f ms "
                "[%.3f, %.3f]   overhead %+6.1f%% [%+.1f, %+.1f]\n",
                studies[i].name.c_str(), k.median, k.q1, k.q3, c.median,
                c.q1, c.q3, o.median, o.q1, o.q3);
    std::fprintf(json, "%s\n    {\"workload\": \"%s\", ", i == 0 ? "" : ",",
                 studies[i].name.c_str());
    json_spread(json, "kingsley_ms", k);
    std::fprintf(json, ", ");
    json_spread(json, "custom_ms", c);
    std::fprintf(json, ", ");
    json_spread(json, "overhead_pct", o);
    std::fprintf(json, "}");
  }
  const Spread average = spread(average_pct);
  std::fprintf(json, "\n  ],\n  ");
  json_spread(json, "average_overhead_pct", average);
  std::fprintf(json, "\n}\n");
  std::fclose(json);
  bench::print_rule();
  std::printf("  average overhead: %+.1f%% [%+.1f, %+.1f]  [paper: ~10%% on "
              "average]\n",
              average.median, average.q1, average.q3);
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
