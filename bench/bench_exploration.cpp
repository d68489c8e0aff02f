// Exploration ablation — validates the methodology's two design choices
// (README.md, "Search strategies"):
//   1. the greedy ordered traversal vs exhaustive ground truth on the
//      high-impact subspace, and vs random sampling at equal budget;
//   2. the published traversal order vs alternatives, per case study.
// Also reports the search cost (trace replays) of each strategy and the
// cross-search savings of running every strategy against one
// SharedScoreCache.  Emits BENCH_cache.json for the perf trajectory.
//
// Optional argv[1]: cap on trace events (0 = full trace).  Full case-study
// traces replay for minutes per search on a 1-core box; ~6000 keeps a CI
// smoke run fast without changing what is measured.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dmm/core/search.h"

namespace {

struct SearchRow {
  const char* name;
  const dmm::core::ExplorationResult* result;
};

/// Escapes the two characters that would break a JSON string literal —
/// the cache-file path is user input.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void print_row(const SearchRow& row) {
  std::printf("%-34s %14zu %8llu %6llu %6llu %6llu\n", row.name,
              row.result->best_sim.peak_footprint,
              static_cast<unsigned long long>(row.result->simulations),
              static_cast<unsigned long long>(row.result->cache_hits),
              static_cast<unsigned long long>(row.result->cross_search_hits),
              static_cast<unsigned long long>(row.result->persisted_hits));
}

void json_row(std::FILE* json, bool first, const SearchRow& row) {
  std::fprintf(json,
               "%s\n        {\"search\": \"%s\", \"peak\": %zu, "
               "\"replays\": %llu, \"cache_hits\": %llu, "
               "\"cross_search_hits\": %llu, \"persisted_hits\": %llu}",
               first ? "" : ",", row.name, row.result->best_sim.peak_footprint,
               static_cast<unsigned long long>(row.result->simulations),
               static_cast<unsigned long long>(row.result->cache_hits),
               static_cast<unsigned long long>(row.result->cross_search_hits),
               static_cast<unsigned long long>(row.result->persisted_hits));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dmm;
  using core::TreeId;

  const bench::BenchArgs args =
      bench::parse_bench_args(argc, argv, "BENCH_cache.json");
  const std::size_t max_events = args.max_events;

  std::printf("Exploration strategy ablation (shared score cache)\n");
  if (!args.cache_file.empty()) {
    std::printf("persistent score cache: %s\n", args.cache_file.c_str());
  }
  bench::print_rule('=');

  std::FILE* json = std::fopen(args.out.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", args.out.c_str());
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"exploration_cache\",\n");
  std::fprintf(json, "  \"cache_file\": \"%s\",\n",
               json_escape(args.cache_file).c_str());
  std::fprintf(json, "  \"workloads\": [");

  bool first_workload = true;
  for (const workloads::Workload& w : workloads::case_studies()) {
    core::AllocTrace trace = workloads::record_trace(w, 1);
    trace.truncate(max_events);
    std::printf("\n== %s (%zu events, %zu distinct sizes) ==\n",
                w.name.c_str(), trace.size(), trace.stats().distinct_sizes);
    std::printf("%-34s %14s %8s %6s %6s %6s\n", "strategy", "peak (B)",
                "replays", "cached", "cross", "warm");
    bench::print_rule();

    // One cache serves every strategy on this trace: the later searches
    // ride the replays the earlier ones paid for (cross-search hits).
    core::ExplorerOptions opts;
    opts.shared_cache = std::make_shared<core::SharedScoreCache>();
    // With --cache-file the searches warm-start from the snapshot and the
    // cache is saved back after this workload's last search — so one file
    // accumulates every workload, and a second bench run replays nothing
    // it has already scored.
    if (!args.cache_file.empty()) {
      (void)opts.shared_cache->load(args.cache_file);
    }
    const auto greedy_walk = [&](const std::vector<TreeId>& order) {
      core::BeamSearch walk(1, order);
      return core::run_search(trace, walk, opts);
    };

    const core::ExplorationResult greedy = greedy_walk(core::paper_order());
    const core::ExplorationResult wrong = greedy_walk(core::fig4_wrong_order());
    const core::ExplorationResult naive = greedy_walk(core::naive_order());
    // Equal budget = the greedy walk's *evaluations* (replays + hits).
    core::RandomSearch sampler(greedy.simulations + greedy.cache_hits,
                               /*seed=*/42);
    const core::ExplorationResult random =
        core::run_search(trace, sampler, opts);
    // Ground truth over the six highest-impact trees (others repaired).
    core::ExhaustiveSearch exhaustive({TreeId::kA2, TreeId::kA5, TreeId::kE2,
                                       TreeId::kD2, TreeId::kB4, TreeId::kC1});
    const core::ExplorationResult truth =
        core::run_search(trace, exhaustive, opts);
    if (!args.cache_file.empty()) {
      (void)opts.shared_cache->save(args.cache_file);
    }

    const SearchRow rows[] = {
        {"greedy, published order", &greedy},
        {"greedy, Fig. 4 wrong order", &wrong},
        {"greedy, naive A1..E2 order", &naive},
        {"random sampling, equal budget", &random},
        {"exhaustive, A2/A5/E2/D2/B4/C1", &truth},
    };
    for (const SearchRow& row : rows) print_row(row);

    const core::SharedScoreCache::Stats stats = opts.shared_cache->stats();
    const std::uint64_t evals = stats.insertions + stats.hits;
    const double hit_rate =
        evals == 0 ? 0.0
                   : 100.0 * static_cast<double>(stats.hits) /
                         static_cast<double>(evals);
    std::printf(
        "shared cache: %llu entries, %llu hits (%.1f%% of evaluations), "
        "%llu cross-search, %llu persisted (from %llu snapshot entries)\n",
        static_cast<unsigned long long>(stats.entries),
        static_cast<unsigned long long>(stats.hits), hit_rate,
        static_cast<unsigned long long>(stats.cross_search_hits),
        static_cast<unsigned long long>(stats.persisted_hits),
        static_cast<unsigned long long>(stats.persisted_entries));
    std::printf("greedy-vs-exhaustive gap: %+.2f%%\n",
                100.0 *
                    (static_cast<double>(greedy.best_sim.peak_footprint) -
                     static_cast<double>(truth.best_sim.peak_footprint)) /
                    static_cast<double>(truth.best_sim.peak_footprint));
    std::printf("winning vector: %s\n", alloc::signature(greedy.best).c_str());

    std::fprintf(json, "%s\n    {\n      \"workload\": \"%s\",\n",
                 first_workload ? "" : ",", w.name.c_str());
    std::fprintf(json, "      \"events\": %zu,\n", trace.size());
    std::fprintf(json, "      \"searches\": [");
    bool first_row = true;
    for (const SearchRow& row : rows) {
      json_row(json, first_row, row);
      first_row = false;
    }
    std::fprintf(json, "\n      ],\n");
    std::fprintf(json,
                 "      \"best_signature\": \"%s\",\n",
                 alloc::signature(greedy.best).c_str());
    std::fprintf(json,
                 "      \"cache\": {\"entries\": %llu, \"hits\": %llu, "
                 "\"hit_rate_pct\": %.2f, \"cross_search_hits\": %llu, "
                 "\"persisted_hits\": %llu, \"persisted_entries\": %llu, "
                 "\"warm_hit_rate_pct\": %.2f, "
                 "\"simulations_saved\": %llu}\n    }",
                 static_cast<unsigned long long>(stats.entries),
                 static_cast<unsigned long long>(stats.hits), hit_rate,
                 static_cast<unsigned long long>(stats.cross_search_hits),
                 static_cast<unsigned long long>(stats.persisted_hits),
                 static_cast<unsigned long long>(stats.persisted_entries),
                 evals == 0 ? 0.0
                            : 100.0 *
                                  static_cast<double>(stats.persisted_hits) /
                                  static_cast<double>(evals),
                 static_cast<unsigned long long>(stats.hits));
    first_workload = false;
  }

  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", args.out.c_str());
  return 0;
}
