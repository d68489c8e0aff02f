// Search-strategy ablation over the SearchStrategy seam (core/search.h):
// for every case-study workload, run each searcher against one shared
// score cache and report best-peak and evals-to-best (evaluations charged
// when the winner was recorded) — then reproduce the Fig. 4 ordering trap
// with a *myopic* explorer (minimal-capability defaults, A3-first order)
// and check that a beam of width >= 2 matches ("tied") or beats
// ("escaped") greedy on it.  Emits BENCH_search.json;
// the exit code gates beam(2) <= greedy on the trap, which CI enforces.
//
// Optional argv[1]: cap on trace events (0 = full trace); `--out PATH`
// relocates the JSON.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dmm/core/search.h"

namespace {

struct StrategyRow {
  std::string name;
  dmm::core::ExplorationResult result;
};

void print_row(const StrategyRow& row) {
  std::printf("%-14s %14zu %8llu %9llu %9s\n", row.name.c_str(),
              row.result.best_sim.peak_footprint,
              static_cast<unsigned long long>(row.result.simulations +
                                              row.result.cache_hits),
              static_cast<unsigned long long>(row.result.evals_to_best),
              row.result.feasible ? "yes" : "NO");
}

void json_row(std::FILE* json, bool first, const StrategyRow& row) {
  std::fprintf(json,
               "%s\n        {\"search\": \"%s\", \"peak\": %zu, "
               "\"evals\": %llu, \"evals_to_best\": %llu, "
               "\"replays\": %llu, \"feasible\": %s}",
               first ? "" : ",", row.name.c_str(),
               row.result.best_sim.peak_footprint,
               static_cast<unsigned long long>(row.result.simulations +
                                               row.result.cache_hits),
               static_cast<unsigned long long>(row.result.evals_to_best),
               static_cast<unsigned long long>(row.result.simulations),
               row.result.feasible ? "true" : "false");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dmm;
  using core::TreeId;

  const bench::BenchArgs args =
      bench::parse_bench_args(argc, argv, "BENCH_search.json");

  std::printf("Search-strategy ablation (one shared score cache per "
              "workload)\n");
  bench::print_rule('=');

  std::FILE* json = std::fopen(args.out.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", args.out.c_str());
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"search_strategies\",\n");
  std::fprintf(json, "  \"workloads\": [");

  bool first_workload = true;
  bool fig4_gate_passed = true;
  for (const workloads::Workload& w : workloads::case_studies()) {
    core::AllocTrace trace = workloads::record_trace(w, 1);
    trace.truncate(args.max_events);
    std::printf("\n== %s (%zu events) ==\n", w.name.c_str(), trace.size());
    std::printf("%-14s %14s %8s %9s %9s\n", "strategy", "best peak (B)",
                "evals", "to-best", "feasible");
    bench::print_rule();

    // One cache serves every strategy on this trace, so the later rows
    // ride the earlier rows' replays; evals (replays + hits) stays the
    // honest per-strategy cost either way.
    core::ExplorerOptions opts;
    opts.shared_cache = std::make_shared<core::SharedScoreCache>();

    std::vector<StrategyRow> rows;
    core::BeamSearch greedy(1, core::paper_order());
    rows.push_back({"greedy", core::run_search(trace, greedy, opts)});
    // Streaming budgets: 4x the greedy walk's evaluations — enough room
    // for the order-free searchers to move, still smoke-run fast.
    const std::size_t budget =
        4 * (rows[0].result.simulations + rows[0].result.cache_hits);
    for (const std::size_t width : {2u, 4u}) {
      core::BeamSearch beam(width, core::paper_order());
      rows.push_back({beam.name(), core::run_search(trace, beam, opts)});
    }
    core::AnnealingSearch anneal(budget, /*seed=*/1);
    rows.push_back({anneal.name(), core::run_search(trace, anneal, opts)});
    core::RandomSearch sampler(budget, /*seed=*/42);
    rows.push_back({"random", core::run_search(trace, sampler, opts)});
    core::ExhaustiveSearch exhaustive(core::high_impact_trees());
    rows.push_back({"exhaustive", core::run_search(trace, exhaustive, opts)});
    for (const StrategyRow& row : rows) print_row(row);

    // --- the Fig. 4 trap, executably adversarial ------------------------
    // Myopic defaults judge each tree by local cost alone; under the
    // A3-first order the greedy walk picks A3=none and propagation locks
    // split/coalesce to `never`.  A beam keeps the header branch alive.
    core::ExplorerOptions myopic;
    myopic.defaults = alloc::minimal_config();
    myopic.shared_cache = std::make_shared<core::SharedScoreCache>();
    core::BeamSearch trap_walk(1, core::fig4_wrong_order());
    const core::ExplorationResult trap_greedy =
        core::run_search(trace, trap_walk, myopic);
    core::BeamSearch trap_beam(2, core::fig4_wrong_order());
    const core::ExplorationResult trap_beam2 =
        core::run_search(trace, trap_beam, myopic);
    const bool escaped = trap_beam2.best_sim.peak_footprint <=
                         trap_greedy.best_sim.peak_footprint;
    const bool tied = trap_beam2.best_sim.peak_footprint ==
                      trap_greedy.best_sim.peak_footprint;
    fig4_gate_passed = fig4_gate_passed && escaped;
    std::printf("fig4 trap (myopic, %s): greedy peak %zu, beam:2 peak %zu "
                "(%+.1f%%) -> %s\n",
                core::order_to_string(core::fig4_wrong_order()).c_str(),
                trap_greedy.best_sim.peak_footprint,
                trap_beam2.best_sim.peak_footprint,
                100.0 *
                    (static_cast<double>(trap_beam2.best_sim.peak_footprint) -
                     static_cast<double>(trap_greedy.best_sim.peak_footprint)) /
                    static_cast<double>(trap_greedy.best_sim.peak_footprint),
                tied      ? "tied"
                : escaped ? "escaped"
                          : "STUCK — gate fails");

    std::fprintf(json, "%s\n    {\n      \"workload\": \"%s\",\n",
                 first_workload ? "" : ",", w.name.c_str());
    std::fprintf(json, "      \"events\": %zu,\n", trace.size());
    std::fprintf(json, "      \"strategies\": [");
    bool first_row = true;
    for (const StrategyRow& row : rows) {
      json_row(json, first_row, row);
      first_row = false;
    }
    std::fprintf(json, "\n      ],\n");
    std::fprintf(json,
                 "      \"fig4_trap\": {\"greedy_peak\": %zu, "
                 "\"beam2_peak\": %zu, \"escaped\": %s}\n    }",
                 trap_greedy.best_sim.peak_footprint,
                 trap_beam2.best_sim.peak_footprint,
                 escaped ? "true" : "false");
    first_workload = false;
  }

  std::fprintf(json, "\n  ],\n  \"fig4_gate_passed\": %s\n}\n",
               fig4_gate_passed ? "true" : "false");
  std::fclose(json);
  std::printf("\nwrote %s\n", args.out.c_str());
  if (!fig4_gate_passed) {
    std::fprintf(stderr,
                 "FAIL: BeamSearch(2) did not match or beat greedy on the "
                 "Fig. 4 adversarial order\n");
    return 1;
  }
  return 0;
}
