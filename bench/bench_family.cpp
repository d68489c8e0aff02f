// Family-design ablation: does ONE vector designed for a family of traces
// generalize better than the paper's single-profile flow deployed across
// the same family?
//
// For every case-study workload we record traces at several seeds, design
// a solo best per trace (the paper's flow), cross-apply each solo best to
// every other trace, and design a family best over all traces at once
// (max-peak aggregate, searched by beam:2 and seeded with the solo
// bests).  Regret of a vector on a trace is its peak over that
// trace's own solo-designed peak, minus one — reported per trace in the
// JSON.  The gate asserts what seeding actually guarantees: the family
// vector's worst-case *peak* (bytes — the max-peak objective itself)
// never exceeds the best cross-applied solo vector's worst-case peak
// beyond the candidate comparator's 1% tie band, i.e. one family design
// is provisioned at least as safely as the luckiest possible
// single-profile deployment.  (Gating on per-trace-normalized regret
// instead would not follow from the seeding bound when oracle peaks
// differ across traces, and could go red with the library behaving
// exactly as specified.)  Emits BENCH_family.json; the exit code is the
// CI gate.
//
// Optional argv[1]: cap on trace events (0 = full trace); `--out PATH`
// relocates the JSON.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dmm/core/methodology.h"
#include "dmm/core/search.h"

namespace {

/// The comparator treats peaks within 1% as tied, so a seeded family
/// search may legitimately keep a candidate up to 1% above a seed's peak
/// when it wins a lower tier; the gate allows exactly that band.
constexpr double kTieBand = 1.0101;

constexpr unsigned kSeeds[] = {1, 2, 3};

}  // namespace

int main(int argc, char** argv) {
  using namespace dmm;

  const bench::BenchArgs args =
      bench::parse_bench_args(argc, argv, "BENCH_family.json");

  std::printf("Family design vs cross-applied single-trace designs\n");
  bench::print_rule('=');

  std::FILE* json = std::fopen(args.out.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", args.out.c_str());
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"family\",\n  \"workloads\": [");

  bool first_workload = true;
  bool gate_passed = true;
  for (const workloads::Workload& w : workloads::case_studies()) {
    const std::size_t n = std::size(kSeeds);
    std::vector<core::AllocTrace> traces;
    for (const unsigned seed : kSeeds) {
      core::AllocTrace t = workloads::record_trace(w, seed);
      t.truncate(args.max_events);
      traces.push_back(std::move(t));
    }
    std::printf("\n== %s (%zu traces, %zu events each) ==\n", w.name.c_str(),
                n, traces[0].size());

    // One shared score cache serves the solo designs, the cross-applies,
    // and the family search — the family run rides the per-trace entries
    // the solo walks already paid for.
    core::ExplorerOptions opts;
    opts.shared_cache = std::make_shared<core::SharedScoreCache>();

    // The paper's flow, once per trace.
    std::vector<alloc::DmmConfig> solo_best;
    core::BeamSearch greedy(1, core::paper_order());
    for (const core::AllocTrace& t : traces) {
      solo_best.push_back(core::run_search(t, greedy, opts).best);
    }

    // Cross-application matrix: peak[i][j] = solo best of trace i replayed
    // on trace j.  The diagonal is each trace's own designed peak — the
    // per-trace oracle regret is measured against.  Scored through the
    // shared cache, so the family search below rides these replays too.
    core::EvalEngine engine(1);
    std::vector<std::vector<std::size_t>> peak(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        core::SharedScoreCache::Session session =
            opts.shared_cache->begin_search(traces[j].fingerprint());
        peak[i].push_back(
            engine.evaluate(traces[j], {{solo_best[i], 0}}, &session)[0]
                .sim.peak_footprint);
      }
    }

    // The family design: a width-2 beam over the same cache, seeded with
    // every solo best so the result can only generalize better.
    core::DesignOptions fopts;
    fopts.explorer_options = opts;
    fopts.explorer_options.search = *core::parse_search_spec("beam:2");
    fopts.seed_candidates = solo_best;
    const core::FamilyDesignResult family =
        core::design_manager_family(traces, fopts);

    const auto regret = [&](std::size_t p, std::size_t j) {
      return 100.0 * (static_cast<double>(p) /
                          static_cast<double>(peak[j][j]) -
                      1.0);
    };
    std::printf("%-22s", "vector \\ trace");
    for (std::size_t j = 0; j < n; ++j) std::printf("   seed %u regret", kSeeds[j]);
    std::printf("\n");
    bench::print_rule();
    double best_single_worst_peak = 0.0;
    double best_single_worst_regret = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double worst_regret = 0.0;
      std::size_t worst_peak = 0;
      std::printf("solo(seed %u)          ", kSeeds[i]);
      for (std::size_t j = 0; j < n; ++j) {
        const double r = regret(peak[i][j], j);
        worst_regret = std::max(worst_regret, r);
        worst_peak = std::max(worst_peak, peak[i][j]);
        std::printf("        %+7.2f%%", r);
      }
      std::printf("\n");
      const double wp = static_cast<double>(worst_peak);
      if (i == 0 || wp < best_single_worst_peak) {
        best_single_worst_peak = wp;
        best_single_worst_regret = worst_regret;
      }
    }
    double family_worst_regret = 0.0;
    double family_worst_peak = 0.0;
    std::printf("%-22s", "family");
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t p = family.per_trace[j].sim.peak_footprint;
      family_worst_regret = std::max(family_worst_regret, regret(p, j));
      family_worst_peak = std::max(family_worst_peak,
                                   static_cast<double>(p));
      std::printf("        %+7.2f%%", regret(p, j));
    }
    std::printf("\n");

    const bool ok = family.feasible &&
                    family_worst_peak <= best_single_worst_peak * kTieBand;
    gate_passed = gate_passed && ok;
    std::printf("worst-case peak: family %.0f B vs best single %.0f B "
                "(regret %+.2f%% vs %+.2f%%) -> %s\n",
                family_worst_peak, best_single_worst_peak,
                family_worst_regret, best_single_worst_regret,
                ok ? "family generalizes" : "FAIL — family lost the race");
    if (family.best_seed >= 0) {
      std::printf("  family best = the seeded solo design of seed %u\n",
                  kSeeds[family.best_seed]);
    }

    std::fprintf(json, "%s\n    {\n      \"workload\": \"%s\",\n",
                 first_workload ? "" : ",", w.name.c_str());
    std::fprintf(json, "      \"events\": %zu,\n      \"traces\": %zu,\n",
                 traces[0].size(), n);
    std::fprintf(json, "      \"singles\": [");
    for (std::size_t i = 0; i < n; ++i) {
      std::fprintf(json, "%s\n        {\"designed_on_seed\": %u, \"peaks\": [",
                   i == 0 ? "" : ",", kSeeds[i]);
      for (std::size_t j = 0; j < n; ++j) {
        std::fprintf(json, "%s%zu", j == 0 ? "" : ", ", peak[i][j]);
      }
      std::fprintf(json, "]}");
    }
    std::fprintf(json, "\n      ],\n      \"family\": {\"peaks\": [");
    for (std::size_t j = 0; j < n; ++j) {
      std::fprintf(json, "%s%zu", j == 0 ? "" : ", ",
                   family.per_trace[j].sim.peak_footprint);
    }
    std::fprintf(json,
                 "], \"feasible\": %s,\n        \"signature\": \"%s\",\n"
                 "        \"best_seed\": %d},\n",
                 family.feasible ? "true" : "false",
                 alloc::signature(family.best).c_str(), family.best_seed);
    std::fprintf(json,
                 "      \"worst_peak\": {\"family\": %.0f, "
                 "\"best_single\": %.0f},\n"
                 "      \"worst_regret_pct\": {\"family\": %.4f, "
                 "\"best_single\": %.4f},\n      \"gate_passed\": %s\n    }",
                 family_worst_peak, best_single_worst_peak,
                 family_worst_regret, best_single_worst_regret,
                 ok ? "true" : "false");
    first_workload = false;
  }

  std::fprintf(json, "\n  ],\n  \"gate_passed\": %s\n}\n",
               gate_passed ? "true" : "false");
  std::fclose(json);
  std::printf("\nwrote %s\n", args.out.c_str());
  if (!gate_passed) {
    std::fprintf(stderr,
                 "FAIL: the family design regressed against the best "
                 "cross-applied single-trace design\n");
    return 1;
  }
  return 0;
}
