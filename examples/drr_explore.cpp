// The paper's Sec. 5 DRR walk, reproduced end to end with narration:
// profile the Deficit Round Robin scheduler on real-shaped traffic,
// traverse the ordered decision trees, print every candidate's score, and
// compare the resulting custom manager against Lea and Kingsley.
//
// Build & run:  ./build/examples/drr_explore
//
// Flags are the shared DesignRequest surface (api::RequestCli — the same
// parser dmm_client and the other examples use):
//
//   --cache-file PATH   persists the score cache across runs — a second
//                       invocation replays nothing the first already
//                       scored and reaches the identical decision vector;
//   --search SPEC       greedy|beam:K|anneal[:SEED]|exhaustive[:N]|
//                       random[:N[:SEED]] picks the strategy for the walk
//                       and the design run;
//   --family T1,T2,...  designs ONE decision vector for a whole family of
//                       traces — each element is a DRR traffic seed
//                       (digits) recorded in-process or a DMMT trace
//                       file (anything else; trace_tool record); --aggregate
//                       max|wsum picks the fold.  Family mode replaces the
//                       single-trace walk below.
//   --trace FILE        explore a DMMT trace (trace_tool record,
//                       dmm_capture) instead of the recorded workload.
//   --sample N          search on a stratified ~N-object sample of the
//                       trace (see trace_sample.h), then re-score the
//                       winning vector on the FULL trace — streamed from
//                       the .dmmt mapping when one was given — and report
//                       its true peak.
//   --export-config F   write the designed decision vector(s) as a
//                       checksummed config artifact (one record per phase;
//                       runtime/config_artifact.h) that
//                       runtime::DesignedAllocator loads to serve live
//                       malloc/free traffic.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "dmm/alloc/custom_manager.h"
#include "dmm/api/design_api.h"
#include "dmm/core/methodology.h"
#include "dmm/core/search.h"
#include "dmm/managers/registry.h"
#include "dmm/trace/trace_sample.h"
#include "dmm/trace/trace_store.h"
#include "dmm/workloads/workload.h"

#include "example_util.h"

namespace {

int usage(const char* prog, const dmm::api::RequestCli& cli) {
  std::fprintf(stderr,
               "usage: %s %s [--sample N] [--export-config FILE]\n"
               "  --family elements: a DRR traffic seed (digits only) or a "
               "trace file path;\n  at least two traces make a family\n",
               prog, cli.flags_help().c_str());
  return 2;
}

/// Scores @p config by a full replay of @p source (a fresh arena each
/// time, so runs are isolated and deterministic).
dmm::core::SimResult score_on(const dmm::core::TraceSource& source,
                              const dmm::alloc::DmmConfig& config) {
  return dmm::core::simulate_fresh(
      source, [&config](dmm::sysmem::SystemArena& arena) {
        return std::make_unique<dmm::alloc::CustomManager>(arena, config);
      });
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dmm;

  api::RequestCli cli("drr");
  cli.request.num_threads = 0;  // one eval worker per hardware thread
  std::size_t sample_budget = 0;
  bool sample_set = false;
  std::string export_path;
  for (int i = 1; i < argc; ++i) {
    const api::RequestCli::Arg arg = cli.consume(argc, argv, &i);
    if (arg == api::RequestCli::Arg::kConsumed) continue;
    if (arg == api::RequestCli::Arg::kError) {
      std::fprintf(stderr, "%s: %s\n", argv[0], cli.error().c_str());
      return 2;
    }
    if (std::strcmp(argv[i], "--export-config") == 0 && i + 1 < argc) {
      export_path = argv[++i];
      continue;
    }
    if (std::strncmp(argv[i], "--export-config=", 16) == 0) {
      export_path = argv[i] + 16;
      continue;
    }
    std::string value;
    if (std::strncmp(argv[i], "--sample", 8) == 0) {
      if (argv[i][8] == '=') {
        value = argv[i] + 9;
      } else if (argv[i][8] == '\0' && i + 1 < argc) {
        value = argv[++i];
      } else {
        return usage(argv[0], cli);
      }
      sample_budget = examples::parse_unsigned_or_die(
          argv[0], "--sample", value);
      sample_set = true;
      continue;
    }
    return usage(argv[0], cli);
  }
  if (!cli.finish()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], cli.error().c_str());
    return usage(argv[0], cli);
  }

  // Resolve every requested trace (recorded workload seeds or trace_tool
  // files) with the api layer's loud-failure contract.
  std::vector<core::AllocTrace> traces;
  std::string why;
  if (!api::load_traces(cli.request, &traces, &why)) {
    std::fprintf(stderr, "%s: %s\n", argv[0], why.c_str());
    return 2;
  }

  if (sample_set && traces.size() >= 2) {
    std::fprintf(stderr, "%s: --sample applies to single-trace runs\n",
                 argv[0]);
    return 2;
  }

  if (traces.size() >= 2) {
    // --- family mode: one vector for a set of traces ---------------------
    std::printf("== DRR family design: %zu traces ==\n", traces.size());
    // No cache injected: design_manager_family creates a private
    // run-scoped one (and loads/saves cache_file into it when set).
    const core::FamilyDesignResult family = core::design_manager_family(
        traces, api::to_design_options(cli.request));
    const bool max_peak =
        cli.request.aggregate == core::FamilyAggregate::kMaxPeak;
    std::printf("aggregate objective (%s): %.0f, best found at family "
                "evaluation %llu (%llu member replays, %llu member cache "
                "hits, %llu whole-family cache hits)\n",
                max_peak ? "max-peak" : "weighted-sum",
                family.aggregate_objective,
                static_cast<unsigned long long>(family.search.evals_to_best),
                static_cast<unsigned long long>(family.search.simulations),
                static_cast<unsigned long long>(family.search.cache_hits),
                static_cast<unsigned long long>(family.search.family_hits));
    std::printf("\nfamily decision vector:\n%s\n",
                alloc::describe(family.best).c_str());
    std::printf("per-trace breakdown:\n");
    for (std::size_t i = 0; i < family.per_trace.size(); ++i) {
      const core::FamilyTraceReport& r = family.per_trace[i];
      const api::TraceRef& ref = cli.request.traces[i];
      const std::string label = ref.kind == api::TraceRef::Kind::kWorkload
                                    ? "seed " + std::to_string(ref.seed)
                                    : ref.path;
      std::printf("  %-20s peak %9zu B  avg %9.0f B  %s\n", label.c_str(),
                  r.sim.peak_footprint, r.sim.avg_footprint,
                  r.feasible() ? "feasible" : "INFEASIBLE");
    }
    if (!examples::export_designed_configs(argv[0], export_path,
                                           {family.best})) {
      return 1;
    }
    return family.feasible ? 0 : 1;
  }

  std::printf("== DRR case study: profile ==\n");
  const core::AllocTrace& trace = traces[0];
  const core::TraceStats stats = trace.stats();
  std::printf("trace: %llu events, %zu distinct block sizes (%u..%u B), "
              "peak live %zu B\n",
              static_cast<unsigned long long>(stats.events),
              stats.distinct_sizes, stats.min_size, stats.max_size,
              stats.peak_live_bytes);
  std::printf("the blocks \"vary greatly in size\" (packets), so expect the "
              "paper's decisions.\n");

  if (sample_set) {
    // --- sampled search: explore a stratified subset, then re-score the
    // winner on the full trace for its true peak.
    trace::SampleOptions sopts;
    sopts.budget = sample_budget;
    const trace::SampleResult sample = trace::sample_trace(trace, sopts);
    std::printf("\n== stratified sample (--sample %zu) ==\n", sample_budget);
    std::printf("kept %llu of %llu objects across %zu strata -> %llu "
                "events\n",
                static_cast<unsigned long long>(sample.sampled_objects),
                static_cast<unsigned long long>(stats.allocs),
                sample.strata.size(),
                static_cast<unsigned long long>(sample.trace.size()));

    core::ExplorerOptions opts =
        api::to_design_options(cli.request).explorer_options;
    const std::string& cache_file = cli.request.cache_file;
    if (!cache_file.empty()) {
      // --cache-file: warm-start from the snapshot, write it back after.
      opts.shared_cache = std::make_shared<core::SharedScoreCache>();
      (void)opts.shared_cache->load(cache_file);
    }
    const core::ExplorationResult result = core::run_search(
        sample.trace, *core::make_strategy(opts.search), opts);
    if (!cache_file.empty()) (void)opts.shared_cache->save(cache_file);
    std::printf("\nsearch on the sample: %llu replays of %llu events "
                "each\n",
                static_cast<unsigned long long>(result.simulations),
                static_cast<unsigned long long>(sample.trace.size()));
    std::printf("\nsampled decision vector:\n%s\n",
                alloc::describe(result.best).c_str());

    // Re-score the winner on the FULL trace.  When the input was a file,
    // stream straight off the mapping — the whole point of the columnar
    // format is that this replay needs O(block) memory, not O(trace).
    const api::TraceRef& ref = cli.request.traces[0];
    core::SimResult truth;
    if (ref.kind == api::TraceRef::Kind::kFile) {
      const auto mapped = trace::MappedTrace::open(ref.path, &why);
      if (mapped == nullptr) {
        std::fprintf(stderr, "%s: %s\n", argv[0], why.c_str());
        return 1;
      }
      truth = score_on(*mapped, result.best);
      std::printf("full-trace verification streamed from %s (cursor "
                  "buffer %zu B)\n",
                  ref.path.c_str(), mapped->cursor_buffer_bytes());
    } else {
      truth = score_on(trace, result.best);
    }
    std::printf("full-trace replay of the sampled vector: peak footprint "
                "%zu B, peak live %zu B\n",
                truth.peak_footprint, truth.peak_live_bytes);
    if (!examples::export_designed_configs(argv[0], export_path,
                                           {result.best})) {
      return 1;
    }
    return truth.failed_allocs == 0 ? 0 : 1;
  }

  std::printf("\n== ordered traversal (Sec. 4.2) ==\n");
  // Candidate replays fan out across a worker per hardware thread; the
  // result is bit-identical to a serial run (num_threads = 1).  The
  // shared score cache carries this walk's replays over to the
  // design_manager() run below — same trace, so its walk is served
  // almost entirely from cross-search hits.
  core::DesignOptions design_opts = api::to_design_options(cli.request);
  core::ExplorerOptions opts = design_opts.explorer_options;
  opts.shared_cache = std::make_shared<core::SharedScoreCache>();
  // --cache-file: the walk warm-starts from the snapshot and writes the
  // cache back right after; a second run of this example then replays
  // nothing at all.
  const std::string& cache_file = cli.request.cache_file;
  if (!cache_file.empty()) (void)opts.shared_cache->load(cache_file);
  const std::unique_ptr<core::EvalEngine> engine =
      core::make_engine(opts.num_threads);
  const core::ExplorationResult result = core::run_search(
      trace, *core::make_strategy(opts.search), opts, engine.get());
  if (!cache_file.empty()) (void)opts.shared_cache->save(cache_file);
  for (const core::StepLog& step : result.steps) {
    std::printf("%s (%s):\n", core::tree_id(step.tree).c_str(),
                core::tree_title(step.tree).c_str());
    for (const core::CandidateScore& cand : step.candidates) {
      if (!cand.admissible) {
        std::printf("    %-16s pruned by propagated constraints\n",
                    core::leaf_name(step.tree, cand.leaf).c_str());
      } else {
        std::printf("    %-16s peak %9zu B%s\n",
                    core::leaf_name(step.tree, cand.leaf).c_str(),
                    cand.peak_footprint,
                    cand.leaf == step.chosen ? "   <= chosen" : "");
      }
    }
  }
  std::printf("\nsearch cost: %llu trace replays (%llu more served by the "
              "score cache, %llu of those warm from %s) on %u engine "
              "thread(s)\n",
              static_cast<unsigned long long>(result.simulations),
              static_cast<unsigned long long>(result.cache_hits),
              static_cast<unsigned long long>(result.persisted_hits),
              cache_file.empty() ? "(no cache file)" : cache_file.c_str(),
              engine->threads());
  std::printf("\nfinal decision vector:\n%s\n",
              alloc::describe(result.best).c_str());

  if (cli.request.traces[0].kind != api::TraceRef::Kind::kWorkload) {
    // A file trace (--trace) has no workload to re-run on fresh seeds, so
    // the Table-1 comparison replays the captured trace itself.
    std::printf("== comparison on the captured trace ==\n");
    for (const char* name : {"kingsley", "lea", "custom"}) {
      sysmem::SystemArena arena;
      core::SimResult r;
      if (std::string(name) == "custom") {
        r = score_on(trace, result.best);
      } else {
        auto mgr = managers::make_manager(name, arena);
        r = core::simulate(trace, *mgr);
      }
      std::printf("  %-10s peak %10zu B\n", name, r.peak_footprint);
    }
    if (!examples::export_designed_configs(argv[0], export_path,
                                           {result.best})) {
      return 1;
    }
    return 0;
  }

  std::printf("== comparison on 5 fresh traces (Table 1 style) ==\n");
  // Persistence belongs to the run, not to each phase: the request
  // bridge hands the snapshot path to design_manager (one load up front,
  // one save at the end).  Share the walk's cache so the design run
  // reuses its replays.
  design_opts.explorer_options.shared_cache = opts.shared_cache;
  const core::MethodologyResult design =
      core::design_manager(trace, design_opts);
  std::printf("(design reused %llu of %llu evaluations from the walk above "
              "via the shared cache, %llu from a previous process)\n",
              static_cast<unsigned long long>(design.total_cross_search_hits),
              static_cast<unsigned long long>(design.total_simulations +
                                              design.total_cache_hits),
              static_cast<unsigned long long>(design.total_persisted_hits));
  const workloads::Workload& drr =
      workloads::case_study(cli.request.traces[0].workload);
  for (const char* name : {"kingsley", "lea", "custom"}) {
    double sum = 0.0;
    for (unsigned seed = 1; seed <= 5; ++seed) {
      sysmem::SystemArena arena;
      if (std::string(name) == "custom") {
        auto mgr = design.make_manager(arena);
        drr.run(*mgr, seed);
      } else {
        auto mgr = managers::make_manager(name, arena);
        drr.run(*mgr, seed);
      }
      sum += static_cast<double>(arena.peak_footprint());
    }
    std::printf("  %-10s mean peak %10.0f B\n", name, sum / 5.0);
  }
  // The methodology run's per-phase vectors are the deployable design —
  // export those (the walk above is narration of the same search).
  if (!examples::export_designed_configs(argv[0], export_path,
                                         design.phase_configs)) {
    return 1;
  }
  return 0;
}
