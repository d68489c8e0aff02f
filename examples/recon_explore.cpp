// The 3D-reconstruction case study: image-pair corner matching with
// data-dependent candidate lists, compared across Kingsley, the
// region manager, and the methodology's custom design — plus a look at
// what the application actually computed (recovered displacements).
//
// Build & run:  ./build/examples/recon_explore [--search SPEC]
// --search greedy|beam:K|anneal[:SEED]|exhaustive[:N]|random[:N[:SEED]]
// picks the per-phase design strategy (default: the paper's greedy
// ordered traversal).  The other shared DesignRequest flags
// (api::RequestCli) work too; the profiled trace is fixed (seed 1), and
// --max-events N caps it for a quick run.

#include <cstdio>
#include <string>
#include <vector>

#include "dmm/api/design_api.h"
#include "dmm/core/methodology.h"
#include "dmm/managers/registry.h"
#include "dmm/workloads/recon3d.h"
#include "dmm/workloads/workload.h"

int main(int argc, char** argv) {
  using namespace dmm;

  api::RequestCli cli("recon3d");
  cli.allow_trace_flags = false;  // the case-study trace is fixed below
  for (int i = 1; i < argc; ++i) {
    const api::RequestCli::Arg arg = cli.consume(argc, argv, &i);
    if (arg == api::RequestCli::Arg::kConsumed) continue;
    if (arg == api::RequestCli::Arg::kError) {
      std::fprintf(stderr, "%s: %s\n", argv[0], cli.error().c_str());
      return 2;
    }
    std::fprintf(stderr, "usage: %s %s\n", argv[0],
                 cli.flags_help().c_str());
    return 2;
  }
  if (!cli.finish()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], cli.error().c_str());
    return 2;
  }

  std::printf("== 3D reconstruction case study ==\n");

  // Run the algorithm once just to show its outputs.
  {
    sysmem::SystemArena arena;
    auto mgr = managers::make_manager("lea", arena);
    workloads::Recon3d recon(*mgr);
    const workloads::ReconResult r = recon.run(1);
    std::printf("%d image pairs: %llu corners, %llu match candidates, "
                "displacement recovered on %d/%d pairs\n",
                r.pairs_processed,
                static_cast<unsigned long long>(r.corners_total),
                static_cast<unsigned long long>(r.candidates_total),
                r.displacement_hits, r.pairs_processed);
    std::printf("(the corner and candidate counts are input dependent: "
                "this is why the\n algorithm needs dynamic memory)\n");
  }

  const workloads::Workload& recon = workloads::case_study("recon3d");
  std::vector<core::AllocTrace> traces;
  std::string why;
  if (!api::load_traces(cli.request, &traces, &why)) {
    std::fprintf(stderr, "%s: %s\n", argv[0], why.c_str());
    return 2;
  }
  const core::AllocTrace& trace = traces[0];
  const core::TraceStats stats = trace.stats();
  std::printf("\nprofile: %llu events, peak live %zu B; dominant sizes:\n",
              static_cast<unsigned long long>(stats.events),
              stats.peak_live_bytes);
  int shown = 0;
  for (auto it = stats.top_sizes.rbegin();
       it != stats.top_sizes.rend() && shown < 5; ++it, ++shown) {
    std::printf("  %8u B x %llu   %s\n", it->first,
                static_cast<unsigned long long>(it->second),
                it->first > 1000000 ? "(gradient planes)"
                : it->first > 300000 ? "(image frames)"
                                     : "");
  }

  const core::MethodologyResult design =
      core::design_manager(trace, api::to_design_options(cli.request));
  std::printf("\ndesigned vector: %s\n",
              alloc::signature(design.phase_configs[0]).c_str());

  std::printf("\n== footprint comparison (5 seeds) ==\n");
  for (const char* name : {"kingsley", "regions", "custom"}) {
    double sum = 0.0;
    for (unsigned seed = 1; seed <= 5; ++seed) {
      sysmem::SystemArena arena;
      if (std::string(name) == "custom") {
        auto mgr = design.make_manager(arena);
        recon.run(*mgr, seed);
      } else {
        auto mgr = managers::make_manager(name, arena);
        recon.run(*mgr, seed);
      }
      sum += static_cast<double>(arena.peak_footprint());
    }
    std::printf("  %-10s mean peak %10.0f B\n", name, sum / 5.0);
  }
  std::printf("\nthe region manager holds every size's region for the whole "
              "run; the custom\nmanager recycles the detection planes' "
              "memory for the matching stage.\n");
  return 0;
}
