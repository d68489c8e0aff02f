// The 3D scalable-mesh rendering case study: two logical phases (LOD
// frame loop, then compositing), one atomic manager designed per phase,
// composed into a global manager (paper Sec. 3.3) — compared against
// Lea, Kingsley and the stack-optimised Obstacks.
//
// Build & run:  ./build/examples/render_explore [--search SPEC]
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
#include "dmm/workloads/render3d.h"
#include "dmm/workloads/workload.h"

int main(int argc, char** argv) {
  using namespace dmm;

  api::RequestCli cli("render3d");
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

  std::printf("== 3D scalable-mesh rendering case study ==\n");
  {
    sysmem::SystemArena arena;
    auto mgr = managers::make_manager("lea", arena);
    workloads::MeshRenderer renderer(*mgr);
    const workloads::RenderResult r = renderer.run(1);
    std::printf("%llu frames, %llu refinement layers pushed/%llu popped, "
                "%llu vertices transformed, %llu tiles composited\n",
                static_cast<unsigned long long>(r.frames_rendered),
                static_cast<unsigned long long>(r.layers_pushed),
                static_cast<unsigned long long>(r.layers_popped),
                static_cast<unsigned long long>(r.vertices_transformed),
                static_cast<unsigned long long>(r.tiles_composited));
  }

  const workloads::Workload& render = workloads::case_study("render3d");
  std::vector<core::AllocTrace> traces;
  std::string why;
  if (!api::load_traces(cli.request, &traces, &why)) {
    std::fprintf(stderr, "%s: %s\n", argv[0], why.c_str());
    return 2;
  }
  const core::AllocTrace& trace = traces[0];
  std::printf("\nprofile: %llu events in %u application phases\n",
              static_cast<unsigned long long>(trace.stats().events),
              trace.stats().phases);

  const core::MethodologyResult design =
      core::design_manager(trace, api::to_design_options(cli.request));
  std::printf("\none atomic manager per phase (Sec. 3.3 global manager):\n");
  for (std::size_t i = 0; i < design.phase_configs.size(); ++i) {
    std::printf("  phase %zu (%s): %s\n", i,
                i == 0 ? "LOD frame loop, stack-like"
                       : "compositing, out-of-order",
                alloc::signature(design.phase_configs[i]).c_str());
  }

  std::printf("\n== footprint comparison (5 seeds) ==\n");
  for (const char* name : {"kingsley", "lea", "obstacks", "custom"}) {
    double sum = 0.0;
    for (unsigned seed = 1; seed <= 5; ++seed) {
      sysmem::SystemArena arena;
      if (std::string(name) == "custom") {
        auto mgr = design.make_manager(arena);
        render.run(*mgr, seed);
      } else {
        auto mgr = managers::make_manager(name, arena);
        render.run(*mgr, seed);
      }
      sum += static_cast<double>(arena.peak_footprint());
    }
    std::printf("  %-10s mean peak %10.0f B\n", name, sum / 5.0);
  }
  std::printf("\nObstacks shines on the stack-like frame loop but pays in "
              "the compositing\nphase; the per-phase custom managers take "
              "both phases on their own terms.\n");
  return 0;
}
