// Quickstart: the library in five minutes.
//
//  1. run your application on any manager under the profiler,
//  2. hand the recorded trace to the methodology,
//  3. get back a custom DM manager designed for *your* allocation
//     behaviour, and use it like malloc/free,
//  4. deploy it: export the design as a config artifact, load it into the
//     thread-safe runtime front (runtime::DesignedAllocator), serve live
//     concurrent malloc/free, and read the telemetry.
//
// Build & run:  ./build/examples/quickstart
//
// Optional: --cache-file PATH persists the design run's score cache, so
// re-running the quickstart replays nothing it already scored; and
// --export-config FILE picks where step 4 writes the design artifact
// (default: quickstart.dmmconfig in the working directory).  The other
// shared DesignRequest flags (--search, --threads; api::RequestCli) work
// too; the profiled trace is produced in-process below, and
// --max-events N caps it for a quick run.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dmm/alloc/custom_manager.h"
#include "dmm/api/design_api.h"
#include "dmm/core/methodology.h"
#include "dmm/core/profiler.h"
#include "dmm/managers/registry.h"
#include "dmm/runtime/config_artifact.h"
#include "dmm/runtime/designed_allocator.h"

#include "example_util.h"

int main(int argc, char** argv) {
  using namespace dmm;

  api::RequestCli cli;
  cli.allow_trace_flags = false;  // the quickstart profiles its own trace
  cli.request.num_threads = 0;    // one eval worker per hardware thread
  cli.request.validate = true;    // cross-check the walk below
  std::string export_path = "quickstart.dmmconfig";
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
    std::fprintf(stderr, "usage: %s %s [--export-config FILE]\n", argv[0],
                 cli.flags_help().c_str());
    return 2;
  }
  if (!cli.finish()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], cli.error().c_str());
    return 2;
  }

  // --- 1. profile a toy application -------------------------------------
  // (yours would be a real workload; see drr_explore / recon_explore /
  //  render_explore for the paper's case studies)
  sysmem::SystemArena profile_arena;
  auto backing = managers::make_manager("lea", profile_arena);
  core::ProfilingAllocator profiler(*backing);

  {
    std::vector<void*> live;
    unsigned rng = 7;
    for (int step = 0; step < 20000; ++step) {
      rng = rng * 1664525u + 1013904223u;
      if (live.empty() || rng % 3 != 0) {
        const std::size_t size = 16 + rng % 2000;  // very variable sizes
        void* p = profiler.allocate(size);
        std::memset(p, 0xAB, size);
        live.push_back(p);
      } else {
        profiler.deallocate(live[rng % live.size()]);
        live[rng % live.size()] = live.back();
        live.pop_back();
      }
    }
    for (void* p : live) profiler.deallocate(p);
  }
  core::AllocTrace trace = profiler.take_trace();
  trace.truncate(static_cast<std::size_t>(cli.request.max_events));
  const core::TraceStats stats = trace.stats();
  std::printf("profiled: %llu events, %zu distinct sizes, peak live %zu B\n",
              static_cast<unsigned long long>(stats.events),
              stats.distinct_sizes, stats.peak_live_bytes);

  // --- 2. design the custom manager -------------------------------------
  // The search scores every candidate by replaying the trace; those
  // replays are independent, so hand them to the parallel evaluation
  // engine (num_threads = 0 -> one worker per hardware thread) and let a
  // cross-search score cache skip repeated completions — one cache serves
  // the whole run: the greedy walk of every phase plus the validation
  // pass below reuse each other's replays.  Results are bit-identical to
  // a serial, per-search-cache run, just faster.
  core::DesignOptions options = api::to_design_options(cli.request);
  options.explorer_options.shared_cache =
      std::make_shared<core::SharedScoreCache>();
  // Cross-check the walk against exhaustive ground truth on a small
  // high-impact subspace (cheap: the validator rides the walk's replays).
  // validate itself came in through the request bridge above.
  options.validation_trees = {core::TreeId::kA2, core::TreeId::kA5,
                              core::TreeId::kE2};
  // --cache-file rode the bridge too: scores persist across processes —
  // the whole design run is served from warm persisted hits the second
  // time around.
  const core::MethodologyResult design = core::design_manager(trace, options);
  std::printf("\ndesigned atomic manager (%llu trace replays, %llu cache "
              "hits, %llu reused across searches, %llu warm from a "
              "previous run):\n%s\n",
              static_cast<unsigned long long>(design.total_simulations),
              static_cast<unsigned long long>(design.total_cache_hits),
              static_cast<unsigned long long>(
                  design.total_cross_search_hits),
              static_cast<unsigned long long>(design.total_persisted_hits),
              alloc::describe(design.phase_configs[0]).c_str());
  std::printf("validation: exhaustive over A2/A5/E2 agrees with the walk "
              "within %+.2f%% (feasible: %s)\n",
              100.0 *
                  (static_cast<double>(
                       design.phase_results[0].best_sim.peak_footprint) -
                   static_cast<double>(
                       design.validation_results[0].best_sim.peak_footprint)) /
                  static_cast<double>(
                      design.validation_results[0].best_sim.peak_footprint),
              design.phase_results[0].feasible ? "yes" : "NO");

  // --- 3. use it ----------------------------------------------------------
  sysmem::SystemArena arena;
  auto manager = design.make_manager(arena);
  void* p = manager->allocate(100);
  std::printf("allocate(100) -> %p, usable %zu B\n", p,
              manager->usable_size(p));
  manager->deallocate(p);

  // How does it compare on the profiled behaviour?  Peak is the Table 1
  // metric; the average shows the "returned back to the system for other
  // applications" effect of the adaptive pools.
  std::printf("\nreplaying the profile:  %12s %14s %14s\n", "peak B",
              "avg B", "final B");
  for (const char* name : {"kingsley", "lea"}) {
    sysmem::SystemArena a;
    auto mgr = managers::make_manager(name, a);
    const core::SimResult sim = core::simulate(trace, *mgr);
    std::printf("  %-20s  %12zu %14.0f %14zu\n", name, sim.peak_footprint,
                sim.avg_footprint, sim.final_footprint);
  }
  {
    sysmem::SystemArena a;
    auto mgr = design.make_manager(a);
    const core::SimResult sim = core::simulate(trace, *mgr);
    std::printf("  %-20s  %12zu %14.0f %14zu\n", "custom",
                sim.peak_footprint, sim.avg_footprint, sim.final_footprint);
  }

  // --- 4. deploy it -------------------------------------------------------
  // Steps 1-3 used the bare policy core: single-threaded, deterministic,
  // the form the search scored.  Deployment crosses a process boundary, so
  // the design travels as a checksummed artifact and live traffic goes
  // through the runtime front — the same core behind a lock, with
  // per-thread caches, an OOM policy, and always-on telemetry.
  if (!examples::export_designed_configs(argv[0], export_path,
                                         design.phase_configs)) {
    return 1;
  }
  const runtime::ConfigArtifactLoadResult loaded =
      runtime::load_config_artifact(export_path);
  if (!loaded.loaded) {
    std::fprintf(stderr, "%s: reloading %s failed: %s\n", argv[0],
                 export_path.c_str(), loaded.reason.c_str());
    return 1;
  }
  // The runtime front serves one atomic manager.  Deploying the first
  // phase of a phased design would run a manager the search never scored
  // against the whole trace, so refuse instead.
  if (loaded.configs.size() != 1) {
    std::fprintf(stderr,
                 "%s: %s holds a %zu-phase design; the runtime front "
                 "deploys single-phase designs only\n",
                 argv[0], export_path.c_str(), loaded.configs.size());
    return 1;
  }
  runtime::RuntimeOptions ropts;
  ropts.oom_policy = runtime::OomPolicy::kNull;
  runtime::DesignedAllocator deployed(loaded.configs[0], ropts);
  {
    // Live concurrent malloc/free through the designed allocator — the
    // traffic the offline-scored layout now serves for real.
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < 4; ++t) {
      workers.emplace_back([&deployed, t] {
        std::vector<std::pair<void*, std::size_t>> live;
        unsigned rng = 11 + t;
        for (int step = 0; step < 5000; ++step) {
          rng = rng * 1664525u + 1013904223u;
          if (live.empty() || rng % 3 != 0) {
            const std::size_t size = 16 + rng % 2000;
            void* block = deployed.malloc(size);
            if (block != nullptr) {
              std::memset(block, 0xCD, size);
              live.emplace_back(block, size);
            }
          } else {
            const std::size_t at = rng % live.size();
            deployed.free(live[at].first);
            live[at] = live.back();
            live.pop_back();
          }
        }
        for (const auto& entry : live) deployed.free(entry.first);
      });
    }
    for (std::thread& w : workers) w.join();
  }
  const runtime::TelemetrySnapshot t = deployed.telemetry();
  std::printf("\ndeployed runtime telemetry (4 threads):\n");
  std::printf("  allocs %llu (cache hits %llu), frees %llu\n",
              static_cast<unsigned long long>(t.alloc_count),
              static_cast<unsigned long long>(t.cache_hits),
              static_cast<unsigned long long>(t.free_count));
  std::printf("  live %llu B now, peak %llu B; arena peak %zu B, "
              "failed requests %llu\n",
              static_cast<unsigned long long>(t.bytes_live),
              static_cast<unsigned long long>(t.peak_bytes_live),
              t.arena.peak_footprint,
              static_cast<unsigned long long>(t.arena.failed_requests));
  return 0;
}
