#ifndef DMM_BENCH_BENCH_UTIL_H
#define DMM_BENCH_BENCH_UTIL_H

// Shared helpers for the reproduction benches.  Each bench binary prints
// the rows/series of one table or figure of the paper, named in its own
// header comment (README.md, "Benches & CI", lists the benches).

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "dmm/core/methodology.h"
#include "dmm/core/simulator.h"
#include "dmm/managers/registry.h"
#include "dmm/workloads/workload.h"

namespace dmm::bench {

/// Strict non-negative numeric argv parse shared with the example CLIs:
/// core::parse_number rejects signs, garbage, trailing junk, and values
/// strtoull would silently clamp, so a typo'd bench invocation is a usage
/// error instead of a misleading JSON snapshot.
inline std::size_t numeric_arg_or_die(const char* prog, const char* what,
                                      const char* text) {
  const auto value = core::parse_number(text);
  if (!value || *value > std::numeric_limits<std::size_t>::max()) {
    std::fprintf(stderr, "%s: %s must be a non-negative integer, got '%s'\n",
                 prog, what, text);
    std::exit(2);
  }
  return static_cast<std::size_t>(*value);
}

/// Optional argv[1] event cap shared by the trace-replaying benches
/// (0 = full trace; full case-study traces replay for minutes per search
/// on a 1-core box, a few thousand events keep a smoke run fast).
inline std::size_t event_cap_arg(int argc, char** argv) {
  return argc > 1 ? numeric_arg_or_die(argv[0], "the event cap", argv[1]) : 0;
}

/// Command line of the JSON-emitting benches: an optional positional
/// event cap plus `--out PATH` (where the JSON lands — CI runs the same
/// bench twice and must not clobber the first snapshot) and
/// `--cache-file PATH` (persist the shared score cache across runs; the
/// second run reports warm persisted hits).  `--flag=value` works too.
struct BenchArgs {
  std::size_t max_events = 0;
  std::string out;         ///< empty = the bench's historical default name
  std::string cache_file;  ///< empty = no cross-process persistence
};

inline BenchArgs parse_bench_args(int argc, char** argv,
                                  const char* default_out) {
  BenchArgs args;
  args.out = default_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Exact flag or "flag=value" only — a prefix match would let a typo
    // like --outfile silently swallow the next token.
    const auto matches = [&](const std::string& flag) {
      return arg == flag || arg.rfind(flag + "=", 0) == 0;
    };
    const auto value = [&](const std::string& flag) -> std::string {
      if (arg.size() > flag.size()) return arg.substr(flag.size() + 1);
      if (++i >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag.c_str());
        std::exit(2);
      }
      return argv[i];
    };
    if (matches("--out")) {
      args.out = value("--out");
    } else if (matches("--cache-file")) {
      args.cache_file = value("--cache-file");
    } else if (!arg.empty() && arg.find_first_not_of("0123456789") ==
                                   std::string::npos) {
      // The digits-only guard above routes garbage to the usage error;
      // numeric_arg_or_die additionally rejects the overflow strtoull
      // would have clamped to ULLONG_MAX without a word.
      args.max_events =
          numeric_arg_or_die(argv[0], "the event cap", arg.c_str());
    } else {
      std::fprintf(stderr,
                   "usage: %s [max_events] [--out PATH] [--cache-file PATH]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return args;
}

/// Mean peak footprint of running @p workload on manager @p name over the
/// given seeds (the paper averages 10 simulations per manager).
inline double mean_peak_footprint(const workloads::Workload& workload,
                                  const std::string& name,
                                  const std::vector<unsigned>& seeds) {
  double sum = 0.0;
  for (unsigned seed : seeds) {
    sysmem::SystemArena arena;
    {
      auto mgr = managers::make_manager(name, arena);
      workload.run(*mgr, seed);
    }
    sum += static_cast<double>(arena.peak_footprint());
  }
  return sum / static_cast<double>(seeds.size());
}

/// Mean peak footprint of the methodology-designed manager over seeds.
inline double mean_peak_footprint_custom(
    const workloads::Workload& workload,
    const core::MethodologyResult& design,
    const std::vector<unsigned>& seeds) {
  double sum = 0.0;
  for (unsigned seed : seeds) {
    sysmem::SystemArena arena;
    {
      auto mgr = design.make_manager(arena);
      workload.run(*mgr, seed);
    }
    sum += static_cast<double>(arena.peak_footprint());
  }
  return sum / static_cast<double>(seeds.size());
}

/// "x% improvement" as the paper states it: footprint reduction of b
/// relative to a.
inline double improvement_pct(double baseline, double ours) {
  return 100.0 * (baseline - ours) / baseline;
}

inline void print_rule(char ch = '-', int width = 72) {
  for (int i = 0; i < width; ++i) std::putchar(ch);
  std::putchar('\n');
}

}  // namespace dmm::bench

#endif  // DMM_BENCH_BENCH_UTIL_H
