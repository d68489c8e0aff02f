// Trace tooling CLI: record case-study allocation traces, convert them
// to (and inspect / sample) the mmap-able DMMT columnar format, detect
// phases, and score any manager against them — the methodology's
// workflow as shell commands.
//
//   trace_tool record  <drr|recon3d|render3d> <seed> <file>
//   trace_tool convert <trace> <out.dmmt>
//   trace_tool convert --synth <events> <seed> <out.dmmt>
//   trace_tool info    <file.dmmt> [--check]
//   trace_tool sample  <trace> <budget-events> <seed> <out.dmmt>
//   trace_tool stats   <trace>
//   trace_tool phases  <trace>
//   trace_tool score   <trace> <kingsley|lea|regions|obstacks|custom>
//
// Every <trace> argument accepts both the line-oriented text format
// (AllocTrace::save) and a .dmmt file; stats/phases/score sniff the
// magic.  `convert --synth` streams a deterministic synthetic workload
// of any length straight to disk — writer memory stays bounded, so
// traces far larger than RAM are fine.
//
// Build & run:  ./build/examples/trace_tool record drr 1 /tmp/drr.trace

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dmm/core/methodology.h"
#include "dmm/core/phase.h"
#include "dmm/managers/registry.h"
#include "dmm/trace/trace_sample.h"
#include "dmm/trace/trace_store.h"
#include "dmm/workloads/workload.h"
#include "example_util.h"

namespace {

using namespace dmm;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  trace_tool record  <drr|recon3d|render3d> <seed> <file>\n"
      "  trace_tool convert <trace> <out.dmmt>\n"
      "  trace_tool convert --synth <events> <seed> <out.dmmt>\n"
      "  trace_tool info    <file.dmmt> [--check]\n"
      "  trace_tool sample  <trace> <budget-events> <seed> <out.dmmt>\n"
      "  trace_tool stats   <trace>\n"
      "  trace_tool phases  <trace>\n"
      "  trace_tool score   <trace> <manager|custom>\n");
  return 2;
}

/// Loads either trace format; exits 1-via-empty on unreadable input (the
/// callers all reject empty traces with their own message).
core::AllocTrace load_any(const std::string& path, std::string* why) {
  if (trace::is_trace_file(path)) {
    const auto mapped = trace::MappedTrace::open(path, why);
    if (mapped == nullptr) return {};
    return mapped->materialize();
  }
  return core::AllocTrace::load(path);
}

int cmd_record(const std::string& workload, unsigned seed,
               const std::string& path) {
  const core::AllocTrace trace =
      workloads::record_trace(workloads::case_study(workload), seed);
  trace.save(path);
  std::printf("recorded %zu events to %s\n", trace.size(), path.c_str());
  return 0;
}

int cmd_convert(const std::string& in, const std::string& out) {
  std::string why;
  const core::AllocTrace trace = load_any(in, &why);
  if (trace.empty()) {
    std::fprintf(stderr, "empty or unreadable trace: %s%s%s\n", in.c_str(),
                 why.empty() ? "" : ": ", why.c_str());
    return 1;
  }
  if (!trace::write_trace_file(trace, out, {}, &why)) {
    std::fprintf(stderr, "convert failed: %s\n", why.c_str());
    return 1;
  }
  std::printf("wrote %zu events to %s\n", trace.size(), out.c_str());
  return 0;
}

/// splitmix64, so the synthetic stream is a pure function of (seed, i).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

int cmd_convert_synth(unsigned events, unsigned seed,
                      const std::string& out) {
  std::string why;
  auto w = trace::TraceWriter::create(out, &why);
  if (w == nullptr) {
    std::fprintf(stderr, "convert failed: %s\n", why.c_str());
    return 1;
  }
  // Mixed-size churn with a bounded live set and an occasional huge
  // block: enough texture for search to have real decisions to make,
  // streamed block by block so a 10M+ event trace never lives in RAM.
  static constexpr std::uint32_t kSizes[] = {16,  24,  32,   64,   96,  128,
                                             256, 512, 1024, 4096, 65536};
  static constexpr std::size_t kLiveCap = 4096;
  std::vector<std::uint32_t> live;
  live.reserve(kLiveCap);
  std::uint32_t next_id = 0;
  const std::uint64_t per_phase = events / 8 + 1;
  for (std::uint64_t i = 0; i < events; ++i) {
    const auto phase = static_cast<std::uint16_t>(
        std::min<std::uint64_t>(i / per_phase, 7));
    const std::uint64_t h = mix64(static_cast<std::uint64_t>(seed) << 32 | i);
    const bool do_alloc =
        live.empty() || (live.size() < kLiveCap && (h & 3u) != 0);
    if (do_alloc) {
      std::uint32_t size =
          kSizes[(h >> 8) % (sizeof(kSizes) / sizeof(kSizes[0]))];
      if ((h >> 32) % 4096 == 0) size = 1u << 20;
      w->add({core::AllocEvent::Op::kAlloc, next_id, size, phase});
      live.push_back(next_id);
      ++next_id;
    } else {
      const std::size_t at = (h >> 16) % live.size();
      w->add({core::AllocEvent::Op::kFree, live[at], 0, phase});
      live[at] = live.back();
      live.pop_back();
    }
  }
  // Close the survivors so the trace validates.
  std::sort(live.begin(), live.end());
  for (const std::uint32_t id : live) {
    w->add({core::AllocEvent::Op::kFree, id, 0, 7});
  }
  const std::uint64_t written = w->events();
  if (!w->finish(&why)) {
    std::fprintf(stderr, "convert failed: %s\n", why.c_str());
    return 1;
  }
  std::printf("wrote %llu synthetic events to %s\n",
              static_cast<unsigned long long>(written), out.c_str());
  return 0;
}

void print_stats(const core::TraceStats& s) {
  std::printf("events            : %llu (%llu allocs, %llu frees)\n",
              static_cast<unsigned long long>(s.events),
              static_cast<unsigned long long>(s.allocs),
              static_cast<unsigned long long>(s.frees));
  std::printf("peak live         : %zu bytes in %zu blocks\n",
              s.peak_live_bytes, s.peak_live_blocks);
  std::printf("sizes             : %zu distinct, %u..%u bytes, mean %.1f\n",
              s.distinct_sizes, s.min_size, s.max_size, s.mean_size);
  std::printf("mean lifetime     : %.1f events\n", s.mean_lifetime_events);
  std::printf("phases            : %u\n", s.phases);
  std::printf("size-class histogram (allocations per power-of-two class):\n");
  for (const auto& [cls, count] : s.class_histogram) {
    std::printf("  %8zu B: %llu\n", alloc::SizeClass::size_of(cls),
                static_cast<unsigned long long>(count));
  }
}

int cmd_info(const std::string& path, bool check) {
  std::string why;
  const auto m = trace::MappedTrace::open(path, &why);
  if (m == nullptr) {
    std::fprintf(stderr, "not a valid DMMT trace: %s\n", why.c_str());
    return 1;
  }
  const double per_event =
      m->event_count() == 0
          ? 0.0
          : static_cast<double>(m->file_bytes()) /
                static_cast<double>(m->event_count());
  std::printf("format            : DMMT v%u\n", trace::kTraceVersion);
  std::printf("file              : %llu bytes (%.2f bytes/event)\n",
              static_cast<unsigned long long>(m->file_bytes()), per_event);
  std::printf("blocks            : %u x %u events\n", m->block_count(),
              m->block_events());
  std::printf("fingerprint       : %016llx\n",
              static_cast<unsigned long long>(m->fingerprint()));
  print_stats(m->stats());
  if (check) {
    if (!m->verify_blocks(&why)) {
      std::fprintf(stderr, "block verification FAILED: %s\n", why.c_str());
      return 1;
    }
    std::printf("block integrity   : all %u blocks verified\n",
                m->block_count());
  }
  return 0;
}

int cmd_sample(const std::string& in, unsigned budget, unsigned seed,
               const std::string& out) {
  std::string why;
  trace::SampleResult r;
  // Sample straight off the mapping when the input is DMMT: two cursor
  // passes, never the whole trace in memory.
  if (trace::is_trace_file(in)) {
    const auto m = trace::MappedTrace::open(in, &why);
    if (m == nullptr) {
      std::fprintf(stderr, "not a valid DMMT trace: %s\n", why.c_str());
      return 1;
    }
    r = trace::sample_trace(*m, budget, seed);
  } else {
    const core::AllocTrace t = core::AllocTrace::load(in);
    if (t.empty()) {
      std::fprintf(stderr, "empty or unreadable trace: %s\n", in.c_str());
      return 1;
    }
    r = trace::sample_trace(t, budget, seed);
  }
  if (!trace::write_trace_file(r.trace, out, {}, &why)) {
    std::fprintf(stderr, "sample write failed: %s\n", why.c_str());
    return 1;
  }
  std::printf("sampled %llu of %llu events -> %s\n",
              static_cast<unsigned long long>(r.trace.size()),
              static_cast<unsigned long long>(r.population_events),
              out.c_str());
  std::printf("strata            : %zu\n", r.strata.size());
  return 0;
}

int cmd_stats(const std::string& path) {
  std::string why;
  const core::AllocTrace trace = load_any(path, &why);
  if (trace.empty()) {
    std::fprintf(stderr, "empty or unreadable trace: %s%s%s\n", path.c_str(),
                 why.empty() ? "" : ": ", why.c_str());
    return 1;
  }
  if (!trace.validate(&why)) {
    std::fprintf(stderr, "malformed trace: %s\n", why.c_str());
    return 1;
  }
  print_stats(trace.stats());
  return 0;
}

int cmd_phases(const std::string& path) {
  std::string why;
  core::AllocTrace trace = load_any(path, &why);
  const auto spans = core::detect_phases(trace);
  std::printf("%zu behaviour phase(s) detected:\n", spans.size());
  for (const core::PhaseSpan& span : spans) {
    std::printf("  phase %u: events [%zu, %zu]\n", span.phase,
                span.first_event, span.last_event);
  }
  return 0;
}

int cmd_score(const std::string& path, const std::string& manager) {
  std::string why;
  const core::AllocTrace trace = load_any(path, &why);
  sysmem::SystemArena arena;
  core::SimResult sim;
  if (manager == "custom") {
    const core::MethodologyResult design = core::design_manager(trace);
    auto mgr = design.make_manager(arena);
    sim = core::simulate(trace, *mgr);
    std::printf("designed vector: %s\n",
                alloc::signature(design.phase_configs[0]).c_str());
  } else {
    auto mgr = managers::make_manager(manager, arena);
    sim = core::simulate(trace, *mgr);
  }
  std::printf("peak footprint  : %zu bytes\n", sim.peak_footprint);
  std::printf("avg footprint   : %.0f bytes\n", sim.avg_footprint);
  std::printf("final footprint : %zu bytes\n", sim.final_footprint);
  std::printf("overhead factor : %.2fx of peak live demand\n",
              sim.overhead_factor());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  // Strict digits-only parses throughout (the same ones
  // parse_search_spec uses): atoi-cast-to-unsigned turned "-1" into
  // 4294967295 and "abc" into 0 — both silently doing something other
  // than asked.
  if (cmd == "record" && argc == 5) {
    return cmd_record(
        argv[2],
        examples::parse_unsigned_or_die(argv[0], "the record seed", argv[3]),
        argv[4]);
  }
  if (cmd == "convert" && argc == 6 && std::strcmp(argv[2], "--synth") == 0) {
    return cmd_convert_synth(
        examples::parse_unsigned_or_die(argv[0], "the synthetic event count",
                                        argv[3]),
        examples::parse_unsigned_or_die(argv[0], "the synthetic seed",
                                        argv[4]),
        argv[5]);
  }
  if (cmd == "convert" && argc == 4) return cmd_convert(argv[2], argv[3]);
  if (cmd == "info" && argc == 3) return cmd_info(argv[2], false);
  if (cmd == "info" && argc == 4 && std::strcmp(argv[3], "--check") == 0) {
    return cmd_info(argv[2], true);
  }
  if (cmd == "sample" && argc == 6) {
    return cmd_sample(
        argv[2],
        examples::parse_unsigned_or_die(argv[0], "the sample budget",
                                        argv[3]),
        examples::parse_unsigned_or_die(argv[0], "the sample seed", argv[4]),
        argv[5]);
  }
  if (cmd == "stats" && argc == 3) return cmd_stats(argv[2]);
  if (cmd == "phases" && argc == 3) return cmd_phases(argv[2]);
  if (cmd == "score" && argc == 4) return cmd_score(argv[2], argv[3]);
  return usage();
}
