// Trace-store characterization (src/trace/): what the columnar DMMT
// format costs and buys at production scale.  Four claims, each measured
// and most gated by exit code + CI:
//
//   * compression — the recorded DRR case-study trace must encode to
//     <= 2.67 bytes/event (>= 3x smaller than a naive 8 B/event binary
//     dump), and open() latency is O(header+index), reported in microseconds;
//   * streaming replay — replaying straight off the mapping must sustain
//     >= 0.9x the in-memory throughput (best of 3 runs each) while the
//     cursor's working set stays one block, independent of trace length
//     (asserted via MappedTrace::cursor_buffer_bytes across 4 sizes);
//   * search parity — a full greedy design over the file-backed source
//     finds the bit-identical decision vector to the in-memory run;
//   * sampling — how many objects and events the stratified sample keeps
//     at a 20k-event budget (reported, not gated).
//
// Emits BENCH_trace.json.  Optional argv[1]: synthetic trace event target
// (default 2,000,000; the acceptance-scale run is 10,000,000).  `--out
// PATH` relocates the JSON.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dmm/alloc/custom_manager.h"
#include "dmm/core/search.h"
#include "dmm/core/trace.h"
#include "dmm/trace/trace_sample.h"
#include "dmm/trace/trace_store.h"

namespace {

using namespace dmm;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Streams a phase-structured synthetic workload of ~event_target events
/// to @p path — same shape as `trace_tool convert --synth`: a palette of
/// dlmalloc-ish size classes, a bounded live set with reuse, an
/// occasional large block, and 8 phases.
bool write_synth(const std::string& path, std::uint64_t event_target,
                 std::uint64_t seed, std::string* why) {
  auto writer = trace::TraceWriter::create(path, why);
  if (writer == nullptr) return false;
  static constexpr std::uint32_t kSizes[] = {16,   24,   32,    48,   64,  96,
                                             128,  256,  1024,  4096, 65536};
  static constexpr std::size_t kLiveCap = 4096;
  std::vector<std::uint32_t> live;  // ids of live objects, swap-removed
  live.reserve(kLiveCap);
  std::uint32_t next_id = 0;
  std::uint64_t emitted = 0;
  std::uint64_t rng = seed;
  const std::uint64_t per_phase = event_target / 8 + 1;
  for (std::uint16_t phase = 0; phase < 8 && emitted < event_target;
       ++phase) {
    for (std::uint64_t i = 0; i < per_phase && emitted < event_target; ++i) {
      const std::uint64_t h = mix64(++rng);
      const bool do_free =
          !live.empty() && (live.size() >= kLiveCap || (h & 3u) == 0);
      if (do_free) {
        const std::size_t pick = h % live.size();
        writer->add({core::AllocEvent::Op::kFree, live[pick], 0, phase});
        live[pick] = live.back();
        live.pop_back();
      } else {
        const std::uint32_t size = (h >> 32) % 4096 == 0
                                       ? (1u << 20)
                                       : kSizes[(h >> 8) % 11];
        const std::uint32_t id = next_id++;
        live.push_back(id);
        writer->add({core::AllocEvent::Op::kAlloc, id, size, phase});
      }
      ++emitted;
    }
  }
  // Close survivors in id order so the trace validates.
  std::sort(live.begin(), live.end());
  for (const std::uint32_t id : live) {
    writer->add({core::AllocEvent::Op::kFree, id, 0, 7});
  }
  return writer->finish(why);
}

/// One full replay through a default custom manager; returns wall seconds.
double replay_once(const core::TraceSource& source, core::SimResult* out) {
  const double t0 = now_seconds();
  *out = core::simulate_fresh(
      source, [](sysmem::SystemArena& arena) {
        return std::make_unique<alloc::CustomManager>(arena,
                                                      alloc::DmmConfig{});
      });
  return now_seconds() - t0;
}

double best_of_3(const core::TraceSource& source, core::SimResult* out) {
  double best = 1e300;
  for (int i = 0; i < 3; ++i) {
    core::SimResult r;
    const double wall = replay_once(source, &r);
    if (wall < best) {
      best = wall;
      *out = r;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args =
      bench::parse_bench_args(argc, argv, "BENCH_trace.json");
  const std::uint64_t synth_events =
      args.max_events != 0 ? args.max_events : 2'000'000;

  FILE* json = std::fopen(args.out.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "%s: cannot write %s\n", argv[0], args.out.c_str());
    return 2;
  }
  std::fprintf(json, "{\n");
  std::string why;

  // --- 1. compression + open latency on the recorded DRR trace ----------
  const workloads::Workload& drr = workloads::case_study("drr");
  const core::AllocTrace drr_trace = workloads::record_trace(drr, 1);
  const std::string drr_path = "bench_trace_drr.dmmt";
  if (!trace::write_trace_file(drr_trace, drr_path, {}, &why)) {
    std::fprintf(stderr, "FAIL: writing %s: %s\n", drr_path.c_str(),
                 why.c_str());
    return 1;
  }
  double open_best = 1e300;
  std::uint64_t file_bytes = 0;
  for (int i = 0; i < 5; ++i) {
    const double t0 = now_seconds();
    const auto m = trace::MappedTrace::open(drr_path, &why);
    const double wall = now_seconds() - t0;
    if (m == nullptr) {
      std::fprintf(stderr, "FAIL: reopening %s: %s\n", drr_path.c_str(),
                   why.c_str());
      return 1;
    }
    file_bytes = m->file_bytes();
    if (wall < open_best) open_best = wall;
  }
  const double naive_bytes_per_event = 8.0;
  const double bytes_per_event =
      static_cast<double>(file_bytes) / static_cast<double>(drr_trace.size());
  const bool compression_gate =
      bytes_per_event <= naive_bytes_per_event / 3.0;
  std::printf("DRR trace: %zu events -> %llu bytes (%.2f B/event, %.1fx vs "
              "naive %.0f B), open %.1f us\n",
              drr_trace.size(), static_cast<unsigned long long>(file_bytes),
              bytes_per_event, naive_bytes_per_event / bytes_per_event,
              naive_bytes_per_event, open_best * 1e6);
  std::fprintf(json,
               "  \"drr\": {\"events\": %zu, \"file_bytes\": %llu, "
               "\"bytes_per_event\": %.4f, \"naive_bytes_per_event\": %.1f, "
               "\"open_us\": %.2f},\n",
               drr_trace.size(), static_cast<unsigned long long>(file_bytes),
               bytes_per_event, naive_bytes_per_event, open_best * 1e6);
  std::remove(drr_path.c_str());

  // --- 2. synthetic trace at scale --------------------------------------
  const std::string synth_path = "bench_trace_synth.dmmt";
  const double w0 = now_seconds();
  if (!write_synth(synth_path, synth_events, 7, &why)) {
    std::fprintf(stderr, "FAIL: synth write: %s\n", why.c_str());
    return 1;
  }
  const double write_wall = now_seconds() - w0;
  auto mapped = trace::MappedTrace::open(synth_path, &why);
  if (mapped == nullptr) {
    std::fprintf(stderr, "FAIL: opening synth: %s\n", why.c_str());
    return 1;
  }
  std::printf("synth trace: %llu events written in %.2f s (%.2f B/event)\n",
              static_cast<unsigned long long>(mapped->event_count()),
              write_wall,
              static_cast<double>(mapped->file_bytes()) /
                  static_cast<double>(mapped->event_count()));

  // --- 3. streaming replay vs in-memory ----------------------------------
  const core::AllocTrace in_memory = mapped->materialize();
  core::SimResult file_sim;
  core::SimResult mem_sim;
  const double file_wall = best_of_3(*mapped, &file_sim);
  const double mem_wall = best_of_3(in_memory, &mem_sim);
  const double ratio = file_wall > 0.0 ? mem_wall / file_wall : 1.0;
  const bool replay_gate = ratio >= 0.9;
  const bool same_result =
      file_sim.peak_footprint == mem_sim.peak_footprint &&
      file_sim.peak_live_bytes == mem_sim.peak_live_bytes;
  std::printf("replay %.2f Mevents/s file-backed vs %.2f Mevents/s "
              "in-memory (file/mem throughput ratio %.3f), cursor working "
              "set %zu B\n",
              static_cast<double>(file_sim.events) / file_wall / 1e6,
              static_cast<double>(mem_sim.events) / mem_wall / 1e6, ratio,
              mapped->cursor_buffer_bytes());
  std::fprintf(json,
               "  \"replay\": {\"events\": %llu, \"file_wall_s\": %.4f, "
               "\"mem_wall_s\": %.4f, \"file_over_mem_ratio\": %.4f, "
               "\"cursor_buffer_bytes\": %zu, \"same_result\": %s},\n",
               static_cast<unsigned long long>(file_sim.events), file_wall,
               mem_wall, ratio, mapped->cursor_buffer_bytes(),
               same_result ? "true" : "false");

  // --- 4. cursor working set is independent of trace length --------------
  bool cursor_gate = true;
  std::size_t reference_buffer = 0;
  std::fprintf(json, "  \"cursor_accounting\": [");
  const std::uint64_t lengths[] = {10'000, 100'000, 1'000'000, synth_events};
  for (std::size_t i = 0; i < 4; ++i) {
    const std::string p = "bench_trace_len.dmmt";
    if (!write_synth(p, lengths[i], 11, &why)) {
      std::fprintf(stderr, "FAIL: synth write: %s\n", why.c_str());
      return 1;
    }
    const auto m = trace::MappedTrace::open(p, &why);
    if (m == nullptr) {
      std::fprintf(stderr, "FAIL: %s\n", why.c_str());
      return 1;
    }
    if (i == 0) reference_buffer = m->cursor_buffer_bytes();
    // The gate: a 200x longer trace may not grow the replay working set.
    cursor_gate =
        cursor_gate && m->cursor_buffer_bytes() == reference_buffer;
    std::fprintf(json,
                 "%s\n    {\"events\": %llu, \"file_bytes\": %llu, "
                 "\"cursor_buffer_bytes\": %zu}",
                 i == 0 ? "" : ",",
                 static_cast<unsigned long long>(m->event_count()),
                 static_cast<unsigned long long>(m->file_bytes()),
                 m->cursor_buffer_bytes());
    std::remove(p.c_str());
  }
  std::fprintf(json, "\n  ],\n");

  // --- 5. sampling ---------------------------------------------------------
  trace::SampleOptions sopts;
  sopts.budget = 20'000;
  const trace::SampleResult sample = trace::sample_trace(*mapped, sopts);
  std::printf("sampling: %llu objects kept across %zu strata -> %zu events\n",
              static_cast<unsigned long long>(sample.sampled_objects),
              sample.strata.size(), sample.trace.size());
  std::fprintf(json,
               "  \"sampling\": {\"budget\": %zu, \"kept_objects\": %llu, "
               "\"sampled_events\": %zu, \"strata\": %zu},\n",
               sopts.budget,
               static_cast<unsigned long long>(sample.sampled_objects),
               sample.trace.size(), sample.strata.size());

  // --- 6. greedy design parity: file-backed vs in-memory ------------------
  core::GreedySearch greedy;
  const double g0 = now_seconds();
  const core::ExplorationResult file_result = core::run_search(*mapped, greedy);
  const double file_design_wall = now_seconds() - g0;
  const core::ExplorationResult mem_result =
      core::run_search(in_memory, greedy);
  const bool parity_gate = file_result.best == mem_result.best;
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  std::printf("greedy design over the file-backed source: %llu replays in "
              "%.2f s, best vector %s the in-memory run (process peak RSS "
              "%ld MB)\n",
              static_cast<unsigned long long>(file_result.simulations),
              file_design_wall, parity_gate ? "MATCHES" : "DIVERGES FROM",
              usage.ru_maxrss / 1024);
  std::fprintf(json,
               "  \"greedy_parity\": {\"events\": %llu, \"replays\": %llu, "
               "\"file_design_wall_s\": %.2f, \"best_matches\": %s, "
               "\"peak_rss_mb\": %ld},\n",
               static_cast<unsigned long long>(in_memory.size()),
               static_cast<unsigned long long>(file_result.simulations),
               file_design_wall, parity_gate ? "true" : "false",
               usage.ru_maxrss / 1024);
  std::remove(synth_path.c_str());

  const bool all_gates =
      compression_gate && replay_gate && cursor_gate && parity_gate &&
      same_result;
  std::fprintf(json,
               "  \"gates\": {\"compression_3x\": %s, "
               "\"file_replay_ratio_0_9\": %s, \"cursor_bounded\": %s, "
               "\"replay_same_result\": %s, \"greedy_parity\": %s, "
               "\"passed\": %s}\n}\n",
               compression_gate ? "true" : "false",
               replay_gate ? "true" : "false", cursor_gate ? "true" : "false",
               same_result ? "true" : "false", parity_gate ? "true" : "false",
               all_gates ? "true" : "false");
  std::fclose(json);
  std::printf("\nwrote %s\n", args.out.c_str());
  if (!all_gates) {
    std::fprintf(stderr,
                 "FAIL: trace gates (compression=%d replay_ratio=%d "
                 "cursor=%d same_result=%d parity=%d)\n",
                 compression_gate, replay_gate, cursor_gate, same_result,
                 parity_gate);
    return 1;
  }
  return 0;
}
