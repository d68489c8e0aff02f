// perfbench: the repository benchmark.  One binary, three workloads, each
// driven from outside through the library's public calls (see README.md for
// the workload reasons, load shapes, the layer -> metric map and the known
// hazards):
//
//   design-drr  one closed-loop caller sends api::run_design_request a greedy
//               request on the DRR case-study trace by .dmmt path, then saves
//               and reloads the reply's configs as a config artifact;
//   serve-mix   three closed-loop client connections to an embedded
//               serve::Server send short recon3d / render3d requests under a
//               rotating greedy / beam:4 / anneal / validate mix;
//   deploy-drr  runtime::DesignedAllocator, built from the set-up artifact
//               with thread caches on, replays recorded DRR traffic in
//               4-thread passes (the traced run adds 1- and 2-thread
//               passes).
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--max-events N] [--fault KIND]
//
// --trace 0 measures the named workload for S seconds and prints its
// end-to-end metrics.  --trace 1 is the separate traced run: it records
// spans around every public call, runs the layer ladder on the DRR trace,
// gives the named workload half of S and the other two a quarter each, and
// prints the per-layer metrics.  The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it carries
// the host/provenance block and every metric's unit and sample count.  Any
// failed output check makes the exit code 1.
//
// --max-events caps every recorded trace (smoke runs), and --fault seeds one
// wrong output (artifact | signature | served | block | parity) so a test
// can prove the matching check fails the run.

#include <malloc.h>
#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "dmm/alloc/allocator.h"
#include "dmm/alloc/config.h"
#include "dmm/alloc/policy_core.h"
#include "dmm/api/design_api.h"
#include "dmm/core/simulator.h"
#include "dmm/core/trace.h"
#include "dmm/runtime/config_artifact.h"
#include "dmm/runtime/designed_allocator.h"
#include "dmm/serve/client.h"
#include "dmm/serve/server.h"
#include "dmm/sysmem/system_arena.h"
#include "dmm/trace/trace_store.h"
#include "dmm/workloads/workload.h"

namespace {

using namespace dmm;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Fixed inputs.  The case-study traces are recorded from fixed case-study
// seeds, so every output the benchmark gates exactly (design signature,
// designed peak, deployed peak) is the same number in every run, and every
// run does the same work.  Over DRR seeds 1-10 the designed peak ranges
// from 98 KB to 229 KB and the design time by 30 %.  The run's --seed
// drives the order
// of what the callers send: serve-mix's client-to-search assignment and
// deploy-drr's thread-to-trace assignment.
// ---------------------------------------------------------------------------

constexpr unsigned kDesignSeed = 1;    // the DRR profile every design uses
constexpr unsigned kTrafficSeed = 101; // deploy traffic: seeds 101..104
constexpr unsigned kServeSeed = 1;     // recon3d; render3d: 1..kRenderTraces
/// render3d has two phases and a cut shortens only the last one, so its
/// rounds take whole traces of distinct seeds instead of cuts.  This many
/// cover a 40-second window; a longer one reuses them on a warm cache.
constexpr unsigned kRenderTraces = 64;
constexpr unsigned kDeployThreads = 4;
constexpr unsigned kServeClients = 3;
constexpr unsigned kAnnealSeed = 7;
constexpr int kSetupReps = 5;
constexpr int kLadderReps = 7;
const char* const kServeCases[2] = {"recon3d", "render3d"};
/// The searches the three clients of one serve-mix round run side by side
/// on one trace, per case study.  The expensive search of a round runs
/// beside the two cheap walks, never beside another expensive one:
/// validate's exhaustive pass and anneal would race for the same
/// candidates in the shared cache, and whichever wins pays for both, which
/// makes a request's latency a coin toss.  Anneal goes on recon3d and
/// validate on render3d, so render3d's two phases and recon3d's large
/// blocks are both exercised and no request dominates a cycle.
const char* const kRoundKinds[2][kServeClients] = {
    {"greedy", "beam:4", "anneal"}, {"greedy", "beam:4", "validate"}};
/// Rounds alternate recon3d, render3d, render3d.  With 9 requests per three
/// rounds, the median and the p90 of a run fall in the middle of one
/// request's latency, not on the boundary between two, where they would
/// jump between the two from run to run.
constexpr unsigned kCaseCycle = 3;
unsigned serve_case(unsigned round) { return round % kCaseCycle == 0 ? 0 : 1; }
/// Rounds of round @p round's case study before it.
unsigned serve_index(unsigned round) {
  const unsigned cycle = round / kCaseCycle;
  const unsigned pos = round % kCaseCycle;
  return pos == 0 ? cycle : (kCaseCycle - 1) * cycle + pos - 1;
}
/// One serve-mix cycle: the case rotation under each of the three
/// client-to-search assignments.  The server deals turns in connection
/// order, so the assignment moves latency between searches.
constexpr unsigned kCycleRounds = kCaseCycle * kServeClients;

unsigned nproc() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// ---------------------------------------------------------------------------
// Statistics and results.
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of @p v; 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Interquartile range as a share of the median.
double spread(const std::vector<double>& v) {
  const double m = median(v);
  return m == 0.0 ? 0.0 : (quantile(v, 0.75) - quantile(v, 0.25)) / m;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// Every failed output check lands here; any one makes the run incorrect.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Counts one attempted operation; false (and a failure) when !ok.
  bool expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    }
    return ok;
  }
};

// ---------------------------------------------------------------------------
// Spans: recorded by this file around the calls into each layer, kept in
// memory, and written out when the run ends.  Spans of one request share a
// request id; a span's self time is its duration minus its children's.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  [[nodiscard]] bool on() const { return on_; }

  /// Opens a span; returns its id (0 when tracing is off).
  std::uint64_t begin(const char* name, std::uint64_t parent,
                      std::uint64_t request) {
    if (!on_) return 0;
    const double t = since(origin_);
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, spans_.size() + 1, parent, request, t, -1.0});
    return spans_.size();
  }

  void end(std::uint64_t id) {
    if (id == 0) return;
    const double t = since(origin_);
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end = t;
  }

  /// Self time of every closed span, grouped by span name.
  [[nodiscard]] std::map<std::string, std::vector<double>> self_times() const {
    std::vector<double> child(spans_.size() + 1, 0.0);
    for (const Span& s : spans_) {
      if (s.parent != 0 && s.end >= 0.0) child[s.parent] += s.end - s.start;
    }
    std::map<std::string, std::vector<double>> out;
    for (const Span& s : spans_) {
      if (s.end >= 0.0) out[s.name].push_back(s.end - s.start - child[s.id]);
    }
    return out;
  }

  /// One JSON object per line: name, id, parent, request, start/end (s).
  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"request\":%llu,\"start_s\":%.9f,\"end_s\":%.9f}\n",
                   s.name.c_str(), static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.start, s.end);
    }
    std::fclose(f);
  }

 private:
  struct Span {
    std::string name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
    double start;
    double end;
  };

  bool on_;
  Clock::time_point origin_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, std::uint64_t parent = 0,
            std::uint64_t request = 0)
      : tracer_(tracer), id_(tracer.begin(name, parent, request)) {}
  ~SpanScope() { tracer_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

// ---------------------------------------------------------------------------
// Command line.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::size_t max_events = 0;  ///< 0 = full traces
  std::string fault;           ///< empty = no seeded wrong output
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "design-drr|serve-mix|deploy-drr --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--max-events N] "
               "[--fault artifact|signature|served|block|parity]\n",
               why);
  std::exit(2);
}

unsigned long long parse_count(const std::string& flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*text == '\0' || *text == '-' || *end != '\0') {
    usage((flag + " needs a non-negative integer").c_str());
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage((flag + " needs a value").c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = static_cast<unsigned>(parse_count(flag, value));
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_count(flag, value));
      have_seconds = true;
    } else if (flag == "--trace") {
      const auto t = parse_count(flag, value);
      if (t > 1) usage("--trace is 0 or 1");
      a.trace = t == 1;
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else if (flag == "--max-events") {
      a.max_events = parse_count(flag, value);
    } else if (flag == "--fault") {
      a.fault = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload != "design-drr" && a.workload != "serve-mix" &&
      a.workload != "deploy-drr") {
    usage("unknown --workload");
  }
  if (!have_seconds || a.seconds < 1.0) usage("--seconds must be >= 1");
  static const char* const kFaults[] = {"",      "artifact", "signature",
                                        "served", "block",   "parity"};
  if (std::find(std::begin(kFaults), std::end(kFaults), a.fault) ==
      std::end(kFaults)) {
    usage("unknown --fault");
  }
  return a;
}

// ---------------------------------------------------------------------------
// Set-up: record the traces, write them as .dmmt files, design the deploy
// vector on the DRR trace, and export its config artifact.  The program
// under test then receives only those files and the requests.
// ---------------------------------------------------------------------------

/// The traces of one serve-mix case study.  Round k takes
/// paths[k % paths.size()] cut to cuts[k % cuts.size()] events (no cuts =
/// the whole trace).
struct ServeTrace {
  std::vector<std::string> paths;
  /// max_events values, longest first.  Each cut drops at least one more
  /// alloc event than the one before, so no two cuts yield the same trace
  /// and no (trace, search) pair of a run repeats.
  std::vector<std::uint64_t> cuts;
};

struct Setup {
  std::string design_path;
  std::uint64_t design_events = 0;
  std::size_t design_peak_live = 0;
  std::vector<std::string> traffic_paths;
  ServeTrace serve[2];
  std::string artifact_path;
  api::DesignRequest design_request;
  api::DesignReply reference;  ///< the set-up design: the expected reply
  double record_s = 0.0;       ///< workloads.record_s of this set-up
};

core::AllocTrace record(const char* workload, unsigned seed,
                        std::size_t max_events) {
  core::AllocTrace t = workloads::record_trace(workloads::case_study(workload),
                                               seed);
  if (max_events != 0 && t.size() > max_events) {
    t.events().resize(max_events);
    t.close_leaks();
  }
  return t;
}

bool write_dmmt(const core::AllocTrace& t, const std::string& path,
                Checks& checks) {
  std::string why;
  return checks.expect(trace::write_trace_file(t, path, {}, &why),
                       "write " + path + ": " + why);
}

std::vector<std::uint64_t> alloc_cuts(const core::AllocTrace& t) {
  std::vector<std::uint64_t> cuts;
  const std::vector<core::AllocEvent>& ev = t.events();
  // Keep at least half of the trace: the cuts stay in the steady part of
  // the run, so every request costs about the same.
  for (std::size_t i = ev.size(); i-- > ev.size() / 2;) {
    if (ev[i].op == core::AllocEvent::Op::kAlloc) cuts.push_back(i);
  }
  return cuts;
}

/// Flips one byte in the middle of @p path (the --fault artifact seam).
void tamper(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::streamoff>(f.tellg());
  f.seekg(size / 2);
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5a);
  f.seekp(size / 2);
  f.write(&c, 1);
}

Setup run_setup(const Args& args, const std::string& dir, Checks& checks) {
  Setup s;
  const auto t0 = Clock::now();
  const core::AllocTrace design = record("drr", kDesignSeed, args.max_events);
  std::vector<core::AllocTrace> traffic;
  for (unsigned t = 0; t < kDeployThreads; ++t) {
    traffic.push_back(record("drr", kTrafficSeed + t, args.max_events));
  }
  const std::size_t serve_cap = args.max_events == 0 ? 0 : args.max_events / 2;
  const core::AllocTrace recon = record("recon3d", kServeSeed, serve_cap);
  std::vector<core::AllocTrace> render;
  for (unsigned i = 0; i < kRenderTraces; ++i) {
    render.push_back(record("render3d", kServeSeed + i, serve_cap));
  }
  s.record_s = since(t0);

  s.design_path = dir + "/drr.dmmt";
  s.design_events = design.size();
  s.design_peak_live = design.stats().peak_live_bytes;
  write_dmmt(design, s.design_path, checks);
  for (unsigned t = 0; t < kDeployThreads; ++t) {
    s.traffic_paths.push_back(dir + "/traffic" + std::to_string(t) + ".dmmt");
    write_dmmt(traffic[t], s.traffic_paths.back(), checks);
  }
  s.serve[0].paths.push_back(dir + "/recon3d.dmmt");
  s.serve[0].cuts = alloc_cuts(recon);
  write_dmmt(recon, s.serve[0].paths[0], checks);
  for (unsigned i = 0; i < kRenderTraces; ++i) {
    s.serve[1].paths.push_back(dir + "/render3d-" + std::to_string(i) +
                               ".dmmt");
    write_dmmt(render[i], s.serve[1].paths.back(), checks);
  }

  s.design_request.traces.resize(1);
  s.design_request.traces[0].kind = api::TraceRef::Kind::kFile;
  s.design_request.traces[0].path = s.design_path;
  // Half the cores: at nproc threads any host load on any core stalls the
  // engine's batches, and the request time drifted by a fifth between
  // runs; at one thread it swung between two levels a third apart.
  s.design_request.num_threads = std::max(1u, nproc() / 2);
  s.reference = api::run_design_request(s.design_request);
  checks.expect(s.reference.ok && !s.reference.phase_configs.empty(),
                "set-up design failed: " + s.reference.error);
  if (args.fault == "signature" && !s.reference.phase_signatures.empty()) {
    s.reference.phase_signatures[0] += " (tampered)";
  }

  s.artifact_path = dir + "/deploy.dmmconfig";
  const runtime::ConfigArtifactSaveResult saved =
      runtime::save_config_artifact(s.artifact_path,
                                    s.reference.phase_configs);
  checks.expect(saved.saved, "artifact export failed: " + saved.reason);
  if (args.fault == "artifact") tamper(s.artifact_path);
  const runtime::ConfigArtifactLoadResult loaded =
      runtime::load_config_artifact(s.artifact_path);
  checks.expect(loaded.loaded &&
                    loaded.configs == s.reference.phase_configs,
                "set-up artifact does not round-trip: " + loaded.reason);
  return s;
}

// ---------------------------------------------------------------------------
// design-drr
// ---------------------------------------------------------------------------

struct DesignStage {
  std::vector<double> latency;         ///< untraced requests (s)
  std::vector<double> traced_latency;  ///< traced requests (s)
  std::vector<double> load_s;          ///< api::load_traces, traced only
  std::vector<double> search_s;        ///< design call minus its load
  double wall = 0.0;
  std::uint64_t requests = 0;
  api::DesignReply last;
};

bool same_design(const api::DesignReply& a, const api::DesignReply& b) {
  return a.ok && b.ok && a.feasible == b.feasible &&
         a.phase_signatures == b.phase_signatures &&
         a.phase_configs == b.phase_configs && a.best_peak == b.best_peak &&
         a.evaluations == b.evaluations;
}

DesignStage run_design(const Setup& s, const std::string& dir, double seconds,
                       Tracer& tracer, Checks& checks) {
  DesignStage out;
  const std::string artifact = dir + "/design-reply.dmmconfig";
  const auto start = Clock::now();
  while (since(start) < seconds) {
    const std::uint64_t rid = ++out.requests;
    // In the traced run every other request is left untraced, so the
    // traced-minus-untraced difference is the tracing overhead.
    const bool traced = tracer.on() && rid % 2 == 1;
    double load = 0.0;
    if (traced) {
      // The trace load measured on its own, outside the request's span:
      // the same work run_design_request does first.
      SpanScope span(tracer, "api.load_traces", 0, rid);
      std::vector<core::AllocTrace> loaded;
      std::string why;
      const auto t0 = Clock::now();
      checks.expect(api::load_traces(s.design_request, &loaded, &why),
                    "load_traces: " + why);
      load = since(t0);
      out.load_s.push_back(load);
    }
    const auto t0 = Clock::now();
    const std::uint64_t root =
        traced ? tracer.begin("design.request", 0, rid) : 0;
    const std::uint64_t call =
        traced ? tracer.begin("core.design_call", root, rid) : 0;
    const auto c0 = Clock::now();
    api::DesignReply reply = api::run_design_request(s.design_request);
    const double call_s = since(c0);
    tracer.end(call);
    const std::uint64_t io = traced ? tracer.begin("artifact.io", root, rid)
                                    : 0;
    const runtime::ConfigArtifactSaveResult saved =
        runtime::save_config_artifact(artifact, reply.phase_configs);
    const runtime::ConfigArtifactLoadResult loaded =
        runtime::load_config_artifact(artifact);
    tracer.end(io);
    tracer.end(root);
    const double latency = since(t0);
    (traced ? out.traced_latency : out.latency).push_back(latency);
    if (traced) out.search_s.push_back(call_s - load);

    checks.expect(reply.ok, "design reply not ok: " + reply.error);
    checks.expect(reply.phase_signatures == s.reference.phase_signatures &&
                      reply.best_peak == s.reference.best_peak,
                  "design signature differs from the set-up reference");
    checks.expect(saved.saved && loaded.loaded &&
                      loaded.configs == reply.phase_configs,
                  "reply artifact does not round-trip");
    out.last = std::move(reply);
  }
  out.wall = since(start);
  return out;
}

// ---------------------------------------------------------------------------
// serve-mix
// ---------------------------------------------------------------------------

struct ServedRequest {
  unsigned client = 0;
  unsigned round = 0;
  std::string kind;  ///< the kRoundKinds entry
  api::DesignRequest request;
  api::DesignReply reply;
  bool replied = false;
  double latency = 0.0;         ///< send -> reply (s)
  double first_progress = -1.0; ///< send -> first progress frame (s)
  unsigned frames = 0;
};

/// Fills @p r with client @p client's request number @p round.  Clients at
/// the same round share one trace, each under a different search.  Every
/// round of a case study takes a trace no earlier round took (a shorter
/// recon3d cut, the next render3d seed), so no (trace, search) pair repeats
/// within a run.  The seed picks the first client-to-search assignment.
/// Traces and the anneal seed are the same in every run, so every run
/// serves the same work: the render3d seed alone moves a request's cost by
/// up to 30 %.
void serve_request(const Setup& s, unsigned seed, unsigned client,
                   unsigned round, ServedRequest* r) {
  const ServeTrace& st = s.serve[serve_case(round)];
  const std::size_t k = serve_index(round);
  r->client = client;
  r->round = round;
  r->kind = kRoundKinds[serve_case(round)]
                       [(client + seed + round / kCaseCycle) % kServeClients];
  api::DesignRequest& req = r->request;
  req.traces.resize(1);
  req.traces[0].kind = api::TraceRef::Kind::kFile;
  req.traces[0].path = st.paths[k % st.paths.size()];
  req.max_events = st.cuts.empty() ? 0 : st.cuts[k % st.cuts.size()];
  if (r->kind == "anneal") {
    req.search_text = "anneal:" + std::to_string(kAnnealSeed);
  } else if (r->kind == "validate") {
    req.validate = true;
  } else {
    req.search_text = r->kind;
  }
}

struct ServeStage {
  std::vector<ServedRequest> done;
  /// Indices into `done` of the replies re-run in-process: the earliest
  /// request (lowest round, then client) of every case study x search kind, so
  /// the set depends on the seed only, never on scheduling.
  std::vector<std::size_t> checked;
  std::vector<double> cycle_s;  ///< wall time of each whole cycle
};

ServeStage run_serve(const Setup& s, const Args& args, const std::string& dir,
                     double seconds, Tracer& tracer, Checks& checks) {
  ServeStage out;
  serve::ServeOptions opts;
  // A relative path: sockaddr_un holds ~100 bytes, a checkout path may not.
  opts.socket_path = dir + "/serve.sock";
  // Client threads block on their sockets; the scheduler thread and the
  // engine workers are the busy ones.  They get nproc - 1 cores between
  // them: with every core busy, the run-to-run spread roughly doubled.
  opts.num_threads = std::max(1u, nproc() - 2);
  serve::Server server(opts);
  std::string why;
  if (!checks.expect(server.start(&why), "server start: " + why)) return out;
  int server_rc = -1;
  std::thread server_thread([&] { server_rc = server.run(); });

  // Rounds run in lock step: the clients send together and the next round
  // starts when every reply is in, so the requests in flight together are
  // always one round kind on one trace.  The stage serves whole cycles
  // until `seconds` have passed, so every run serves the same mix,
  // wherever the window would have cut it.
  std::barrier sync(kServeClients + 1);
  std::atomic<bool> stop{false};
  std::atomic<unsigned> sent{0};  ///< clients that sent this round
  std::mutex mu;
  // Connected one after the other, so the server's connection order (its
  // turn order) is the client order in every run.
  std::vector<serve::Client> conns(kServeClients);
  std::vector<bool> connected;
  for (serve::Client& client : conns) {
    connected.push_back(client.connect_to(opts.socket_path, &why));
    checks.expect(connected.back(), "client connect: " + why);
  }
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&, c] {
      serve::Client& client = conns[c];
      std::string err;
      bool alive = connected[c];
      for (unsigned round = 0;; ++round) {
        sync.arrive_and_wait();
        if (stop.load()) return;
        // The clients send in connection order, one after the other.  The
        // server deals turns in the order it reads requests, and a race
        // between the client threads would reorder a round's turns and
        // move latency between its requests from run to run.
        while (sent.load(std::memory_order_acquire) != c) {
          std::this_thread::yield();
        }
        if (!alive) sent.fetch_add(1, std::memory_order_release);
        if (alive) {
          ServedRequest r;
          serve_request(s, args.seed, c, round, &r);
          const std::uint64_t rid = (round + 1) * 16 + c;
          const auto t0 = Clock::now();
          const std::uint64_t root = tracer.begin("serve.request", 0, rid);
          std::uint64_t wait = tracer.begin("serve.queue_wait", root, rid);
          bool open = client.send_request(r.request, &err);
          sent.fetch_add(1, std::memory_order_release);
          while (open) {
            api::ProgressEvent progress;
            const serve::Client::Event ev =
                client.next(&progress, &r.reply, &err);
            if (ev == serve::Client::Event::kProgress) {
              if (r.frames++ == 0) {
                r.first_progress = since(t0);
                tracer.end(wait);
                wait = 0;
              }
              continue;
            }
            r.replied = ev == serve::Client::Event::kReply;
            open = false;
          }
          tracer.end(wait);
          tracer.end(root);
          r.latency = since(t0);
          alive = r.replied;
          const std::lock_guard<std::mutex> lock(mu);
          checks.expect(r.replied, "served request got no reply: " + err);
          checks.expect(!r.replied || r.reply.ok,
                        "served reply not ok: " + r.reply.error);
          out.done.push_back(std::move(r));
        }
        sync.arrive_and_wait();
      }
    });
  }
  const auto start = Clock::now();
  auto cycle_start = start;
  for (unsigned round = 1;; ++round) {
    sync.arrive_and_wait();  // the clients send
    sync.arrive_and_wait();  // every reply is in
    sent.store(0, std::memory_order_relaxed);
    if (round % kCycleRounds != 0) continue;
    out.cycle_s.push_back(since(cycle_start));
    cycle_start = Clock::now();
    if (since(start) >= seconds) break;
  }
  stop.store(true);
  sync.arrive_and_wait();
  for (std::thread& t : clients) t.join();
  server.request_stop();
  server_thread.join();
  checks.expect(server_rc == 0, "server exited with an error");

  // Served replies must be what the library path returns for the same
  // request, bit for bit.  Re-running every request would double the
  // stage, so one request per case study x search kind is re-run in-process,
  // outside the timed window.
  std::map<std::pair<unsigned, std::string>, std::size_t> earliest;
  for (std::size_t i = 0; i < out.done.size(); ++i) {
    const ServedRequest& r = out.done[i];
    if (!r.replied) continue;
    const auto key = std::make_pair(serve_case(r.round), r.kind);
    const auto it = earliest.find(key);
    if (it == earliest.end() ||
        std::make_pair(r.round, r.client) <
            std::make_pair(out.done[it->second].round,
                           out.done[it->second].client)) {
      earliest[key] = i;
    }
  }
  for (const auto& [key, i] : earliest) {
    ServedRequest& r = out.done[i];
    if (out.checked.empty() && args.fault == "served") ++r.reply.best_peak;
    out.checked.push_back(i);
    const api::DesignReply local = api::run_design_request(r.request);
    checks.expect(same_design(r.reply, local),
                  "served reply differs from run_design_request (" +
                      std::string(kServeCases[key.first]) + ", " + key.second +
                      ", round " + std::to_string(r.round) + ")");
  }
  return out;
}

// ---------------------------------------------------------------------------
// deploy-drr and the runtime rungs of the ladder: a trace pre-decoded into
// slot-indexed operations, so the timed loop is the allocator calls alone.
// ---------------------------------------------------------------------------

struct Op {
  std::uint32_t slot;
  std::uint32_t size;  ///< 0 = free
};

struct OpList {
  std::vector<Op> ops;
  std::uint32_t slots = 0;
};

OpList decode_ops(const core::AllocTrace& trace) {
  OpList out;
  std::unordered_map<std::uint32_t, std::uint32_t> slot_of;
  for (const core::AllocEvent& e : trace.events()) {
    if (e.op == core::AllocEvent::Op::kAlloc) {
      slot_of[e.id] = out.slots;
      out.ops.push_back({out.slots++, std::max<std::uint32_t>(e.size, 1)});
    } else {
      const auto it = slot_of.find(e.id);
      if (it == slot_of.end()) continue;
      out.ops.push_back({it->second, 0});
      slot_of.erase(it);
    }
  }
  // Blocks the trace never frees are freed at the end, in slot order.
  std::vector<std::uint32_t> leaked;
  for (const auto& [id, slot] : slot_of) leaked.push_back(slot);
  std::sort(leaked.begin(), leaked.end());
  for (const std::uint32_t slot : leaked) out.ops.push_back({slot, 0});
  return out;
}

core::AllocTrace load_dmmt(const std::string& path, Checks& checks) {
  std::string why;
  const std::unique_ptr<trace::MappedTrace> mapped =
      trace::MappedTrace::open(path, &why);
  if (!checks.expect(mapped != nullptr, "open " + path + ": " + why)) {
    return {};
  }
  return mapped->materialize();
}

/// The timed loop: allocator calls only.  Returns the allocations that
/// came back null.
template <class Malloc, class Free>
std::uint64_t replay_ops(const OpList& list, std::vector<void*>& slots,
                     Malloc&& do_malloc, Free&& do_free) {
  std::uint64_t lost = 0;
  for (const Op& op : list.ops) {
    if (op.size != 0) {
      void* p = do_malloc(op.size);
      lost += p == nullptr ? 1 : 0;
      slots[op.slot] = p;
    } else {
      do_free(slots[op.slot]);
    }
  }
  return lost;
}

struct Verified {
  std::uint64_t lost = 0;
  std::uint64_t corrupted = 0;
};

/// The untimed check pass: fills every block with @p tag and verifies it
/// before the free.  @p corrupt flips one byte of the first block (the
/// --fault block seam).
template <class Malloc, class Free>
Verified replay_verified(const OpList& list, unsigned char tag,
                         bool corrupt, Malloc&& do_malloc, Free&& do_free) {
  Verified v;
  std::vector<std::pair<unsigned char*, std::uint32_t>> slots(list.slots);
  for (const Op& op : list.ops) {
    auto& [p, size] = slots[op.slot];
    if (op.size != 0) {
      p = static_cast<unsigned char*>(do_malloc(op.size));
      size = op.size;
      if (p == nullptr) {
        ++v.lost;
        continue;
      }
      std::memset(p, tag, size);
      if (corrupt) {
        p[size / 2] = static_cast<unsigned char>(~tag);
        corrupt = false;
      }
    } else if (p != nullptr) {
      for (std::uint32_t i = 0; i < size; ++i) {
        if (p[i] != tag) {
          ++v.corrupted;
          break;
        }
      }
      do_free(p);
      p = nullptr;
    }
  }
  return v;
}

/// Runs body(t) on @p n threads released together; returns the wall time
/// from the release to the last thread's end.
template <class Body>
double run_threads(unsigned n, Body&& body) {
  std::atomic<bool> go{false};
  std::vector<Clock::time_point> ends(n);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body(t);
      ends[t] = Clock::now();
    });
  }
  const auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  return std::chrono::duration<double>(*std::max_element(ends.begin(),
                                                         ends.end()) -
                                       t0)
      .count();
}

runtime::RuntimeOptions front_options(bool caches) {
  runtime::RuntimeOptions o;
  if (!caches) o.thread_cache_bytes = 0;  // deterministic 1:1 mode
  return o;
}

struct PassResult {
  double seconds = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t lost = 0;
  runtime::TelemetrySnapshot telemetry;
};

/// One timed pass of @p threads threads over a fresh caches-on front;
/// thread t replays lists[(t + rotate) % lists.size()].
PassResult front_pass(const alloc::DmmConfig& cfg,
                      const std::vector<OpList>& lists, unsigned threads,
                      unsigned rotate) {
  PassResult r;
  runtime::DesignedAllocator front(cfg, front_options(true));
  std::vector<std::vector<void*>> slots(threads);
  std::vector<std::uint64_t> lost(threads, 0);
  for (unsigned t = 0; t < threads; ++t) {
    const OpList& l = lists[(t + rotate) % lists.size()];
    slots[t].assign(l.slots, nullptr);
    r.ops += l.ops.size();
  }
  r.seconds = run_threads(threads, [&](unsigned t) {
    lost[t] = replay_ops(
        lists[(t + rotate) % lists.size()], slots[t],
        [&front](std::size_t n) { return front.malloc(n); },
        [&front](void* p) { front.free(p); });
  });
  for (const std::uint64_t l : lost) r.lost += l;
  r.telemetry = front.telemetry();
  return r;
}

struct DeployStage {
  std::vector<double> pass_1t;  ///< seconds per 1-thread pass (traced run)
  std::vector<double> pass_4t;
  std::vector<double> ops_per_s_2t;
  std::vector<double> peak_4t;
  std::uint64_t ops_1t = 0;  ///< ops of one 1-thread pass
  std::uint64_t ops_4t_total = 0;
  double seconds_4t_total = 0.0;
  std::uint64_t cache_hits_4t = 0;
  std::uint64_t allocs_4t = 0;
  std::size_t peak_1t = 0;   ///< caches-on arena peak, 1 thread
  std::size_t bound_1t = 0;  ///< cache-off core::simulate peak, same calls
};

DeployStage run_deploy(const Setup& s, const Args& args, double seconds,
                       Tracer& tracer, Checks& checks) {
  DeployStage out;
  const runtime::ConfigArtifactLoadResult art =
      runtime::load_config_artifact(s.artifact_path);
  if (!checks.expect(art.loaded && art.configs == s.reference.phase_configs,
                     "deploy artifact does not load to the designed "
                     "configs: " + art.reason)) {
    return out;
  }
  // DesignedAllocator deploys one vector; the DRR design has one phase.
  if (!checks.expect(art.configs.size() == 1,
                     "deploy artifact carries more than one phase")) {
    return out;
  }
  const alloc::DmmConfig& cfg = art.configs[0];

  // Each thread of a 4-thread pass replays its own recorded trace.  The
  // 1-thread pass replays all four in turn: a 30 ms pass of one trace
  // shows host jitter in its p90, four in a row average it out.
  std::vector<OpList> lists;
  core::AllocTrace serial;
  for (const std::string& path : s.traffic_paths) {
    const core::AllocTrace t = load_dmmt(path, checks);
    lists.push_back(decode_ops(t));
    serial.append(t);
  }
  const std::vector<OpList> serial_list = {decode_ops(serial)};
  {
    sysmem::SystemArena arena;
    alloc::PolicyCore core(arena, cfg, "bound", /*strict_accounting=*/false);
    out.bound_1t = core::simulate(serial, core).peak_footprint;
  }

  // Untimed checks: cache-off parity with the simulator, then the fill-
  // verify pass at four threads with caches on.
  {
    runtime::DesignedAllocator front(cfg, front_options(false));
    const Verified v = replay_verified(
        serial_list[0], 0x33, false,
        [&front](std::size_t n) { return front.malloc(n); },
        [&front](void* p) { front.free(p); });
    const std::size_t peak = front.telemetry().arena.peak_footprint;
    const std::size_t expected =
        out.bound_1t + (args.fault == "parity" ? 1 : 0);
    checks.expect(peak == expected,
                  "cache-off front peak " + std::to_string(peak) +
                      " != core::simulate peak " + std::to_string(expected));
    checks.expect(v.lost == 0 && v.corrupted == 0,
                  "cache-off pass lost or corrupted blocks");
  }
  {
    runtime::DesignedAllocator front(cfg, front_options(true));
    std::vector<Verified> v(kDeployThreads);
    run_threads(kDeployThreads, [&](unsigned t) {
      v[t] = replay_verified(
          lists[t], static_cast<unsigned char>(0x51 + t),
          t == 0 && args.fault == "block",
          [&front](std::size_t n) { return front.malloc(n); },
          [&front](void* p) { front.free(p); });
    });
    for (const Verified& x : v) {
      checks.expect(x.lost == 0 && x.corrupted == 0,
                    "fill-verify pass lost or corrupted blocks");
    }
  }

  // Untimed: the caches-on peak of a 1-thread pass over a fresh front,
  // twice.  A single thread makes it a pure function of the design.
  for (int i = 0; i < 2; ++i) {
    const PassResult r = front_pass(cfg, serial_list, 1, 0);
    checks.expect(r.lost == 0, "1-thread pass lost allocations");
    const std::size_t peak = r.telemetry.arena.peak_footprint;
    if (out.peak_1t == 0) out.peak_1t = peak;
    checks.expect(peak == out.peak_1t,
                  "1-thread caches-on peak is not deterministic");
  }

  // Timed, in the traced run only, the first half of the window: 1-thread
  // passes back to back on one thread over one long-lived front, after one
  // untimed pass to warm it up.  Their time swings by a third within a run
  // and between runs, with the process pinned to any one core too, so it
  // is a per-layer figure, not an end-to-end one.
  out.ops_1t = serial_list[0].ops.size();
  const double window_1t = tracer.on() ? seconds / 2 : 0.0;
  if (tracer.on()) {
    runtime::DesignedAllocator front(cfg, front_options(true));
    const OpList& list = serial_list[0];
    std::vector<void*> slots(list.slots, nullptr);
    run_threads(1, [&](unsigned) {
      const auto pass = [&] {
        return replay_ops(
            list, slots, [&front](std::size_t n) { return front.malloc(n); },
            [&front](void* p) { front.free(p); });
      };
      checks.expect(pass() == 0, "1-thread pass lost allocations");
      const auto start = Clock::now();
      for (std::uint64_t i = 1; since(start) < window_1t; ++i) {
        SpanScope span(tracer, "deploy.pass_1t", 0, i);
        const auto t0 = Clock::now();
        const std::uint64_t lost = pass();
        out.pass_1t.push_back(since(t0));
        checks.expect(lost == 0, "1-thread pass lost allocations");
      }
    });
  }

  // Timed, the rest: 4-thread passes, each over a fresh front (the traced
  // run adds a 2-thread pass after each).
  const auto start = Clock::now();
  for (unsigned cycle = 0; since(start) < seconds - window_1t; ++cycle) {
    const unsigned rotate = (args.seed + cycle) % kDeployThreads;
    {
      SpanScope span(tracer, "deploy.pass_4t", 0, cycle + 1);
      const PassResult r = front_pass(cfg, lists, kDeployThreads, rotate);
      checks.expect(r.lost == 0, "4-thread pass lost allocations");
      out.pass_4t.push_back(r.seconds);
      out.ops_4t_total += r.ops;
      out.seconds_4t_total += r.seconds;
      out.cache_hits_4t += r.telemetry.cache_hits;
      out.allocs_4t += r.telemetry.alloc_count;
      out.peak_4t.push_back(
          static_cast<double>(r.telemetry.arena.peak_footprint));
    }
    if (tracer.on()) {
      SpanScope span(tracer, "deploy.pass_2t", 0, cycle + 1);
      const PassResult r = front_pass(cfg, lists, 2, rotate);
      checks.expect(r.lost == 0, "2-thread pass lost allocations");
      out.ops_per_s_2t.push_back(static_cast<double>(r.ops) / r.seconds);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The layer ladder, on the DRR design trace.  Each rung adds one layer, so
// the gap between two rungs is that layer's cost.
// ---------------------------------------------------------------------------

/// Rung 2's allocator: hands out addresses from a small ring and keeps no
/// state, so a replay over it times the simulator harness alone.
class BumpAllocator final : public alloc::Allocator {
 public:
  explicit BumpAllocator(sysmem::SystemArena& arena) : Allocator(arena) {}
  void* allocate(std::size_t /*bytes*/) override {
    next_ = (next_ + 64) % sizeof(ring_);
    return ring_ + next_;
  }
  void deallocate(void* /*ptr*/) override {}
  [[nodiscard]] std::size_t usable_size(const void* /*ptr*/) const override {
    return 0;
  }
  [[nodiscard]] std::string name() const override { return "bump"; }

 private:
  alignas(64) std::byte ring_[4096] = {};
  std::size_t next_ = 0;
};

/// Median over kLadderReps of @p rung(), in nanoseconds per @p units.
template <class Rung>
double ns_per(Tracer& tracer, const char* span, std::uint64_t units,
              Rung&& rung) {
  std::vector<double> ns;
  for (int i = 0; i < kLadderReps; ++i) {
    SpanScope s(tracer, span, 0, static_cast<std::uint64_t>(i) + 1);
    const auto t0 = Clock::now();
    rung();
    ns.push_back(since(t0) * 1e9 / static_cast<double>(units));
  }
  return median(ns);
}

std::size_t glibc_footprint() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.arena + mi.hblkhd;
}

void run_ladder(const Setup& s, Tracer& tracer, Checks& checks,
                std::map<std::string, Metric>& m) {
  const auto metric = [&m](const char* name, double v, const char* unit,
                           std::size_t n) { m[name] = {v, unit, n}; };
  std::vector<double> open_s;
  std::unique_ptr<trace::MappedTrace> mapped;
  for (int i = 0; i < kLadderReps; ++i) {
    SpanScope span(tracer, "trace.open", 0, static_cast<std::uint64_t>(i) + 1);
    std::string why;
    const auto t0 = Clock::now();
    mapped = trace::MappedTrace::open(s.design_path, &why);
    open_s.push_back(since(t0));
    if (!checks.expect(mapped != nullptr, "ladder open: " + why)) return;
  }
  const std::uint64_t events = mapped->event_count();
  metric("trace.open_s", median(open_s), "s", open_s.size());
  metric("trace.bytes_per_event",
         static_cast<double>(mapped->file_bytes()) /
             static_cast<double>(events),
         "B", 1);

  // (1) cursor decode only.
  std::uint64_t checksum = 0;
  const double decode = ns_per(tracer, "ladder.decode", events, [&] {
    const std::unique_ptr<core::TraceCursor> cur = mapped->cursor();
    const core::AllocEvent* run = nullptr;
    for (std::size_t n = cur->next(&run); n != 0; n = cur->next(&run)) {
      for (std::size_t i = 0; i < n; ++i) checksum += run[i].size;
    }
  });
  checks.expect(checksum != 0, "ladder decode read no sizes");
  // (2) the simulator harness over a stateless bump allocator.
  const double harness = ns_per(tracer, "ladder.harness", events, [&] {
    sysmem::SystemArena arena;
    BumpAllocator bump(arena);
    (void)core::simulate(*mapped, bump);
  });
  // (3) the designed policy core.
  const alloc::DmmConfig& cfg = s.reference.phase_configs[0];
  alloc::AllocatorStats stats;
  sysmem::ArenaStats arena_stats;
  const double core_ns = ns_per(tracer, "ladder.core", events, [&] {
    sysmem::SystemArena arena;
    alloc::PolicyCore core(arena, cfg, "ladder", /*strict_accounting=*/false);
    (void)core::simulate(*mapped, core);
    stats = core.stats();
    arena_stats = arena.stats();
  });
  metric("trace.decode_ns_per_event", decode, "ns", kLadderReps);
  metric("core.harness_ns_per_event", harness, "ns", kLadderReps);
  metric("core.replay_ns_per_event", core_ns, "ns", kLadderReps);
  metric("alloc.core_ns_per_event", core_ns - harness, "ns", kLadderReps);
  metric("alloc.splits", static_cast<double>(stats.splits), "count", 1);
  metric("alloc.coalesces", static_cast<double>(stats.coalesces), "count", 1);
  metric("alloc.chunks_grown", static_cast<double>(stats.chunks_grown),
         "count", 1);
  metric("alloc.chunks_released", static_cast<double>(stats.chunks_released),
         "count", 1);
  metric("sysmem.arena_requests",
         static_cast<double>(arena_stats.request_count), "count", 1);
  metric("sysmem.arena_releases",
         static_cast<double>(arena_stats.release_count), "count", 1);
  metric("sysmem.peak_footprint_bytes",
         static_cast<double>(arena_stats.peak_footprint), "B", 1);

  // (4)-(6): the runtime front without and with caches, and the system
  // allocator for reference, over the same trace pre-decoded.
  const OpList list = decode_ops(mapped->materialize());
  const auto ops = static_cast<std::uint64_t>(list.ops.size());
  std::vector<void*> slots(list.slots, nullptr);
  for (const bool caches : {false, true}) {
    const double ns = ns_per(
        tracer, caches ? "ladder.front_cache" : "ladder.front_nocache", ops,
        [&] {
          runtime::DesignedAllocator front(cfg, front_options(caches));
          checks.expect(
              replay_ops(list, slots,
                     [&front](std::size_t n) { return front.malloc(n); },
                     [&front](void* p) { front.free(p); }) == 0,
              "ladder front pass lost allocations");
        });
    metric(caches ? "runtime.front_cache_ns_per_op"
                  : "runtime.front_nocache_ns_per_op",
           ns, "ns", kLadderReps);
  }
  const double sys = ns_per(tracer, "ladder.malloc", ops, [&] {
    (void)replay_ops(
        list, slots, [](std::size_t n) { return std::malloc(n); },
        [](void* p) { std::free(p); });
  });
  metric("system.malloc_ns_per_op", sys, "ns", kLadderReps);
}

/// The system allocator's footprint on @p trace: glibc arena + mmap bytes
/// above the pass's start, sampled after every allocation as the designed
/// arena's peak is.  Call it before any other thread has run: the pass
/// then runs on a new thread whose fresh glibc arena starts empty, so
/// memory freed earlier cannot absorb the pass's growth.
double system_peak_footprint(const core::AllocTrace& trace) {
  const OpList list = decode_ops(trace);
  std::vector<void*> slots(list.slots, nullptr);
  std::size_t base = 0;
  std::size_t peak = 0;
  std::thread pass([&] {
    base = peak = glibc_footprint();
    (void)replay_ops(
        list, slots,
        [&peak](std::size_t n) {
          void* p = std::malloc(n);
          peak = std::max(peak, glibc_footprint());
          return p;
        },
        [](void* p) { std::free(p); });
  });
  pass.join();
  return static_cast<double>(peak - base);
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_provenance(const Args& args, const Setup& s,
                      const std::map<std::string, Metric>& m) {
  struct utsname u {};
  ::uname(&u);
  std::printf(
      "{\"provenance\": {\"cores\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"commit\": \"%s\", \"kernel\": \"%s %s\", "
      "\"workload\": \"%s\", \"seed\": %u, \"seconds\": %s, \"trace\": %d, "
      "\"max_events\": %zu, \"design_trace_events\": %llu, "
      "\"design_trace_seed\": %u, \"traffic_trace_seeds\": \"%u-%u\", "
      "\"serve_trace_seed\": %u}, \"metrics\": {",
      nproc(), json_escape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMMIT, json_escape(u.sysname).c_str(),
      json_escape(u.release).c_str(), args.workload.c_str(), args.seed,
      fmt(args.seconds).c_str(), args.trace ? 1 : 0, args.max_events,
      static_cast<unsigned long long>(s.design_events), kDesignSeed,
      kTrafficSeed, kTrafficSeed + kDeployThreads - 1, kServeSeed);
  const char* sep = "";
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"unit\": \"%s\", \"samples\": %zu}", sep,
                name.c_str(), metric.unit.c_str(), metric.samples);
    sep = ", ";
  }
  std::printf("}}\n");
}

void print_result(const Checks& checks,
                  const std::map<std::string, Metric>& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              checks.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed));
  const char* sep = "";
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", sep,
                name.c_str(), fmt(metric.value).c_str(), metric.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double max_rss_bytes() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;  // Linux: KiB
}

/// One run; its input files live in @p dir.  Returns the exit code.
int run_benchmark(const Args& args, const std::string& dir) {
  Checks checks;
  Tracer tracer(args.trace);
  std::map<std::string, Metric> m;
  const auto metric = [&m](const char* name, double v, const char* unit,
                           std::size_t n) { m[name] = {v, unit, n}; };

  if (args.trace) {
    metric("system.peak_footprint_bytes",
           system_peak_footprint(record("drr", kDesignSeed, args.max_events)),
           "B", 1);
  }

  // Set-up runs kSetupReps times; setup_s is the median, the last one's
  // files are the run's inputs.
  Setup setup;
  std::vector<double> setup_s;
  std::vector<double> record_s;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    setup = run_setup(args, dir, checks);
    setup_s.push_back(since(t0));
    record_s.push_back(setup.record_s);
  }
  if (checks.failed != 0) {
    // Without valid inputs no workload can run; report and stop.
    print_result(checks, m);
    return 1;
  }
  // Set-up wrote a few MB of files; flush them now so their write-back
  // does not land inside the measured window.
  ::sync();

  const bool design = args.workload == "design-drr";
  const bool serve = args.workload == "serve-mix";
  // The traced run covers every layer: the named workload gets half of the
  // window, the other two a quarter each.
  const double own = args.trace ? args.seconds / 2 : args.seconds;
  const double other = args.seconds / 4;

  if (!args.trace) {
    if (design) {
      const DesignStage d = run_design(setup, dir, own, tracer, checks);
      metric("request_s_p50", median(d.latency), "s", d.latency.size());
      metric("request_s_p90", quantile(d.latency, 0.9), "s", d.latency.size());
      metric("requests_per_s", static_cast<double>(d.requests) / d.wall, "1/s",
             d.requests);
      metric("peak_bytes", static_cast<double>(d.last.best_peak), "B", 1);
      metric("peak_over_bound",
             static_cast<double>(d.last.best_peak) /
                 static_cast<double>(setup.design_peak_live),
             "ratio", 1);
    } else if (serve) {
      const ServeStage sv = run_serve(setup, args, dir, own, tracer, checks);
      std::vector<double> lat;
      for (const ServedRequest& r : sv.done) lat.push_back(r.latency);
      double peak = 0.0;
      std::vector<double> ratio;
      for (const std::size_t i : sv.checked) {
        const ServedRequest& r = sv.done[i];
        // Footprint over the request trace's own peak live bytes.
        std::vector<core::AllocTrace> t;
        std::string why;
        if (checks.expect(api::load_traces(r.request, &t, &why),
                          "load_traces: " + why)) {
          ratio.push_back(static_cast<double>(r.reply.best_peak) /
                          static_cast<double>(t[0].stats().peak_live_bytes));
        }
        peak = std::max(peak, static_cast<double>(r.reply.best_peak));
      }
      // A run mixes cheap walks with expensive searches, so the pooled
      // median and p90 fall between request classes and jump from one to
      // the next between runs.  Each class's own quantiles are steady; the
      // reported value is their geometric mean, every class weighing the
      // same.
      std::map<std::pair<unsigned, std::string>, std::vector<double>> by_class;
      for (const ServedRequest& r : sv.done) {
        by_class[{serve_case(r.round), r.kind}].push_back(r.latency);
      }
      double log_p50 = 0.0;
      double log_p90 = 0.0;
      for (const auto& [key, v] : by_class) {
        log_p50 += std::log(median(v));
        log_p90 += std::log(quantile(v, 0.9));
        std::fprintf(stderr, "perfbench: %s %s: %zu requests, p50 %.4f s, "
                     "p90 %.4f s\n", kServeCases[key.first], key.second.c_str(),
                     v.size(), median(v), quantile(v, 0.9));
      }
      const double classes = std::max<double>(1.0, by_class.size());
      metric("request_s_p50", std::exp(log_p50 / classes), "s", lat.size());
      metric("request_s_p90", std::exp(log_p90 / classes), "s", lat.size());
      // Completed requests per second of the median whole cycle: robust to
      // one cycle that a busy host slowed down.
      metric("requests_per_s",
             kServeClients * kCycleRounds / median(sv.cycle_s), "1/s",
             sv.cycle_s.size());
      metric("peak_bytes", peak, "B", ratio.size());
      metric("peak_over_bound", median(ratio), "ratio", ratio.size());
    } else {
      const DeployStage dp = run_deploy(setup, args, own, tracer, checks);
      metric("request_s_p50", median(dp.pass_4t), "s", dp.pass_4t.size());
      metric("request_s_p90", quantile(dp.pass_4t, 0.9), "s",
             dp.pass_4t.size());
      // Trace passes per second at four threads, over the whole window.
      metric("requests_per_s",
             dp.seconds_4t_total > 0
                 ? kDeployThreads * static_cast<double>(dp.pass_4t.size()) /
                       dp.seconds_4t_total
                 : 0.0,
             "1/s", dp.pass_4t.size());
      metric("peak_bytes", static_cast<double>(dp.peak_1t), "B", 2);
      metric("peak_over_bound",
             dp.bound_1t == 0 ? 0.0
                              : static_cast<double>(dp.peak_1t) /
                                    static_cast<double>(dp.bound_1t),
             "ratio", 2);
    }
    metric("setup_s", median(setup_s), "s", setup_s.size());
    metric("max_rss_bytes", max_rss_bytes(), "B", 1);
  } else {
    run_ladder(setup, tracer, checks, m);
    metric("workloads.record_s", median(record_s), "s", record_s.size());

    const DesignStage d =
        run_design(setup, dir, design ? own : other, tracer, checks);
    metric("api.load_traces_s", median(d.load_s), "s", d.load_s.size());
    metric("core.search_s", median(d.search_s), "s", d.search_s.size());
    metric("core.evaluations", static_cast<double>(d.last.evaluations),
           "count", 1);
    metric("core.simulations", static_cast<double>(d.last.simulations),
           "count", 1);
    metric("core.replay_events_per_s",
           static_cast<double>(d.last.simulations * setup.design_events) /
               median(d.traced_latency),
           "1/s", d.traced_latency.size());
    metric("tracing.overhead_s",
           median(d.traced_latency) - median(d.latency), "s",
           d.traced_latency.size() + d.latency.size());

    const ServeStage sv =
        run_serve(setup, args, dir, serve ? own : other, tracer, checks);
    std::vector<double> first;
    double frames = 0.0;
    double evals = 0.0;
    double hits = 0.0;
    double cross = 0.0;
    double wire = 0.0;
    for (const ServedRequest& r : sv.done) {
      if (r.first_progress >= 0.0) first.push_back(r.first_progress);
      frames += r.frames;
      evals += static_cast<double>(r.reply.evaluations);
      hits += static_cast<double>(r.reply.cache_hits);
      cross += static_cast<double>(r.reply.cross_search_hits);
      wire += static_cast<double>(api::serialize_request(r.request).size() +
                                  api::serialize_reply(r.reply).size());
    }
    const double n = std::max<double>(1.0, static_cast<double>(sv.done.size()));
    metric("serve.first_progress_s_p50", median(first), "s", first.size());
    metric("serve.progress_frames_per_request", frames / n, "count",
           sv.done.size());
    metric("core.cache_hit_ratio", evals > 0 ? hits / evals : 0.0, "ratio",
           sv.done.size());
    metric("core.cross_search_hit_ratio", evals > 0 ? cross / evals : 0.0,
           "ratio", sv.done.size());
    metric("api.wire_bytes_per_request", wire / n, "B", sv.done.size());

    const bool deploy = !design && !serve;
    const DeployStage dp =
        run_deploy(setup, args, deploy ? own : other, tracer, checks);
    metric("runtime.ops_per_s_1t",
           static_cast<double>(dp.ops_1t) / median(dp.pass_1t), "1/s",
           dp.pass_1t.size());
    metric("runtime.ops_per_s_2t", median(dp.ops_per_s_2t), "1/s",
           dp.ops_per_s_2t.size());
    metric("runtime.ops_per_s_2t_spread", spread(dp.ops_per_s_2t), "ratio",
           dp.ops_per_s_2t.size());
    metric("runtime.ops_per_s_4t",
           dp.seconds_4t_total > 0
               ? static_cast<double>(dp.ops_4t_total) / dp.seconds_4t_total
               : 0.0,
           "1/s", dp.pass_4t.size());
    metric("runtime.peak_bytes_4t", median(dp.peak_4t), "B",
           dp.peak_4t.size());
    metric("runtime.peak_bytes_4t_spread", spread(dp.peak_4t), "ratio",
           dp.peak_4t.size());
    metric("runtime.cache_hit_ratio",
           dp.allocs_4t > 0 ? static_cast<double>(dp.cache_hits_4t) /
                                  static_cast<double>(dp.allocs_4t)
                            : 0.0,
           "ratio", dp.pass_4t.size());

    // Self time per span name, mean over the span's instances.
    for (const auto& [name, self] : tracer.self_times()) {
      const std::string key = "self." + name + "_s";
      m[key] = {sum(self) / static_cast<double>(self.size()), "s",
                self.size()};
    }
    tracer.write(args.work_dir + "/spans-" + args.workload + "-" +
                 std::to_string(args.seed) + ".jsonl");
  }

  print_provenance(args, setup, m);
  if (checks.failed != 0) {
    std::fprintf(stderr, "perfbench: %llu of %llu checks failed\n",
                 static_cast<unsigned long long>(checks.failed),
                 static_cast<unsigned long long>(checks.attempted));
  }
  print_result(checks, m);
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // A directory per process, so concurrent runs never share input files.
  const std::string dir = args.work_dir + "/" + args.workload + "-" +
                          std::to_string(args.seed) + "-" +
                          std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  const int rc = run_benchmark(args, dir);
  std::filesystem::remove_all(dir, ec);
  return rc;
}
