#ifndef DMM_API_DESIGN_API_H
#define DMM_API_DESIGN_API_H

// The unified request/reply surface of the design methodology.
//
// Everything a caller can ask the library to do — "design a manager for
// these traces, with this search, under these knobs" — is one validated,
// versioned value type (DesignRequest) instead of a per-binary flag
// spread; to_design_options() resolves it into the one core::DesignOptions
// a core::DesignRun executes.  One request type serves three fronts:
//
//   * the library: run_design_request() executes a request in-process as
//     one core::DesignRun stepped to completion — results are bit-for-bit
//     what design_manager()/design_manager_family() return;
//   * the CLIs: RequestCli parses the shared flag surface (--search,
//     --family, --cache-file, ...) into a request, so the example binaries
//     stop re-plumbing flags by hand;
//   * the daemon: dmm_serve (src/serve) receives serialized requests over
//     a socket and answers with serialized replies/progress events.
//
// The wire form is a line-based text format (serialize_* / parse_*), with
// the same untrusted-input discipline as the cache snapshot: a malformed
// request parses to a clean error, never to a half-filled struct.  Doubles
// travel as decimal IEEE-754 bit patterns, so a value round-trips exactly
// and parsing never touches locale- or precision-dependent float parsing.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dmm/alloc/config.h"
#include "dmm/core/methodology.h"
#include "dmm/core/search.h"
#include "dmm/core/trace.h"

namespace dmm::api {

/// Where one trace of a request comes from: a named case-study workload
/// recorded in-process (seeded, deterministic) or a DMMT trace file
/// (trace/trace_store.h: `trace_tool record`, dmm_capture).
struct TraceRef {
  enum class Kind : std::uint8_t { kWorkload, kFile };
  Kind kind = Kind::kWorkload;
  std::string workload = "drr";  ///< kWorkload: case-study name
  unsigned seed = 1;             ///< kWorkload: record_trace seed
  std::string path;              ///< kFile: trace file path
};

/// One design request — the whole ask, nothing implicit.  One trace means
/// a single-trace methodology run (phase split + per-phase search, the
/// design_manager() flow); two or more mean a family design (one vector
/// for the whole set, the design_manager_family() flow).
struct DesignRequest {
  /// Version of this struct's wire form (serialize_request emits it,
  /// parse_request rejects anything newer).
  static constexpr std::uint32_t kVersion = 1;

  std::vector<TraceRef> traces;

  /// Truncate every loaded trace to this many events (0 = full trace);
  /// the cut's leaks are closed so the trace stays replayable.
  std::uint64_t max_events = 0;

  /// Family fold (ignored for single-trace requests).  `aggregate_set`
  /// mirrors the CLI contract: an explicit --aggregate choice on a
  /// non-family request is a validation error, not a silent no-op.
  core::FamilyAggregate aggregate = core::FamilyAggregate::kMaxPeak;
  bool aggregate_set = false;
  /// kWeightedSum member weights, finite and non-negative; empty = 1.0
  /// each, anything else must match the trace count.
  std::vector<double> weights;

  /// The search strategy, in the same grammar the --search flag accepts
  /// (see core::parse_search_spec).  Kept as text — the one authoritative
  /// form — and parsed on demand, so a request can never carry a spec
  /// that disagrees with its own text.
  std::string search_text = "greedy";

  /// Candidate-evaluation parallelism (ExplorerOptions::num_threads:
  /// 1 = serial, 0 = one worker per hardware thread).  Results are
  /// bit-identical regardless.
  unsigned num_threads = 1;
  /// Secondary objective weight (ExplorerOptions::time_weight), finite
  /// and non-negative.
  double time_weight = 0.0;
  /// Memoize candidate scores (ExplorerOptions::cache).
  bool cache = true;
  /// Cross-check each phase walk against exhaustive ground truth
  /// (DesignOptions::validate; single-trace requests only).
  bool validate = false;
  /// Persist the run's score cache across processes
  /// (DesignOptions::cache_file).  The daemon rejects
  /// requests carrying this: its snapshot is daemon-owned.
  std::string cache_file;

  /// Evaluation budget for daemon scheduling: dmm_serve stops dealing
  /// step() slices to the request's search once this many evaluations
  /// were charged and finalizes with the incumbent (0 = unlimited).  The
  /// in-process path runs searches to their natural end — a strategy's
  /// own budget (exhaustive:N, random:N) is the portable way to bound
  /// work identically on both paths.
  std::uint64_t eval_budget = 0;
};

/// True iff @p req is well-formed (traces present and individually sane,
/// search text parseable, weights/aggregate consistent with the trace
/// count, time weight and weights finite and non-negative); fills @p why
/// otherwise.
[[nodiscard]] bool validate_request(const DesignRequest& req,
                                    std::string* why);

/// The one request bridge: the run's DesignOptions (search, threads,
/// time weight, cache, cache_file, plus validate for one trace or
/// aggregate/weights for a family).  shared_cache stays unset — the
/// caller's concern.  Requires a valid request (the search text must
/// parse); the options of a valid request never make DesignRun throw.
[[nodiscard]] core::DesignOptions to_design_options(const DesignRequest& req);

/// Resolves every TraceRef of @p req into a loaded, validated trace (in
/// request order), applying the max_events cap.  False (with @p why) on an
/// unknown workload name, an unreadable/empty/malformed trace file — the
/// loud-failure contract the CLIs had, minus the exit(2).
[[nodiscard]] bool load_traces(const DesignRequest& req,
                               std::vector<core::AllocTrace>* out,
                               std::string* why);

/// What a design run produced, flattened for the wire.  `phase_signatures`
/// is the designed decision vector per phase (alloc::signature form) —
/// one entry for single-phase and family runs.
struct DesignReply {
  static constexpr std::uint32_t kVersion = 1;

  bool ok = false;
  std::string error;       ///< why, when !ok
  bool cancelled = false;  ///< request was cancelled mid-search (daemon)
  /// Daemon scheduling only: the eval budget ran out before the search's
  /// natural end; the reply carries the incumbent at that point.
  bool budget_exhausted = false;

  bool family = false;
  bool feasible = false;
  std::vector<std::string> phase_signatures;
  /// The designed decision vectors themselves, parallel to
  /// phase_signatures.  Signatures stay the human/parity-check form; these
  /// carry the full config (numeric knobs included) so a caller can feed
  /// the design straight into runtime::save_config_artifact /
  /// runtime::DesignedAllocator without re-deriving it.
  std::vector<alloc::DmmConfig> phase_configs;
  /// Single-trace: the worst phase's best peak; family: the aggregate
  /// best's peak.  Informational — parity checks compare signatures.
  std::uint64_t best_peak = 0;
  double aggregate_objective = 0.0;  ///< family only

  // Search-cost accounting, summed across every search of the run.
  std::uint64_t evaluations = 0;  ///< simulations + cache_hits
  std::uint64_t simulations = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cross_search_hits = 0;
  std::uint64_t persisted_hits = 0;

  // Daemon cache state after the run (0 on the in-process path).
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_evictions = 0;
};

/// One progress beat of an in-flight daemon request, streamed after each
/// scheduler slice.
struct ProgressEvent {
  static constexpr std::uint32_t kVersion = 1;

  std::uint32_t phase = 0;        ///< phase being searched (0-based)
  std::uint32_t phase_count = 0;  ///< total phases of the request
  std::uint64_t evaluations = 0;  ///< charged so far, whole request
  std::uint64_t simulations = 0;
  std::uint64_t cache_hits = 0;
  bool has_incumbent = false;
  std::uint64_t incumbent_peak = 0;
  std::string incumbent;  ///< alloc::signature of the incumbent
};

/// The design run that executes @p req over @p traces (load_traces'
/// output, which must outlive the run) on @p engine: a single-trace run for
/// one trace, a family run for several.  A non-null @p shared_cache serves
/// the whole run when the request caches.  Requires a valid request.
[[nodiscard]] std::unique_ptr<core::DesignRun> make_design_run(
    const DesignRequest& req, const std::vector<core::AllocTrace>& traces,
    core::EvalEngine& engine,
    std::shared_ptr<core::SharedScoreCache> shared_cache = nullptr);

/// Flattens a run into a reply: the designed vectors, feasibility, best
/// peak and search accounting — of a finished run, or of whatever an
/// interrupted one finished plus the interrupted search's accounting.  The
/// one harvest run_design_request() and dmm_serve share; ok/error, the
/// cancel/budget flags and daemon cache state are left to the caller.
/// Spends the run (see DesignRun::harvest).
[[nodiscard]] DesignReply harvest_reply(core::DesignRun& run);

/// Executes @p req in-process: loads its traces and steps the request's
/// DesignRun to completion (snapshot persistence included when cache_file
/// is set).  Never throws for request-shaped problems — a bad request or
/// unloadable trace comes back as `ok = false` with the reason.
[[nodiscard]] DesignReply run_design_request(const DesignRequest& req);

// ---------------------------------------------------------------------------
// Wire form.  serialize_* emit the versioned line format; parse_* accept
// only well-formed input of a known version and report why otherwise,
// leaving *out untouched on failure.
// ---------------------------------------------------------------------------

[[nodiscard]] std::string serialize_request(const DesignRequest& req);
[[nodiscard]] bool parse_request(const std::string& text, DesignRequest* out,
                                 std::string* why);

[[nodiscard]] std::string serialize_reply(const DesignReply& reply);
[[nodiscard]] bool parse_reply(const std::string& text, DesignReply* out,
                               std::string* why);

[[nodiscard]] std::string serialize_progress(const ProgressEvent& event);
[[nodiscard]] bool parse_progress(const std::string& text, ProgressEvent* out,
                                  std::string* why);

// ---------------------------------------------------------------------------
// Shared CLI surface: one argv parser for every binary that builds a
// DesignRequest (the example CLIs, dmm_client).  Flag semantics are the
// ones the examples always had: --search SPEC, --cache-file PATH,
// --family T1,T2,... (digits = a workload seed, anything else = a trace
// file), --aggregate max|wsum (family only), plus --workload/--seed/
// --max-events/--threads/--budget.
// ---------------------------------------------------------------------------

class RequestCli {
 public:
  /// @param default_workload  the case study a bare seed (--seed, or a
  ///        digits-only --family element) records; also the single-trace
  ///        default when no trace flags are given.
  explicit RequestCli(std::string default_workload = "drr");

  /// The request under construction.  Callers may pre-set defaults
  /// (num_threads, validate, ...) before parsing; finish() only fills the
  /// trace list and validates.
  DesignRequest request;

  /// When false, the trace-selection flags (--family, --aggregate,
  /// --workload, --seed, --trace) are not recognized and finish() leaves
  /// the request on the default trace — for binaries whose trace is fixed
  /// (render_explore, recon_explore) or profiled in-process (quickstart).
  /// --max-events still caps that trace.
  bool allow_trace_flags = true;

  enum class Arg : std::uint8_t {
    kConsumed,  ///< argv[*i] (and possibly its value) was consumed
    kNotMine,   ///< not a shared flag; caller handles or rejects it
    kError,     ///< a shared flag with a bad value; see error()
  };

  /// Examines argv[*i]; advances *i past a consumed separate value.
  [[nodiscard]] Arg consume(int argc, char** argv, int* i);

  /// Resolves the trace list (family elements or the single default
  /// trace) and validates the assembled request; false (see error()) on
  /// an inconsistent ask — the aggregate-without-family and
  /// one-trace-family errors the CLIs always raised.
  [[nodiscard]] bool finish();

  [[nodiscard]] const std::string& error() const { return error_; }

  /// Usage fragment naming the shared flags (trace flags included iff
  /// enabled), for the callers' usage messages.
  [[nodiscard]] std::string flags_help() const;

 private:
  std::string default_workload_;
  std::string family_list_;
  unsigned seed_ = 1;
  std::string error_;
};

}  // namespace dmm::api

#endif  // DMM_API_DESIGN_API_H
