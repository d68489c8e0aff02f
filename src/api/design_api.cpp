// The unified request/reply API — validation, the option bridge, trace
// resolution, the in-process runner over core::DesignRun, and the
// line-based wire form.  See design_api.h for the contract.

#include "dmm/api/design_api.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <limits>
#include <stdexcept>
#include <utility>

#include "dmm/alloc/config.h"
#include "dmm/core/design_space.h"
#include "dmm/trace/trace_store.h"
#include "dmm/workloads/workload.h"

namespace dmm::api {

namespace {

// ---- wire primitives ------------------------------------------------------

/// Splits @p text into lines ('\n'-separated, no trailing empty line for
/// text ending in a newline).
std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin < text.size()) {
    const std::size_t nl = text.find('\n', begin);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(begin));
      break;
    }
    lines.push_back(text.substr(begin, nl - begin));
    begin = nl + 1;
  }
  return lines;
}

/// Splits "key rest of line" at the first space; rest is empty when the
/// line has no space.
void split_key(const std::string& line, std::string* key, std::string* rest) {
  const std::size_t sp = line.find(' ');
  if (sp == std::string::npos) {
    *key = line;
    rest->clear();
  } else {
    *key = line.substr(0, sp);
    *rest = line.substr(sp + 1);
  }
}

/// Doubles travel as decimal IEEE-754 bit patterns: exact round trip, no
/// locale- or precision-dependent float formatting/parsing anywhere.
std::uint64_t double_to_bits(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bits_to_double(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool parse_u64_field(const std::string& rest, std::uint64_t* out) {
  const auto v = core::parse_number(rest);
  if (!v) return false;
  *out = *v;
  return true;
}

bool parse_u32_field(const std::string& rest, std::uint32_t* out) {
  const auto v = core::parse_number(rest);
  if (!v || *v > std::numeric_limits<std::uint32_t>::max()) return false;
  *out = static_cast<std::uint32_t>(*v);
  return true;
}

bool parse_bool_field(const std::string& rest, bool* out) {
  if (rest == "0") {
    *out = false;
    return true;
  }
  if (rest == "1") {
    *out = true;
    return true;
  }
  return false;
}

bool parse_bits_field(const std::string& rest, double* out) {
  std::uint64_t bits = 0;
  if (!parse_u64_field(rest, &bits)) return false;
  *out = bits_to_double(bits);
  return true;
}

/// Checks a "dmm-<what>/<version>" first line; rejects other payload kinds
/// and future versions with a reason.
bool check_version(const std::string& line, const std::string& prefix,
                   std::uint32_t supported, std::string* why) {
  if (line.rfind(prefix, 0) != 0) {
    *why = "not a " + prefix.substr(0, prefix.size() - 1) + " payload";
    return false;
  }
  const auto version = core::parse_number(line.substr(prefix.size()));
  if (!version || *version != supported) {
    *why = "unsupported " + prefix.substr(0, prefix.size() - 1) +
           " version '" + line.substr(prefix.size()) + "'";
    return false;
  }
  return true;
}

const char* aggregate_name(core::FamilyAggregate aggregate) {
  return aggregate == core::FamilyAggregate::kMaxPeak ? "max" : "wsum";
}

// ---- decision-vector wire form --------------------------------------------
//
// A full DmmConfig travels as one "config" line of 20 integers: the 15 tree
// leaf indices in all_trees() order, then the 5 numeric knobs (chunk,
// big-request, static-pool, deferred-split-min, max-class-log2).  Leaf
// *indices* rather than names keep the line free of the signature grammar
// and make range validation exact.

std::string config_to_wire(const alloc::DmmConfig& cfg) {
  std::string out;
  for (const core::TreeId t : core::all_trees()) {
    out += std::to_string(core::get_leaf(cfg, t)) + " ";
  }
  out += std::to_string(cfg.chunk_bytes) + " ";
  out += std::to_string(cfg.big_request_bytes) + " ";
  out += std::to_string(cfg.static_pool_bytes) + " ";
  out += std::to_string(cfg.deferred_split_min) + " ";
  out += std::to_string(cfg.max_class_log2);
  return out;
}

bool parse_config_field(const std::string& rest, alloc::DmmConfig* out) {
  std::vector<std::uint64_t> values;
  std::size_t begin = 0;
  while (begin < rest.size()) {
    std::size_t end = rest.find(' ', begin);
    if (end == std::string::npos) end = rest.size();
    if (end == begin) return false;  // double space / leading space
    const auto v = core::parse_number(rest.substr(begin, end - begin));
    if (!v) return false;
    values.push_back(*v);
    begin = end + 1;
  }
  const std::vector<core::TreeId>& trees = core::all_trees();
  if (values.size() != trees.size() + 5) return false;
  alloc::DmmConfig cfg;
  for (std::size_t i = 0; i < trees.size(); ++i) {
    if (values[i] >=
        static_cast<std::uint64_t>(core::leaf_count(trees[i]))) {
      return false;
    }
    core::set_leaf(cfg, trees[i], static_cast<int>(values[i]));
  }
  const std::size_t n = trees.size();
  if (values[n + 4] > std::numeric_limits<unsigned>::max()) return false;
  cfg.chunk_bytes = static_cast<std::size_t>(values[n]);
  cfg.big_request_bytes = static_cast<std::size_t>(values[n + 1]);
  cfg.static_pool_bytes = static_cast<std::size_t>(values[n + 2]);
  cfg.deferred_split_min = static_cast<std::size_t>(values[n + 3]);
  cfg.max_class_log2 = static_cast<unsigned>(values[n + 4]);
  *out = cfg;
  return true;
}

std::string bool_field(const char* key, bool v) {
  return std::string(key) + (v ? " 1\n" : " 0\n");
}

std::string u64_field(const char* key, std::uint64_t v) {
  return std::string(key) + " " + std::to_string(v) + "\n";
}

}  // namespace

// ---------------------------------------------------------------------------
// Validation and the option bridge
// ---------------------------------------------------------------------------

bool validate_request(const DesignRequest& req, std::string* why) {
  if (req.traces.empty()) {
    *why = "request has no traces";
    return false;
  }
  for (const TraceRef& ref : req.traces) {
    if (ref.kind == TraceRef::Kind::kWorkload && ref.workload.empty()) {
      *why = "trace ref has an empty workload name";
      return false;
    }
    if (ref.kind == TraceRef::Kind::kFile && ref.path.empty()) {
      *why = "trace ref has an empty file path";
      return false;
    }
  }
  if (!core::parse_search_spec(req.search_text)) {
    *why = "unparseable search spec '" + req.search_text + "' (want " +
           std::string(core::kSearchSpecForms) + ")";
    return false;
  }
  const bool family = req.traces.size() >= 2;
  if (req.aggregate_set && !family) {
    *why = "an explicit aggregate only applies to family requests "
           "(two or more traces)";
    return false;
  }
  if (!req.weights.empty()) {
    if (!family) {
      *why = "weights only apply to family requests";
      return false;
    }
    if (req.weights.size() != req.traces.size()) {
      *why = std::to_string(req.weights.size()) + " weights for " +
             std::to_string(req.traces.size()) + " traces";
      return false;
    }
  }
  // Wire doubles are raw bit patterns: NaN, infinities and negatives all
  // parse, and each would silently skew or void the objective.
  const auto usable_weight = [](double w) {
    return std::isfinite(w) && w >= 0.0;
  };
  if (!usable_weight(req.time_weight)) {
    *why = "time weight must be finite and non-negative";
    return false;
  }
  if (!std::all_of(req.weights.begin(), req.weights.end(), usable_weight)) {
    *why = "weights must be finite and non-negative";
    return false;
  }
  if (req.validate && family) {
    *why = "validate applies to single-trace requests only";
    return false;
  }
  return true;
}

core::DesignOptions to_design_options(const DesignRequest& req) {
  core::DesignOptions options;
  core::ExplorerOptions& opts = options.explorer_options;
  opts.num_threads = req.num_threads;
  opts.time_weight = req.time_weight;
  opts.cache = req.cache;
  const auto spec = core::parse_search_spec(req.search_text);
  if (spec) opts.search = *spec;
  options.cache_file = req.cache_file;
  if (req.traces.size() >= 2) {
    options.aggregate = req.aggregate;
    options.weights = req.weights;
  } else {
    options.validate = req.validate;
  }
  return options;
}

bool load_traces(const DesignRequest& req, std::vector<core::AllocTrace>* out,
                 std::string* why) {
  std::vector<core::AllocTrace> traces;
  traces.reserve(req.traces.size());
  for (const TraceRef& ref : req.traces) {
    if (ref.kind == TraceRef::Kind::kWorkload) {
      // Scan instead of workloads::case_study(): an unknown name in a
      // request must report, not abort the process.
      const workloads::Workload* found = nullptr;
      std::string names;
      for (const workloads::Workload& w : workloads::case_studies()) {
        if (w.name == ref.workload) found = &w;
        if (!names.empty()) names += ", ";
        names += w.name;
      }
      if (found == nullptr) {
        *why = "unknown workload '" + ref.workload + "' (have " + names + ")";
        return false;
      }
      traces.push_back(workloads::record_trace(*found, ref.seed));
    } else {
      // A DMMT file: open (header + checksum validation) and materialize.
      // Daemon scoring replays traces many times across candidates, so a
      // one-time decode beats per-pass block decoding.  Checksums do not
      // prove a payload decodes, so materialize may throw.
      std::string reason;
      const auto mapped = trace::MappedTrace::open(ref.path, &reason);
      if (mapped != nullptr) {
        try {
          traces.push_back(mapped->materialize());
          // Well-formed events can still be an impossible trace (an id
          // allocated twice while live, a free of a dead id).
          (void)traces.back().validate(&reason);
        } catch (const std::runtime_error& e) {
          reason = e.what();
        }
      }
      if (!reason.empty()) {
        *why = "trace '" + ref.path + "' rejected: " + reason;
        return false;
      }
    }
    traces.back().truncate(static_cast<std::size_t>(req.max_events));
  }
  *out = std::move(traces);
  return true;
}

// ---------------------------------------------------------------------------
// The in-process adapter
// ---------------------------------------------------------------------------

std::unique_ptr<core::DesignRun> make_design_run(
    const DesignRequest& req, const std::vector<core::AllocTrace>& traces,
    core::EvalEngine& engine,
    std::shared_ptr<core::SharedScoreCache> shared_cache) {
  core::DesignOptions options = to_design_options(req);
  options.explorer_options.shared_cache = std::move(shared_cache);
  return std::make_unique<core::DesignRun>(traces, options, engine);
}

DesignReply harvest_reply(core::DesignRun& run) {
  DesignReply reply;
  reply.family = run.family();
  std::vector<alloc::DmmConfig> configs;
  core::ExplorationResult cost;  // only the accounting fields are read
  if (run.family()) {
    const bool finished = run.done();
    const core::FamilyDesignResult family = run.harvest_family();
    if (finished) {
      configs.push_back(family.best);
      reply.feasible = family.feasible;
      reply.best_peak = family.search.best_sim.peak_footprint;
      reply.aggregate_objective = family.aggregate_objective;
    }
    cost = family.search;
  } else {
    const core::MethodologyResult result = run.harvest();
    configs = result.phase_configs;
    reply.feasible = true;
    for (const core::ExplorationResult& r : result.phase_results) {
      // Empty phases carry a default (never-searched) result — skip them;
      // a searched phase always charged at least one evaluation.
      if (r.simulations + r.cache_hits == 0) continue;
      if (!r.feasible) reply.feasible = false;
      reply.best_peak = std::max<std::uint64_t>(reply.best_peak,
                                                r.best_sim.peak_footprint);
    }
    cost.simulations = result.total_simulations;
    cost.cache_hits = result.total_cache_hits;
    cost.cross_search_hits = result.total_cross_search_hits;
    cost.persisted_hits = result.total_persisted_hits;
  }
  for (const alloc::DmmConfig& cfg : configs) {
    reply.phase_signatures.push_back(alloc::signature(cfg));
    reply.phase_configs.push_back(cfg);
  }
  reply.simulations = cost.simulations;
  reply.cache_hits = cost.cache_hits;
  reply.cross_search_hits = cost.cross_search_hits;
  reply.persisted_hits = cost.persisted_hits;
  reply.evaluations = cost.simulations + cost.cache_hits;
  return reply;
}

DesignReply run_design_request(const DesignRequest& req) {
  DesignReply reply;
  std::string why;
  if (!validate_request(req, &why)) {
    reply.error = why;
    return reply;
  }
  std::vector<core::AllocTrace> traces;
  if (!load_traces(req, &traces, &why)) {
    reply.error = why;
    return reply;
  }
  try {
    const std::unique_ptr<core::EvalEngine> engine =
        core::make_engine(req.num_threads);
    const std::unique_ptr<core::DesignRun> run =
        make_design_run(req, traces, *engine);
    run->complete();
    reply = harvest_reply(*run);
    reply.ok = true;
  } catch (const std::exception& e) {
    reply = DesignReply{};
    reply.error = e.what();
  }
  return reply;
}

// ---------------------------------------------------------------------------
// Wire form
// ---------------------------------------------------------------------------

std::string serialize_request(const DesignRequest& req) {
  std::string out =
      "dmm-request/" + std::to_string(DesignRequest::kVersion) + "\n";
  for (const TraceRef& ref : req.traces) {
    if (ref.kind == TraceRef::Kind::kWorkload) {
      out += "trace workload " + ref.workload + " " +
             std::to_string(ref.seed) + "\n";
    } else {
      out += "trace file " + ref.path + "\n";
    }
  }
  out += u64_field("max-events", req.max_events);
  out += std::string("aggregate ") + aggregate_name(req.aggregate) + "\n";
  out += bool_field("aggregate-set", req.aggregate_set);
  for (const double w : req.weights) {
    out += u64_field("weight", double_to_bits(w));
  }
  out += "search " + req.search_text + "\n";
  out += u64_field("threads", req.num_threads);
  out += u64_field("time-weight", double_to_bits(req.time_weight));
  out += bool_field("cache", req.cache);
  out += bool_field("validate", req.validate);
  if (!req.cache_file.empty()) out += "cache-file " + req.cache_file + "\n";
  out += u64_field("budget", req.eval_budget);
  return out;
}

bool parse_request(const std::string& text, DesignRequest* out,
                   std::string* why) {
  const std::vector<std::string> lines = split_lines(text);
  if (lines.empty()) {
    *why = "empty request";
    return false;
  }
  if (!check_version(lines[0], "dmm-request/", DesignRequest::kVersion,
                     why)) {
    return false;
  }
  DesignRequest req;
  req.traces.clear();
  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::string key;
    std::string rest;
    split_key(lines[i], &key, &rest);
    bool valid = true;
    if (key == "trace") {
      std::string kind;
      std::string tail;
      split_key(rest, &kind, &tail);
      TraceRef ref;
      if (kind == "workload") {
        std::string seed_text;
        split_key(tail, &ref.workload, &seed_text);
        const auto seed = core::parse_number(seed_text);
        valid = !ref.workload.empty() && seed &&
                *seed <= std::numeric_limits<unsigned>::max();
        if (valid) {
          ref.kind = TraceRef::Kind::kWorkload;
          ref.seed = static_cast<unsigned>(*seed);
        }
      } else if (kind == "file") {
        valid = !tail.empty();
        ref.kind = TraceRef::Kind::kFile;
        ref.path = tail;
        ref.workload.clear();
      } else {
        valid = false;
      }
      if (valid) req.traces.push_back(std::move(ref));
    } else if (key == "max-events") {
      valid = parse_u64_field(rest, &req.max_events);
    } else if (key == "aggregate") {
      if (rest == "max") {
        req.aggregate = core::FamilyAggregate::kMaxPeak;
      } else if (rest == "wsum") {
        req.aggregate = core::FamilyAggregate::kWeightedSum;
      } else {
        valid = false;
      }
    } else if (key == "aggregate-set") {
      valid = parse_bool_field(rest, &req.aggregate_set);
    } else if (key == "weight") {
      double w = 0.0;
      valid = parse_bits_field(rest, &w);
      if (valid) req.weights.push_back(w);
    } else if (key == "search") {
      valid = !rest.empty();
      req.search_text = rest;
    } else if (key == "threads") {
      std::uint64_t v = 0;
      valid = parse_u64_field(rest, &v) &&
              v <= std::numeric_limits<unsigned>::max();
      if (valid) req.num_threads = static_cast<unsigned>(v);
    } else if (key == "time-weight") {
      valid = parse_bits_field(rest, &req.time_weight);
    } else if (key == "cache") {
      valid = parse_bool_field(rest, &req.cache);
    } else if (key == "validate") {
      valid = parse_bool_field(rest, &req.validate);
    } else if (key == "cache-file") {
      valid = !rest.empty();
      req.cache_file = rest;
    } else if (key == "budget") {
      valid = parse_u64_field(rest, &req.eval_budget);
    } else {
      *why = "unknown request field '" + key + "'";
      return false;
    }
    if (!valid) {
      *why = "bad request field '" + lines[i] + "'";
      return false;
    }
  }
  if (!validate_request(req, why)) return false;
  *out = std::move(req);
  return true;
}

std::string serialize_reply(const DesignReply& reply) {
  std::string out =
      "dmm-reply/" + std::to_string(DesignReply::kVersion) + "\n";
  out += bool_field("ok", reply.ok);
  if (!reply.error.empty()) out += "error " + reply.error + "\n";
  out += bool_field("cancelled", reply.cancelled);
  out += bool_field("budget-exhausted", reply.budget_exhausted);
  out += bool_field("family", reply.family);
  out += bool_field("feasible", reply.feasible);
  for (const std::string& sig : reply.phase_signatures) {
    out += "phase " + sig + "\n";
  }
  for (const alloc::DmmConfig& cfg : reply.phase_configs) {
    out += "config " + config_to_wire(cfg) + "\n";
  }
  out += u64_field("best-peak", reply.best_peak);
  out += u64_field("aggregate-objective",
                   double_to_bits(reply.aggregate_objective));
  out += u64_field("evaluations", reply.evaluations);
  out += u64_field("simulations", reply.simulations);
  out += u64_field("cache-hits", reply.cache_hits);
  out += u64_field("cross-search-hits", reply.cross_search_hits);
  out += u64_field("persisted-hits", reply.persisted_hits);
  out += u64_field("cache-entries", reply.cache_entries);
  out += u64_field("cache-evictions", reply.cache_evictions);
  return out;
}

bool parse_reply(const std::string& text, DesignReply* out,
                 std::string* why) {
  const std::vector<std::string> lines = split_lines(text);
  if (lines.empty()) {
    *why = "empty reply";
    return false;
  }
  if (!check_version(lines[0], "dmm-reply/", DesignReply::kVersion, why)) {
    return false;
  }
  DesignReply reply;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::string key;
    std::string rest;
    split_key(lines[i], &key, &rest);
    bool valid = true;
    if (key == "ok") {
      valid = parse_bool_field(rest, &reply.ok);
    } else if (key == "error") {
      reply.error = rest;
    } else if (key == "cancelled") {
      valid = parse_bool_field(rest, &reply.cancelled);
    } else if (key == "budget-exhausted") {
      valid = parse_bool_field(rest, &reply.budget_exhausted);
    } else if (key == "family") {
      valid = parse_bool_field(rest, &reply.family);
    } else if (key == "feasible") {
      valid = parse_bool_field(rest, &reply.feasible);
    } else if (key == "phase") {
      valid = !rest.empty();
      if (valid) reply.phase_signatures.push_back(rest);
    } else if (key == "config") {
      alloc::DmmConfig cfg;
      valid = parse_config_field(rest, &cfg);
      if (valid) reply.phase_configs.push_back(cfg);
    } else if (key == "best-peak") {
      valid = parse_u64_field(rest, &reply.best_peak);
    } else if (key == "aggregate-objective") {
      valid = parse_bits_field(rest, &reply.aggregate_objective);
    } else if (key == "evaluations") {
      valid = parse_u64_field(rest, &reply.evaluations);
    } else if (key == "simulations") {
      valid = parse_u64_field(rest, &reply.simulations);
    } else if (key == "cache-hits") {
      valid = parse_u64_field(rest, &reply.cache_hits);
    } else if (key == "cross-search-hits") {
      valid = parse_u64_field(rest, &reply.cross_search_hits);
    } else if (key == "persisted-hits") {
      valid = parse_u64_field(rest, &reply.persisted_hits);
    } else if (key == "cache-entries") {
      valid = parse_u64_field(rest, &reply.cache_entries);
    } else if (key == "cache-evictions") {
      valid = parse_u64_field(rest, &reply.cache_evictions);
    } else {
      *why = "unknown reply field '" + key + "'";
      return false;
    }
    if (!valid) {
      *why = "bad reply field '" + lines[i] + "'";
      return false;
    }
  }
  *out = std::move(reply);
  return true;
}

std::string serialize_progress(const ProgressEvent& event) {
  std::string out =
      "dmm-progress/" + std::to_string(ProgressEvent::kVersion) + "\n";
  out += "phase " + std::to_string(event.phase) + " " +
         std::to_string(event.phase_count) + "\n";
  out += u64_field("evaluations", event.evaluations);
  out += u64_field("simulations", event.simulations);
  out += u64_field("cache-hits", event.cache_hits);
  if (event.has_incumbent) {
    out += u64_field("incumbent-peak", event.incumbent_peak);
    out += "incumbent " + event.incumbent + "\n";
  }
  return out;
}

bool parse_progress(const std::string& text, ProgressEvent* out,
                    std::string* why) {
  const std::vector<std::string> lines = split_lines(text);
  if (lines.empty()) {
    *why = "empty progress event";
    return false;
  }
  if (!check_version(lines[0], "dmm-progress/", ProgressEvent::kVersion,
                     why)) {
    return false;
  }
  ProgressEvent event;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::string key;
    std::string rest;
    split_key(lines[i], &key, &rest);
    bool valid = true;
    if (key == "phase") {
      std::string first;
      std::string second;
      split_key(rest, &first, &second);
      valid = parse_u32_field(first, &event.phase) &&
              parse_u32_field(second, &event.phase_count);
    } else if (key == "evaluations") {
      valid = parse_u64_field(rest, &event.evaluations);
    } else if (key == "simulations") {
      valid = parse_u64_field(rest, &event.simulations);
    } else if (key == "cache-hits") {
      valid = parse_u64_field(rest, &event.cache_hits);
    } else if (key == "incumbent-peak") {
      valid = parse_u64_field(rest, &event.incumbent_peak);
    } else if (key == "incumbent") {
      valid = !rest.empty();
      event.incumbent = rest;
      event.has_incumbent = true;
    } else {
      *why = "unknown progress field '" + key + "'";
      return false;
    }
    if (!valid) {
      *why = "bad progress field '" + lines[i] + "'";
      return false;
    }
  }
  *out = std::move(event);
  return true;
}

// ---------------------------------------------------------------------------
// RequestCli
// ---------------------------------------------------------------------------

namespace {

/// Matches `--name VALUE` / `--name=VALUE` without prefix confusion
/// (the terminator after @p name must be '=' or end-of-argument).
bool match_flag(int argc, char** argv, int* i, const char* name,
                std::string* value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(argv[*i], name, n) != 0) return false;
  if (argv[*i][n] == '=') {
    *value = argv[*i] + n + 1;
    return true;
  }
  if (argv[*i][n] == '\0' && *i + 1 < argc) {
    *value = argv[++*i];
    return true;
  }
  return false;
}

}  // namespace

RequestCli::RequestCli(std::string default_workload)
    : default_workload_(std::move(default_workload)) {}

RequestCli::Arg RequestCli::consume(int argc, char** argv, int* i) {
  std::string value;
  if (match_flag(argc, argv, i, "--search", &value)) {
    if (!core::parse_search_spec(value)) {
      error_ = "unknown --search value '" + value + "' (want " +
               std::string(core::kSearchSpecForms) + ")";
      return Arg::kError;
    }
    request.search_text = value;
    return Arg::kConsumed;
  }
  if (match_flag(argc, argv, i, "--cache-file", &value)) {
    request.cache_file = value;
    return Arg::kConsumed;
  }
  if (match_flag(argc, argv, i, "--threads", &value)) {
    const auto v = core::parse_number(value);
    if (!v || *v > std::numeric_limits<unsigned>::max()) {
      error_ = "--threads must be an integer in [0, " +
               std::to_string(std::numeric_limits<unsigned>::max()) +
               "], got '" + value + "'";
      return Arg::kError;
    }
    request.num_threads = static_cast<unsigned>(*v);
    return Arg::kConsumed;
  }
  if (match_flag(argc, argv, i, "--budget", &value)) {
    const auto v = core::parse_number(value);
    if (!v) {
      error_ = "--budget must be a non-negative integer, got '" + value + "'";
      return Arg::kError;
    }
    request.eval_budget = *v;
    return Arg::kConsumed;
  }
  if (match_flag(argc, argv, i, "--max-events", &value)) {
    const auto v = core::parse_number(value);
    if (!v) {
      error_ =
          "--max-events must be a non-negative integer, got '" + value + "'";
      return Arg::kError;
    }
    request.max_events = *v;
    return Arg::kConsumed;
  }
  if (!allow_trace_flags) return Arg::kNotMine;
  if (match_flag(argc, argv, i, "--trace", &value)) {
    if (value.empty()) {
      error_ = "--trace needs a file path";
      return Arg::kError;
    }
    TraceRef ref;
    ref.kind = TraceRef::Kind::kFile;
    ref.path = value;
    request.traces.push_back(std::move(ref));
    return Arg::kConsumed;
  }
  if (match_flag(argc, argv, i, "--family", &value)) {
    family_list_ = value;
    return Arg::kConsumed;
  }
  if (match_flag(argc, argv, i, "--aggregate", &value)) {
    if (value == "max") {
      request.aggregate = core::FamilyAggregate::kMaxPeak;
    } else if (value == "wsum") {
      request.aggregate = core::FamilyAggregate::kWeightedSum;
    } else {
      error_ =
          "unknown --aggregate value '" + value + "' (want max or wsum)";
      return Arg::kError;
    }
    request.aggregate_set = true;
    return Arg::kConsumed;
  }
  if (match_flag(argc, argv, i, "--workload", &value)) {
    if (value.empty()) {
      error_ = "--workload needs a case-study name";
      return Arg::kError;
    }
    default_workload_ = value;
    return Arg::kConsumed;
  }
  if (match_flag(argc, argv, i, "--seed", &value)) {
    const auto v = core::parse_number(value);
    if (!v || *v > std::numeric_limits<unsigned>::max()) {
      error_ = "--seed must be an integer in [0, " +
               std::to_string(std::numeric_limits<unsigned>::max()) +
               "], got '" + value + "'";
      return Arg::kError;
    }
    seed_ = static_cast<unsigned>(*v);
    return Arg::kConsumed;
  }
  return Arg::kNotMine;
}

bool RequestCli::finish() {
  if (!family_list_.empty()) {
    std::size_t begin = 0;
    for (;;) {
      const std::size_t comma = family_list_.find(',', begin);
      const std::string token = family_list_.substr(begin, comma - begin);
      if (token.empty()) {
        error_ = "--family has an empty element";
        return false;
      }
      TraceRef ref;
      if (token.find_first_not_of("0123456789") == std::string::npos) {
        const auto seed = core::parse_number(token);
        if (!seed || *seed > std::numeric_limits<unsigned>::max()) {
          error_ = "a --family seed must be an integer in [0, " +
                   std::to_string(std::numeric_limits<unsigned>::max()) +
                   "], got '" + token + "'";
          return false;
        }
        ref.kind = TraceRef::Kind::kWorkload;
        ref.workload = default_workload_;
        ref.seed = static_cast<unsigned>(*seed);
      } else {
        ref.kind = TraceRef::Kind::kFile;
        ref.path = token;
        ref.workload.clear();
      }
      request.traces.push_back(std::move(ref));
      if (comma == std::string::npos) break;
      begin = comma + 1;
    }
    if (request.traces.size() < 2) {
      error_ = "a family needs at least two traces";
      return false;
    }
  } else if (request.aggregate_set) {
    // Silently running a single-trace design after the user asked for a
    // family fold would misreport what was designed.
    error_ = "--aggregate only applies to --family runs";
    return false;
  } else if (request.traces.empty()) {
    TraceRef ref;
    ref.kind = TraceRef::Kind::kWorkload;
    ref.workload = default_workload_;
    ref.seed = seed_;
    request.traces.push_back(std::move(ref));
  }
  if (!allow_trace_flags) return true;
  std::string why;
  if (!validate_request(request, &why)) {
    error_ = why;
    return false;
  }
  return true;
}

std::string RequestCli::flags_help() const {
  std::string help =
      "[--search SPEC] [--cache-file PATH] [--threads N] [--budget N] "
      "[--max-events N]";
  if (allow_trace_flags) {
    help += " [--workload NAME] [--seed N] [--trace FILE] "
            "[--family T1,T2,...] [--aggregate max|wsum]";
  }
  return help;
}

}  // namespace dmm::api
