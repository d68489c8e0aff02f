// The unified request API (src/api/design_api.h):
//  * the wire form round-trips every field bit-exactly — doubles travel as
//    IEEE-754 bit patterns, so even -0.0 and 1e300 survive — and rejects
//    garbage, foreign payloads, and future versions without touching *out,
//  * validate_request raises every inconsistent-ask error the CLIs always
//    raised, and rejects non-finite or negative weights off the wire,
//  * RequestCli parses the shared flag surface into the same request the
//    hand-rolled example parsers used to build,
//  * to_design_options() maps a request onto the one DesignOptions, and
//    never hands DesignRun a config it rejects,
//  * a trace file that passes its checksums but does not decode, or
//    decodes into events no program could make, is rejected with an error
//    naming it,
//  * the adapters are *pinned*: run_design_request() is bit-for-bit
//    design_manager() / design_manager_family(), and a parsed search spec
//    is bit-for-bit the explicit strategy — at 1, 2, 4, and 8 evaluation
//    threads,
//  * a core::DesignRun stepped in slices of any size lands exactly where
//    stepping it to completion does (the daemon's path vs the library's),
//    and a budget-capped run stops at its budget and harvests what it
//    charged.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstddef>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "dmm/alloc/config.h"
#include "dmm/api/design_api.h"
#include "dmm/core/methodology.h"
#include "dmm/core/search.h"
#include "dmm/trace/trace_store.h"
#include "dmm/workloads/workload.h"
#include "dmmt_forge.h"

namespace dmm::api {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

DesignRequest full_request() {
  DesignRequest req;
  TraceRef workload;
  workload.kind = TraceRef::Kind::kWorkload;
  workload.workload = "recon3d";
  workload.seed = 42;
  TraceRef file;
  file.kind = TraceRef::Kind::kFile;
  file.path = "/tmp/some trace.bin";  // spaces must survive the wire
  TraceRef third;
  third.workload = "drr";
  third.seed = 7;
  req.traces = {workload, file, third};
  req.max_events = 123456789;
  req.aggregate = core::FamilyAggregate::kWeightedSum;
  req.aggregate_set = true;
  req.weights = {0.1, -0.0, 1e300};  // not exactly representable / signed
                                     // zero / huge: bit patterns must hold
  req.search_text = "exhaustive:500";
  req.num_threads = 8;
  req.time_weight = 0.3;
  req.cache = false;
  req.validate = false;
  req.cache_file = "/tmp/warm.cache";
  req.eval_budget = 777;
  return req;
}

// ---------------------------------------------------------------------------
// Wire round trips
// ---------------------------------------------------------------------------

TEST(ApiWire, RequestRoundTripsBitExactly) {
  const DesignRequest req = full_request();
  DesignRequest back;
  std::string why;
  ASSERT_TRUE(parse_request(serialize_request(req), &back, &why)) << why;
  ASSERT_EQ(back.traces.size(), 3u);
  EXPECT_EQ(back.traces[0].kind, TraceRef::Kind::kWorkload);
  EXPECT_EQ(back.traces[0].workload, "recon3d");
  EXPECT_EQ(back.traces[0].seed, 42u);
  EXPECT_EQ(back.traces[1].kind, TraceRef::Kind::kFile);
  EXPECT_EQ(back.traces[1].path, "/tmp/some trace.bin");
  EXPECT_EQ(back.traces[2].workload, "drr");
  EXPECT_EQ(back.traces[2].seed, 7u);
  EXPECT_EQ(back.max_events, req.max_events);
  EXPECT_EQ(back.aggregate, req.aggregate);
  EXPECT_EQ(back.aggregate_set, req.aggregate_set);
  ASSERT_EQ(back.weights.size(), req.weights.size());
  for (std::size_t i = 0; i < req.weights.size(); ++i) {
    EXPECT_EQ(bits(back.weights[i]), bits(req.weights[i])) << "weight " << i;
  }
  EXPECT_EQ(back.search_text, req.search_text);
  EXPECT_EQ(back.num_threads, req.num_threads);
  EXPECT_EQ(bits(back.time_weight), bits(req.time_weight));
  EXPECT_EQ(back.cache, req.cache);
  EXPECT_EQ(back.validate, req.validate);
  EXPECT_EQ(back.cache_file, req.cache_file);
  EXPECT_EQ(back.eval_budget, req.eval_budget);
}

TEST(ApiWire, ReplyRoundTripsBitExactly) {
  DesignReply reply;
  reply.ok = true;
  reply.cancelled = true;
  reply.budget_exhausted = true;
  reply.family = true;
  reply.feasible = true;
  reply.phase_signatures = {"A1=dll A2=many", "A1=sll A2=one"};
  reply.best_peak = 1234567;
  reply.aggregate_objective = 0.1 + 0.2;  // 0.30000000000000004 exactly
  reply.evaluations = 100;
  reply.simulations = 60;
  reply.cache_hits = 40;
  reply.cross_search_hits = 30;
  reply.persisted_hits = 10;
  reply.cache_entries = 55;
  reply.cache_evictions = 5;
  DesignReply back;
  std::string why;
  ASSERT_TRUE(parse_reply(serialize_reply(reply), &back, &why)) << why;
  EXPECT_EQ(back.ok, reply.ok);
  EXPECT_EQ(back.cancelled, reply.cancelled);
  EXPECT_EQ(back.budget_exhausted, reply.budget_exhausted);
  EXPECT_EQ(back.family, reply.family);
  EXPECT_EQ(back.feasible, reply.feasible);
  EXPECT_EQ(back.phase_signatures, reply.phase_signatures);
  EXPECT_EQ(back.best_peak, reply.best_peak);
  EXPECT_EQ(bits(back.aggregate_objective), bits(reply.aggregate_objective));
  EXPECT_EQ(back.evaluations, reply.evaluations);
  EXPECT_EQ(back.simulations, reply.simulations);
  EXPECT_EQ(back.cache_hits, reply.cache_hits);
  EXPECT_EQ(back.cross_search_hits, reply.cross_search_hits);
  EXPECT_EQ(back.persisted_hits, reply.persisted_hits);
  EXPECT_EQ(back.cache_entries, reply.cache_entries);
  EXPECT_EQ(back.cache_evictions, reply.cache_evictions);
}

TEST(ApiWire, ErrorReplyRoundTripsTheReason) {
  DesignReply reply;
  reply.ok = false;
  reply.error = "cache-file is daemon-owned; remove it from the request";
  DesignReply back;
  std::string why;
  ASSERT_TRUE(parse_reply(serialize_reply(reply), &back, &why)) << why;
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.error, reply.error);
}

TEST(ApiWire, ProgressRoundTrips) {
  ProgressEvent event;
  event.phase = 2;
  event.phase_count = 5;
  event.evaluations = 321;
  event.simulations = 300;
  event.cache_hits = 21;
  event.has_incumbent = true;
  event.incumbent_peak = 98765;
  event.incumbent = "A1=dll A2=many A3=none";
  ProgressEvent back;
  std::string why;
  ASSERT_TRUE(parse_progress(serialize_progress(event), &back, &why)) << why;
  EXPECT_EQ(back.phase, event.phase);
  EXPECT_EQ(back.phase_count, event.phase_count);
  EXPECT_EQ(back.evaluations, event.evaluations);
  EXPECT_EQ(back.simulations, event.simulations);
  EXPECT_EQ(back.cache_hits, event.cache_hits);
  EXPECT_EQ(back.has_incumbent, event.has_incumbent);
  EXPECT_EQ(back.incumbent_peak, event.incumbent_peak);
  EXPECT_EQ(back.incumbent, event.incumbent);
}

TEST(ApiWire, ParseRejectsGarbageWithoutTouchingOut) {
  DesignRequest out;
  out.search_text = "sentinel";
  std::string why;
  EXPECT_FALSE(parse_request("", &out, &why));
  EXPECT_FALSE(parse_request("complete garbage\n", &out, &why));
  // A reply payload is not a request payload.
  DesignReply reply;
  reply.ok = true;
  EXPECT_FALSE(parse_request(serialize_reply(reply), &out, &why));
  EXPECT_NE(why.find("not a dmm-request"), std::string::npos) << why;
  EXPECT_EQ(out.search_text, "sentinel") << "failed parse clobbered *out";
}

TEST(ApiWire, ParseRejectsFutureVersions) {
  const std::string text = serialize_request(full_request());
  const std::string bumped =
      "dmm-request/" + std::to_string(DesignRequest::kVersion + 1) +
      text.substr(text.find('\n'));
  DesignRequest out;
  std::string why;
  EXPECT_FALSE(parse_request(bumped, &out, &why));
  EXPECT_NE(why.find("version"), std::string::npos) << why;
}

TEST(ApiWire, ParseRejectsTruncatedAndMangledFields) {
  const std::string text = serialize_request(full_request());
  DesignRequest out;
  std::string why;
  // Cut mid-keyword: the trailing fragment is an unknown field.  (Cutting
  // at a line boundary is legal — trailing fields just keep defaults — so
  // the cut must land inside a key to be a parse error.)
  const std::size_t mid = text.find("\nsearch ");
  ASSERT_NE(mid, std::string::npos);
  EXPECT_FALSE(parse_request(text.substr(0, mid + 4), &out, &why));
  EXPECT_NE(why.find("unknown request field"), std::string::npos) << why;
  // A non-numeric value where a number belongs.
  std::string mangled = text;
  const std::size_t pos = mangled.find("threads ");
  ASSERT_NE(pos, std::string::npos);
  mangled.replace(pos, 8, "threads x");
  EXPECT_FALSE(parse_request(mangled, &out, &why));
}

TEST(ApiWire, ParseRejectsNonFiniteAndNegativeWeights) {
  // Doubles travel as raw bit patterns, so a peer can send any of these;
  // each would skew the objective (a negative time weight rewards work) or
  // void it (NaN ranks every feasible candidate as infeasible).
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  DesignRequest sentinel;
  sentinel.search_text = "sentinel";
  for (const double w : {-1.0, kNaN, kInf, -kInf}) {
    DesignRequest single;
    single.traces.resize(1);
    single.time_weight = w;
    DesignRequest out = sentinel;
    std::string why;
    EXPECT_FALSE(parse_request(serialize_request(single), &out, &why))
        << "time weight bits " << bits(w);
    EXPECT_NE(why.find("time weight"), std::string::npos) << why;
    EXPECT_EQ(out.search_text, "sentinel") << "failed parse clobbered *out";
  }
  DesignRequest family;
  family.traces.resize(2);
  family.aggregate = core::FamilyAggregate::kWeightedSum;
  family.aggregate_set = true;
  const std::vector<std::vector<double>> bad_weights = {
      {kNaN, -3.0}, {1.0, -3.0}, {kInf, 1.0}};
  for (const std::vector<double>& weights : bad_weights) {
    family.weights = weights;
    DesignRequest out;
    std::string why;
    EXPECT_FALSE(parse_request(serialize_request(family), &out, &why))
        << "weight bits " << bits(weights[0]) << ", " << bits(weights[1]);
    EXPECT_NE(why.find("weights"), std::string::npos) << why;
  }
  // Zero (of either sign) stays a legal weight.
  family.weights = {0.0, -0.0};
  family.time_weight = 0.0;
  DesignRequest out;
  std::string why;
  EXPECT_TRUE(parse_request(serialize_request(family), &out, &why)) << why;
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

TEST(ApiValidate, RaisesEveryInconsistentAsk) {
  std::string why;
  DesignRequest req;

  req.traces.clear();
  EXPECT_FALSE(validate_request(req, &why));
  EXPECT_NE(why.find("no traces"), std::string::npos);

  req = DesignRequest{};
  req.traces.resize(1);
  req.traces[0].workload.clear();
  EXPECT_FALSE(validate_request(req, &why));

  req = DesignRequest{};
  req.traces.resize(1);
  req.traces[0].kind = TraceRef::Kind::kFile;  // path left empty
  EXPECT_FALSE(validate_request(req, &why));

  req = DesignRequest{};
  req.traces.resize(1);
  req.search_text = "definitely-not-a-search";
  EXPECT_FALSE(validate_request(req, &why));
  EXPECT_NE(why.find("search"), std::string::npos);

  req = DesignRequest{};
  req.traces.resize(1);
  req.aggregate_set = true;  // aggregate without a family
  EXPECT_FALSE(validate_request(req, &why));

  req = DesignRequest{};
  req.traces.resize(1);
  req.weights = {1.0};  // weights without a family
  EXPECT_FALSE(validate_request(req, &why));

  req = DesignRequest{};
  req.traces.resize(3);
  req.weights = {1.0, 2.0};  // count mismatch
  EXPECT_FALSE(validate_request(req, &why));
  EXPECT_NE(why.find("2 weights for 3 traces"), std::string::npos) << why;

  req = DesignRequest{};
  req.traces.resize(2);
  req.validate = true;  // validation is single-trace only
  EXPECT_FALSE(validate_request(req, &why));

  req = DesignRequest{};
  req.traces.resize(1);
  EXPECT_TRUE(validate_request(req, &why)) << why;
}

// ---------------------------------------------------------------------------
// RequestCli
// ---------------------------------------------------------------------------

/// Runs the shared parser over @p args exactly as the example mains do.
RequestCli parse_cli(std::vector<std::string> args,
                     const std::string& default_workload = "drr") {
  RequestCli cli(default_workload);
  std::vector<char*> argv = {const_cast<char*>("prog")};
  for (std::string& a : args) argv.push_back(a.data());
  const int argc = static_cast<int>(argv.size());
  for (int i = 1; i < argc; ++i) {
    const RequestCli::Arg arg = cli.consume(argc, argv.data(), &i);
    EXPECT_EQ(arg, RequestCli::Arg::kConsumed)
        << "flag '" << argv[i] << "' not consumed: " << cli.error();
  }
  return cli;
}

TEST(ApiValidate, UnknownSearchFormsNameTheGrammar) {
  // The request path and the CLI flag name the accepted forms with one
  // text, so a caller of an unknown strategy learns what to send instead.
  for (const char* unknown : {"portfolio:greedy", "bogus:40"}) {
    DesignRequest req;
    req.traces.resize(1);
    req.search_text = unknown;
    std::string why;
    EXPECT_FALSE(validate_request(req, &why)) << unknown;
    EXPECT_NE(why.find(unknown), std::string::npos) << why;
    EXPECT_NE(why.find(core::kSearchSpecForms), std::string::npos) << why;

    RequestCli cli;
    std::string flag = "--search";
    std::string value = unknown;
    char arg0[] = "prog";
    char* argv[] = {arg0, flag.data(), value.data()};
    int i = 1;
    EXPECT_EQ(cli.consume(3, argv, &i), RequestCli::Arg::kError);
    EXPECT_NE(cli.error().find(core::kSearchSpecForms), std::string::npos)
        << cli.error();
  }
}

TEST(ApiCli, ParsesTheSharedFlagSurface) {
  RequestCli cli = parse_cli({"--search", "beam:3", "--seed=5",
                              "--max-events", "1234", "--threads=2",
                              "--cache-file", "/tmp/x.cache", "--budget=99"});
  ASSERT_TRUE(cli.finish()) << cli.error();
  const DesignRequest& req = cli.request;
  ASSERT_EQ(req.traces.size(), 1u);
  EXPECT_EQ(req.traces[0].kind, TraceRef::Kind::kWorkload);
  EXPECT_EQ(req.traces[0].workload, "drr");
  EXPECT_EQ(req.traces[0].seed, 5u);
  EXPECT_EQ(req.search_text, "beam:3");
  EXPECT_EQ(req.max_events, 1234u);
  EXPECT_EQ(req.num_threads, 2u);
  EXPECT_EQ(req.cache_file, "/tmp/x.cache");
  EXPECT_EQ(req.eval_budget, 99u);
}

TEST(ApiCli, FamilyElementsAreSeedsOrPaths) {
  RequestCli cli = parse_cli(
      {"--family", "1,2,/tmp/recorded.bin", "--aggregate", "wsum"},
      "render3d");
  ASSERT_TRUE(cli.finish()) << cli.error();
  const DesignRequest& req = cli.request;
  ASSERT_EQ(req.traces.size(), 3u);
  EXPECT_EQ(req.traces[0].kind, TraceRef::Kind::kWorkload);
  EXPECT_EQ(req.traces[0].workload, "render3d");  // digits = default
                                                  // workload, that seed
  EXPECT_EQ(req.traces[0].seed, 1u);
  EXPECT_EQ(req.traces[1].seed, 2u);
  EXPECT_EQ(req.traces[2].kind, TraceRef::Kind::kFile);
  EXPECT_EQ(req.traces[2].path, "/tmp/recorded.bin");
  EXPECT_EQ(req.aggregate, core::FamilyAggregate::kWeightedSum);
  EXPECT_TRUE(req.aggregate_set);
}

TEST(ApiCli, RejectsBadValuesAtTheFlag) {
  RequestCli cli;
  char arg0[] = "prog";
  char arg1[] = "--search";
  char arg2[] = "bogus";
  char* argv[] = {arg0, arg1, arg2};
  int i = 1;
  EXPECT_EQ(cli.consume(3, argv, &i), RequestCli::Arg::kError);
  EXPECT_NE(cli.error().find("--search"), std::string::npos);
}

TEST(ApiCli, FinishRaisesTheAggregateWithoutFamilyError) {
  RequestCli cli = parse_cli({"--aggregate", "max"});
  EXPECT_FALSE(cli.finish());
  EXPECT_NE(cli.error().find("aggregate"), std::string::npos) << cli.error();
}

TEST(ApiCli, TraceFlagsCanBeDisabled) {
  RequestCli cli;
  cli.allow_trace_flags = false;
  char arg0[] = "prog";
  char arg1[] = "--seed=9";
  char* argv[] = {arg0, arg1};
  int i = 1;
  EXPECT_EQ(cli.consume(2, argv, &i), RequestCli::Arg::kNotMine);
  // The cap still applies to the binary's fixed trace, which finish()
  // leaves as the request's one default trace.
  char arg2[] = "--max-events=500";
  char* cap_argv[] = {arg0, arg2};
  EXPECT_EQ(cli.consume(2, cap_argv, &i), RequestCli::Arg::kConsumed);
  ASSERT_TRUE(cli.finish()) << cli.error();
  EXPECT_EQ(cli.request.max_events, 500u);
  ASSERT_EQ(cli.request.traces.size(), 1u);
  EXPECT_EQ(cli.request.traces[0].workload, "drr");
}

// ---------------------------------------------------------------------------
// Bridges
// ---------------------------------------------------------------------------

TEST(ApiBridge, MapsEveryKnobOntoDesignOptions) {
  DesignRequest req = full_request();
  const core::DesignOptions family = to_design_options(req);
  const core::ExplorerOptions& opts = family.explorer_options;
  EXPECT_EQ(opts.num_threads, req.num_threads);
  EXPECT_EQ(bits(opts.time_weight), bits(req.time_weight));
  EXPECT_EQ(opts.cache, req.cache);
  EXPECT_EQ(opts.search.kind, core::parse_search_spec(req.search_text)->kind);
  EXPECT_EQ(opts.shared_cache, nullptr);
  EXPECT_EQ(family.cache_file, req.cache_file);
  EXPECT_EQ(family.aggregate, req.aggregate);
  ASSERT_EQ(family.weights.size(), req.weights.size());
  EXPECT_FALSE(family.validate);

  // One trace: validate maps, the family-only fields stay at their
  // defaults even if the request carries them unset-but-filled.
  req.traces.resize(1);
  req.weights.clear();
  req.aggregate_set = false;
  req.validate = true;
  const core::DesignOptions single = to_design_options(req);
  EXPECT_TRUE(single.validate);
  EXPECT_EQ(single.aggregate, core::FamilyAggregate::kMaxPeak);
  EXPECT_TRUE(single.weights.empty());
  EXPECT_EQ(single.cache_file, req.cache_file);
}

TEST(ApiBridge, ValidRequestsNeverMakeDesignRunThrow) {
  // Every request below passes validate_request; its DesignOptions must
  // construct a DesignRun over the request's trace count.
  std::vector<core::AllocTrace> traces(2);
  for (std::uint32_t id = 0; id < 32; ++id) {
    traces[0].record_alloc(id, 64 + id);
    traces[1].record_alloc(id, 512 + id);
  }
  for (core::AllocTrace& t : traces) t.close_leaks();
  std::vector<DesignRequest> valid;
  DesignRequest single;
  single.traces.resize(1);
  valid.push_back(single);
  single.validate = true;
  single.time_weight = 0.5;
  valid.push_back(single);
  single = DesignRequest{};
  single.traces.resize(1);
  // An aggregate the request never set is not an ask.
  single.aggregate = core::FamilyAggregate::kWeightedSum;
  valid.push_back(single);
  DesignRequest family;
  family.traces.resize(2);
  valid.push_back(family);
  family.aggregate = core::FamilyAggregate::kWeightedSum;
  family.aggregate_set = true;
  family.weights = {0.0, 2.5};
  family.search_text = "exhaustive:40";
  valid.push_back(family);

  core::EvalEngine engine(1);
  for (const DesignRequest& req : valid) {
    std::string why;
    ASSERT_TRUE(validate_request(req, &why)) << why;
    const std::vector<core::AllocTrace> loaded(
        traces.begin(),
        traces.begin() + static_cast<std::ptrdiff_t>(req.traces.size()));
    EXPECT_NO_THROW((void)make_design_run(req, loaded, engine))
        << serialize_request(req);
  }
}

// A .dmmt whose checksums hold but whose payload does not decode is a bad
// input, not a crash: the request gets an error naming the file.
TEST(ApiLoad, UndecodableTraceFileIsRejectedNotFatal) {
  const std::string path = ::testing::TempDir() + "dmm_api_undecodable.dmmt";
  ASSERT_TRUE(trace::forge::write_undecodable_trace(path));
  DesignRequest req;
  req.traces.resize(1);
  req.traces[0].kind = TraceRef::Kind::kFile;
  req.traces[0].path = path;
  const DesignReply reply = run_design_request(req);
  std::remove(path.c_str());
  EXPECT_FALSE(reply.ok);
  EXPECT_NE(reply.error.find("trace '" + path + "' rejected: "),
            std::string::npos)
      << reply.error;
}

// Traces are DMMT only.  A line-oriented text trace with a garbage third
// line once loaded as its two-event prefix and was designed for; now the
// file fails MappedTrace::open and the request names it.
TEST(ApiLoad, TextTraceFileIsRejected) {
  const std::string path = ::testing::TempDir() + "dmm_api_text_trace.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("a 0 64 0\na 1 32 0\nzz garbage\nf 0 0\nf 1 0\n", f);
  std::fclose(f);
  DesignRequest req;
  req.traces.resize(1);
  req.traces[0].kind = TraceRef::Kind::kFile;
  req.traces[0].path = path;
  const DesignReply reply = run_design_request(req);
  std::remove(path.c_str());
  EXPECT_FALSE(reply.ok);
  EXPECT_NE(reply.error.find("trace '" + path + "' rejected: "),
            std::string::npos)
      << reply.error;
}

// Events that decode cleanly but break the trace contract (validate()) are
// a bad input too: each 4-event file once designed for now names itself.
TEST(ApiLoad, InvalidEventStreamIsRejected) {
  using core::AllocEvent;
  constexpr auto kAlloc = AllocEvent::Op::kAlloc;
  constexpr auto kFree = AllocEvent::Op::kFree;
  const std::vector<std::vector<AllocEvent>> defects = {
      // id 0 allocated twice while live
      {{kAlloc, 0, 64, 0}, {kAlloc, 0, 32, 0}, {kFree, 0, 0, 0},
       {kFree, 0, 0, 0}},
      // a free of id 1, which was never allocated
      {{kAlloc, 0, 64, 0}, {kFree, 1, 0, 0}, {kFree, 0, 0, 0},
       {kAlloc, 2, 32, 0}},
  };
  for (std::size_t d = 0; d < defects.size(); ++d) {
    const std::string path = ::testing::TempDir() + "dmm_api_invalid_" +
                             std::to_string(d) + ".dmmt";
    std::unique_ptr<trace::TraceWriter> writer =
        trace::TraceWriter::create(path);
    ASSERT_NE(writer, nullptr);
    for (const AllocEvent& e : defects[d]) writer->add(e);
    ASSERT_TRUE(writer->finish());
    DesignRequest req;
    req.traces.resize(1);
    req.traces[0].kind = TraceRef::Kind::kFile;
    req.traces[0].path = path;
    const DesignReply reply = run_design_request(req);
    std::remove(path.c_str());
    EXPECT_FALSE(reply.ok) << "defect " << d;
    EXPECT_NE(reply.error.find("trace '" + path + "' rejected: event "),
              std::string::npos)
        << reply.error;
  }
}

// ---------------------------------------------------------------------------
// Adapter pinning: the legacy entry points and the request API must stay
// bit-for-bit interchangeable, at every thread count.
// ---------------------------------------------------------------------------

DesignRequest small_drr_request(unsigned threads) {
  DesignRequest req;
  req.traces.resize(1);  // drr, seed 1
  req.max_events = 2000;
  req.num_threads = threads;
  return req;
}

void expect_same_result(const core::ExplorationResult& a,
                        const core::ExplorationResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.best, b.best) << what;
  EXPECT_EQ(a.best_sim.peak_footprint, b.best_sim.peak_footprint) << what;
  EXPECT_EQ(a.best_sim.avg_footprint, b.best_sim.avg_footprint) << what;
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(a.simulations, b.simulations) << what;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << what;
  EXPECT_EQ(a.evals_to_best, b.evals_to_best) << what;
  EXPECT_EQ(a.work_steps, b.work_steps) << what;
}

TEST(ApiAdapterPin, RunDesignRequestIsDesignManagerBitForBit) {
  for (const unsigned threads : kThreadCounts) {
    const DesignRequest req = small_drr_request(threads);
    const DesignReply reply = run_design_request(req);
    ASSERT_TRUE(reply.ok) << reply.error;
    EXPECT_FALSE(reply.family);

    std::vector<core::AllocTrace> traces;
    std::string why;
    ASSERT_TRUE(load_traces(req, &traces, &why)) << why;
    const core::MethodologyResult design =
        core::design_manager(traces[0], to_design_options(req));

    const std::string what = "threads=" + std::to_string(threads);
    ASSERT_EQ(reply.phase_signatures.size(), design.phase_configs.size())
        << what;
    for (std::size_t p = 0; p < design.phase_configs.size(); ++p) {
      EXPECT_EQ(reply.phase_signatures[p],
                alloc::signature(design.phase_configs[p]))
          << what << " phase " << p;
    }
    bool feasible = true;
    std::uint64_t best_peak = 0;
    for (const core::ExplorationResult& r : design.phase_results) {
      if (r.simulations + r.cache_hits == 0) continue;
      feasible = feasible && r.feasible;
      best_peak = std::max(best_peak, r.best_sim.peak_footprint);
    }
    EXPECT_EQ(reply.feasible, feasible) << what;
    EXPECT_EQ(reply.best_peak, best_peak) << what;
    EXPECT_EQ(reply.simulations, design.total_simulations) << what;
    EXPECT_EQ(reply.cache_hits, design.total_cache_hits) << what;
    EXPECT_EQ(reply.evaluations,
              design.total_simulations + design.total_cache_hits)
        << what;
  }
}

TEST(ApiAdapterPin, RunDesignRequestIsDesignManagerFamilyBitForBit) {
  for (const unsigned threads : kThreadCounts) {
    DesignRequest req;
    req.traces.resize(2);
    req.traces[0].seed = 1;
    req.traces[1].seed = 2;
    req.max_events = 2000;
    req.num_threads = threads;
    req.aggregate = core::FamilyAggregate::kWeightedSum;
    req.aggregate_set = true;
    req.weights = {1.0, 2.0};

    const DesignReply reply = run_design_request(req);
    ASSERT_TRUE(reply.ok) << reply.error;
    EXPECT_TRUE(reply.family);

    std::vector<core::AllocTrace> traces;
    std::string why;
    ASSERT_TRUE(load_traces(req, &traces, &why)) << why;
    const core::FamilyDesignResult family =
        core::design_manager_family(traces, to_design_options(req));

    const std::string what = "threads=" + std::to_string(threads);
    ASSERT_EQ(reply.phase_signatures.size(), 1u) << what;
    EXPECT_EQ(reply.phase_signatures[0], alloc::signature(family.best))
        << what;
    EXPECT_EQ(reply.feasible, family.feasible) << what;
    EXPECT_EQ(reply.best_peak, family.search.best_sim.peak_footprint) << what;
    EXPECT_EQ(bits(reply.aggregate_objective),
              bits(family.aggregate_objective))
        << what;
    EXPECT_EQ(reply.simulations, family.search.simulations) << what;
    EXPECT_EQ(reply.cache_hits, family.search.cache_hits) << what;
  }
}

TEST(ApiAdapterPin, SearchSpecsAreTheExplicitStrategiesBitForBit) {
  std::vector<core::AllocTrace> traces;
  std::string why;
  ASSERT_TRUE(load_traces(small_drr_request(1), &traces, &why)) << why;
  const core::AllocTrace& trace = traces[0];

  for (const unsigned threads : kThreadCounts) {
    core::ExplorerOptions opts;
    opts.num_threads = threads;
    const std::string what = "threads=" + std::to_string(threads);
    const auto via_spec = [&](const char* spec) {
      return core::run_search(
          trace, *core::make_strategy(*core::parse_search_spec(spec)), opts);
    };
    core::BeamSearch greedy(1, core::paper_order());
    expect_same_result(via_spec("greedy"),
                       core::run_search(trace, greedy, opts),
                       what + " greedy");
    core::ExhaustiveSearch exhaustive(core::high_impact_trees(), 200);
    expect_same_result(via_spec("exhaustive:200"),
                       core::run_search(trace, exhaustive, opts),
                       what + " exhaustive");
    core::RandomSearch random(40, 7);
    expect_same_result(via_spec("random:40:7"),
                       core::run_search(trace, random, opts),
                       what + " random");
  }
}

// ---------------------------------------------------------------------------
// DesignRun slicing: the daemon deals a run in step() slices, the library
// steps it to completion — the two must be indistinguishable.
// ---------------------------------------------------------------------------

/// Slice sizes under test; 0 means DesignRun::complete().
constexpr std::size_t kSlices[] = {1, 64, 0};

void expect_same_search(const core::ExplorationResult& a,
                        const core::ExplorationResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.best, b.best) << what;
  EXPECT_EQ(a.best_sim.peak_footprint, b.best_sim.peak_footprint) << what;
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(a.simulations, b.simulations) << what;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << what;
  ASSERT_EQ(a.steps.size(), b.steps.size()) << what;
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].tree, b.steps[i].tree) << what << " step " << i;
    EXPECT_EQ(a.steps[i].chosen, b.steps[i].chosen) << what << " step " << i;
    ASSERT_EQ(a.steps[i].candidates.size(), b.steps[i].candidates.size());
    for (std::size_t c = 0; c < a.steps[i].candidates.size(); ++c) {
      EXPECT_EQ(a.steps[i].candidates[c].peak_footprint,
                b.steps[i].candidates[c].peak_footprint)
          << what << " step " << i << " candidate " << c;
    }
  }
}

/// The request's run, stepped in @p slice-evaluation slices.
std::unique_ptr<core::DesignRun> stepped_run(
    const DesignRequest& req, const std::vector<core::AllocTrace>& traces,
    core::EvalEngine& engine, std::size_t slice) {
  std::unique_ptr<core::DesignRun> run = make_design_run(req, traces, engine);
  if (slice == 0) {
    run->complete();
  } else {
    while (run->step(slice)) {
    }
  }
  EXPECT_TRUE(run->done());
  return run;
}

struct SliceCase {
  const char* workload;
  std::uint64_t max_events;  ///< 0 = the full trace
  const char* search;
  bool validate;
};

class DesignRunSlicing : public ::testing::TestWithParam<SliceCase> {};

TEST_P(DesignRunSlicing, SlicesMatchCompletionAndDesignManager) {
  DesignRequest req = small_drr_request(2);
  req.traces[0].workload = GetParam().workload;
  req.max_events = GetParam().max_events;
  req.search_text = GetParam().search;
  req.validate = GetParam().validate;
  std::vector<core::AllocTrace> traces;
  std::string why;
  ASSERT_TRUE(load_traces(req, &traces, &why)) << why;
  const core::MethodologyResult want =
      core::design_manager(traces[0], to_design_options(req));
  const std::unique_ptr<core::EvalEngine> engine = core::make_engine(2);
  for (const std::size_t slice : kSlices) {
    const std::string what = req.traces[0].workload + " " + req.search_text +
                             " slice " + std::to_string(slice);
    const core::MethodologyResult got =
        stepped_run(req, traces, *engine, slice)->harvest();
    EXPECT_EQ(got.phase_configs, want.phase_configs) << what;
    ASSERT_EQ(got.phase_results.size(), want.phase_results.size()) << what;
    for (std::size_t p = 0; p < want.phase_results.size(); ++p) {
      expect_same_search(got.phase_results[p], want.phase_results[p], what);
    }
    ASSERT_EQ(got.validation_results.size(), want.validation_results.size())
        << what;
    for (std::size_t p = 0; p < want.validation_results.size(); ++p) {
      expect_same_search(got.validation_results[p],
                         want.validation_results[p], what + " validation");
    }
    EXPECT_EQ(got.total_simulations, want.total_simulations) << what;
    EXPECT_EQ(got.total_cache_hits, want.total_cache_hits) << what;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Searches, DesignRunSlicing,
    ::testing::Values(SliceCase{"drr", 2000, "greedy", false},
                      SliceCase{"drr", 2000, "beam:4", false},
                      SliceCase{"drr", 2000, "anneal:7", false},
                      SliceCase{"drr", 2000, "exhaustive", false},
                      SliceCase{"drr", 2000, "greedy", true},
                      // Two annotated phases: the run crosses a phase
                      // boundary between slices.
                      SliceCase{"render3d", 0, "greedy", false}));

TEST(DesignRunSlicing, FamilyRunMatchesDesignManagerFamily) {
  DesignRequest req = small_drr_request(2);
  req.traces.resize(2);
  req.traces[1].seed = 2;
  std::vector<core::AllocTrace> traces;
  std::string why;
  ASSERT_TRUE(load_traces(req, &traces, &why)) << why;
  const core::FamilyDesignResult want =
      core::design_manager_family(traces, to_design_options(req));
  const std::unique_ptr<core::EvalEngine> engine = core::make_engine(2);
  for (const std::size_t slice : kSlices) {
    const std::string what = "family slice " + std::to_string(slice);
    const core::FamilyDesignResult got =
        stepped_run(req, traces, *engine, slice)->harvest_family();
    EXPECT_EQ(got.best, want.best) << what;
    EXPECT_EQ(got.feasible, want.feasible) << what;
    EXPECT_EQ(bits(got.aggregate_objective), bits(want.aggregate_objective))
        << what;
    expect_same_search(got.search, want.search, what);
  }
}

TEST(DesignRunSlicing, BudgetCappedRunStopsAtItsBudget) {
  DesignRequest req = small_drr_request(2);
  req.search_text = "exhaustive";
  std::vector<core::AllocTrace> traces;
  std::string why;
  ASSERT_TRUE(load_traces(req, &traces, &why)) << why;
  const std::unique_ptr<core::EvalEngine> engine = core::make_engine(2);
  const std::unique_ptr<core::DesignRun> run =
      make_design_run(req, traces, *engine);
  // Metered like the daemon: never deal more than the budget has left.
  constexpr std::uint64_t kBudget = 100;
  std::uint64_t charged = 0;
  while (charged < kBudget) {
    ASSERT_TRUE(run->step(std::min<std::uint64_t>(64, kBudget - charged)));
    charged = run->progress().evaluations;
  }
  EXPECT_EQ(charged, kBudget);
  EXPECT_FALSE(run->done());
  const core::DesignProgress progress = run->progress();
  ASSERT_TRUE(progress.has_incumbent);
  const DesignReply reply = harvest_reply(*run);
  // The harvest reports exactly the work charged, and no design for the
  // interrupted search.
  EXPECT_EQ(reply.evaluations, kBudget);
  EXPECT_EQ(reply.simulations, progress.simulations);
  EXPECT_EQ(reply.cache_hits, progress.cache_hits);
  EXPECT_TRUE(reply.phase_signatures.empty());
}

}  // namespace
}  // namespace dmm::api
