// PortfolioSearch (src/core/search.h) and the hardened spec/number
// parsing:
//  * portfolio:greedy is bit-identical to GreedySearch — racing one child is
//    the degenerate case,
//  * portfolio:greedy+beam:4+anneal is bit-identical across 1/2/4/8
//    threads and across per-search / shared / persisted cache scopes,
//  * per-child attribution: names, consumption splits that sum to the
//    totals, exactly one found_best, the winning ordered child's step log,
//  * an overall budget is dealt round-robin and respected exactly by
//    streaming children,
//  * competitive mode demotes set_best to an offer so a child cannot
//    clobber a better sibling,
//  * parse_search_spec negative/fuzz coverage (trailing colons, overflow
//    budgets/seeds, beam:0, portfolios with unknown children or nesting)
//    and the strict parse_number the CLIs share.

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "dmm/core/search.h"

namespace dmm::core {
namespace {

using alloc::DmmConfig;

AllocTrace variable_size_trace(std::size_t events, unsigned seed = 3) {
  AllocTrace t;
  std::mt19937 rng(seed);
  std::vector<std::uint32_t> live;
  std::uint32_t next_id = 0;
  while (t.size() < events) {
    if (live.empty() || rng() % 3 != 0) {
      const std::uint32_t sizes[] = {40, 120, 576, 900, 1500, 2048, 7000};
      t.record_alloc(next_id, sizes[rng() % 7] + rng() % 64);
      live.push_back(next_id++);
    } else {
      const std::size_t i = rng() % live.size();
      t.record_free(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
  }
  t.close_leaks();
  return t;
}

/// Bit-compare of the deterministic result fields (wall time excluded),
/// including the portfolio attribution.
void expect_identical(const ExplorationResult& a, const ExplorationResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.best, b.best) << what;
  EXPECT_EQ(a.best_sim.peak_footprint, b.best_sim.peak_footprint) << what;
  EXPECT_DOUBLE_EQ(a.best_sim.avg_footprint, b.best_sim.avg_footprint) << what;
  EXPECT_EQ(a.best_sim.failed_allocs, b.best_sim.failed_allocs) << what;
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(a.work_steps, b.work_steps) << what;
  EXPECT_EQ(a.evals_to_best, b.evals_to_best) << what;
  ASSERT_EQ(a.steps.size(), b.steps.size()) << what;
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].tree, b.steps[i].tree) << what << " step " << i;
    EXPECT_EQ(a.steps[i].chosen, b.steps[i].chosen) << what << " step " << i;
  }
  ASSERT_EQ(a.children.size(), b.children.size()) << what;
  for (std::size_t i = 0; i < a.children.size(); ++i) {
    EXPECT_EQ(a.children[i].name, b.children[i].name) << what;
    EXPECT_EQ(a.children[i].evaluations, b.children[i].evaluations) << what;
    EXPECT_EQ(a.children[i].found_best, b.children[i].found_best) << what;
  }
}

void expect_identical_with_accounting(const ExplorationResult& a,
                                      const ExplorationResult& b,
                                      const std::string& what) {
  expect_identical(a, b, what);
  EXPECT_EQ(a.simulations, b.simulations) << what;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << what;
  EXPECT_EQ(a.canonical_skips, b.canonical_skips) << what;
  for (std::size_t i = 0; i < a.children.size(); ++i) {
    EXPECT_EQ(a.children[i].simulations, b.children[i].simulations) << what;
    EXPECT_EQ(a.children[i].cache_hits, b.children[i].cache_hits) << what;
  }
}

class PortfolioSearchTest : public ::testing::Test {
 protected:
  PortfolioSearchTest() : trace_(variable_size_trace(3000)) {}

  ExplorationResult run_spec(const std::string& spec,
                             const ExplorerOptions& opts = {}) {
    const auto parsed = parse_search_spec(spec);
    if (!parsed.has_value()) {
      ADD_FAILURE() << "unparseable spec: " << spec;
      return {};
    }
    return run_search(trace_, *make_strategy(*parsed), opts);
  }

  AllocTrace trace_;
};

// ---------------------------------------------------------------------------
// racing semantics
// ---------------------------------------------------------------------------

TEST_F(PortfolioSearchTest, SingleGreedyChildMatchesExploreBitForBit) {
  GreedySearch walk(paper_order());
  const ExplorationResult greedy = run_search(trace_, walk);
  const ExplorationResult portfolio = run_spec("portfolio:greedy");
  EXPECT_EQ(portfolio.best, greedy.best);
  EXPECT_EQ(portfolio.best_sim.peak_footprint, greedy.best_sim.peak_footprint);
  EXPECT_EQ(portfolio.work_steps, greedy.work_steps);
  EXPECT_EQ(portfolio.simulations, greedy.simulations);
  EXPECT_EQ(portfolio.cache_hits, greedy.cache_hits);
  EXPECT_EQ(portfolio.evals_to_best, greedy.evals_to_best);
  ASSERT_EQ(portfolio.steps.size(), greedy.steps.size());
  for (std::size_t i = 0; i < greedy.steps.size(); ++i) {
    EXPECT_EQ(portfolio.steps[i].tree, greedy.steps[i].tree);
    EXPECT_EQ(portfolio.steps[i].chosen, greedy.steps[i].chosen);
  }
  ASSERT_EQ(portfolio.children.size(), 1u);
  EXPECT_EQ(portfolio.children[0].name, "greedy");
  EXPECT_TRUE(portfolio.children[0].found_best);
}

TEST_F(PortfolioSearchTest, AttributionSplitsSumToTotals) {
  const ExplorationResult r = run_spec("portfolio:greedy+beam:4+anneal");
  ASSERT_EQ(r.children.size(), 3u);
  EXPECT_EQ(r.children[0].name, "greedy");
  EXPECT_EQ(r.children[1].name, "beam:4");
  EXPECT_EQ(r.children[2].name, "anneal");
  std::uint64_t evals = 0;
  std::uint64_t sims = 0;
  std::uint64_t hits = 0;
  int winners = 0;
  for (const ChildSearchReport& child : r.children) {
    EXPECT_EQ(child.evaluations, child.simulations + child.cache_hits)
        << child.name;
    EXPECT_GT(child.evaluations, 0u) << child.name;
    evals += child.evaluations;
    sims += child.simulations;
    hits += child.cache_hits;
    winners += child.found_best ? 1 : 0;
  }
  EXPECT_EQ(sims, r.simulations);
  EXPECT_EQ(hits, r.cache_hits);
  EXPECT_EQ(evals, r.simulations + r.cache_hits);
  EXPECT_EQ(winners, 1) << "exactly one child owns the final best";
  EXPECT_TRUE(r.feasible);
}

TEST_F(PortfolioSearchTest, BestNeverWorseThanAnyChildAlone) {
  // The portfolio folds every child's offers into one incumbent with
  // candidate_better, whose primary objective treats peaks within 1% as
  // tied (lower tiers then decide) — so the portfolio's peak can sit at
  // most one tie band above any child's solo best, never beyond it.
  const ExplorationResult portfolio =
      run_spec("portfolio:greedy+beam:4+anneal");
  for (const char* solo : {"greedy", "beam:4", "anneal"}) {
    const ExplorationResult alone = run_spec(solo);
    EXPECT_LE(static_cast<double>(portfolio.best_sim.peak_footprint),
              1.0101 * static_cast<double>(alone.best_sim.peak_footprint))
        << solo;
  }
}

TEST_F(PortfolioSearchTest, WinningOrderedChildOwnsTheStepLog) {
  const ExplorationResult r = run_spec("portfolio:greedy+anneal");
  ASSERT_EQ(r.children.size(), 2u);
  if (r.children[0].found_best) {
    EXPECT_FALSE(r.steps.empty())
        << "greedy won, so its ordered-walk log must be reported";
    for (const StepLog& s : r.steps) EXPECT_GE(s.chosen, 0) << tree_id(s.tree);
  } else {
    EXPECT_TRUE(r.steps.empty())
        << "a streaming winner has no ordered-walk log";
  }
}

TEST_F(PortfolioSearchTest, OverallBudgetIsRespectedExactly) {
  // Two streaming children pause exactly at the slice edges, so a budget
  // of 150 charges exactly 150 evaluations, dealt 64/64 then the rest
  // round-robin.
  const ExplorationResult r = run_spec("portfolio:150:anneal+random:100000");
  EXPECT_EQ(r.simulations + r.cache_hits, 150u);
  ASSERT_EQ(r.children.size(), 2u);
  EXPECT_EQ(r.children[0].evaluations, 86u)  // 64 + 22 (last partial slice)
      << "round-robin dealing: anneal gets slices 1 and 3";
  EXPECT_EQ(r.children[1].evaluations, 64u);
}

TEST_F(PortfolioSearchTest, CompetitiveModeDemotesSetBestToOffer) {
  ExplorerOptions opts;
  SerialEngine engine;
  SearchContext ctx(trace_, trace_.fingerprint(), opts, engine);
  ctx.set_competitive(true);
  const DmmConfig good = alloc::drr_paper_config();
  const DmmConfig bad = alloc::minimal_config();
  const std::vector<EvalOutcome> good_out = ctx.evaluate({{good, 0}});
  const std::vector<EvalOutcome> bad_out = ctx.evaluate({{bad, 0}});
  ASSERT_LT(good_out[0].sim.peak_footprint, bad_out[0].sim.peak_footprint)
      << "the fixture needs a clear quality gap";
  ASSERT_TRUE(ctx.offer_best(good, good_out[0]));
  ctx.set_best(bad, bad_out[0]);  // a clobber without competitive mode
  const ExplorationResult r = ctx.finish();
  EXPECT_EQ(r.best, good) << "competitive set_best must not displace a "
                             "better sibling incumbent";
}

// ---------------------------------------------------------------------------
// determinism across thread counts and cache scopes (acceptance gate)
// ---------------------------------------------------------------------------

TEST_F(PortfolioSearchTest, BitIdenticalAcrossThreadCounts) {
  ExplorationResult baseline;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    ExplorerOptions opts;
    opts.num_threads = threads;
    ExplorationResult r = run_spec("portfolio:greedy+beam:4+anneal", opts);
    if (threads == 1) {
      baseline = std::move(r);
      continue;
    }
    expect_identical_with_accounting(
        r, baseline, "portfolio at " + std::to_string(threads) + " threads");
  }
}

TEST_F(PortfolioSearchTest, BitIdenticalAcrossCacheScopes) {
  const std::string path =
      ::testing::TempDir() + "dmm_portfolio_scopes.snapshot";
  std::remove(path.c_str());
  const ExplorationResult per_search =
      run_spec("portfolio:greedy+beam:4+anneal");
  ExplorerOptions shared_opts;
  shared_opts.shared_cache = std::make_shared<SharedScoreCache>();
  const ExplorationResult shared =
      run_spec("portfolio:greedy+beam:4+anneal", shared_opts);
  ExplorerOptions cold_opts;
  cold_opts.shared_cache = std::make_shared<SharedScoreCache>();
  const ExplorationResult cold =
      run_spec("portfolio:greedy+beam:4+anneal", cold_opts);
  ASSERT_TRUE(cold_opts.shared_cache->save(path).saved);
  ExplorerOptions warm_opts;
  warm_opts.shared_cache = std::make_shared<SharedScoreCache>();
  ASSERT_TRUE(warm_opts.shared_cache->load(path).loaded);
  const ExplorationResult warm =
      run_spec("portfolio:greedy+beam:4+anneal", warm_opts);

  expect_identical(shared, per_search, "shared vs per-search");
  expect_identical(cold, per_search, "persisted-cold vs per-search");
  expect_identical(warm, per_search, "persisted-warm vs per-search");
  // Scope shifts the replay/hit split, never the charges.
  EXPECT_EQ(shared.simulations + shared.cache_hits,
            per_search.simulations + per_search.cache_hits);
  EXPECT_EQ(warm.simulations + warm.cache_hits,
            per_search.simulations + per_search.cache_hits);
  EXPECT_EQ(warm.simulations, 0u)
      << "a warm portfolio over the same trace must replay nothing";
  EXPECT_GT(warm.persisted_hits, 0u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// spec grammar: portfolio, exhaustive budgets, and negative/fuzz coverage
// ---------------------------------------------------------------------------

TEST(PortfolioSpecParse, AcceptsTheGrammar) {
  const auto p = parse_search_spec("portfolio:greedy+beam:4+anneal:7");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, SearchSpec::Kind::kPortfolio);
  EXPECT_EQ(p->portfolio_budget, 0u);
  ASSERT_EQ(p->children.size(), 3u);
  EXPECT_EQ(p->children[0].kind, SearchSpec::Kind::kGreedy);
  EXPECT_EQ(p->children[1].kind, SearchSpec::Kind::kBeam);
  EXPECT_EQ(p->children[1].beam_width, 4u);
  EXPECT_EQ(p->children[2].kind, SearchSpec::Kind::kAnneal);
  EXPECT_EQ(p->children[2].anneal.seed, 7u);

  const auto budgeted = parse_search_spec("portfolio:500:random:50:9+anneal");
  ASSERT_TRUE(budgeted.has_value());
  EXPECT_EQ(budgeted->portfolio_budget, 500u);
  ASSERT_EQ(budgeted->children.size(), 2u);
  EXPECT_EQ(budgeted->children[0].kind, SearchSpec::Kind::kRandom);
  EXPECT_EQ(budgeted->children[0].samples, 50u);
  EXPECT_EQ(budgeted->children[0].seed, 9u);

  const auto solo = parse_search_spec("portfolio:exhaustive:40");
  ASSERT_TRUE(solo.has_value());
  ASSERT_EQ(solo->children.size(), 1u);
  EXPECT_EQ(solo->children[0].kind, SearchSpec::Kind::kExhaustive);
  EXPECT_EQ(solo->children[0].max_evals, 40u);
}

TEST(PortfolioSpecParse, RejectsMalformedPortfolios) {
  EXPECT_FALSE(parse_search_spec("portfolio").has_value());
  EXPECT_FALSE(parse_search_spec("portfolio:").has_value());
  EXPECT_FALSE(parse_search_spec("portfolio:bogus").has_value());
  EXPECT_FALSE(parse_search_spec("portfolio:greedy+bogus").has_value());
  EXPECT_FALSE(parse_search_spec("portfolio:greedy+").has_value());
  EXPECT_FALSE(parse_search_spec("portfolio:+greedy").has_value());
  EXPECT_FALSE(parse_search_spec("portfolio:greedy++anneal").has_value());
  // No nesting, no budget-only, no zero/overflow budgets.
  EXPECT_FALSE(
      parse_search_spec("portfolio:greedy+portfolio:anneal").has_value());
  EXPECT_FALSE(parse_search_spec("portfolio:500").has_value());
  EXPECT_FALSE(parse_search_spec("portfolio:0:greedy").has_value());
  EXPECT_FALSE(parse_search_spec("portfolio::greedy").has_value());
  EXPECT_FALSE(
      parse_search_spec("portfolio:18446744073709551616:greedy").has_value());
  // A malformed child must not half-apply.
  EXPECT_FALSE(parse_search_spec("portfolio:beam:0+greedy").has_value());
}

TEST(SpecParseHardening, ExhaustiveAcceptsAnOptionalBudget) {
  const auto plain = parse_search_spec("exhaustive");
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->max_evals, 100000u);
  const auto capped = parse_search_spec("exhaustive:12");
  ASSERT_TRUE(capped.has_value());
  EXPECT_EQ(capped->kind, SearchSpec::Kind::kExhaustive);
  EXPECT_EQ(capped->max_evals, 12u);
  EXPECT_FALSE(parse_search_spec("exhaustive:0").has_value());
  EXPECT_FALSE(parse_search_spec("exhaustive:").has_value());
  EXPECT_FALSE(parse_search_spec("exhaustive:12:9").has_value());
  EXPECT_FALSE(
      parse_search_spec("exhaustive:18446744073709551616").has_value());
}

TEST(SpecParseHardening, ExhaustiveBudgetCapsTheEnumeration) {
  const AllocTrace trace = variable_size_trace(600);
  const ExplorationResult r =
      run_search(trace, *make_strategy(*parse_search_spec("exhaustive:12")));
  EXPECT_EQ(r.simulations + r.cache_hits, 12u);
}

TEST(SpecParseHardening, RejectsTrailingAndEmptySegments) {
  for (const char* bad :
       {"", ":", "greedy:", "greedy::", ":greedy", "beam:", "beam:4:",
        "anneal:", "anneal:1:", "random:", "random::", "random:10:",
        "random:10:5:", "exhaustive::", " greedy", "greedy ", "beam: 4",
        "beam:+4", "beam:-1", "anneal:0x1f", "random:1e3"}) {
    EXPECT_FALSE(parse_search_spec(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(SpecParseHardening, FuzzNeverCrashesAndNeverGuesses) {
  // Deterministic fuzz over the grammar's alphabet: every outcome must be
  // either a clean reject or a spec that round-trips the leading keyword.
  const std::string alphabet = "grebamxhnduloisvptfc0123456789:+ ";
  std::mt19937 rng(1234);
  for (int i = 0; i < 20000; ++i) {
    std::string s;
    const std::size_t len = rng() % 24;
    for (std::size_t k = 0; k < len; ++k) {
      s += alphabet[rng() % alphabet.size()];
    }
    const auto spec = parse_search_spec(s);
    if (spec.has_value()) {
      const bool known_keyword =
          s.rfind("greedy", 0) == 0 || s.rfind("beam", 0) == 0 ||
          s.rfind("anneal", 0) == 0 || s.rfind("exhaustive", 0) == 0 ||
          s.rfind("random", 0) == 0 || s.rfind("portfolio", 0) == 0;
      EXPECT_TRUE(known_keyword) << "'" << s << "' parsed to a spec";
    }
  }
}

// ---------------------------------------------------------------------------
// the strict numeric parse the CLIs share
// ---------------------------------------------------------------------------

TEST(ParseNumber, AcceptsWholeNonNegativeNumbers) {
  EXPECT_EQ(parse_number("0"), 0u);
  EXPECT_EQ(parse_number("42"), 42u);
  EXPECT_EQ(parse_number("007"), 7u);
  EXPECT_EQ(parse_number("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseNumber, RejectsEverythingAtoiWouldMangle) {
  for (const char* bad :
       {"", "-1", "+1", " 1", "1 ", "1.5", "1e3", "0x10", "abc", "12a",
        "a12", "--", "18446744073709551616",  // 2^64: strtoull clamps
        "99999999999999999999999999"}) {
    EXPECT_FALSE(parse_number(bad).has_value()) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace dmm::core
