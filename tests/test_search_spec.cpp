// The hardened `--search` grammar (parse_search_spec, src/core/search.h)
// and the strict parse_number the CLIs share:
//  * exhaustive's optional budget parses and caps the enumeration,
//  * negative/fuzz coverage: trailing colons, overflow budgets/seeds,
//    beam:0, and `portfolio` forms are rejected,
//  * parse_number rejects everything atoi/strtoull would mangle.

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <string>
#include <vector>

#include "dmm/core/search.h"

namespace dmm::core {
namespace {

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

TEST(SpecParseHardening, ExhaustiveAcceptsAnOptionalBudget) {
  const auto plain = parse_search_spec("exhaustive");
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->eval_budget(), 100000u);
  const auto capped = parse_search_spec("exhaustive:12");
  ASSERT_TRUE(capped.has_value());
  EXPECT_EQ(capped->kind, SearchSpec::Kind::kExhaustive);
  EXPECT_EQ(capped->eval_budget(), 12u);
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
        "beam:+4", "beam:-1", "anneal:0x1f", "random:1e3",
        // `portfolio` names no strategy, with or without children.
        "portfolio", "portfolio:greedy", "portfolio:500:greedy+anneal",
        "greedy+beam:2"}) {
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
          s.rfind("random", 0) == 0;
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
