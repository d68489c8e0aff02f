// Stratified sampling: samples must be deterministic pure functions of
// (source, budget, seed), validate()-clean, budget-respecting, and must
// keep rare strata represented, and keep the whole trace at budget 0.

#include "dmm/trace/trace_sample.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "dmm/trace/trace_store.h"
#include "dmm/workloads/workload.h"

namespace dmm::trace {
namespace {

using core::AllocTrace;

AllocTrace drr_trace() {
  return workloads::record_trace(workloads::case_study("drr"), 7);
}

TEST(TraceSample, DeterministicForFixedSeed) {
  const AllocTrace t = drr_trace();
  const SampleResult a = sample_trace(t, 2000, 42);
  const SampleResult b = sample_trace(t, 2000, 42);
  EXPECT_EQ(a.trace.fingerprint(), b.trace.fingerprint());
  EXPECT_EQ(a.sampled_objects, b.sampled_objects);
  const SampleResult c = sample_trace(t, 2000, 43);
  EXPECT_NE(a.trace.fingerprint(), c.trace.fingerprint());
}

TEST(TraceSample, SampledTraceIsValid) {
  const AllocTrace t = drr_trace();
  for (const std::uint64_t budget : {200ull, 2000ull, 20000ull}) {
    const SampleResult r = sample_trace(t, budget, 1);
    std::string why;
    EXPECT_TRUE(r.trace.validate(&why)) << "budget " << budget << ": " << why;
    EXPECT_GT(r.trace.size(), 0u) << budget;
  }
}

TEST(TraceSample, RespectsBudgetUpToStratumFloors) {
  const AllocTrace t = drr_trace();
  const std::uint64_t budget = 4000;
  const SampleResult r = sample_trace(t, budget, 1);
  // Floors can push past the nominal budget; they are bounded by
  // min_per_stratum x strata.
  const std::uint64_t slack = 64 * r.strata.size() * 2;
  EXPECT_LT(r.trace.size(), budget + slack);
  EXPECT_LT(r.trace.size(), t.size());
  for (const StratumReport& s : r.strata) {
    EXPECT_GT(s.rate, 0.0);
    EXPECT_LE(s.rate, 1.0);
    EXPECT_LE(s.sampled, s.objects);
  }
}

TEST(TraceSample, ZeroBudgetKeepsEverythingExactly) {
  const AllocTrace t = drr_trace();
  const SampleResult r = sample_trace(t, 0, 1);
  EXPECT_EQ(r.trace.size(), t.size());
  EXPECT_EQ(r.sampled_objects, t.stats().allocs);
  EXPECT_EQ(r.trace.stats().peak_live_bytes, t.stats().peak_live_bytes);
}

TEST(TraceSample, RareStrataStayRepresented) {
  // 20000 small objects and three huge ones that dominate the peak: a
  // uniform 5% sample would likely drop all three; the stratum floor
  // keeps every one.
  AllocTrace t;
  std::uint32_t id = 0;
  for (int i = 0; i < 10000; ++i) {
    t.record_alloc(id, 64, 0);
    t.record_free(id, 0);
    ++id;
  }
  for (int i = 0; i < 3; ++i) t.record_alloc(id + i, 1u << 20, 1);
  for (int i = 0; i < 3; ++i) t.record_free(id + i, 1);
  for (int i = 0; i < 10000; ++i) {
    t.record_alloc(id + 3 + i, 64, 1);
    t.record_free(id + 3 + i, 1);
  }
  const SampleResult r = sample_trace(t, 2000, 9);
  std::uint64_t huge_sampled = 0;
  for (const StratumReport& s : r.strata) {
    if (s.objects == 3) {
      EXPECT_DOUBLE_EQ(s.rate, 1.0);
      huge_sampled = s.sampled;
    }
  }
  EXPECT_EQ(huge_sampled, 3u);
}

TEST(TraceSample, WorksIdenticallyOnMappedSource) {
  const AllocTrace t = drr_trace();
  const std::string path = ::testing::TempDir() + "dmm_sample_src.dmmt";
  std::string why;
  ASSERT_TRUE(write_trace_file(t, path, {}, &why)) << why;
  const auto m = MappedTrace::open(path, &why);
  ASSERT_NE(m, nullptr) << why;

  const SampleResult a = sample_trace(t, 3000, 5);
  const SampleResult b = sample_trace(*m, 3000, 5);
  EXPECT_EQ(a.trace.fingerprint(), b.trace.fingerprint());
  EXPECT_EQ(a.sampled_objects, b.sampled_objects);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dmm::trace
