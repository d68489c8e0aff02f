// Differential test of the policy core's shape instantiations: every
// vector replays through CustomManager (which runs the FixedShape its A1,
// A3 and A4 leaves name, if any) and through the DynamicShape
// instantiation, which reads those leaves at run time.  The two must make
// exactly the same decisions: the same footprint after every event, the
// same payload offset for every allocation, and the same counters.
//
// Vectors: the structured valid sample, variants pinned to each fixed
// shape, and every vector the greedy walks of the three case studies
// replay (recorded live from the walk's engine, so the set follows the
// walk).

#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "dmm/alloc/config.h"
#include "dmm/alloc/config_rules.h"
#include "dmm/alloc/custom_manager.h"
#include "dmm/core/eval_engine.h"
#include "dmm/core/order.h"
#include "dmm/core/search.h"
#include "dmm/core/simulator.h"
#include "dmm/sysmem/system_arena.h"
#include "dmm/workloads/workload.h"
#include "valid_configs.h"

namespace dmm::alloc {
namespace {

constexpr std::size_t kCutEvents = 20000;

/// The same vector on the DynamicShape instantiation, whatever its shape.
class DynamicShapeCore : public CustomManager {
 public:
  DynamicShapeCore(sysmem::SystemArena& arena, const DmmConfig& cfg)
      : CustomManager(arena, cfg, "dynamic", /*strict_accounting=*/false,
                      DynamicShapeOnly{}) {}
};

/// Forwards to a manager and records every returned payload as an offset
/// from the first grant (each arena has its own slab).
class OffsetRecorder : public Allocator {
 public:
  explicit OffsetRecorder(CustomManager& inner)
      : Allocator(inner.arena()), inner_(inner) {}

  void* allocate(std::size_t bytes) override {
    void* p = inner_.allocate(bytes);
    if (p == nullptr) {
      offsets.push_back(-1);
      return p;
    }
    const auto* b = static_cast<const std::byte*>(p);
    if (base_ == nullptr) base_ = inner_.arena().grant_of(b).base;
    offsets.push_back(b - base_);
    return p;
  }
  void deallocate(void* ptr) override { inner_.deallocate(ptr); }
  [[nodiscard]] std::size_t usable_size(const void* ptr) const override {
    return inner_.usable_size(ptr);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  std::vector<std::ptrdiff_t> offsets;

 private:
  CustomManager& inner_;
  const std::byte* base_ = nullptr;
};

/// Everything one replay is compared on.
struct Replay {
  ShapeId shape = ShapeId::kDynamic;
  core::SimResult sim;
  std::vector<std::size_t> footprints;  ///< after every event
  std::vector<std::ptrdiff_t> offsets;
  std::uint64_t work_steps = 0;
  AllocatorStats stats;
  std::uint64_t arena_requests = 0;
  std::uint64_t arena_releases = 0;
};

template <class Core>
Replay replay(const core::AllocTrace& trace, const DmmConfig& cfg) {
  Replay r;
  sysmem::SystemArena arena;
  {
    Core core(arena, cfg);
    OffsetRecorder rec(core);
    std::vector<core::TimelinePoint> timeline;
    r.sim = core::simulate(trace, rec, &timeline, 1);
    for (const core::TimelinePoint& p : timeline) {
      r.footprints.push_back(p.footprint);
    }
    r.shape = core.shape();
    r.offsets = std::move(rec.offsets);
    r.work_steps = core.work_steps();
    r.stats = core.stats();
  }
  r.arena_requests = arena.stats().request_count;
  r.arena_releases = arena.stats().release_count;
  return r;
}

class Specialised : public CustomManager {
 public:
  Specialised(sysmem::SystemArena& arena, const DmmConfig& cfg)
      : CustomManager(arena, cfg, "specialised",
                      /*strict_accounting=*/false) {}
};

/// Records the vector of every job the walk actually replays.
class RecordingEngine : public core::EvalEngine {
 public:
  RecordingEngine() : core::EvalEngine(1) {}
  std::vector<DmmConfig> replayed;

 protected:
  core::EvalOutcome compute(const core::TraceSource& trace,
                            const core::EvalJob& job) override {
    replayed.push_back(job.cfg);
    return core::EvalEngine::compute(trace, job);
  }
};

const std::vector<std::string>& case_studies() {
  static const std::vector<std::string> kNames = {"drr", "recon3d",
                                                  "render3d"};
  return kNames;
}

const core::AllocTrace& cut(const std::string& name) {
  static std::vector<core::AllocTrace>* const kCuts = [] {
    auto* cuts = new std::vector<core::AllocTrace>();
    for (const std::string& n : case_studies()) {
      cuts->push_back(workloads::record_trace(workloads::case_study(n), 1));
      cuts->back().truncate(kCutEvents);
    }
    return cuts;
  }();
  for (std::size_t i = 0; i < case_studies().size(); ++i) {
    if (case_studies()[i] == name) return (*kCuts)[i];
  }
  ADD_FAILURE() << "unknown case study " << name;
  return kCuts->front();
}

/// The valid sample, plus the paper's DRR vector (which runs on
/// DllBoundaryShape) under each coalescing policy.
std::vector<DmmConfig> sample_with_shape_variants() {
  std::vector<DmmConfig> out = sample_valid_configs();
  for (CoalesceWhen cw : {CoalesceWhen::kNever, CoalesceWhen::kAlways,
                          CoalesceWhen::kDeferred}) {
    DmmConfig c = drr_paper_config();
    c.coalesce_when = cw;
    if (cw == CoalesceWhen::kNever) {
      c.flexible = FlexibleBlockSize::kSplitOnly;
    }
    if (is_valid(c)) out.push_back(c);
  }
  return out;
}

void expect_same(const Replay& got, const Replay& want,
                 const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.sim.events, want.sim.events);
  EXPECT_EQ(got.sim.peak_footprint, want.sim.peak_footprint);
  EXPECT_EQ(got.sim.final_footprint, want.sim.final_footprint);
  EXPECT_EQ(got.sim.avg_footprint, want.sim.avg_footprint);
  EXPECT_EQ(got.sim.failed_allocs, want.sim.failed_allocs);
  EXPECT_TRUE(got.footprints == want.footprints)
      << "per-event footprint timelines differ";
  EXPECT_TRUE(got.offsets == want.offsets) << "payload offsets differ";
  EXPECT_EQ(got.work_steps, want.work_steps);
  EXPECT_EQ(got.stats.splits, want.stats.splits);
  EXPECT_EQ(got.stats.coalesces, want.stats.coalesces);
  EXPECT_EQ(got.stats.chunks_grown, want.stats.chunks_grown);
  EXPECT_EQ(got.stats.chunks_released, want.stats.chunks_released);
  EXPECT_EQ(got.stats.failed_allocs, want.stats.failed_allocs);
  EXPECT_EQ(got.arena_requests, want.arena_requests);
  EXPECT_EQ(got.arena_releases, want.arena_releases);
}

/// Replays every vector on every case-study cut through both
/// instantiations; returns the shapes the specialised side ran on.
std::set<ShapeId> check_all(const std::vector<DmmConfig>& vectors) {
  std::set<ShapeId> shapes;
  for (const std::string& name : case_studies()) {
    const core::AllocTrace& trace = cut(name);
    for (const DmmConfig& cfg : vectors) {
      const Replay want = replay<DynamicShapeCore>(trace, cfg);
      const Replay got = replay<Specialised>(trace, cfg);
      EXPECT_EQ(want.shape, ShapeId::kDynamic);
      EXPECT_EQ(got.shape, shape_id(cfg));
      shapes.insert(got.shape);
      expect_same(got, want, name + " " + signature(cfg));
      if (::testing::Test::HasFailure()) return shapes;
    }
  }
  return shapes;
}

TEST(PolicyCoreShapes, ShapeIsAPureFunctionOfTheCanonicalVector) {
  for (const DmmConfig& cfg : sample_with_shape_variants()) {
    EXPECT_EQ(shape_id(cfg), shape_id(canonical(cfg))) << signature(cfg);
  }
  EXPECT_EQ(shape_id(drr_paper_config()), ShapeId::kDllBoundary);
  EXPECT_EQ(shape_id(fig4_wrong_order_config()), ShapeId::kDynamic);
}

TEST(PolicyCoreShapes, ValidSampleMatchesTheDynamicShape) {
  const std::set<ShapeId> shapes = check_all(sample_with_shape_variants());
  // Every instantiation, the dynamic one included, was compared.
  EXPECT_EQ(shapes.size(), 2u);
}

TEST(PolicyCoreShapes, CaseStudyWalkVectorsMatchTheDynamicShape) {
  std::vector<DmmConfig> walked;
  std::unordered_set<DmmConfig, DmmConfigHash> seen;
  for (const std::string& name : case_studies()) {
    RecordingEngine engine;
    core::BeamSearch greedy(1, core::paper_order());
    const core::ExplorationResult result =
        core::run_search(cut(name), greedy, {}, &engine);
    EXPECT_TRUE(result.feasible) << name;
    EXPECT_FALSE(engine.replayed.empty()) << name;
    for (const DmmConfig& cfg : engine.replayed) {
      if (seen.insert(cfg).second) walked.push_back(cfg);
    }
  }
  const std::set<ShapeId> shapes = check_all(walked);
  EXPECT_TRUE(shapes.count(ShapeId::kDllBoundary) == 1)
      << "the walks' winners run on the dll/header+footer instantiation";
}

}  // namespace
}  // namespace dmm::alloc
