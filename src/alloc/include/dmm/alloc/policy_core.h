#ifndef DMM_ALLOC_POLICY_CORE_H
#define DMM_ALLOC_POLICY_CORE_H

#include "dmm/alloc/custom_manager.h"

namespace dmm::alloc {

// ---------------------------------------------------------------------------
// The policy-core / runtime-front split.
//
// Everything the methodology designs lives in the *policy core*: pool
// layout and routing (B trees), fit and ordering decisions (C trees),
// split/coalesce mechanics (A5, D, E trees).  The core is deliberately
// single-threaded and bit-deterministic — the properties replay scoring
// (core/simulator.h) and the EvalEngine candidate cache depend on.
// CustomManager IS that core; this alias names the role so call sites can
// say which contract they rely on:
//
//   * design-side users (simulator, eval engine, methodology) build a
//     PolicyCore per candidate and replay traces through it — they need
//     determinism and must never see locks or caches;
//   * the deployable front (runtime/designed_allocator.h) owns exactly one
//     PolicyCore behind a lock and layers per-thread caches, OOM policy
//     and telemetry on top — concerns the design side must never score.
//
// Keeping the split at the type level (one class, two named roles) rather
// than forking the allocator is what guarantees the deployed layout is
// byte-for-byte the layout the offline search evaluated.
//
// Inside the core, Pool and FreeIndex are one template over a block shape
// (shape.h): the A1, A3 and A4 leaves.  A FixedShape fixes them at
// compile time, so allocate() and deallocate() run one inlined path per
// shape; DynamicShape reads them at run time and serves every triple no
// FixedShape names.  The constructor picks the instantiation with
// shape_id(), a pure function of the vector, and hoists every other leaf
// once (PolicyLeaves) — so both roles above run the same instantiation
// for the same vector, and no option selects another.
// ---------------------------------------------------------------------------

using PolicyCore = CustomManager;

}  // namespace dmm::alloc

#endif  // DMM_ALLOC_POLICY_CORE_H
