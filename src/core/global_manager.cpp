#include "dmm/core/global_manager.h"

#include <cstdio>
#include <cstdlib>

namespace dmm::core {

namespace {
[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "dmm::core::GlobalManager fatal: %s\n", what);
  std::abort();
}
}  // namespace

GlobalManager::GlobalManager(sysmem::SystemArena& arena,
                             std::vector<alloc::DmmConfig> phase_configs,
                             std::string name, bool strict_accounting)
    : Allocator(arena), name_(std::move(name)) {
  if (phase_configs.empty()) die("at least one phase config required");
  atomics_.reserve(phase_configs.size());
  for (std::size_t i = 0; i < phase_configs.size(); ++i) {
    atomics_.push_back(std::make_unique<alloc::CustomManager>(
        arena, phase_configs[i], name_ + "/phase" + std::to_string(i),
        strict_accounting));
  }
}

void GlobalManager::set_phase(std::uint16_t phase) {
  phase_ = phase < atomics_.size() ? phase
                                   : static_cast<std::uint16_t>(
                                         atomics_.size() - 1);
}

alloc::CustomManager& GlobalManager::atomic_owning(const void* ptr) const {
  const void* owner = arena_->grant_of(ptr).owner;
  for (const auto& atomic : atomics_) {
    if (owner == atomic->owner_tag()) return *atomic;
  }
  die("pointer not owned by any atomic manager");
}

void* GlobalManager::allocate(std::size_t bytes) {
  alloc::CustomManager& atomic = *atomics_[phase_];
  const std::size_t before = atomic.stats().live_bytes;
  void* p = atomic.allocate(bytes);
  if (p != nullptr) {
    note_alloc(atomic.stats().live_bytes - before);
  } else {
    ++stats_.failed_allocs;
  }
  return p;
}

void GlobalManager::deallocate(void* ptr) {
  if (ptr == nullptr) return;
  alloc::CustomManager& atomic = atomic_owning(ptr);
  const std::size_t before = atomic.stats().live_bytes;
  atomic.deallocate(ptr);
  note_free(before - atomic.stats().live_bytes);
}

std::size_t GlobalManager::usable_size(const void* ptr) const {
  return atomic_owning(ptr).usable_size(ptr);
}

std::uint64_t GlobalManager::work_steps() const {
  std::uint64_t steps = 0;
  for (const auto& a : atomics_) steps += a->work_steps();
  return steps;
}

}  // namespace dmm::core
