#ifndef DMM_CORE_GLOBAL_MANAGER_H
#define DMM_CORE_GLOBAL_MANAGER_H

#include <memory>
#include <string>
#include <vector>

#include "dmm/alloc/custom_manager.h"

namespace dmm::core {

/// The paper's *global DM manager* (Sec. 3.3): "the inclusion of all these
/// atomic DM managers in one" — one atomic CustomManager per logical
/// application phase, sharing a single arena so the combined footprint is
/// measured exactly like any other manager.
///
/// Allocations route to the atomic manager of the current phase (see
/// set_phase); frees route to whichever atomic manager owns the pointer,
/// since objects may outlive the phase that allocated them.  The owner is
/// read from the shared arena's page map; live bytes follow the atomic
/// managers' accounting.
class GlobalManager : public alloc::Allocator {
 public:
  GlobalManager(sysmem::SystemArena& arena,
                std::vector<alloc::DmmConfig> phase_configs,
                std::string name = "custom-global",
                bool strict_accounting = true);

  [[nodiscard]] void* allocate(std::size_t bytes) override;
  void deallocate(void* ptr) override;
  [[nodiscard]] std::size_t usable_size(const void* ptr) const override;
  [[nodiscard]] std::string name() const override { return name_; }
  void set_phase(std::uint16_t phase) override;

  [[nodiscard]] std::uint16_t phase() const { return phase_; }
  [[nodiscard]] std::size_t atomic_count() const { return atomics_.size(); }
  [[nodiscard]] const alloc::CustomManager& atomic(std::size_t i) const {
    return *atomics_[i];
  }
  [[nodiscard]] std::uint64_t work_steps() const;

 private:
  /// The atomic manager whose arena grant holds @p ptr (aborts if none).
  [[nodiscard]] alloc::CustomManager& atomic_owning(const void* ptr) const;

  std::string name_;
  std::vector<std::unique_ptr<alloc::CustomManager>> atomics_;
  std::uint16_t phase_ = 0;
};

}  // namespace dmm::core

#endif  // DMM_CORE_GLOBAL_MANAGER_H
