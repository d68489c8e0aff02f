#ifndef DMM_RUNTIME_SPIN_PARK_LOCK_H
#define DMM_RUNTIME_SPIN_PARK_LOCK_H

#include <atomic>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace dmm::runtime {

// ---------------------------------------------------------------------------
// A small mutex for short critical sections: spin a bounded number of
// times with a CPU pause, then park on the lock word (C++20 atomic
// wait/notify, a futex on Linux).
//
// The runtime front's core lock is held for a few hundred nanoseconds at
// a time.  A std::mutex that finds it taken sleeps at once, and the
// wake-up of a parked waiter costs more than the critical section it
// waited for, so under four threads the lock convoys.  Spinning first
// catches the common release-within-microseconds case; parking after
// the bound keeps the lock safe when threads outnumber cores (a spinner
// never burns the time slice the holder needs to finish).
//
// State: 0 free, 1 held, 2 held with (possibly) parked waiters — the
// classic three-state futex mutex, so an uncontended unlock is one
// exchange and never a notify.  Meets Lockable, so std::lock_guard works.
// ---------------------------------------------------------------------------

class SpinParkLock {
 public:
  void lock() {
    if (!try_lock()) lock_contended();
  }

  [[nodiscard]] bool try_lock() {
    std::uint32_t expected = kFree;
    return state_.compare_exchange_strong(expected, kHeld,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed);
  }

  void unlock() {
    if (state_.exchange(kFree, std::memory_order_release) == kParked) {
      state_.notify_one();
    }
  }

 private:
  static constexpr std::uint32_t kFree = 0;
  static constexpr std::uint32_t kHeld = 1;
  static constexpr std::uint32_t kParked = 2;
  /// Pause iterations before parking: a few microseconds on current cores,
  /// longer than the front's critical sections, far shorter than a slice.
  static constexpr int kSpinLimit = 128;

  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  void lock_contended() {
    for (int i = 0; i < kSpinLimit; ++i) {
      cpu_relax();
      if (state_.load(std::memory_order_relaxed) == kFree && try_lock()) {
        return;
      }
    }
    // Park.  Taking the lock through this exchange marks it kParked even
    // if no one else waits; the cost is one spare notify at unlock.
    while (state_.exchange(kParked, std::memory_order_acquire) != kFree) {
      state_.wait(kParked, std::memory_order_relaxed);
    }
  }

  std::atomic<std::uint32_t> state_{kFree};
};

}  // namespace dmm::runtime

#endif  // DMM_RUNTIME_SPIN_PARK_LOCK_H
