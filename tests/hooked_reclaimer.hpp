// Test-only reclaimer for deterministic interleavings in the linked cores.
//
// A pooled_hp_reclaimer whose slot::protect runs a one-shot callback right
// after the protected read, on the thread that armed it only. A core's
// protects sit at its snapshot points (xfer's head snapshot, clean()'s head
// snapshot, ...), so a test can change the structure between a snapshot and
// the CAS that depends on it -- or stall one thread there -- without a
// schedule-fuzz build. The callback may re-arm itself to wait for a later
// protect.
#pragma once

#include <atomic>
#include <functional>
#include <utility>

#include "memory/reclaim.hpp"

namespace ssq::test {

inline thread_local std::function<void()> tl_after_protect;

struct hooked_reclaimer : mem::pooled_hp_reclaimer {
  class slot {
   public:
    explicit slot(hooked_reclaimer &r) noexcept : inner_(r) {}
    template <typename T>
    T *protect(const std::atomic<T *> &src) {
      T *p = inner_.protect(src);
      if (tl_after_protect) std::exchange(tl_after_protect, nullptr)();
      return p;
    }
    template <typename T>
    void set(T *p) noexcept {
      inner_.set(p);
    }
    void clear() noexcept { inner_.clear(); }

   private:
    mem::pooled_hp_reclaimer::slot inner_;
  };
};

} // namespace ssq::test
