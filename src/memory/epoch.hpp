// Epoch-based reclamation (Fraser-style, 3 epochs).
//
// Used by the *non-blocking* substrates (Treiber stack, M&S queue), whose
// operations are short and never block while pinned. It is deliberately NOT
// used by the synchronous dual structures: a waiter parked in the kernel
// would pin its epoch indefinitely and stall reclamation for the entire
// process, whereas a hazard pointer held across a park pins only the O(1)
// nodes it names. bench/ablation_reclaim quantifies the cost difference on
// the M&S substrate, where both schemes are applicable.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/annotations.hpp"
#include "support/cacheline.hpp"

namespace ssq::mem {

class epoch_domain {
 public:
  epoch_domain();
  // Precondition: no concurrent users. Frees all limbo nodes.
  ~epoch_domain();
  epoch_domain(const epoch_domain &) = delete;
  epoch_domain &operator=(const epoch_domain &) = delete;

  static epoch_domain &global() noexcept;

  struct retired_node {
    void *ptr;
    void (*deleter)(void *);
  };

  struct record {
    // Local epoch; the low bit doubles as the "pinned" flag.
    std::atomic<std::uint64_t> state{0};
    std::atomic<bool> active{false};
    record *next = nullptr;
    // Owner-only: three limbo generations, each tagged with the epoch its
    // contents were retired in.
    std::vector<retired_node> limbo[3];
    std::uint64_t limbo_epoch[3] = {0, 0, 0};
    std::uint64_t op_count = 0;
    // Total limbo size, written only by the owner, for approx_retired().
    std::atomic<std::size_t> pending{0};
  };

  // RAII critical-section pin.
  class guard {
   public:
    explicit guard(epoch_domain &d = global()) noexcept;
    ~guard() noexcept;
    guard(const guard &) = delete;
    guard &operator=(const guard &) = delete;

   private:
    epoch_domain &dom_;
    record *rec_;
  };

  // Must be called while pinned by the calling thread.
  void retire(void *ptr, void (*deleter)(void *));

  template <typename T>
  void retire(T *p) {
    retire(const_cast<void *>(static_cast<const void *>(p)),
           [](void *q) { delete static_cast<T *>(q); });
  }

  // Attempt to advance the global epoch and flush eligible limbo lists for
  // the calling thread. Returns nodes freed.
  std::size_t collect();

  // Collect until quiescent (tests; requires no thread currently pinned).
  std::size_t drain();

  std::uint64_t global_epoch() const noexcept {
    SSQ_MO_JUSTIFIED("acquire: test/monitoring observer; pairs with the "
                     "seq_cst advance CAS, staleness benign");
    return epoch_.value.load(std::memory_order_acquire);
  }

  // Approximate count of not-yet-freed retirees: every record's
  // owner-written limbo size plus the orphans (see hazard_domain).
  std::size_t approx_retired() const noexcept;

  // Unique per construction (see hazard_domain::uid).
  std::uint64_t uid() const noexcept { return uid_; }

  // Per-thread record cache; defined in epoch.cpp, public so the
  // thread_local instance can name it.
  struct tl_cache;

 private:
  friend struct tl_cache;
  record *acquire_record();
  void release_record(record *rec);
  bool try_advance();
  std::size_t flush(record *rec);

  std::uint64_t uid_ = 0;
  padded_atomic<std::uint64_t> epoch_; // global epoch, starts at 2
  std::atomic<record *> head_{nullptr};
  struct orphan_list;
  orphan_list *orphans_;
};

} // namespace ssq::mem
