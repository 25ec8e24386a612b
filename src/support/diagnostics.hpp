// Process-wide diagnostic counters, kept in per-thread shards.
//
// Tests use these to assert *quantitative* properties that black-box
// functional tests cannot see: that retired nodes are eventually freed, that
// the cancelled-node cleaning strategy keeps garbage bounded under offer
// storms, that the spin-then-park policy actually parks (or doesn't). The
// counters are a measurement aid, not a synchronization mechanism.
//
// Measuring must not perturb what is measured, so a bump touches only the
// calling thread's shard: one cache-line-aligned block of counters with a
// single writer, its owner, which adds with a relaxed load + store and never
// an atomic read-modify-write. Readers (read(), snapshot::take()) sum the
// live shards plus an accumulator:
//
//  * When a thread exits, its shard's counts are folded into the
//    accumulator and the zeroed shard goes back to a free list for the next
//    new thread, so thread churn cannot grow memory: the shard count is
//    bounded by the peak number of threads that bumped at once.
//  * reset_all() does not write any shard (the owners stay the only
//    writers); it records the current totals as a baseline that later reads
//    subtract.
//
// A read is exact for every thread that is quiescent and ordered before the
// reader (joined, or synchronized with through some release/acquire pair);
// counts of threads still bumping are read as of some recent moment.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "support/annotations.hpp"
#include "support/config.hpp"

namespace ssq::diag {

enum class id : unsigned {
  node_alloc,   // dual-structure nodes constructed
  node_free,    // dual-structure nodes actually deallocated
  node_retire,  // nodes handed to a reclamation domain
  box_alloc,    // item boxes from item_codec
  box_free,
  hp_scan,      // hazard-pointer domain scans
  epoch_flush,  // epoch domain limbo-list flushes
  park,         // threads that actually blocked in the kernel
  unpark,       // futex wakes issued
  spin_retry,   // spin-loop iterations before a park
  clean_call,   // transfer_queue/stack cancelled-node cleaning passes
  clean_unlink, // cancelled nodes successfully unlinked
  cas_fail,     // lost head/tail/item/cell-state CASes (contention indicator)
  pool_recycle, // node_pool allocations served from magazine/ring/orphans
  pool_fresh,   // node_pool allocations that carved a fresh chunk
  seg_alloc,    // segment_queue: 64-cell segments allocated
  seg_retire,   // segment_queue: whole segments handed to the reclaimer
  cell_poison,  // segment_queue: cells killed by cancellation/now-miss
  count_        // sentinel
};

inline constexpr unsigned id_count = static_cast<unsigned>(id::count_);

namespace detail {

// One thread's counters. Written only by the owning thread; read by any.
struct alignas(cacheline_size) shard {
  std::atomic<std::uint64_t> v[id_count] = {};
};

// The calling thread's shard, or null before its first bump and after its
// thread-exit fold.
inline constinit thread_local shard *tl_shard = nullptr;

// First bump of a thread (attaches a shard), or a bump from a thread-exit
// destructor that runs after the shard was folded (adds to the accumulator).
void bump_slow(id which, std::uint64_t n) noexcept;

} // namespace detail

inline void bump(id which, std::uint64_t n = 1) noexcept {
  detail::shard *s = detail::tl_shard;
  if (s == nullptr) [[unlikely]] {
    detail::bump_slow(which, n);
    return;
  }
  std::atomic<std::uint64_t> &c = s->v[static_cast<unsigned>(which)];
  SSQ_MO_JUSTIFIED("relaxed: single-writer shard; the owner re-reads its "
                   "own last store, readers only sum, never order on it");
  c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

// Sum over all threads, past and present, since the last reset_all().
std::uint64_t read(id which) noexcept;

// Make every counter read 0 from here on (tests call this in SetUp).
void reset_all() noexcept;

// Shards currently allocated, live or free (tests: thread churn must not
// grow this).
std::size_t shard_count() noexcept;

// A point-in-time copy of all counters, with subtraction for deltas.
struct snapshot {
  std::uint64_t v[id_count]{};

  static snapshot take() noexcept;
  std::uint64_t operator[](id which) const noexcept {
    return v[static_cast<unsigned>(which)];
  }
  snapshot operator-(const snapshot &rhs) const noexcept;
};

} // namespace ssq::diag
