#include "support/diagnostics.hpp"

#include <mutex>
#include <vector>

namespace ssq::diag {

namespace {

// Every shard ever made, the free ones among them, and the counts of
// threads that have exited. All guarded by `mu`; the hot path never takes
// it (a thread locks it at its first bump, at exit, and readers on read).
struct registry {
  std::mutex mu;
  std::vector<detail::shard *> shards; // live and free
  std::vector<detail::shard *> free_list;
  std::uint64_t folded[id_count] = {};   // exited threads' counts
  std::uint64_t baseline[id_count] = {}; // totals at the last reset_all()

  // Caller holds mu.
  std::uint64_t total(unsigned i) const noexcept {
    std::uint64_t sum = folded[i];
    for (const detail::shard *s : shards) {
      SSQ_MO_JUSTIFIED("relaxed: a counter sum, not an ordering point; "
                       "exact for owners ordered before the reader");
      sum += s->v[i].load(std::memory_order_relaxed);
    }
    return sum;
  }
};

// Never destroyed: threads (and static destructors) may still bump after
// main() returns.
registry &reg() noexcept {
  static registry *r = new registry;
  return *r;
}

// Set once this thread's shard has been folded; later bumps (from other
// thread-exit destructors) go straight to the accumulator.
thread_local bool tl_folded = false;

// Thread-exit hook: fold the owner's counts into the accumulator and
// recycle the shard. Runs on the owning thread, so the zeroing stores keep
// the single-writer rule.
struct shard_owner {
  ~shard_owner() {
    detail::shard *s = detail::tl_shard;
    detail::tl_shard = nullptr;
    tl_folded = true;
    if (s == nullptr) return;
    registry &r = reg();
    std::lock_guard<std::mutex> lk(r.mu);
    for (unsigned i = 0; i < id_count; ++i) {
      SSQ_MO_JUSTIFIED("relaxed: owner-thread read of its own shard");
      r.folded[i] += s->v[i].load(std::memory_order_relaxed);
      SSQ_MO_JUSTIFIED("relaxed: owner zeroes its own shard under mu; the "
                       "next owner acquires it under mu too");
      s->v[i].store(0, std::memory_order_relaxed);
    }
    r.free_list.push_back(s);
  }
};

} // namespace

void detail::bump_slow(id which, std::uint64_t n) noexcept {
  registry &r = reg();
  if (tl_folded) {
    std::lock_guard<std::mutex> lk(r.mu);
    r.folded[static_cast<unsigned>(which)] += n;
    return;
  }
  {
    std::lock_guard<std::mutex> lk(r.mu);
    if (r.free_list.empty()) {
      r.shards.push_back(new shard);
      tl_shard = r.shards.back();
    } else {
      tl_shard = r.free_list.back();
      r.free_list.pop_back();
    }
  }
  // Constructed on this first bump; its destructor runs at thread exit.
  thread_local shard_owner owner;
  (void)owner;
  bump(which, n);
}

std::uint64_t read(id which) noexcept {
  registry &r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  const auto i = static_cast<unsigned>(which);
  return r.total(i) - r.baseline[i];
}

void reset_all() noexcept {
  registry &r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  for (unsigned i = 0; i < id_count; ++i) r.baseline[i] = r.total(i);
}

std::size_t shard_count() noexcept {
  registry &r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  return r.shards.size();
}

snapshot snapshot::take() noexcept {
  registry &r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  snapshot s;
  for (unsigned i = 0; i < id_count; ++i) s.v[i] = r.total(i) - r.baseline[i];
  return s;
}

snapshot snapshot::operator-(const snapshot &rhs) const noexcept {
  snapshot s;
  for (unsigned i = 0; i < id_count; ++i) s.v[i] = v[i] - rhs.v[i];
  return s;
}

} // namespace ssq::diag
