#include "memory/epoch.hpp"

#include <mutex>
#include <unordered_map>

#include "support/annotations.hpp"
#include "support/config.hpp"
#include "support/diagnostics.hpp"

namespace ssq::mem {

namespace {

struct e_registry {
  std::mutex mu;
  std::unordered_map<const epoch_domain *, std::uint64_t> live;
};

e_registry &ereg() {
  static e_registry r;
  return r;
}

std::uint64_t next_edomain_uid() {
  static std::atomic<std::uint64_t> seq{1};
  SSQ_MO_JUSTIFIED("relaxed: uid counter, only uniqueness matters");
  return seq.fetch_add(1, std::memory_order_relaxed);
}

constexpr std::uint64_t pin_bit = 1;

// How many retires between collection attempts.
constexpr std::uint64_t collect_period = 64;

} // namespace

struct epoch_domain::orphan_list {
  std::mutex mu;
  std::vector<retired_node> nodes; // already >= 3 epochs stale when adopted
  std::atomic<std::size_t> count{0}; // nodes.size(), stored under mu

  // Caller holds mu.
  void recount() noexcept {
    SSQ_MO_JUSTIFIED("relaxed: monitoring count, written under mu, read "
                     "racily by approx_retired()");
    count.store(nodes.size(), std::memory_order_relaxed);
  }
};

namespace {
// Owner: publish the record's limbo size for approx_retired().
void publish_pending(epoch_domain::record *rec) noexcept {
  SSQ_MO_JUSTIFIED("relaxed: single-writer monitoring count; readers sum "
                   "it approximately and never order on it");
  rec->pending.store(rec->limbo[0].size() + rec->limbo[1].size() +
                         rec->limbo[2].size(),
                     std::memory_order_relaxed);
}
} // namespace

struct epoch_domain::tl_cache {
  struct entry {
    epoch_domain *dom;
    std::uint64_t uid;
    record *rec;
  };
  std::vector<entry> entries;

  record *find(epoch_domain *d) noexcept {
    for (auto it = entries.begin(); it != entries.end(); ++it) {
      if (it->dom == d) {
        if (it->uid == d->uid()) return it->rec;
        entries.erase(it); // address reuse by a newer domain
        return nullptr;
      }
    }
    return nullptr;
  }

  ~tl_cache() {
    std::lock_guard<std::mutex> lk(ereg().mu);
    for (auto &e : entries) {
      auto it = ereg().live.find(e.dom);
      if (it != ereg().live.end() && it->second == e.uid)
        e.dom->release_record(e.rec);
    }
  }
};

namespace {
epoch_domain::tl_cache &ecache() {
  thread_local epoch_domain::tl_cache c;
  return c;
}
} // namespace

epoch_domain::epoch_domain()
    : uid_(next_edomain_uid()), orphans_(new orphan_list) {
  SSQ_MO_JUSTIFIED("relaxed: construction-time store, no sharing yet");
  epoch_.value.store(2, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(ereg().mu);
  ereg().live.emplace(this, uid_);
}

epoch_domain::~epoch_domain() {
  {
    std::lock_guard<std::mutex> lk(ereg().mu);
    ereg().live.erase(this);
  }
  {
    std::lock_guard<std::mutex> lk(orphans_->mu);
    for (auto &rn : orphans_->nodes) rn.deleter(rn.ptr);
  }
  record *r = head_.load(std::memory_order_acquire);
  while (r) {
    record *next = r->next;
    for (auto &bucket : r->limbo)
      for (auto &rn : bucket) rn.deleter(rn.ptr);
    delete r;
    r = next;
  }
  delete orphans_;
}

epoch_domain &epoch_domain::global() noexcept {
  static epoch_domain d;
  return d;
}

epoch_domain::record *epoch_domain::acquire_record() {
  tl_cache &c = ecache();
  if (record *r = c.find(this)) return r;
  SSQ_MO_JUSTIFIED("acquire: list traversal; a record's next is immutable "
                   "once the publishing acq_rel CAS links it");
  for (record *r = head_.load(std::memory_order_acquire); r; r = r->next) {
    bool expected = false;
    SSQ_MO_JUSTIFIED("relaxed pre-screen; the acq_rel CAS in the same "
                     "condition decides and synchronizes with "
                     "release_record");
    if (!r->active.load(std::memory_order_relaxed) &&
        r->active.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel)) {
      c.entries.push_back({this, uid_, r});
      return r;
    }
  }
  auto *r = new record;
  SSQ_MO_JUSTIFIED("relaxed: record is thread-private until the head CAS "
                   "below publishes it");
  r->active.store(true, std::memory_order_relaxed);
  SSQ_MO_JUSTIFIED("acquire: first guess for the publishing CAS loop");
  record *h = head_.load(std::memory_order_acquire);
  SSQ_MO_JUSTIFIED("acq_rel: the CAS publishes the initialized record; "
                   "acquire on failure refreshes the head snapshot");
  do {
    r->next = h;
  } while (!head_.compare_exchange_weak(h, r, std::memory_order_acq_rel,
                                        std::memory_order_acquire));
  c.entries.push_back({this, uid_, r});
  return r;
}

void epoch_domain::release_record(record *rec) {
  // Leftover limbo entries are at least 0..2 epochs old; future adopters may
  // observe them before three epochs pass, so park them as orphans and defer
  // to a drain/destructor (orphans are only freed when adopted by collect()
  // after a full advance cycle, see below).
  std::vector<retired_node> leftovers;
  for (auto &bucket : rec->limbo) {
    leftovers.insert(leftovers.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  if (!leftovers.empty()) {
    std::lock_guard<std::mutex> lk(orphans_->mu);
    orphans_->nodes.insert(orphans_->nodes.end(), leftovers.begin(),
                           leftovers.end());
    orphans_->recount();
  }
  publish_pending(rec);
  SSQ_MO_JUSTIFIED("release: unpin is visible before the active flag drops");
  rec->state.store(0, std::memory_order_release);
  SSQ_MO_JUSTIFIED("release: publishes the drained limbo lists to the "
                   "adopter's acq_rel CAS");
  rec->active.store(false, std::memory_order_release);
}

epoch_domain::guard::guard(epoch_domain &d) noexcept
    : dom_(d), rec_(d.acquire_record()) {
  SSQ_MO_JUSTIFIED("relaxed: owner-thread read of its own pin state");
  SSQ_ASSERT((rec_->state.load(std::memory_order_relaxed) & pin_bit) == 0,
             "epoch guards must not nest within one thread");
  SSQ_MO_JUSTIFIED("acquire: first guess; the seq_cst publish and re-read "
                   "below anchor the pin");
  std::uint64_t e = dom_.epoch_.value.load(std::memory_order_acquire);
  rec_->state.store((e << 1) | pin_bit, std::memory_order_seq_cst);
  // Re-read: if the epoch moved between load and publish we would otherwise
  // pin a stale epoch and block advancement longer than necessary (still
  // correct, just slower); one refresh keeps the lag at most one epoch.
  std::uint64_t e2 = dom_.epoch_.value.load(std::memory_order_seq_cst);
  if (e2 != e) rec_->state.store((e2 << 1) | pin_bit, std::memory_order_seq_cst);
}

epoch_domain::guard::~guard() noexcept {
  rec_->state.store(0, std::memory_order_release);
}

void epoch_domain::retire(void *ptr, void (*deleter)(void *)) {
  record *rec = acquire_record();
  SSQ_MO_JUSTIFIED("relaxed: owner-thread read of its own pin state");
  SSQ_ASSERT(rec->state.load(std::memory_order_relaxed) & pin_bit,
             "epoch_domain::retire called while not pinned");
  SSQ_MO_JUSTIFIED("acquire: bucket tagging only; the caller is pinned, so "
                   "the epoch can advance at most once past this value");
  std::uint64_t e = epoch_.value.load(std::memory_order_acquire);
  auto b = static_cast<std::size_t>(e % 3);
  if (rec->limbo_epoch[b] != e) {
    // Bucket contents are from epoch e-3 or older: at least two full
    // advances have passed, safe to free.
    for (auto &rn : rec->limbo[b]) rn.deleter(rn.ptr);
    rec->limbo[b].clear();
    rec->limbo_epoch[b] = e;
  }
  rec->limbo[b].push_back({ptr, deleter});
  publish_pending(rec);
  diag::bump(diag::id::node_retire);
  if (++rec->op_count % collect_period == 0) collect();
}

bool epoch_domain::try_advance() {
  std::uint64_t e = epoch_.value.load(std::memory_order_seq_cst);
  SSQ_MO_JUSTIFIED("acquire: list traversal; the seq_cst state loads "
                   "inside are the ordering anchor of the advance check");
  for (record *r = head_.load(std::memory_order_acquire); r; r = r->next) {
    std::uint64_t s = r->state.load(std::memory_order_seq_cst);
    if ((s & pin_bit) && (s >> 1) != e) return false; // straggler
  }
  return epoch_.value.compare_exchange_strong(e, e + 1,
                                              std::memory_order_seq_cst);
}

std::size_t epoch_domain::flush(record *rec) {
  SSQ_MO_JUSTIFIED("acquire: synchronizes with the advance CAS; a stale "
                   "epoch only delays freeing, never frees early");
  std::uint64_t e = epoch_.value.load(std::memory_order_acquire);
  std::size_t freed = 0;
  for (std::size_t b = 0; b < 3; ++b) {
    if (!rec->limbo[b].empty() && rec->limbo_epoch[b] + 2 <= e) {
      for (auto &rn : rec->limbo[b]) rn.deleter(rn.ptr);
      freed += rec->limbo[b].size();
      rec->limbo[b].clear();
    }
  }
  if (freed) {
    publish_pending(rec);
    diag::bump(diag::id::epoch_flush);
  }
  return freed;
}

std::size_t epoch_domain::collect() {
  record *rec = acquire_record();
  try_advance();
  std::size_t freed = flush(rec);

  // Adopt orphans only when we can prove a full grace period: advance twice
  // more; if both succeed, anything orphaned before the first advance is
  // unreachable.
  {
    std::vector<retired_node> adopted;
    {
      std::lock_guard<std::mutex> lk(orphans_->mu);
      adopted.swap(orphans_->nodes);
      orphans_->recount();
    }
    if (!adopted.empty()) {
      if (try_advance() && try_advance()) {
        for (auto &rn : adopted) rn.deleter(rn.ptr);
        freed += adopted.size();
      } else {
        std::lock_guard<std::mutex> lk(orphans_->mu);
        orphans_->nodes.insert(orphans_->nodes.end(), adopted.begin(),
                               adopted.end());
        orphans_->recount();
      }
    }
  }
  return freed;
}

std::size_t epoch_domain::approx_retired() const noexcept {
  SSQ_MO_JUSTIFIED("relaxed: monitoring count, documented approximate");
  std::size_t n = orphans_->count.load(std::memory_order_relaxed);
  SSQ_MO_JUSTIFIED("acquire: list traversal; a record's next is immutable "
                   "once the publishing acq_rel CAS links it");
  for (record *r = head_.load(std::memory_order_acquire); r; r = r->next) {
    SSQ_MO_JUSTIFIED("relaxed: monitoring count, documented approximate");
    n += r->pending.load(std::memory_order_relaxed);
  }
  return n;
}

std::size_t epoch_domain::drain() {
  std::size_t total = 0;
  for (int i = 0; i < 8; ++i) {
    std::size_t freed = collect();
    total += freed;
    if (freed == 0 && i >= 3) break;
  }
  return total;
}

} // namespace ssq::mem
