// The synchronous dual stack -- the paper's UNFAIR algorithm (§3.3, "The
// synchronous dual stack"), extended with timeout and poll/offer modes, with
// the waiter matched in place instead of annihilated by a fulfilling node.
//
// Structure: a singly linked list with a head pointer, derived from the
// Treiber stack. It holds either data or reservations, never both: a node is
// pushed only onto an empty stack or a live node of its own mode, and node
// modes never change. A complementary arrival matches the top waiter in
// place -- one CAS on the waiter's `xword` -- wakes it if it parked, and
// pops it with one head CAS; it never pushes a node of its own. A node
// whose xword is set (matched or cancelled) is *dead*: whoever finds it on
// top pops it and retries. The paper's fulfilling-node protocol (Listing 6)
// is kept verbatim in dual_stack_basic.hpp; docs/algorithms.md §3 explains
// the difference.
//
// Linearization points:
//   * waiting path: the head CAS that pushes our node (request), and the
//     observation that our xword changed (follow-up);
//   * matching path: the CAS on the waiter's xword; the follow-up
//     linearizes immediately after.
//
// Port notes (C++ vs. Java -- what GC was hiding):
//
//  1. Result handoff. The JDK lets a waiter read `match.item` after the
//     nodes are popped, relying on GC to keep the counterpart's node alive.
//     Here each waiter node owns a write-once transfer word (`xword`) that
//     receives the result, so nobody ever dereferences a node it does not
//     own or hold a hazard on:
//
//       waiter node m:  xword: empty -> self-token          (cancelled)
//                              empty -> data token          (m is a request)
//                              empty -> claimed_token       (m is data)
//
//     The matcher reads a data node's immutable item under the hazard it
//     already holds on it.
//
//  2. Unlink safety. A splice of a dead node through a *stale* (already
//     popped) predecessor would retire a node still reachable from the live
//     chain -- harmless in Java, fatal here. As in transfer_queue: before a
//     node is physically unlinked its own next pointer is frozen (tag bit),
//     and every next-pointer splice expects an untagged value, so it cannot
//     succeed through a predecessor that has begun dying. Head pops freeze
//     the victim before the head CAS for the same reason, which also pins
//     the post-pop successor value the CAS installs. So a pop and a splice
//     unlink any node at most once.
//
//  3. Buried dead nodes. A push can land above a node that is matched at
//     the same moment; the matcher's pop then fails and the dead node stays
//     linked under a live one. It is popped when it reaches the top, or
//     spliced by the clean() sweep of a waiter beneath it that cancels.
//
// Memory-order discipline (docs/memory_model.md): the head/next/xword
// CASes and the freeze/pop validation reads stay seq_cst. The waiter side
// relaxes as the labeled edge `snode.xword` (release: the match CAS;
// acquire: is_dead, the wait loop's done probe, and the final read), plus
// the annotated acquire snapshot loads. Weakened orders are spelled
// SSQ_MO(...) so -DSSQ_FORCE_SEQ_CST pins the file for differential runs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdint>

#include "check/schedule_fuzz.hpp"
#include "core/wait_kind.hpp"
#include "memory/reclaim.hpp"
#include "support/annotations.hpp"
#include "support/cacheline.hpp"
#include "support/codec.hpp"
#include "support/diagnostics.hpp"
#include "sync/interrupt.hpp"
#include "sync/park_slot.hpp"
#include "sync/spin_policy.hpp"

namespace ssq {

template <typename Reclaimer = mem::pooled_hp_reclaimer>
class transfer_stack {
  enum : unsigned { req_mode = 0, data_mode = 1 };

  // Written into a matched data node's xword: even, so never an inline
  // token, and not a pointer, so never a box or the node's own address.
  static constexpr item_token claimed_token = 2;

 public:
  explicit transfer_stack(sync::spin_policy pol = sync::spin_policy::adaptive(),
                          Reclaimer rec = Reclaimer{})
      : rec_(std::move(rec)), pol_(pol) {
    head_.value.store(nullptr, std::memory_order_relaxed);
  }

  ~transfer_stack() {
    snode *n = head_.value.load(std::memory_order_relaxed);
    while (n) {
      snode *next = strip(n->next.load(std::memory_order_relaxed));
      if ((n->mode & data_mode) && disposer_ && n->item != empty_token &&
          n->xword.load(std::memory_order_relaxed) == empty_token)
        disposer_(n->item); // unconsumed data (async producer leftovers)
      rec_.destroy(n);
      n = next;
    }
  }

  transfer_stack(const transfer_stack &) = delete;
  transfer_stack &operator=(const transfer_stack &) = delete;

  void set_token_disposer(void (*d)(item_token)) noexcept { disposer_ = d; }

  // See transfer_queue::xfer for the contract; identical here except that
  // service order is LIFO.
  item_token xfer(item_token e, bool is_data, wait_kind wk,
                  deadline dl = deadline::unbounded(),
                  sync::interrupt_token *tok = nullptr) {
    SSQ_ASSERT(is_data == (e != empty_token), "token/mode mismatch");
    SSQ_ASSERT(!(wk == wait_kind::async && !is_data),
               "async mode is producers-only");
    const unsigned mode = is_data ? data_mode : req_mode;

    snode *s = nullptr; // built for a push; reused if that push loses
    typename Reclaimer::slot hz_h(rec_);

    for (;;) {
      snode *h = hz_h.protect(head_.value);
      if (h != nullptr && h->is_dead()) {
        pop_head(h); // collapse garbage, then retry the whole decision
        continue;
      }
      if (h != nullptr && h->mode != mode) {
        // ---------------------------- live complementary top: match in place
        const item_token r = is_data ? e : h->item; // h is hazard-covered
        item_token expected = empty_token;
        // seq_cst: the xword CAS is the match linearization point; the label
        // documents the release side of the snode.xword edge.
        SSQ_MO_RELEASE_EDGE("snode.xword");
        if (!h->xword.compare_exchange_strong(expected,
                                              is_data ? e : claimed_token,
                                              std::memory_order_seq_cst)) {
          pop_head(h); // h is dead now (matched by another, or cancelled)
          continue;
        }
        h->slot.wake();
        SSQ_INTERLEAVE("ts.matched");
        pop_head(h);
        if (s) rec_.destroy(s); // built for a push that lost; never linked
        return r;
      }
      // ------------------------------- empty or live same-mode top: wait
      if (wk == wait_kind::now ||
          (wk == wait_kind::timed && dl.expired_now())) {
        if (s) rec_.destroy(s); // never linked: back through the policy
        return empty_token;
      }
      if (s == nullptr) {
        s = rec_.template create<snode>(e, mode);
        if (wk == wait_kind::async) s->life.preset_released();
      }
      SSQ_MO_JUSTIFIED(
          "relaxed: pre-publication store; the seq_cst head CAS below "
          "releases the node");
      s->next.store(h, SSQ_MO(relaxed));
      SSQ_INTERLEAVE("ts.push");
      if (!head_.value.compare_exchange_strong(h, s,
                                               std::memory_order_seq_cst)) {
        diag::bump(diag::id::cas_fail);
        continue;
      }
      // Request linearizes at the push above.
      if (wk == wait_kind::async) return e;

      item_token x = await_fulfill(s, dl, tok);
      if (x == s->self_token()) { // cancelled
        SSQ_INTERLEAVE("ts.cancelled");
        clean(s);
        if (s->life.mark_released()) rec_retire(s);
        return empty_token;
      }
      // Matched in place: the matcher (or a later visitor) pops s; leave.
      if (s->life.mark_released()) rec_retire(s);
      return is_data ? e : x;
    }
  }

  // ------------------------------------------------------------ observers

  bool is_empty() const noexcept {
    SSQ_MO_JUSTIFIED("acquire: racy snapshot, no dereference follows");
    return head_.value.load(SSQ_MO(acquire)) == nullptr;
  }

  // ssq-lint: suppress(hazard-coverage) -- racy observer by contract (the
  // `unsafe_` prefix is the documentation); callers must quiesce first.
  std::size_t unsafe_length() const noexcept {
    std::size_t n = 0;
    SSQ_MO_JUSTIFIED("acquire: racy traversal, documented unsafe");
    for (snode *p = head_.value.load(SSQ_MO(acquire)); p;
         p = strip(p->next.load(SSQ_MO(acquire))))
      ++n;
    return n;
  }

  // ssq-lint: suppress(hazard-coverage) -- single racy probe of the top
  // node's immutable mode field; used by tests only.
  bool head_is_data() const noexcept {
    SSQ_MO_JUSTIFIED("acquire: racy snapshot probe");
    snode *h = head_.value.load(SSQ_MO(acquire));
    return h && (h->mode & data_mode);
  }

  Reclaimer &reclaimer() noexcept { return rec_; }

  // Diagnostic: dump the chain from head. Racy; for tests and debugging.
  // ssq-lint: suppress(hazard-coverage) -- debug-only racy traversal; only
  // invoked from tests while the structure is quiescent.
  void debug_dump(FILE *f) const {
    SSQ_MO_JUSTIFIED("acquire: debug-only racy traversal");
    snode *p = head_.value.load(SSQ_MO(acquire));
    std::fprintf(f, "  ts head=%p\n", static_cast<void *>(p));
    int i = 0;
    for (; p && i < 32; ++i) {
      SSQ_MO_JUSTIFIED("acquire: debug-only racy traversal");
      snode *raw = p->next.load(SSQ_MO(acquire));
      SSQ_MO_JUSTIFIED("acquire: debug-only racy traversal");
      item_token xw = p->xword.load(SSQ_MO(acquire));
      const char *cls = xw == empty_token       ? "waiting"
                        : xw == p->self_token() ? "CANCELLED"
                                                : "matched";
      std::fprintf(f, "  [%d] %p mode=%u xword=%s next=%p%s\n", i,
                   static_cast<void *>(p), p->mode, cls,
                   static_cast<void *>(strip(raw)), tagged(raw) ? " TAGGED" : "");
      p = strip(raw);
    }
  }

 private:
  struct snode;

  static snode *strip(snode *p) noexcept {
    return reinterpret_cast<snode *>(reinterpret_cast<std::uintptr_t>(p) &
                                     ~std::uintptr_t(1));
  }
  static bool tagged(snode *p) noexcept {
    return (reinterpret_cast<std::uintptr_t>(p) & 1) != 0;
  }
  static snode *with_tag(snode *p) noexcept {
    return reinterpret_cast<snode *>(reinterpret_cast<std::uintptr_t>(p) | 1);
  }

  struct snode {
    SSQ_GUARDED_BY_HAZARD(rec_)
    std::atomic<snode *> next{nullptr};
    std::atomic<item_token> xword{empty_token}; // see file comment
    const item_token item;                      // immutable after creation
    const unsigned mode; // one role for the node's whole life
    sync::park_slot slot;
    mem::life_cycle life;

    snode(item_token it, unsigned md) noexcept : item(it), mode(md) {}

    item_token self_token() const noexcept {
      return reinterpret_cast<item_token>(this);
    }
    // Matched or cancelled: garbage for any visitor to unlink.
    bool is_dead() const noexcept {
      SSQ_MO_ACQUIRE_EDGE("snode.xword");
      return xword.load(SSQ_MO(acquire)) != empty_token;
    }
    bool cas_next(snode *expected, snode *desired) noexcept {
      return next.compare_exchange_strong(expected, desired,
                                          std::memory_order_seq_cst);
    }
  };

  // Freeze n's next pointer (idempotent); returns the stripped successor.
  // Null is terminal for a stack node's next (nothing is ever inserted
  // below an existing node), so it needs no tag.
  SSQ_RETURNS_UNPROTECTED
  static snode *freeze_next(snode *n) noexcept {
    for (;;) {
      snode *raw = n->next.load(std::memory_order_seq_cst);
      if (raw == nullptr) return nullptr;
      if (tagged(raw)) return strip(raw);
      if (n->next.compare_exchange_weak(raw, with_tag(raw),
                                        std::memory_order_seq_cst))
        return raw;
    }
  }

  void rec_retire(snode *n) {
    rec_.retire(n);
    diag::bump(diag::id::node_free);
  }

  // Protected read of x->next. On return:
  //   * x_dying == false: `node` was live when its hazard was published
  //     (x's next was untagged and unchanged across the publication);
  //   * x_dying == true: x has begun dying; `node` is the frozen successor
  //     VALUE -- usable as a pointer (e.g. as a head-CAS target) but not
  //     dereferenceable unless protected by other means.
  struct next_read {
    snode *node;
    bool x_dying;
  };
  SSQ_ACQUIRES_HAZARD
  next_read read_next(snode *x, typename Reclaimer::slot &hz) noexcept {
    for (;;) {
      snode *raw = x->next.load(std::memory_order_seq_cst);
      hz.set(strip(raw));
      if (tagged(raw)) return {strip(raw), true};
      if (x->next.load(std::memory_order_seq_cst) == raw) return {raw, false};
    }
  }

  // Pop the dead node h if it is still on top. Freezing h first makes this
  // pop and any clean() splice of h mutually exclusive.
  void pop_head(snode *h) {
    snode *hn = freeze_next(h);
    snode *expected = h;
    if (head_.value.compare_exchange_strong(expected, hn,
                                            std::memory_order_seq_cst)) {
      if (h->life.mark_unlinked()) rec_retire(h);
    }
  }

  // Wait for our xword to change; cancel on timeout/interrupt.
  item_token await_fulfill(snode *s, deadline dl,
                           sync::interrupt_token *tok) {
    auto done = [&] {
      SSQ_MO_ACQUIRE_EDGE("snode.xword");
      return s->xword.load(SSQ_MO(acquire)) != empty_token;
    };
    auto at_front = [&] {
      SSQ_MO_JUSTIFIED(
          "acquire: comparison-only probe of head; the value is never "
          "dereferenced, it only picks the spin budget");
      return head_.value.load(SSQ_MO(acquire)) == s;
    };
    auto r = sync::spin_then_park(s->slot, done, at_front, pol_, dl, tok);
    if (r != sync::park_slot::wait_result::woken) {
      SSQ_INTERLEAVE("ts.cancel.cas");
      item_token expected = empty_token;
      s->xword.compare_exchange_strong(expected, s->self_token(),
                                       std::memory_order_seq_cst);
    }
    SSQ_MO_ACQUIRE_EDGE("snode.xword");
    return s->xword.load(SSQ_MO(acquire));
  }

  // Unlink dead nodes at and around s (JDK SNode::clean, minus the
  // `past` cancellation refinement, which would require dereferencing a
  // possibly-dead successor; the pointer is used for comparison only).
  void clean(snode *s) {
    diag::bump(diag::id::clean_call);
    SSQ_INTERLEAVE("ts.clean");
    typename Reclaimer::slot hz_p(rec_), hz_q(rec_);

    SSQ_MO_JUSTIFIED("acquire: value used for pointer comparison only");
    snode *past = strip(s->next.load(SSQ_MO(acquire))); // cmp-only

    // Absorb dead prefix.
    snode *p;
    for (;;) {
      p = hz_p.protect(head_.value);
      if (p == nullptr || p == past) return;
      if (!p->is_dead()) break;
      pop_head(p);
    }
    // Unsplice interior dead nodes up to `past`.
    while (p != nullptr && p != past) {
      auto [n, p_dying] = read_next(p, hz_q);
      if (p_dying) return; // lost our anchor; head traffic finishes the job
      if (n != nullptr && n->is_dead()) {
        snode *nn = freeze_next(n);
        if (p->cas_next(n, nn)) {
          if (n->life.mark_unlinked()) rec_retire(n);
          diag::bump(diag::id::clean_unlink);
        } else {
          return; // p changed under us (dying or raced); give up
        }
      } else {
        // Advance: transfer protection p <- n. n is covered by hz_q
        // continuously from read_next's validation until hz_p re-publishes
        // it, so the chain of custody is unbroken. No re-read of p->next
        // here: hz_p.set just dropped p's protection, so dereferencing p
        // again would race its reclamation; if n has since been spliced
        // out, the next read_next observes it dying and gives up.
        hz_p.set(n);
        p = n;
      }
    }
  }

  Reclaimer rec_;
  sync::spin_policy pol_;
  void (*disposer_)(item_token) = nullptr;
  SSQ_GUARDED_BY_HAZARD(rec_)
  padded_atomic<snode *> head_;
};

} // namespace ssq
