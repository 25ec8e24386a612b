// White-box tests for the synchronous dual queue core (transfer_queue):
// token protocol, wait modes, cancellation cleaning (including the clean_me
// deferral), reclamation accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "check/schedule_fuzz.hpp"
#include "core/transfer_queue.hpp"
#include "hooked_reclaimer.hpp"
#include "support/diagnostics.hpp"

using namespace ssq;

namespace {

item_token tok_of(int v) { return item_codec<int>::encode(v); }
int val_of(item_token t) { return item_codec<int>::decode_consume(t); }

// Watchdog for tests whose failure mode is a hang: wait up to `limit` for
// `done`, and if it never comes, dump the queue and end the process so the
// run fails at once instead of stalling until the ctest timeout.
template <typename Queue>
void await_or_die(const std::atomic<bool> &done, const Queue &q,
                  const char *what,
                  std::chrono::seconds limit = std::chrono::seconds(20)) {
  const auto until = std::chrono::steady_clock::now() + limit;
  while (!done.load()) {
    if (std::chrono::steady_clock::now() > until) {
      std::fprintf(stderr, "FATAL: %s did not finish within %llds\n", what,
                   static_cast<long long>(limit.count()));
      q.debug_dump(stderr);
      std::fflush(stderr);
      std::_Exit(1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

} // namespace

TEST(TransferQueue, NowModeFailsOnEmpty) {
  transfer_queue<> q;
  EXPECT_EQ(q.xfer(tok_of(1), true, wait_kind::now), empty_token);
  EXPECT_EQ(q.xfer(empty_token, false, wait_kind::now), empty_token);
  EXPECT_TRUE(q.is_empty());
}

TEST(TransferQueue, AsyncProducerDoesNotWait) {
  transfer_queue<> q;
  item_token t = tok_of(5);
  EXPECT_EQ(q.xfer(t, true, wait_kind::async), t);
  EXPECT_FALSE(q.is_empty());
  EXPECT_TRUE(q.head_is_data());
  item_token r = q.xfer(empty_token, false, wait_kind::now);
  EXPECT_EQ(val_of(r), 5);
  EXPECT_TRUE(q.is_empty());
}

TEST(TransferQueue, AsyncPreservesFifo) {
  transfer_queue<> q;
  for (int i = 0; i < 100; ++i) q.xfer(tok_of(i), true, wait_kind::async);
  EXPECT_EQ(q.unsafe_length(), 100u);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(val_of(q.xfer(empty_token, false, wait_kind::now)), i);
}

TEST(TransferQueue, TimedConsumerExpires) {
  transfer_queue<> q;
  auto t0 = steady_clock::now();
  EXPECT_EQ(q.xfer(empty_token, false, wait_kind::timed,
                   deadline::in(std::chrono::milliseconds(30))),
            empty_token);
  EXPECT_GE(steady_clock::now() - t0, std::chrono::milliseconds(25));
}

TEST(TransferQueue, TimedProducerExpires) {
  transfer_queue<> q;
  item_token t = tok_of(1);
  EXPECT_EQ(q.xfer(t, true, wait_kind::timed,
                   deadline::in(std::chrono::milliseconds(30))),
            empty_token);
  // Caller still owns the token (inline here, nothing to free).
}

TEST(TransferQueue, SyncPairRendezvous) {
  transfer_queue<> q;
  std::thread p([&] {
    item_token t = tok_of(11);
    EXPECT_EQ(q.xfer(t, true, wait_kind::sync), t);
  });
  EXPECT_EQ(val_of(q.xfer(empty_token, false, wait_kind::sync)), 11);
  p.join();
}

TEST(TransferQueue, CancelledNodeIsCleanedFromInterior) {
  transfer_queue<> q;
  // Build [D1, D2] async, then a timed consumer is irrelevant... instead:
  // park a timed producer behind an async one, let it cancel, verify the
  // interior node is spliced out.
  q.xfer(tok_of(1), true, wait_kind::async);
  std::thread timed([&] {
    EXPECT_EQ(q.xfer(tok_of(2), true, wait_kind::timed,
                     deadline::in(std::chrono::milliseconds(40))),
              empty_token);
  });
  // Wait until the timed producer is linked (length 2), then let it cancel.
  while (q.unsafe_length() < 2) std::this_thread::yield();
  // Append a third so the cancelled node is interior when cleaned.
  timed.join();
  q.xfer(tok_of(3), true, wait_kind::async);
  // Consume: must see 1 then 3; the cancelled 2 must be skipped.
  EXPECT_EQ(val_of(q.xfer(empty_token, false, wait_kind::now)), 1);
  EXPECT_EQ(val_of(q.xfer(empty_token, false, wait_kind::now)), 3);
  EXPECT_EQ(q.xfer(empty_token, false, wait_kind::now), empty_token);
}

TEST(TransferQueue, CancelledTailIsDeferredThenCollected) {
  diag::reset_all();
  transfer_queue<> q;
  // A timed producer alone in the queue cancels at the tail: clean() must
  // take the clean_me deferral path (it cannot splice the tail).
  EXPECT_EQ(q.xfer(tok_of(1), true, wait_kind::timed,
                   deadline::in(std::chrono::milliseconds(20))),
            empty_token);
  EXPECT_GE(diag::read(diag::id::clean_call), 1u);
  // The cancelled node lingers (deferred)...
  EXPECT_LE(q.unsafe_length(), 1u);
  // ...but ordinary traffic flows past it and collects it.
  q.xfer(tok_of(7), true, wait_kind::async);
  EXPECT_EQ(val_of(q.xfer(empty_token, false, wait_kind::now)), 7);
  EXPECT_EQ(q.xfer(empty_token, false, wait_kind::now), empty_token);
  EXPECT_LE(q.unsafe_length(), 1u);
}

TEST(TransferQueue, OfferStormDoesNotAccumulateGarbage) {
  // Paper Pragmatics: "items offered at a very high rate, but with a very
  // low time-out patience" must not build up cancelled nodes.
  transfer_queue<> q;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t)
    ts.emplace_back([&] {
      for (int i = 0; i < 3000; ++i) {
        item_token tk = tok_of(i);
        if (q.xfer(tk, true, wait_kind::timed,
                   deadline::in(std::chrono::microseconds(20))) == empty_token)
          ; // inline token, nothing to dispose
      }
    });
  for (auto &t : ts) t.join();
  EXPECT_LE(q.unsafe_length(), 16u)
      << "cancelled-node cleaning failed to bound buildup";
}

TEST(TransferQueue, MixedModeStressConserves) {
  transfer_queue<> q;
  const int np = 3, nc = 3, per = 3000;
  std::atomic<long> in{0}, out{0};
  std::atomic<int> consumed{0};
  const int total = np * per;
  std::vector<std::thread> ts;
  for (int p = 0; p < np; ++p)
    ts.emplace_back([&, p] {
      for (int i = 0; i < per; ++i) {
        int v = p * per + i + 1;
        for (;;) {
          item_token tk = tok_of(v);
          wait_kind wk = (i % 3 == 0) ? wait_kind::timed : wait_kind::sync;
          item_token r =
              q.xfer(tk, true, wk, deadline::in(std::chrono::milliseconds(2)));
          if (r != empty_token) break;
        }
        in.fetch_add(v);
      }
    });
  for (int c = 0; c < nc; ++c)
    ts.emplace_back([&] {
      while (consumed.load() < total) {
        item_token r = q.xfer(empty_token, false, wait_kind::timed,
                              deadline::in(std::chrono::milliseconds(2)));
        if (r != empty_token) {
          out.fetch_add(val_of(r));
          consumed.fetch_add(1);
        }
      }
    });
  for (auto &t : ts) t.join();
  EXPECT_EQ(in.load(), out.load());
  EXPECT_LE(q.unsafe_length(), 16u);
}

// 1 producer : 3 consumers, the fanout shape: the fulfiller pops for the
// waiter it served, so every handed-off node must come off the queue and
// be retired while the queue is alive, not merely freed by the destructor.
TEST(TransferQueue, NodesAreReclaimed) {
  diag::reset_all();
  {
    mem::hazard_domain dom;
    transfer_queue<> q(sync::spin_policy::adaptive(),
                       mem::pooled_hp_reclaimer{&dom});
    const int nc = 3, per = 2000;
    std::vector<std::thread> ts;
    ts.emplace_back([&] {
      for (int i = 0; i < nc * per; ++i)
        q.xfer(tok_of(i), true, wait_kind::sync);
    });
    for (int c = 0; c < nc; ++c)
      ts.emplace_back([&] {
        for (int i = 0; i < per; ++i)
          (void)val_of(q.xfer(empty_token, false, wait_kind::sync));
      });
    for (auto &t : ts) t.join();
    EXPECT_EQ(q.unsafe_length(), 0u);
    EXPECT_TRUE(q.unsafe_tail_reachable());
    q.reclaimer().quiesce();
    // Everything but the live dummy has been retired.
    EXPECT_EQ(diag::read(diag::id::node_alloc),
              diag::read(diag::id::node_free) + 1);
  }
  EXPECT_EQ(diag::read(diag::id::node_alloc),
            diag::read(diag::id::node_free));
}

// Regression (livelock): clean(pred, s) used to loop until pred->next
// stopped naming s. A popped pred keeps naming s forever (its next is
// frozen), and with a clean_me_ registration whose cancelled successor is
// the tail, every pass deferred without progress; only the head marching
// past s could end it. Shape: s is cancelled and its owner stalls before
// clean(); a now-poll pops s's predecessor (s becomes the dummy); async put
// A goes in behind s; timed put B cancels as the tail and registers A in
// clean_me_. With nothing else running, s's clean must still return.
TEST(TransferQueueClean, DeadPredecessorDoesNotWedgeClean) {
  using test::hooked_reclaimer;
  using test::tl_after_protect;
  diag::reset_all();
  {
    transfer_queue<hooked_reclaimer> q(sync::spin_policy::adaptive(),
                                       hooked_reclaimer{});
    sync::interrupt_token itok;
    std::atomic<bool> stalled{false}, release{false}, done{false};
    std::atomic<item_token> got{tok_of(99)};
    std::thread owner([&] {
      // Re-arm on every protect until the interrupt has landed; the first
      // protect after it is clean()'s head snapshot, after the cancel.
      std::function<void()> stall_after_cancel;
      stall_after_cancel = [&] {
        if (!itok.interrupted()) {
          tl_after_protect = stall_after_cancel;
          return;
        }
        stalled.store(true);
        while (!release.load()) std::this_thread::yield();
      };
      tl_after_protect = stall_after_cancel;
      got.store(q.xfer(tok_of(1), true, wait_kind::timed,
                       deadline::unbounded(), &itok));
      tl_after_protect = nullptr;
      done.store(true);
    });
    // Interrupt only once the owner has parked: past every protect of its
    // xfer before the cancel.
    while (diag::read(diag::id::park) == 0) std::this_thread::yield();
    itok.interrupt();
    while (!stalled.load()) std::this_thread::yield();

    EXPECT_EQ(q.xfer(empty_token, false, wait_kind::now), empty_token);
    EXPECT_EQ(q.unsafe_length(), 0u); // s is the dummy now
    q.xfer(tok_of(2), true, wait_kind::async); // A
    EXPECT_EQ(q.xfer(tok_of(3), true, wait_kind::timed, // B
                     deadline::in(std::chrono::milliseconds(1))),
              empty_token);
    EXPECT_EQ(q.unsafe_length(), 2u); // A, then cancelled B as the tail

    release.store(true);
    await_or_die(done, q, "clean() behind a popped predecessor");
    owner.join();
    EXPECT_EQ(got.load(), empty_token);

    EXPECT_EQ(val_of(q.xfer(empty_token, false, wait_kind::now)), 2);
    EXPECT_EQ(q.xfer(empty_token, false, wait_kind::now), empty_token);
    EXPECT_EQ(q.unsafe_length(), 0u);
    EXPECT_TRUE(q.unsafe_tail_reachable());
    q.reclaimer().quiesce();
  }
  EXPECT_EQ(diag::read(diag::id::node_alloc),
            diag::read(diag::id::node_free));
}

TEST(TransferQueue, InterruptCancelsWaiter) {
  transfer_queue<> q;
  sync::interrupt_token tok;
  std::atomic<bool> failed{false};
  std::thread c([&] {
    item_token r = q.xfer(empty_token, false, wait_kind::timed,
                          deadline::unbounded(), &tok);
    failed.store(r == empty_token);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  tok.interrupt();
  c.join();
  EXPECT_TRUE(failed.load());
  // Queue remains usable.
  q.xfer(tok_of(1), true, wait_kind::async);
  EXPECT_EQ(val_of(q.xfer(empty_token, false, wait_kind::now)), 1);
}

TEST(TransferQueue, DestructorDisposesBufferedData) {
  // Boxed payloads buffered at destruction must be released through the
  // disposer (checked by ASan in sanitizer CI, and by box counters here).
  diag::reset_all();
  {
    transfer_queue<> q;
    q.set_token_disposer(
        [](item_token t) { item_codec<std::string>::dispose(t); });
    for (int i = 0; i < 10; ++i)
      q.xfer(item_codec<std::string>::encode(std::string(100, 'x')), true,
             wait_kind::async);
  }
  EXPECT_EQ(diag::read(diag::id::box_alloc), diag::read(diag::id::box_free));
}

TEST(TransferQueue, FifoAcrossManyAsyncProducers) {
  transfer_queue<> q;
  // Sequential per-producer order must survive concurrent async appends.
  const int np = 4, per = 2000;
  std::vector<std::thread> ts;
  for (int p = 0; p < np; ++p)
    ts.emplace_back([&, p] {
      for (int i = 0; i < per; ++i)
        q.xfer(tok_of(p * per + i), true, wait_kind::async);
    });
  for (auto &t : ts) t.join();
  std::vector<int> last(np, -1);
  for (int i = 0; i < np * per; ++i) {
    int v = val_of(q.xfer(empty_token, false, wait_kind::now));
    int p = v / per;
    EXPECT_GT(v % per, last[p]) << "per-producer FIFO violated";
    last[p] = v % per;
  }
}

#if defined(SSQ_SCHEDULE_FUZZ)
namespace {

// Point hook: stall the thread that armed tl_stall_at at that label until
// the test releases it.
std::atomic<bool> g_stalled{false}, g_release{false};
thread_local const char *tl_stall_at = nullptr;

void stall_hook(const char *label) {
  if (tl_stall_at && std::strcmp(label, tl_stall_at) == 0) {
    tl_stall_at = nullptr;
    g_stalled.store(true);
    while (!g_release.load()) std::this_thread::yield();
  }
}

} // namespace

// Fulfillers never read the tail, so the pop must keep tail_ off the node
// it pops. The appender stalls at tq.linked -- its node is linked but the
// tail still names the dummy -- and a now-poll fulfils that node and pops
// the dummy. The tail must have moved with it.
TEST(TransferQueue, TailNeverLeftBehindHead) {
  fuzz::config fc;
  fc.yield_permille = 0;
  fc.sleep_permille = 0;
  fuzz::enable(fc);
  fuzz::set_point_hook(&stall_hook);
  g_stalled.store(false);
  g_release.store(false);
  {
    transfer_queue<> q;
    std::thread appender([&] {
      tl_stall_at = "tq.linked";
      q.xfer(tok_of(7), true, wait_kind::async);
    });
    while (!g_stalled.load()) std::this_thread::yield();
    EXPECT_EQ(q.unsafe_length(), 1u);
    EXPECT_EQ(val_of(q.xfer(empty_token, false, wait_kind::now)), 7);
    EXPECT_TRUE(q.unsafe_tail_reachable()) << "tail_ names a popped node";
    g_release.store(true);
    appender.join();
    EXPECT_TRUE(q.is_empty());
    EXPECT_TRUE(q.unsafe_tail_reachable());
    q.xfer(tok_of(8), true, wait_kind::async);
    EXPECT_EQ(val_of(q.xfer(empty_token, false, wait_kind::now)), 8);
  }
  fuzz::set_point_hook(nullptr);
  fuzz::disable();
}
#else
TEST(TransferQueue, TailNeverLeftBehindHead) {
  GTEST_SKIP() << "needs -DSSQ_SCHEDULE_FUZZ=ON (point hooks)";
}
#endif
