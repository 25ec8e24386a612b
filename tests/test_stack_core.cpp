// White-box tests for the synchronous dual stack core (transfer_stack):
// match in place, dead-node collapse, cancellation, LIFO service,
// reclamation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "check/schedule_fuzz.hpp"
#include "core/transfer_stack.hpp"
#include "hooked_reclaimer.hpp"
#include "support/diagnostics.hpp"

using namespace ssq;

namespace {

item_token tok_of(int v) { return item_codec<int>::encode(v); }
int val_of(item_token t) { return item_codec<int>::decode_consume(t); }

using test::hooked_reclaimer;
using test::tl_after_protect;

} // namespace

TEST(TransferStack, NowModeFailsOnEmpty) {
  transfer_stack<> s;
  EXPECT_EQ(s.xfer(tok_of(1), true, wait_kind::now), empty_token);
  EXPECT_EQ(s.xfer(empty_token, false, wait_kind::now), empty_token);
  EXPECT_TRUE(s.is_empty());
}

TEST(TransferStack, AsyncProducerDoesNotWait) {
  transfer_stack<> s;
  item_token t = tok_of(9);
  EXPECT_EQ(s.xfer(t, true, wait_kind::async), t);
  EXPECT_FALSE(s.is_empty());
  EXPECT_TRUE(s.head_is_data());
  EXPECT_EQ(val_of(s.xfer(empty_token, false, wait_kind::now)), 9);
  EXPECT_TRUE(s.is_empty());
}

TEST(TransferStack, AsyncIsLifo) {
  transfer_stack<> s;
  for (int i = 0; i < 50; ++i) s.xfer(tok_of(i), true, wait_kind::async);
  for (int i = 49; i >= 0; --i)
    EXPECT_EQ(val_of(s.xfer(empty_token, false, wait_kind::now)), i);
}

TEST(TransferStack, SyncPairRendezvous) {
  transfer_stack<> s;
  std::thread p([&] {
    item_token t = tok_of(21);
    EXPECT_EQ(s.xfer(t, true, wait_kind::sync), t);
  });
  EXPECT_EQ(val_of(s.xfer(empty_token, false, wait_kind::sync)), 21);
  p.join();
}

TEST(TransferStack, ReverseDirectionRendezvous) {
  // Consumer first, producer matches it in place: exercises the matching
  // path from the producer side.
  transfer_stack<> s;
  std::atomic<int> got{-1};
  std::thread c([&] {
    got.store(val_of(s.xfer(empty_token, false, wait_kind::sync)));
  });
  while (s.is_empty()) std::this_thread::yield(); // reservation linked
  item_token t = tok_of(33);
  EXPECT_EQ(s.xfer(t, true, wait_kind::sync), t);
  c.join();
  EXPECT_EQ(got.load(), 33);
}

TEST(TransferStack, TimedConsumerExpires) {
  transfer_stack<> s;
  auto t0 = steady_clock::now();
  EXPECT_EQ(s.xfer(empty_token, false, wait_kind::timed,
                   deadline::in(std::chrono::milliseconds(30))),
            empty_token);
  EXPECT_GE(steady_clock::now() - t0, std::chrono::milliseconds(25));
  EXPECT_LE(s.unsafe_length(), 1u); // cancelled node may linger briefly
}

TEST(TransferStack, TimedProducerExpires) {
  transfer_stack<> s;
  EXPECT_EQ(s.xfer(tok_of(1), true, wait_kind::timed,
                   deadline::in(std::chrono::milliseconds(30))),
            empty_token);
}

TEST(TransferStack, CancelledNodesAreShedByTraffic) {
  transfer_stack<> s;
  // Stack up several cancelled reservations.
  std::vector<std::thread> cs;
  for (int i = 0; i < 4; ++i)
    cs.emplace_back([&] {
      EXPECT_EQ(s.xfer(empty_token, false, wait_kind::timed,
                       deadline::in(std::chrono::milliseconds(20))),
                empty_token);
    });
  for (auto &t : cs) t.join();
  // New traffic must skip the garbage and pair correctly.
  std::thread c([&] {
    EXPECT_EQ(val_of(s.xfer(empty_token, false, wait_kind::sync)), 5);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  item_token t = tok_of(5);
  EXPECT_EQ(s.xfer(t, true, wait_kind::sync), t);
  c.join();
  EXPECT_LE(s.unsafe_length(), 5u);
}

TEST(TransferStack, NowPopSkipsCancelledTop) {
  transfer_stack<> s;
  s.xfer(tok_of(1), true, wait_kind::async);
  // A timed producer atop the async one cancels, leaving garbage at the
  // head.
  EXPECT_EQ(s.xfer(tok_of(2), true, wait_kind::timed,
                   deadline::in(std::chrono::milliseconds(15))),
            empty_token);
  // now-mode consumer must shed the cancelled node and find the datum.
  EXPECT_EQ(val_of(s.xfer(empty_token, false, wait_kind::now)), 1);
}

TEST(TransferStack, LifoServiceOfWaitingConsumers) {
  // Unfairness property: with two parked consumers, the most recent wins.
  transfer_stack<> s;
  std::atomic<int> r1{-1}, r2{-1};
  std::thread c1([&] {
    r1.store(val_of(s.xfer(empty_token, false, wait_kind::sync)));
  });
  while (s.unsafe_length() < 1) std::this_thread::yield();
  std::thread c2([&] {
    r2.store(val_of(s.xfer(empty_token, false, wait_kind::sync)));
  });
  while (s.unsafe_length() < 2) std::this_thread::yield();
  s.xfer(tok_of(1), true, wait_kind::sync);
  c2.join();
  EXPECT_EQ(r2.load(), 1) << "top of stack (most recent) is served first";
  s.xfer(tok_of(2), true, wait_kind::sync);
  c1.join();
  EXPECT_EQ(r1.load(), 2);
}

TEST(TransferStack, MixedModeStressConserves) {
  transfer_stack<> s;
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
              s.xfer(tk, true, wk, deadline::in(std::chrono::milliseconds(2)));
          if (r != empty_token) break;
        }
        in.fetch_add(v);
      }
    });
  for (int c = 0; c < nc; ++c)
    ts.emplace_back([&] {
      while (consumed.load() < total) {
        item_token r = s.xfer(empty_token, false, wait_kind::timed,
                              deadline::in(std::chrono::milliseconds(2)));
        if (r != empty_token) {
          out.fetch_add(val_of(r));
          consumed.fetch_add(1);
        }
      }
    });
  for (auto &t : ts) t.join();
  EXPECT_EQ(in.load(), out.load());
  EXPECT_LE(s.unsafe_length(), 16u);
}

// The matched waiter leaves without popping, so this checks the matched
// nodes still come off the stack -- popped by their matchers or collapsed
// by later visitors -- and every node is retired, not merely freed by the
// destructor.
TEST(TransferStack, NodesAreReclaimed) {
  diag::reset_all();
  mem::hazard_domain dom;
  transfer_stack<> s(sync::spin_policy::adaptive(),
                     mem::pooled_hp_reclaimer{&dom});
  std::vector<std::thread> ts;
  for (int p = 0; p < 2; ++p) {
    ts.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) s.xfer(tok_of(i), true, wait_kind::sync);
    });
    ts.emplace_back([&] {
      for (int i = 0; i < 2000; ++i)
        (void)val_of(s.xfer(empty_token, false, wait_kind::sync));
    });
  }
  for (auto &t : ts) t.join();
  EXPECT_EQ(s.unsafe_length(), 0u);
  s.reclaimer().quiesce();
  EXPECT_EQ(diag::read(diag::id::node_alloc),
            diag::read(diag::id::node_free));
}

TEST(TransferStack, InterruptCancelsWaiter) {
  transfer_stack<> s;
  sync::interrupt_token tok;
  std::atomic<bool> failed{false};
  std::thread c([&] {
    item_token r = s.xfer(empty_token, false, wait_kind::timed,
                          deadline::unbounded(), &tok);
    failed.store(r == empty_token);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  tok.interrupt();
  c.join();
  EXPECT_TRUE(failed.load());
  s.xfer(tok_of(1), true, wait_kind::async);
  EXPECT_EQ(val_of(s.xfer(empty_token, false, wait_kind::now)), 1);
}

TEST(TransferStack, HelpersCompleteStrandedFulfillment) {
  // Many threads hammering a small stack: lost match CASes, dead tops
  // collapsed by whoever finds them, and pushes racing matches beneath
  // them. The conservation check catches a lost or doubly delivered item.
  transfer_stack<> s;
  const int n = 4, per = 4000;
  std::atomic<long> in{0}, out{0};
  std::vector<std::thread> ts;
  for (int i = 0; i < n; ++i)
    ts.emplace_back([&, i] {
      if (i % 2 == 0) {
        for (int j = 0; j < per; ++j) {
          int v = i * per + j + 1;
          s.xfer(tok_of(v), true, wait_kind::sync);
          in.fetch_add(v);
        }
      } else {
        for (int j = 0; j < per; ++j)
          out.fetch_add(val_of(s.xfer(empty_token, false, wait_kind::sync)));
      }
    });
  for (auto &t : ts) t.join();
  EXPECT_EQ(in.load(), out.load());
  EXPECT_TRUE(s.is_empty());
}

TEST(TransferStack, DestructorDisposesBufferedData) {
  diag::reset_all();
  {
    transfer_stack<> s;
    s.set_token_disposer(
        [](item_token t) { item_codec<std::string>::dispose(t); });
    for (int i = 0; i < 10; ++i)
      s.xfer(item_codec<std::string>::encode(std::string(64, 'y')), true,
             wait_kind::async);
  }
  EXPECT_EQ(diag::read(diag::id::box_alloc), diag::read(diag::id::box_free));
}

// ------------------------------------------------------------------------
// Stale snapshots: the put's head snapshot goes stale before its push or
// match CAS. A node has one role for its whole life, so the retry takes the
// other path with no lifecycle bits to fix up (docs/memory_reclamation.md
// §3).

// An async put snapshots an empty stack, a consumer's request lands before
// the put's push CAS, and the put retries by matching that request in place.
// The node it built for the lost push was never linked and goes back
// through the reclaimer without a retire.
TEST(TransferStackReRole, AsyncPutThatLosesItsPushFulfilsCleanly) {
  diag::reset_all();
  mem::hazard_domain dom;
  {
    hooked_reclaimer rec;
    rec.dom = &dom;
    transfer_stack<hooked_reclaimer> s(sync::spin_policy::adaptive(), rec);
    std::atomic<item_token> got{empty_token};
    std::thread consumer;
    tl_after_protect = [&] {
      consumer = std::thread(
          [&] { got.store(s.xfer(empty_token, false, wait_kind::sync)); });
      while (s.is_empty()) std::this_thread::yield(); // request linked
    };
    item_token t = tok_of(7);
    EXPECT_EQ(s.xfer(t, true, wait_kind::async), t);
    consumer.join();
    EXPECT_EQ(val_of(got.load()), 7);
    EXPECT_TRUE(s.is_empty());
    s.reclaimer().quiesce();
  }
  EXPECT_EQ(diag::read(diag::id::node_alloc),
            diag::read(diag::id::node_free));
}

// An async put snapshots a waiting request, another producer matches that
// request before the put's match CAS, and the put finds that node dead and
// retries on the now-empty stack by pushing async. Its node is built
// owner-released, or nobody would retire it once a consumer claims it.
TEST(TransferStackReRole, FulfillerNodeRepushedAsyncIsRetired) {
  diag::reset_all();
  mem::hazard_domain dom;
  {
    hooked_reclaimer rec;
    rec.dom = &dom;
    transfer_stack<hooked_reclaimer> s(sync::spin_policy::adaptive(), rec);
    std::atomic<item_token> got{empty_token};
    std::thread consumer(
        [&] { got.store(s.xfer(empty_token, false, wait_kind::sync)); });
    while (s.is_empty()) std::this_thread::yield(); // request linked
    tl_after_protect = [&] {
      EXPECT_NE(s.xfer(tok_of(1), true, wait_kind::now), empty_token);
    };
    s.xfer(tok_of(2), true, wait_kind::async);
    consumer.join();
    EXPECT_EQ(val_of(got.load()), 1);
    EXPECT_TRUE(s.head_is_data()); // the re-pushed node
    EXPECT_EQ(val_of(s.xfer(empty_token, false, wait_kind::now)), 2);
    EXPECT_TRUE(s.is_empty());
    s.reclaimer().quiesce();
    EXPECT_EQ(diag::read(diag::id::node_alloc),
              diag::read(diag::id::node_free));
  }
}

// ------------------------------------------------------------------------
// Match in place: the matcher CASes the waiter's xword and pops it; a
// matched (dead) node that is not popped is garbage for any later visitor.

// Two consumers wait; a put snapshots the first one on top, then the second
// pushes above it before the put's match CAS. The match lands on the buried
// node, whose pop then fails. A second put serves the top consumer, and one
// now-mode poll collapses the buried node once it surfaces.
TEST(TransferStackMatchInPlace, MatchOnBuriedWaiterIsCollapsedWhenItSurfaces) {
  diag::reset_all();
  mem::hazard_domain dom;
  {
    hooked_reclaimer rec;
    rec.dom = &dom;
    transfer_stack<hooked_reclaimer> s(sync::spin_policy::adaptive(), rec);
    std::atomic<item_token> got1{empty_token}, got2{empty_token};
    std::thread c1(
        [&] { got1.store(s.xfer(empty_token, false, wait_kind::sync)); });
    while (s.unsafe_length() < 1) std::this_thread::yield();
    std::thread c2;
    tl_after_protect = [&] {
      c2 = std::thread(
          [&] { got2.store(s.xfer(empty_token, false, wait_kind::sync)); });
      while (s.unsafe_length() < 2) std::this_thread::yield();
    };
    item_token t1 = tok_of(1);
    EXPECT_EQ(s.xfer(t1, true, wait_kind::sync), t1);
    c1.join();
    EXPECT_EQ(val_of(got1.load()), 1) << "the snapshotted waiter was matched";
    EXPECT_EQ(s.unsafe_length(), 2u); // c2 live above c1's dead node

    item_token t2 = tok_of(2);
    EXPECT_EQ(s.xfer(t2, true, wait_kind::sync), t2);
    c2.join();
    EXPECT_EQ(val_of(got2.load()), 2);
    EXPECT_EQ(s.unsafe_length(), 1u); // the dead node is on top now

    EXPECT_EQ(s.xfer(empty_token, false, wait_kind::now), empty_token);
    EXPECT_EQ(s.unsafe_length(), 0u);
    s.reclaimer().quiesce();
    EXPECT_EQ(diag::read(diag::id::node_alloc),
              diag::read(diag::id::node_free));
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

// The producer matches a waiting consumer and stops dead at ts.matched,
// before its pop. The matched consumer returns at once; a now-mode
// bystander then finds the dead node on top, collapses it and reports no
// partner, all while the matcher is still stalled.
TEST(TransferStackMatchInPlace, BystanderCollapsesStalledMatchersDeadTop) {
  fuzz::config fc;
  fc.yield_permille = 0;
  fc.sleep_permille = 0;
  fuzz::enable(fc);
  fuzz::set_point_hook(&stall_hook);
  g_stalled.store(false);
  g_release.store(false);
  diag::reset_all();
  mem::hazard_domain dom;
  {
    transfer_stack<> s(sync::spin_policy::adaptive(),
                       mem::pooled_hp_reclaimer{&dom});
    std::atomic<item_token> got{empty_token};
    std::thread consumer(
        [&] { got.store(s.xfer(empty_token, false, wait_kind::sync)); });
    while (s.is_empty()) std::this_thread::yield();
    std::thread matcher([&] {
      tl_stall_at = "ts.matched";
      s.xfer(tok_of(5), true, wait_kind::sync);
    });
    while (!g_stalled.load()) std::this_thread::yield();
    consumer.join();
    EXPECT_EQ(val_of(got.load()), 5);
    EXPECT_EQ(s.unsafe_length(), 1u); // the matched node is still on top

    EXPECT_EQ(s.xfer(empty_token, false, wait_kind::now), empty_token);
    EXPECT_TRUE(s.is_empty()); // the bystander collapsed the dead top

    g_release.store(true);
    matcher.join();
    EXPECT_TRUE(s.is_empty());
    s.reclaimer().quiesce();
    EXPECT_EQ(diag::read(diag::id::node_alloc),
              diag::read(diag::id::node_free));
  }
  fuzz::set_point_hook(nullptr);
  fuzz::disable();
}
#else
TEST(TransferStackMatchInPlace, BystanderCollapsesStalledMatchersDeadTop) {
  GTEST_SKIP() << "needs -DSSQ_SCHEDULE_FUZZ=ON (point hooks)";
}
#endif
