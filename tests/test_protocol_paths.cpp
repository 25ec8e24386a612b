// Targeted exercises of specific protocol paths that generic stress rarely
// lands on deterministically: the clean_me deferral under concurrency, the
// stack's match-or-wait retry when its waiter cancels, matchers racing over
// one stack of waiters, and the freeze protocol's observable effects.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/transfer_queue.hpp"
#include "core/transfer_stack.hpp"
#include "support/diagnostics.hpp"

using namespace ssq;

namespace {
item_token tok_of(int v) { return item_codec<int>::encode(v); }
int val_of(item_token t) { return item_codec<int>::decode_consume(t); }
} // namespace

// --------------------------------------------------------- queue: clean_me

TEST(ProtocolQueue, ConsecutiveTailCancellationsResolve) {
  // Each timed producer that cancels at the tail defers its splice through
  // clean_me; the next cleaner must finish the previous deferral. Repeat
  // enough times that every cancellation (except possibly the last) is
  // provably collected.
  transfer_queue<> q;
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(q.xfer(tok_of(i + 1), true, wait_kind::timed,
                     deadline::in(std::chrono::milliseconds(3))),
              empty_token);
    EXPECT_LE(q.unsafe_length(), 2u)
        << "deferred cleaning must keep garbage O(1), iteration " << i;
  }
}

TEST(ProtocolQueue, ConcurrentTailCancellations) {
  // Many threads cancelling at the tail simultaneously race on clean_me
  // registration and resolution.
  transfer_queue<> q;
  for (int round = 0; round < 10; ++round) {
    std::vector<std::thread> ts;
    for (int i = 0; i < 4; ++i)
      ts.emplace_back([&] {
        EXPECT_EQ(q.xfer(tok_of(1), true, wait_kind::timed,
                         deadline::in(std::chrono::milliseconds(2))),
                  empty_token);
      });
    for (auto &t : ts) t.join();
  }
  // Flush the (at most one) remaining deferred node with real traffic.
  q.xfer(tok_of(9), true, wait_kind::async);
  EXPECT_EQ(val_of(q.xfer(empty_token, false, wait_kind::now)), 9);
  EXPECT_LE(q.unsafe_length(), 2u);
}

TEST(ProtocolQueue, CancelledInFrontOfLiveWaiter) {
  // Producer A (timed, cancels) linked before producer B (sync): B's data
  // must be delivered despite the dead node ahead of it.
  transfer_queue<> q;
  std::thread a([&] {
    EXPECT_EQ(q.xfer(tok_of(1), true, wait_kind::timed,
                     deadline::in(std::chrono::milliseconds(30))),
              empty_token);
  });
  while (q.unsafe_length() < 1) std::this_thread::yield();
  std::thread b([&] {
    EXPECT_NE(q.xfer(tok_of(2), true, wait_kind::sync,
                     deadline::in(std::chrono::seconds(20))),
              empty_token);
  });
  while (q.unsafe_length() < 2) std::this_thread::yield();
  a.join(); // A has cancelled; its node is interior garbage or spliced
  EXPECT_EQ(val_of(q.xfer(empty_token, false, wait_kind::sync)), 2);
  b.join();
  EXPECT_LE(q.unsafe_length(), 1u);
}

TEST(ProtocolQueue, AlternatingCancelAndFulfillAtHead) {
  // Interleave cancelled reservations with live ones; producers must skip
  // the corpses in FIFO order of the survivors.
  transfer_queue<> q;
  std::atomic<int> got1{-1}, got2{-1};
  std::thread dead1([&] {
    EXPECT_EQ(q.xfer(empty_token, false, wait_kind::timed,
                     deadline::in(std::chrono::milliseconds(25))),
              empty_token);
  });
  while (q.unsafe_length() < 1) std::this_thread::yield();
  std::thread live1([&] {
    got1.store(val_of(q.xfer(empty_token, false, wait_kind::sync)));
  });
  while (q.unsafe_length() < 2) std::this_thread::yield();
  std::thread dead2([&] {
    EXPECT_EQ(q.xfer(empty_token, false, wait_kind::timed,
                     deadline::in(std::chrono::milliseconds(25))),
              empty_token);
  });
  while (q.unsafe_length() < 3) std::this_thread::yield();
  std::thread live2([&] {
    got2.store(val_of(q.xfer(empty_token, false, wait_kind::sync)));
  });
  dead1.join();
  dead2.join(); // both cancelled
  q.xfer(tok_of(100), true, wait_kind::sync);
  q.xfer(tok_of(200), true, wait_kind::sync);
  live1.join();
  live2.join();
  EXPECT_EQ(got1.load(), 100) << "FIFO among surviving reservations";
  EXPECT_EQ(got2.load(), 200);
}

// ---------------------------------------------------- stack: match or wait

TEST(ProtocolStack, MatcherWaitsWhenItsWaiterCancels) {
  // A producer tries to match a reservation that cancels at just that
  // moment; it must collapse the dead node and, with no other waiters
  // beneath, wait as an ordinary producer.
  transfer_stack<> s;
  for (int round = 0; round < 10; ++round) {
    std::thread waiter([&] {
      (void)s.xfer(empty_token, false, wait_kind::timed,
                   deadline::in(std::chrono::milliseconds(2 + round % 3)));
    });
    // Producer arrives around the cancellation; with now-mode it either
    // pairs or fails fast -- never wedges.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    item_token t = tok_of(round + 1);
    item_token r = s.xfer(t, true, wait_kind::timed,
                          deadline::in(std::chrono::milliseconds(8)));
    waiter.join();
    if (r == empty_token) {
      // Both sides gave up; stack must be clean enough to reuse.
      EXPECT_LE(s.unsafe_length(), 2u);
    }
  }
  // Final sanity rendezvous.
  std::thread c([&] {
    EXPECT_EQ(val_of(s.xfer(empty_token, false, wait_kind::sync)), 42);
  });
  while (s.is_empty()) std::this_thread::yield();
  s.xfer(tok_of(42), true, wait_kind::sync);
  c.join();
}

TEST(ProtocolStack, MatcherCollapsesCancelledStackOfWaiters) {
  // A pile of cancelled reservations with one live one at the bottom: the
  // producer pops any corpse still on top and then matches the live one.
  transfer_stack<> s;
  std::atomic<int> got{-1};
  std::thread live([&] {
    got.store(val_of(s.xfer(empty_token, false, wait_kind::sync)));
  });
  while (s.unsafe_length() < 1) std::this_thread::yield();
  std::vector<std::thread> dead;
  for (int i = 0; i < 4; ++i) {
    dead.emplace_back([&] {
      EXPECT_EQ(s.xfer(empty_token, false, wait_kind::timed,
                       deadline::in(std::chrono::milliseconds(20))),
                empty_token);
    });
  }
  for (auto &t : dead) t.join(); // four corpses above the live waiter
  s.xfer(tok_of(55), true, wait_kind::sync);
  live.join();
  EXPECT_EQ(got.load(), 55);
  EXPECT_LE(s.unsafe_length(), 5u);
}

TEST(ProtocolStack, ManyMatchersOneStackOfWaiters) {
  // A crowd of producers arrives at once over a stack of waiting
  // consumers: they race for the top waiter, the losers collapse the dead
  // node or retry, and all eventually pair up.
  transfer_stack<> s;
  const int n = 6;
  std::atomic<long> out{0};
  std::vector<std::thread> consumers;
  for (int i = 0; i < n; ++i)
    consumers.emplace_back([&] {
      out.fetch_add(val_of(s.xfer(empty_token, false, wait_kind::sync)));
    });
  while (s.unsafe_length() < static_cast<std::size_t>(n))
    std::this_thread::yield();
  std::vector<std::thread> producers;
  long in = 0;
  for (int i = 0; i < n; ++i) {
    in += i + 1;
    producers.emplace_back([&, i] {
      s.xfer(tok_of(i + 1), true, wait_kind::sync);
    });
  }
  for (auto &t : producers) t.join();
  for (auto &t : consumers) t.join();
  EXPECT_EQ(out.load(), in);
  EXPECT_TRUE(s.is_empty());
}

// ------------------------------------------------- freeze-protocol effects

TEST(ProtocolFreeze, SplicedNodesAreNotDoubleRetired) {
  // Heavy cancel+traffic churn; the alloc/free accounting proves every
  // node is retired exactly once (a double retire would double-free under
  // ASan and skew the counters here).
  diag::reset_all();
  {
    mem::hazard_domain dom;
    transfer_queue<> q(sync::spin_policy::adaptive(), mem::pooled_hp_reclaimer{&dom});
    std::vector<std::thread> ts;
    for (int t = 0; t < 4; ++t)
      ts.emplace_back([&, t] {
        for (int i = 0; i < 2000; ++i) {
          if (t % 2)
            (void)q.xfer(tok_of(i + 1), true, wait_kind::timed,
                         deadline::in(std::chrono::microseconds(30)));
          else
            (void)q.xfer(empty_token, false, wait_kind::timed,
                         deadline::in(std::chrono::microseconds(30)));
        }
      });
    for (auto &t : ts) t.join();
    dom.drain();
  }
  EXPECT_EQ(diag::read(diag::id::node_alloc), diag::read(diag::id::node_free));
}

TEST(ProtocolFreeze, QueueSurvivesInterleavedSpliceAndPop) {
  // The exact geometry of the original UAF: a cancelled node whose
  // predecessor gets popped while its owner is cleaning. Run it many times.
  for (int round = 0; round < 50; ++round) {
    transfer_queue<> q;
    // Buffer one async datum so the queue has a non-dummy head.
    q.xfer(tok_of(1), true, wait_kind::async);
    std::thread canceller([&] {
      (void)q.xfer(tok_of(2), true, wait_kind::timed,
                   deadline::in(std::chrono::microseconds(200 * (round % 5))));
    });
    std::thread consumer([&] {
      // Pops the async datum -- advancing head right around the splice.
      (void)val_of(q.xfer(empty_token, false, wait_kind::sync));
    });
    canceller.join();
    consumer.join();
    // Drain whatever remains.
    item_token r = q.xfer(empty_token, false, wait_kind::now);
    if (r != empty_token) (void)val_of(r);
  }
  SUCCEED();
}
