// Tests for the synchronization substrate: futex, park_slot, spin policy,
// backoff, semaphore, monitor, fair lock, interruption.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "support/diagnostics.hpp"
#include "sync/backoff.hpp"
#include "sync/fair_lock.hpp"
#include "sync/futex.hpp"
#include "sync/interrupt.hpp"
#include "sync/monitor.hpp"
#include "sync/park_slot.hpp"
#include "sync/semaphore.hpp"
#include "sync/spin_policy.hpp"

using namespace ssq;
using namespace ssq::sync;

// ---------------------------------------------------------------- futex

TEST(Futex, WaitReturnsWhenValueAlreadyChanged) {
  std::atomic<std::uint32_t> w{5};
  // expected=4 != current: must not block.
  EXPECT_EQ(futex_wait(&w, 4, deadline::unbounded()), futex_result::woken);
}

TEST(Futex, TimedWaitExpires) {
  std::atomic<std::uint32_t> w{0};
  auto t0 = steady_clock::now();
  auto r = futex_wait(&w, 0, deadline::in(std::chrono::milliseconds(30)));
  auto elapsed = steady_clock::now() - t0;
  EXPECT_EQ(r, futex_result::timeout);
  EXPECT_GE(elapsed, std::chrono::milliseconds(25));
}

TEST(Futex, WakeReleasesWaiter) {
  std::atomic<std::uint32_t> w{0};
  std::atomic<bool> released{false};
  std::thread waiter([&] {
    while (w.load() == 0) {
      futex_wait(&w, 0, deadline::unbounded());
    }
    released.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(released.load());
  w.store(1);
  futex_wake_all(&w);
  waiter.join();
  EXPECT_TRUE(released.load());
}

TEST(Futex, ExpiredDeadlineReturnsImmediately) {
  std::atomic<std::uint32_t> w{0};
  EXPECT_EQ(futex_wait(&w, 0, deadline::expired()), futex_result::timeout);
}

// ---------------------------------------------------------------- park_slot

TEST(ParkSlot, SignalBeforeWaitDoesNotHang) {
  park_slot s;
  s.prepare();
  s.signal();
  EXPECT_EQ(s.wait(deadline::in(std::chrono::seconds(5))),
            park_slot::wait_result::woken);
}

TEST(ParkSlot, TimedWaitExpires) {
  park_slot s;
  s.prepare();
  auto r = s.wait(deadline::in(std::chrono::milliseconds(20)));
  EXPECT_EQ(r, park_slot::wait_result::timeout);
}

TEST(ParkSlot, CrossThreadWake) {
  park_slot s;
  std::atomic<bool> cond{false};
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cond.store(true);
    s.signal();
  });
  // Guarded-wait idiom.
  for (;;) {
    if (cond.load()) break;
    s.prepare();
    if (cond.load()) break;
    s.wait(deadline::unbounded());
  }
  waker.join();
  EXPECT_TRUE(s.was_signalled());
}

TEST(ParkSlot, InterruptWakesParkedThread) {
  park_slot s;
  interrupt_token tok;
  std::atomic<bool> interrupted{false};
  std::thread t([&] {
    s.prepare();
    auto r = s.wait(deadline::unbounded(), &tok);
    interrupted.store(r == park_slot::wait_result::interrupted);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  tok.interrupt();
  t.join();
  EXPECT_TRUE(interrupted.load());
}

TEST(ParkSlot, SpinThenParkCompletesViaPredicate) {
  park_slot s;
  std::atomic<bool> cond{false};
  std::thread setter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    cond.store(true);
    s.signal();
  });
  auto r = spin_then_park(
      s, [&] { return cond.load(); }, [] { return true; },
      spin_policy::adaptive(), deadline::unbounded());
  setter.join();
  EXPECT_EQ(r, park_slot::wait_result::woken);
}

TEST(ParkSlot, SpinThenParkTimesOut) {
  park_slot s;
  auto r = spin_then_park(
      s, [] { return false; }, [] { return true; }, spin_policy::adaptive(),
      deadline::in(std::chrono::milliseconds(20)));
  EXPECT_EQ(r, park_slot::wait_result::timeout);
}

TEST(ParkSlot, SpinOnlyPolicyNeverParks) {
  diag::reset_all();
  park_slot s;
  std::atomic<bool> cond{false};
  std::thread setter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    cond.store(true);
  });
  auto r = spin_then_park(
      s, [&] { return cond.load(); }, [] { return true; },
      spin_policy::spin_only(), deadline::unbounded());
  setter.join();
  EXPECT_EQ(r, park_slot::wait_result::woken);
  EXPECT_EQ(diag::read(diag::id::park), 0u);
  EXPECT_GT(diag::read(diag::id::spin_retry), 0u);
}

// Every exit of spin_then_park() reports the iterations it spun: the count
// is kept locally and bumped once on the way out, whichever way that is.
TEST(ParkSlot, SpinRetryCountedOnEveryExit) {
  const spin_policy long_spin{100000, 100000, 64}; // 100 ms: never runs out
  const spin_policy short_spin{20, 20, 64};
  auto spun = [](auto &&wait) {
    const std::uint64_t before = diag::read(diag::id::spin_retry);
    const auto r = wait();
    return std::pair{r, diag::read(diag::id::spin_retry) - before};
  };
  {
    park_slot s;
    int probes = 0;
    auto [r, n] = spun([&] {
      return spin_then_park(s, [&] { return ++probes == 10; },
                            [] { return true; }, long_spin,
                            deadline::unbounded());
    });
    EXPECT_EQ(r, park_slot::wait_result::woken);
    EXPECT_EQ(n, 9u) << "woken in the spin phase";
  }
  {
    park_slot s;
    auto [r, n] = spun([&] {
      return spin_then_park(s, [] { return false; }, [] { return true; },
                            long_spin,
                            deadline::in(std::chrono::milliseconds(20)));
    });
    EXPECT_EQ(r, park_slot::wait_result::timeout);
    EXPECT_GT(n, 0u) << "timed out while spinning";
  }
  {
    park_slot s;
    auto [r, n] = spun([&] {
      return spin_then_park(s, [] { return false; }, [] { return true; },
                            short_spin,
                            deadline::in(std::chrono::milliseconds(20)));
    });
    EXPECT_EQ(r, park_slot::wait_result::timeout);
    EXPECT_GT(n, 0u) << "timed out while parked";
  }
  {
    park_slot s;
    interrupt_token tok;
    std::atomic<int> probes{0};
    std::thread interrupter([&] {
      while (probes.load() < 10) std::this_thread::yield();
      tok.interrupt();
    });
    auto [r, n] = spun([&] {
      return spin_then_park(
          s, [&] { return probes.fetch_add(1) < 0; }, [] { return true; },
          spin_policy::spin_only(), deadline::unbounded(), &tok);
    });
    interrupter.join();
    EXPECT_EQ(r, park_slot::wait_result::interrupted);
    EXPECT_GT(n, 0u) << "interrupted while spinning";
  }
}

// The spin budget is wall-clock time, so the spin phase lasts as long with
// three threads spinning at once as with one. (Counted in iterations that
// each bumped a shared counter, it ran ~3x longer with three spinners.)
TEST(ParkSlot, SpinPhaseLengthIndependentOfSpinnerCount) {
  if (std::thread::hardware_concurrency() < 4)
    GTEST_SKIP() << "needs a core per spinner";
  // The library's budgets without the periodic sched_yield, which on a
  // loaded host hands the CPU away for a scheduler-chosen time.
  spin_policy pol = spin_policy::adaptive();
  pol.yield_every = 0;
  // Entry to first prepare(): the first probe that finds the slot armed is
  // the post-prepare re-check, and answering true there ends the wait.
  auto spin_phase_ns = [&pol] {
    park_slot s;
    steady_clock::time_point armed{};
    const auto t0 = steady_clock::now();
    spin_then_park(
        s,
        [&] {
          if (!s.is_armed()) return false;
          armed = steady_clock::now();
          return true;
        },
        [] { return true; }, pol, deadline::in(std::chrono::seconds(10)));
    return static_cast<double>((armed - t0).count());
  };
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  constexpr int reps = 60;
  std::vector<double> one, three;
  for (int r = 0; r < reps; ++r) one.push_back(spin_phase_ns());
  for (int r = 0; r < reps; ++r) {
    std::atomic<int> ready{0};
    std::mutex mu;
    std::vector<std::thread> ts;
    for (int t = 0; t < 3; ++t)
      ts.emplace_back([&] {
        ready.fetch_add(1);
        while (ready.load() < 3) {
        }
        const double ns = spin_phase_ns();
        std::lock_guard<std::mutex> lk(mu);
        three.push_back(ns);
      });
    for (auto &t : ts) t.join();
  }
  const double m1 = median(one), m3 = median(three);
  EXPECT_LE(m3, 2 * m1) << "1 spinner: " << m1 << " ns, 3 spinners: " << m3
                        << " ns";
}

TEST(ParkSlot, ParkOnlyPolicyParksPromptly) {
  diag::reset_all();
  park_slot s;
  std::atomic<bool> cond{false};
  std::thread setter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    cond.store(true);
    s.signal();
  });
  spin_then_park(
      s, [&] { return cond.load(); }, [] { return true; },
      spin_policy::park_only(), deadline::unbounded());
  setter.join();
  EXPECT_GE(diag::read(diag::id::park), 1u);
}

// wake() is signal() without the permit: on a slot nobody armed it writes
// nothing, so a later prepare() + wait() still blocks.
TEST(ParkSlot, WakeOnIdleSlotLeavesItIdle) {
  park_slot s;
  s.wake();
  EXPECT_FALSE(s.was_signalled());
  EXPECT_FALSE(s.is_armed());
  s.prepare();
  EXPECT_EQ(s.wait(deadline::in(std::chrono::milliseconds(20))),
            park_slot::wait_result::timeout);
  s.disarm();
}

TEST(ParkSlot, WakeReleasesArmedWaiter) {
  park_slot s;
  std::atomic<bool> cond{false};
  std::thread waiter([&] {
    for (;;) { // guarded wait
      if (cond.load()) break;
      s.prepare();
      if (cond.load()) break;
      s.wait(deadline::in(std::chrono::seconds(10))); // bounded: no hang
    }
  });
  while (!s.is_armed()) std::this_thread::yield();
  cond.store(true);
  s.wake();
  waiter.join();
  EXPECT_TRUE(s.was_signalled());
}

// Two threads hand a turn counter back and forth, each waiting through
// spin_then_park() under park_only (every wait goes straight to prepare,
// the fence and the re-check) and each woken only by wake(). A wake lost
// between a prepare() and the wait would park a thread until its 10 s
// deadline; the test counts those instead of hanging.
TEST(ParkSlot, WakeNeverMissesAParkedWaiter) {
  constexpr int rounds = 100000;
  park_slot slot[2];
  std::atomic<int> turn{0};
  std::atomic<int> missed{0};
  auto player = [&](int me) {
    for (int r = 0; r < rounds; ++r) {
      const int mine = 2 * r + me;
      slot[me].reset();
      auto res = spin_then_park(
          slot[me],
          [&] { return turn.load(std::memory_order_acquire) == mine; },
          [] { return true; }, spin_policy::park_only(),
          deadline::in(std::chrono::seconds(10)));
      if (res != park_slot::wait_result::woken) {
        missed.fetch_add(1);
        return;
      }
      turn.store(mine + 1, std::memory_order_seq_cst);
      slot[1 - me].wake();
    }
  };
  std::thread a(player, 0), b(player, 1);
  a.join();
  b.join();
  EXPECT_EQ(missed.load(), 0);
  EXPECT_EQ(turn.load(), 2 * rounds);
}

// ---------------------------------------------------------------- policy

TEST(SpinPolicy, AdaptiveMatchesPaperOnUniprocessor) {
  auto pol = spin_policy::adaptive();
  if (std::thread::hardware_concurrency() <= 1) {
    EXPECT_EQ(pol.front_spins, 0) << "busy-wait is useless on a uniprocessor";
  } else {
    EXPECT_GT(pol.front_spins, 0);
    EXPECT_GT(pol.front_spins, pol.back_spins)
        << "front-of-line waiters spin longer";
  }
}

TEST(SpinPolicy, SpinOnlyIsUnbounded) {
  EXPECT_TRUE(spin_policy::spin_only().unbounded_spin());
  EXPECT_FALSE(spin_policy::park_only().unbounded_spin());
}

TEST(Backoff, LimitGrowsAndResets) {
  backoff b(42, 4, 64);
  auto l0 = b.current_limit();
  b.pause();
  b.pause();
  EXPECT_GT(b.current_limit(), l0);
  for (int i = 0; i < 20; ++i) b.pause();
  EXPECT_LE(b.current_limit(), 64u) << "truncated at max";
  b.reset();
  EXPECT_EQ(b.current_limit(), 4u);
}

// ---------------------------------------------------------------- semaphore

TEST(Semaphore, InitialPermitsAreAcquirable) {
  counting_semaphore s(2);
  EXPECT_TRUE(s.try_acquire());
  EXPECT_TRUE(s.try_acquire());
  EXPECT_FALSE(s.try_acquire());
}

TEST(Semaphore, ReleaseUnblocksAcquire) {
  counting_semaphore s(0);
  std::atomic<bool> got{false};
  std::thread t([&] {
    s.acquire();
    got.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(got.load());
  s.release();
  t.join();
  EXPECT_TRUE(got.load());
}

TEST(Semaphore, TimedAcquireExpires) {
  counting_semaphore s(0);
  EXPECT_FALSE(s.try_acquire_for(std::chrono::milliseconds(20)));
}

TEST(Semaphore, TimedAcquireSucceedsWhenReleased) {
  counting_semaphore s(0);
  std::thread t([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    s.release();
  });
  EXPECT_TRUE(s.try_acquire_for(std::chrono::seconds(5)));
  t.join();
}

TEST(Semaphore, CountingStress) {
  counting_semaphore s(0);
  const int n = 4, per = 5000;
  std::atomic<int> acquired{0};
  std::vector<std::thread> ts;
  for (int i = 0; i < n; ++i)
    ts.emplace_back([&] {
      for (int j = 0; j < per; ++j) s.release();
    });
  for (int i = 0; i < n; ++i)
    ts.emplace_back([&] {
      for (int j = 0; j < per; ++j) {
        s.acquire();
        acquired.fetch_add(1);
      }
    });
  for (auto &t : ts) t.join();
  EXPECT_EQ(acquired.load(), n * per);
  EXPECT_EQ(s.value(), 0u);
}

// ---------------------------------------------------------------- monitor

TEST(Monitor, WaitNotifyAll) {
  monitor m;
  bool flag = false;
  std::thread t([&] {
    m.synchronized([&](monitor::scope &s) {
      while (!flag) s.wait();
    });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  m.synchronized([&](monitor::scope &s) {
    flag = true;
    s.notify_all();
  });
  t.join();
}

TEST(Monitor, TimedWaitExpires) {
  monitor m;
  bool ok = m.synchronized([&](monitor::scope &s) {
    return s.wait_until(deadline::in(std::chrono::milliseconds(20)));
  });
  EXPECT_FALSE(ok);
}

TEST(Monitor, SynchronizedReturnsValue) {
  monitor m;
  int v = m.synchronized([&](monitor::scope &) { return 41 + 1; });
  EXPECT_EQ(v, 42);
}

// ---------------------------------------------------------------- fair lock

TEST(FairLock, BasicMutualExclusion) {
  fair_lock lk;
  int counter = 0;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t)
    ts.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        std::lock_guard<fair_lock> g(lk);
        ++counter; // data race iff mutual exclusion broken (run under TSan)
      }
    });
  for (auto &t : ts) t.join();
  EXPECT_EQ(counter, 40000);
}

TEST(FairLock, TryLockDoesNotBarge) {
  fair_lock lk;
  lk.lock();
  EXPECT_FALSE(lk.try_lock());
  lk.unlock();
  EXPECT_TRUE(lk.try_lock());
  lk.unlock();
}

TEST(FairLock, QueueLengthObserver) {
  fair_lock lk;
  EXPECT_EQ(lk.queue_length(), 0u);
  EXPECT_FALSE(lk.is_locked());
  lk.lock();
  EXPECT_EQ(lk.queue_length(), 1u);
  EXPECT_TRUE(lk.is_locked());
  lk.unlock();
  EXPECT_FALSE(lk.is_locked());
}

TEST(FairLock, ServiceOrderMatchesArrivalOrder) {
  // Deterministic FIFO check: contenders take tickets one at a time (the
  // next thread is released only after the previous holds a ticket, which
  // we detect via queue_length), then record service order.
  fair_lock lk;
  const int n = 8;
  std::vector<int> service;
  std::mutex sm;

  lk.lock();
  std::vector<std::thread> ts;
  for (int i = 0; i < n; ++i) {
    std::uint32_t before = lk.queue_length();
    ts.emplace_back([&, i] {
      lk.lock();
      {
        std::lock_guard<std::mutex> g(sm);
        service.push_back(i);
      }
      lk.unlock();
    });
    while (lk.queue_length() == before) std::this_thread::yield();
  }
  lk.unlock();
  for (auto &t : ts) t.join();

  ASSERT_EQ(service.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(service[static_cast<std::size_t>(i)], i)
        << "fair lock served out of arrival order";
}

// ---------------------------------------------------------------- interrupt

TEST(Interrupt, FlagAndGeneration) {
  interrupt_token tok;
  EXPECT_FALSE(tok.interrupted());
  EXPECT_EQ(tok.generation(), 0u);
  tok.interrupt();
  EXPECT_TRUE(tok.interrupted());
  EXPECT_EQ(tok.generation(), 1u);
  EXPECT_TRUE(tok.consume());
  EXPECT_FALSE(tok.interrupted());
  EXPECT_FALSE(tok.consume());
}

TEST(Interrupt, DeliveryLatencyIsBounded) {
  park_slot s;
  interrupt_token tok;
  std::atomic<double> latency_ms{-1};
  std::thread t([&] {
    s.prepare();
    auto t0 = steady_clock::now();
    s.wait(deadline::unbounded(), &tok);
    latency_ms.store(
        std::chrono::duration<double, std::milli>(steady_clock::now() - t0)
            .count());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto t0 = steady_clock::now();
  tok.interrupt();
  t.join();
  auto total =
      std::chrono::duration<double, std::milli>(steady_clock::now() - t0)
          .count();
  EXPECT_LT(total, 500.0) << "interrupt must be observed within quanta";
}
