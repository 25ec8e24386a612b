// Layer calibration loops of the traced run: the cost of one call into one
// layer, timed from outside through the layer's public functions, each
// keeping the protocol the library itself follows.
//
// Every loop runs `batches` timed batches and reports the median ns per
// operation, so one descheduled batch does not move the figure, together
// with the number of operations the timed batches made.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "executor/task.hpp"
#include "harness/stats.hpp"
#include "memory/hazard.hpp"
#include "memory/node_pool.hpp"
#include "stats.hpp"
#include "support/codec.hpp"
#include "support/diagnostics.hpp"
#include "support/time.hpp"
#include "sync/park_slot.hpp"

namespace perfbench {

inline constexpr int batches = 7;

struct calib {
  double ns;             // median over batches of ns per operation
  std::uint64_t samples; // operations timed, all batches together
};

// Median over batches of ns per iteration of `body(iters)`.
template <typename Body>
calib per_op_ns(std::uint64_t iters, Body body) {
  std::vector<double> v;
  body(iters / 4 + 1); // warm caches and lazy per-thread state
  for (int b = 0; b < batches; ++b) {
    const std::int64_t t0 = now_ns();
    body(iters);
    v.push_back(static_cast<double>(now_ns() - t0) /
                static_cast<double>(iters));
  }
  return {ssq::harness::summarize(v).median, iters * batches};
}

// offer() on a queue with no waiting consumer: the executor's miss path.
// A boxed item type goes through try_put_ref, exactly as execute() does.
template <typename Q, typename T>
calib offer_miss_ns(T proto) {
  Q q;
  return per_op_ns(100'000, [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      if constexpr (ssq::item_codec<T>::boxed) {
        keep(q.try_put_ref(proto, ssq::deadline::expired()));
      } else {
        keep(q.offer(proto));
      }
    }
  });
}

// poll() on a queue with no waiting producer.
template <typename Q>
calib poll_miss_ns() {
  Q q;
  return per_op_ns(100'000, [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) keep(q.poll().has_value());
  });
}

// Node blocks come from the process-wide pool of the size class the
// library's cache-line-aligned nodes use.
inline constexpr std::size_t node_block = 64;

// allocate + deallocate through the thread's magazine, in bursts the size
// of a hazard scan's frees.
inline calib pool_alloc_free_ns() {
  auto &pool = ssq::mem::node_pool::global_for(node_block, node_block);
  void *blocks[32];
  return per_op_ns(200'000, [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; i += 32) {
      for (auto &b : blocks) b = pool.allocate();
      for (auto *b : blocks) pool.deallocate(b);
    }
  });
}

// hazard::protect of a shared pointer: publish and re-validate.
inline calib hp_protect_ns() {
  static int target = 0;
  std::atomic<int *> src{&target};
  ssq::mem::hazard_domain::hazard h;
  return per_op_ns(1'000'000, [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) keep(h.protect(src));
  });
}

// hazard_domain::retire of pool blocks with the library's own deleter,
// which returns them to the pool once a scan proves them unreferenced.
// Scans run inside retire, so their cost is amortised into the figure.
inline calib hp_retire_ns() {
  auto &dom = ssq::mem::hazard_domain::global();
  auto &pool = ssq::mem::node_pool::global_for(node_block, node_block);
  constexpr std::uint64_t n_blocks = 100'000;
  std::vector<void *> blocks(n_blocks);
  auto deleter = [](void *p) {
    ssq::mem::node_pool::deallocate_global(node_block, node_block, p);
  };
  std::vector<double> v;
  for (int b = 0; b < batches + 1; ++b) {
    for (auto &p : blocks) p = pool.allocate();
    const std::int64_t t0 = now_ns();
    for (void *p : blocks) dom.retire(p, deleter);
    const std::int64_t t1 = now_ns();
    dom.drain();
    if (b > 0) // the first batch warms the domain
      v.push_back(static_cast<double>(t1 - t0) / n_blocks);
  }
  return {ssq::harness::summarize(v).median, n_blocks * batches};
}

// One round trip between two threads through park_slot with the guarded
// idiom: prepare, re-check, wait; the partner makes the condition true and
// signals. No spinning, so each leg is a kernel park and wake.
inline calib park_roundtrip_ns() {
  struct side {
    ssq::sync::park_slot slot;
    std::atomic<std::uint64_t> turn{0};
  };
  auto a = std::make_unique<side>(), b = std::make_unique<side>();
  auto await = [](side &s, std::uint64_t want) {
    for (;;) {
      if (s.turn.load(std::memory_order_acquire) >= want) break;
      s.slot.prepare();
      if (s.turn.load(std::memory_order_acquire) >= want) {
        s.slot.disarm();
        break;
      }
      s.slot.wait(ssq::deadline::unbounded());
    }
    s.slot.reset(); // the next round trip is a new wait episode
  };
  auto pass = [](side &s, std::uint64_t k) {
    s.turn.store(k, std::memory_order_release);
    s.slot.signal();
  };
  constexpr std::uint64_t per_batch = 2'000;
  constexpr std::uint64_t total = per_batch * (batches + 1);
  std::thread partner([&] {
    for (std::uint64_t k = 1; k <= total; ++k) {
      await(*b, k);
      pass(*a, k);
    }
  });
  std::vector<double> v;
  for (std::uint64_t k = 1; k <= total;) {
    const std::int64_t t0 = now_ns();
    for (std::uint64_t j = 0; j < per_batch; ++j, ++k) {
      pass(*b, k);
      await(*a, k);
    }
    if (k > per_batch + 1) // the first batch warms both threads
      v.push_back(static_cast<double>(now_ns() - t0) / per_batch);
  }
  partner.join();
  return {ssq::harness::summarize(v).median, per_batch * batches};
}

// encode + decode_consume of one item.
template <typename T>
calib codec_ns(T proto) {
  using codec = ssq::item_codec<T>;
  return per_op_ns(500'000, [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      ssq::item_token t = codec::encode(std::move(proto));
      keep(t);
      proto = codec::decode_consume(t);
    }
  });
}

// diag::bump of one counter, from `threads` threads at once; the figure is
// wall time per bump on each thread.
inline calib diag_bump_ns(unsigned threads) {
  constexpr std::uint64_t per_thread = 1'000'000;
  std::vector<double> v;
  for (int b = 0; b < batches + 1; ++b) {
    start_gate gate;
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < threads; ++t)
      ts.emplace_back([&] {
        gate.arrive_and_wait();
        for (std::uint64_t i = 0; i < per_thread; ++i)
          ssq::diag::bump(ssq::diag::id::spin_retry);
      });
    gate.wait_ready(threads);
    const std::int64_t t0 = now_ns();
    gate.go.store(true, std::memory_order_release);
    for (auto &t : ts) t.join();
    if (b > 0)
      v.push_back(static_cast<double>(now_ns() - t0) / per_thread);
  }
  return {ssq::harness::summarize(v).median, per_thread * threads * batches};
}

} // namespace perfbench
