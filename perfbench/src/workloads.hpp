// The benchmark's workloads, written against the library's public API only.
//
// One call runs one episode: build the queue or pool and start every thread
// (timed as set-up), release the threads together, measure for a fixed
// time, then stop, drain and check that every item or task was delivered
// exactly once. An episode with a zero-length timed phase measures set-up
// alone.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "executor/thread_pool_executor.hpp"
#include "stats.hpp"
#include "support/diagnostics.hpp"
#include "support/relax.hpp"
#include "support/rng.hpp"
#include "trace.hpp"

namespace perfbench {

namespace diag = ssq::diag;

// Deliberate output faults, used only by the self-test to prove the
// exactly-once check catches them.
enum class inject { none, drop, dup };

struct episode_opts {
  double seconds = 0;      // length of the timed phase; 0 = set-up only
  std::uint64_t seed = 0;  // drives item values and the arrival schedule
  unsigned episode = 0;    // makes span ids unique across episodes
  bool traced = false;
  inject fault = inject::none;
};

struct episode_result {
  double setup_s = 0;
  double seconds = 0;       // measured length of the timed phase
  std::uint64_t ops = 0;    // handoffs or tasks completed in it
  double cpu_ns = 0;        // process CPU over it (pool: minus the
                            // generator's busy-wait)
  histogram latency;        // put() durations / task start - due time
  histogram take;           // traced: take() durations
  histogram submit;         // traced: execute() durations
  histogram late;           // pool: how late the generator ran
  std::uint64_t attempted = 0, failed = 0;
  diag::snapshot counters;  // diag deltas over the timed phase
  std::uint64_t spawned = 0;
  std::size_t largest_pool = 0;
  std::vector<span> spans;
  std::uint64_t spans_dropped = 0;
};

inline void sleep_until_ns(std::int64_t t) {
  std::int64_t d = t - now_ns();
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

// Span ids: the episode in the high bits keeps ids of different episodes
// of one traced run apart.
inline std::uint64_t span_id(unsigned episode, std::uint64_t id) noexcept {
  return (std::uint64_t{episode} << 40) | id;
}

// ---------------------------------------------------------------------------
// Closed loops: P producers put, C consumers take, as fast as they can.

struct closed_shape {
  unsigned producers, consumers;
};

// Item values: a seeded bijection of the item id, so values are distinct
// and the inputs follow the seed. The value of the largest id is reserved
// as the poison pill that stops a consumer.
struct item_map {
  std::uint32_t mul, key;
  explicit item_map(std::uint64_t seed) noexcept {
    std::uint64_t s = seed;
    mul = static_cast<std::uint32_t>(ssq::splitmix64(s)) | 1u;
    key = static_cast<std::uint32_t>(ssq::splitmix64(s));
  }
  std::uint32_t value(std::uint64_t id) const noexcept {
    return (static_cast<std::uint32_t>(id) * mul) ^ key;
  }
  static constexpr std::uint64_t max_id = 0xFFFFFFFFull;
  std::uint32_t poison() const noexcept { return value(max_id); }
};

// Closed loops keep every 64th item's spans (chosen by value, so both
// sides of a handoff agree) to bound the traced run's memory.
inline constexpr std::uint32_t closed_sample_mask = 63;

// Per-thread state lives as long as the process and is reset for each
// episode. Allocating it afresh every episode would fragment the heap, and
// the peak resident set would then vary from run to run by more than the
// library's own memory moves it.

struct alignas(64) closed_slot {
  std::atomic<std::uint64_t> ops{0};
  histogram lat; // producer: put(); consumer (traced): take()
  tally items;
  std::uint32_t last = 0;
  span_buffer spans;

  void reset(bool traced) {
    ops.store(0, std::memory_order_relaxed);
    lat.reset();
    items = {};
    last = 0;
    spans.clear();
    if (traced) spans.reserve();
  }
};

inline constexpr unsigned max_closed_threads = 4;

// The first `n` closed-loop slots, reset.
inline closed_slot *closed_slots(unsigned n, bool traced) {
  static closed_slot slots[max_closed_threads];
  if (n > max_closed_threads) {
    std::fprintf(stderr, "perfbench: more than %u closed-loop threads\n",
                 max_closed_threads);
    std::abort();
  }
  for (unsigned i = 0; i < n; ++i) slots[i].reset(traced);
  return slots;
}

template <typename Q>
episode_result run_closed(closed_shape shape, const episode_opts &o) {
  episode_result r;
  const unsigned P = shape.producers, C = shape.consumers, N = P + C;
  const item_map map(o.seed ^ (std::uint64_t{o.episode} << 32));
  const std::uint32_t poison = map.poison();
  closed_slot *const slots = closed_slots(N, o.traced);
  start_gate gate;

  const std::int64_t t_begin = now_ns();
  auto q = std::make_unique<Q>();
  std::vector<std::thread> threads;
  for (unsigned p = 0; p < P; ++p)
    threads.emplace_back([&, p] {
      closed_slot &s = slots[p];
      gate.arrive_and_wait();
      for (std::uint64_t n = 0; !gate.stop.load(std::memory_order_relaxed);) {
        const std::uint64_t id = n * P + p;
        if (id >= item_map::max_id) break; // ~4e9 items; never reached
        const std::uint32_t v = map.value(id);
        const std::int64_t a = now_ns();
        q->put(v);
        const std::int64_t b = now_ns();
        s.lat.record(b - a);
        s.items.add(v);
        if (o.traced && (v & closed_sample_mask) == 0)
          s.spans.add(span_name::put, span_name::none, span_id(o.episode, v),
                      a, b, static_cast<std::uint16_t>(p));
        s.ops.store(++n, std::memory_order_relaxed);
      }
    });
  for (unsigned c = 0; c < C; ++c)
    threads.emplace_back([&, c] {
      closed_slot &s = slots[P + c];
      gate.arrive_and_wait();
      for (;;) {
        const std::int64_t a = o.traced ? now_ns() : 0;
        const std::uint32_t v = q->take();
        if (v == poison) break;
        s.items.add(v);
        s.last = v;
        if (o.traced) {
          const std::int64_t b = now_ns();
          s.lat.record(b - a);
          if ((v & closed_sample_mask) == 0)
            s.spans.add(span_name::take, span_name::put,
                        span_id(o.episode, v), a, b,
                        static_cast<std::uint16_t>(P + c));
        }
      }
    });
  gate.wait_ready(N);
  r.setup_s = static_cast<double>(now_ns() - t_begin) * 1e-9;

  if (o.seconds <= 0) gate.stop.store(true, std::memory_order_relaxed);
  const diag::snapshot d0 = diag::snapshot::take();
  const std::int64_t c0 = process_cpu_ns(), t0 = now_ns();
  gate.go.store(true, std::memory_order_release);
  if (o.seconds > 0) {
    sleep_until_ns(t0 + static_cast<std::int64_t>(o.seconds * 1e9));
    const std::int64_t t1 = now_ns();
    for (unsigned p = 0; p < P; ++p)
      r.ops += slots[p].ops.load(std::memory_order_relaxed);
    r.cpu_ns = static_cast<double>(process_cpu_ns() - c0);
    r.counters = diag::snapshot::take() - d0;
    r.seconds = static_cast<double>(t1 - t0) * 1e-9;
    gate.stop.store(true, std::memory_order_relaxed);
  }
  // Producers finish their in-flight put (consumers are still taking),
  // then one poison pill per consumer ends the consumers.
  for (unsigned p = 0; p < P; ++p) threads[p].join();
  for (unsigned c = 0; c < C; ++c) q->put(poison);
  for (unsigned c = 0; c < C; ++c) threads[P + c].join();

  tally sent, got;
  for (unsigned p = 0; p < P; ++p) {
    sent.merge(slots[p].items);
    r.latency.merge(slots[p].lat);
  }
  closed_slot &c0slot = slots[P];
  if (c0slot.items.count > 0 && o.fault == inject::drop)
    c0slot.items.remove(c0slot.last);
  if (c0slot.items.count > 0 && o.fault == inject::dup)
    c0slot.items.add(c0slot.last);
  for (unsigned c = 0; c < C; ++c) {
    got.merge(slots[P + c].items);
    r.take.merge(slots[P + c].lat);
  }
  r.attempted = sent.count;
  r.failed = delivery_errors(sent, got);
  for (unsigned i = 0; i < N; ++i) {
    r.spans.insert(r.spans.end(), slots[i].spans.spans().begin(),
                   slots[i].spans.spans().end());
    r.spans_dropped += slots[i].spans.dropped();
  }
  return r;
}

// ---------------------------------------------------------------------------
// Open loop: one submitter feeds a capped thread_pool_executor with Poisson
// arrivals at a fixed rate; each task records when it started.

struct pool_shape {
  unsigned workers; // pool cap
  double rate;      // tasks per second
};

// Every 4th task's spans are kept; execute() is timed for all of them.
inline constexpr std::uint64_t pool_sample_mask = 3;

// The pool is capped at a few workers and none retires, so a handful of
// slots is plenty; running out means the executor spawned far past its cap.
inline constexpr unsigned max_worker_slots = 8;

struct alignas(64) worker_slot {
  std::atomic<std::uint64_t> ran{0};
  histogram lat; // task start - scheduled due time
  tally tasks;
  std::uint64_t last = 0;
  span_buffer spans;

  void reset() {
    ran.store(0, std::memory_order_relaxed);
    lat.reset();
    tasks = {};
    last = 0;
    spans.clear();
  }
};

struct pool_ctx {
  worker_slot slots[max_worker_slots];
  std::atomic<unsigned> nslots{0};
  std::atomic<unsigned> warm{0};
  bool traced = false;
};

// The process's pool context, reset.
inline pool_ctx &fresh_pool_ctx(bool traced) {
  static pool_ctx ctx;
  for (auto &s : ctx.slots) s.reset();
  ctx.nslots.store(0, std::memory_order_relaxed);
  ctx.warm.store(0, std::memory_order_relaxed);
  ctx.traced = traced;
  return ctx;
}

// The calling worker's slot in `c`, claimed on its first task. Workers are
// joined at the end of their episode, so a claim never outlives it.
inline std::pair<worker_slot *, unsigned> my_slot(pool_ctx &c) {
  thread_local pool_ctx *ctx = nullptr;
  thread_local unsigned idx = 0;
  if (ctx != &c) {
    idx = c.nslots.fetch_add(1, std::memory_order_relaxed);
    if (idx >= max_worker_slots) {
      std::fprintf(stderr, "perfbench: more than %u pool workers\n",
                   max_worker_slots);
      std::abort();
    }
    if (c.traced) c.slots[idx].spans.reserve();
    ctx = &c;
  }
  return {&c.slots[idx], idx};
}

template <typename Q>
episode_result run_pool(pool_shape shape, const episode_opts &o) {
  using executor = ssq::thread_pool_executor<Q>;
  episode_result r;
  pool_ctx *const ctx = &fresh_pool_ctx(o.traced);
  start_gate gate;
  std::atomic<std::int64_t> t0_shared{0};
  tally sent;
  std::uint64_t rejected = 0;
  std::int64_t spin_wall = 0, submitter_cpu = 0;
  histogram submit, late;
  span_buffer submit_spans;
  if (o.traced) submit_spans.reserve();
  const std::uint16_t submitter_tid = max_worker_slots;

  const std::int64_t t_begin = now_ns();
  // Keep-alive far beyond any run, so no worker retires mid-run.
  auto ex = std::make_unique<executor>(ssq::executor_config{
      0, shape.workers, std::chrono::hours(1)});
  std::thread submitter([&] {
    gate.arrive_and_wait();
    const std::int64_t c_start = thread_cpu_ns();
    const std::int64_t t0 = t0_shared.load(std::memory_order_relaxed);
    const std::int64_t t_end = t0 + static_cast<std::int64_t>(o.seconds * 1e9);
    ssq::xoshiro256 rng(o.seed * 0x9e3779b97f4a7c15ULL + o.episode);
    const double gap_ns = 1e9 / shape.rate;
    double offset = 0;
    pool_ctx *c = ctx;
    for (std::uint64_t n = 1;; ++n) {
      const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
      offset += -std::log1p(-u) * gap_ns;
      const std::int64_t due = t0 + static_cast<std::int64_t>(offset);
      if (due >= t_end) break;
      // Busy-wait for the due time: sleeping would add a wake-up delay of
      // the same order as what is measured.
      const std::int64_t w0 = now_ns();
      std::int64_t a = w0;
      while (a < due) {
        ssq::cpu_relax();
        a = now_ns();
      }
      spin_wall += a - w0;
      late.record(a - due);
      const std::uint64_t id = span_id(o.episode, n);
      const bool traced = o.traced && (n & pool_sample_mask) == 0;
      const bool ok = ex->execute(ssq::unique_task([c, id, due, traced] {
        const std::int64_t s = now_ns();
        auto [w, idx] = my_slot(*c);
        w->lat.record(s - due);
        w->tasks.add(id);
        w->last = id;
        if (traced) {
          const std::int64_t e = now_ns();
          const auto tid = static_cast<std::uint16_t>(idx);
          w->spans.add(span_name::task, span_name::arrival, id, s, e, tid);
          w->spans.add(span_name::arrival, span_name::none, id, due, e, tid);
        }
        w->ran.store(w->ran.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
      }));
      if (ok) {
        sent.add(id);
      } else {
        ++rejected;
      }
      if (o.traced) {
        const std::int64_t b = now_ns();
        submit.record(b - a);
        if (traced)
          submit_spans.add(span_name::execute, span_name::arrival, id, a, b,
                           submitter_tid);
      }
    }
    submitter_cpu = thread_cpu_ns() - c_start;
  });
  // Start every worker up to the cap: each warm-up task holds its worker
  // until all of them run, so the executor must spawn a new one each time.
  for (unsigned i = 0; i < shape.workers; ++i)
    ex->execute(ssq::unique_task([c = ctx, n = shape.workers] {
      c->warm.fetch_add(1, std::memory_order_acq_rel);
      while (c->warm.load(std::memory_order_acquire) < n)
        std::this_thread::yield();
    }));
  while (ctx->warm.load(std::memory_order_acquire) < shape.workers)
    std::this_thread::yield();
  gate.wait_ready(1);
  r.setup_s = static_cast<double>(now_ns() - t_begin) * 1e-9;

  const diag::snapshot d0 = diag::snapshot::take();
  const std::int64_t c0 = process_cpu_ns(), t0 = now_ns();
  t0_shared.store(t0, std::memory_order_relaxed);
  gate.go.store(true, std::memory_order_release);
  submitter.join();
  if (o.seconds > 0) {
    const std::int64_t t1 = now_ns();
    for (auto &s : ctx->slots) r.ops += s.ran.load(std::memory_order_relaxed);
    const double spin_cpu =
        static_cast<double>(std::min(spin_wall, submitter_cpu));
    r.cpu_ns = static_cast<double>(process_cpu_ns() - c0) - spin_cpu;
    r.counters = diag::snapshot::take() - d0;
    r.seconds = static_cast<double>(t1 - t0) * 1e-9;
  }
  r.spawned = ex->spawned_count(); // the set-up spawns included
  r.largest_pool = ex->largest_pool_size();
  ex->shutdown();
  ex->join();
  ex.reset();

  tally got;
  worker_slot *faulty = nullptr;
  for (auto &s : ctx->slots) {
    if (s.tasks.count > 0) faulty = &s;
    got.merge(s.tasks);
    r.latency.merge(s.lat);
    r.spans.insert(r.spans.end(), s.spans.spans().begin(),
                   s.spans.spans().end());
    r.spans_dropped += s.spans.dropped();
  }
  if (faulty && o.fault == inject::drop) got.remove(faulty->last);
  if (faulty && o.fault == inject::dup) got.add(faulty->last);
  r.attempted = sent.count + rejected;
  r.failed = rejected + delivery_errors(sent, got);
  r.submit = submit;
  r.late = late;
  r.spans.insert(r.spans.end(), submit_spans.spans().begin(),
                 submit_spans.spans().end());
  r.spans_dropped += submit_spans.dropped();
  return r;
}

} // namespace perfbench
