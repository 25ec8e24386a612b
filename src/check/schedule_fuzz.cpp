#include "check/schedule_fuzz.hpp"

#if defined(SSQ_SCHEDULE_FUZZ)

#include <chrono>
#include <cstdlib>
#include <thread>

#include "support/rng.hpp"

namespace ssq::fuzz {

namespace detail {
std::atomic<bool> g_enabled{false};
} // namespace detail

namespace {

std::atomic<std::uint64_t> g_epoch{0}; // bumped by enable(): re-seeds threads
std::atomic<std::uint64_t> g_fired{0};
std::atomic<point_hook> g_hook{nullptr};
config g_cfg; // written only while quiescent (see header)

struct thread_stream {
  xoshiro256 rng{1};
  std::uint64_t epoch = ~std::uint64_t{0};
};

thread_stream &stream() {
  thread_local thread_stream s;
  std::uint64_t e = g_epoch.load(std::memory_order_acquire);
  if (s.epoch != e) {
    // Seed: global seed x epoch x a per-thread splitmix stream so threads
    // are uncorrelated but the set of streams is reproducible per seed.
    thread_local const std::uint64_t tid_salt = [] {
      static std::atomic<std::uint64_t> counter{0};
      return counter.fetch_add(1, std::memory_order_relaxed) + 1;
    }();
    std::uint64_t mix = g_cfg.seed ^ (e * 0x9e3779b97f4a7c15ULL);
    mix ^= tid_salt * 0xbf58476d1ce4e5b9ULL;
    s.rng = xoshiro256(mix);
    s.epoch = e;
  }
  return s;
}

// Environment activation for binaries that never call enable() themselves
// (the ctest suites under the schedule-fuzz CI job): SSQ_FUZZ=1 turns the
// points on at first use, SSQ_FUZZ_SEED overrides the seed.
[[maybe_unused]] const bool g_env_init = [] {
  const char *on = std::getenv("SSQ_FUZZ");
  if (on && *on && *on != '0') {
    config c;
    if (const char *s = std::getenv("SSQ_FUZZ_SEED"))
      c.seed = std::strtoull(s, nullptr, 10);
    enable(c);
  }
  return true;
}();

} // namespace

void enable(const config &c) noexcept {
  g_cfg = c;
  g_fired.store(0, std::memory_order_relaxed);
  g_epoch.fetch_add(1, std::memory_order_acq_rel);
  detail::g_enabled.store(true, std::memory_order_release);
}

void disable() noexcept {
  detail::g_enabled.store(false, std::memory_order_release);
}

bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_acquire);
}

std::uint64_t perturbations() noexcept {
  return g_fired.load(std::memory_order_relaxed);
}

void set_point_hook(point_hook h) noexcept {
  g_hook.store(h, std::memory_order_release);
}

namespace detail {

void perturb_slow(const char *label) noexcept {
  if (point_hook h = g_hook.load(std::memory_order_acquire)) h(label);
  auto &s = stream();
  std::uint64_t roll = s.rng.below(1000);
  if (roll < g_cfg.sleep_permille) {
    g_fired.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(
        std::chrono::microseconds(s.rng.below(g_cfg.max_sleep_us + 1)));
  } else if (roll < g_cfg.sleep_permille + g_cfg.yield_permille) {
    g_fired.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::yield();
  }
}

} // namespace detail

} // namespace ssq::fuzz

#endif // SSQ_SCHEDULE_FUZZ

namespace ssq::fuzz {
// Anchor so this TU is never empty (keeps ar/ranlib quiet when the
// perturbation points are compiled out).
bool compiled_with_schedule_fuzz() noexcept {
#if defined(SSQ_SCHEDULE_FUZZ)
  return true;
#else
  return false;
#endif
}
} // namespace ssq::fuzz
