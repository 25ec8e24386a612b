// Measurement primitives of the benchmark: clocks, the log-linear latency
// histogram and the exactly-once tally.
//
// Every thread owns its own histogram and tally and touches nothing shared
// while it runs; the owner merges them after the thread is joined. That keeps
// the measurement out of the cache traffic it measures.
#pragma once

#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <thread>

namespace perfbench {

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::int64_t cpu_ns(clockid_t which) noexcept {
  timespec ts{};
  clock_gettime(which, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

// User+sys CPU of the whole process, and of the calling thread.
inline std::int64_t process_cpu_ns() noexcept {
  return cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
}
inline std::int64_t thread_cpu_ns() noexcept {
  return cpu_ns(CLOCK_THREAD_CPUTIME_ID);
}

// Keeps the compiler from folding a calibration loop's work away.
template <typename T>
inline void keep(const T &v) noexcept {
  asm volatile("" : : "g"(v) : "memory");
}

// Start barrier: threads arrive and wait for `go`, so that they all start
// the timed work together; `stop` ends an episode's loops.
struct start_gate {
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};

  void arrive_and_wait() noexcept {
    ready.fetch_add(1, std::memory_order_acq_rel);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  }
  void wait_ready(unsigned n) const noexcept {
    while (ready.load(std::memory_order_acquire) < n) std::this_thread::yield();
  }
};

// Log-linear histogram of non-negative nanosecond values, HdrHistogram
// style: exact below 2^sub_bits, then 2^sub_bits buckets per power of two,
// so a reported value is within 1/2^sub_bits of the true quantile. Fixed
// size, so recording never allocates.
class histogram {
 public:
  static constexpr unsigned sub_bits = 6;
  static constexpr unsigned max_exp = 40; // ~18 minutes in ns
  static constexpr std::size_t sub = std::size_t{1} << sub_bits;
  static constexpr std::size_t buckets = (max_exp - sub_bits + 2) * sub;

  static std::size_t index_of(std::uint64_t v) noexcept {
    if (v < sub) return static_cast<std::size_t>(v);
    unsigned e = static_cast<unsigned>(std::bit_width(v)) - 1;
    if (e > max_exp) return buckets - 1;
    std::uint64_t mant = v >> (e - sub_bits); // in [sub, 2*sub)
    return (e - sub_bits + 1) * sub + static_cast<std::size_t>(mant - sub);
  }

  // Bucket `i` holds the values [lower_of(i), lower_of(i) + width_of(i)).
  static std::uint64_t width_of(std::size_t i) noexcept {
    return i < sub ? 1 : std::uint64_t{1} << (i / sub - 1);
  }
  static std::uint64_t lower_of(std::size_t i) noexcept {
    if (i < sub) return i;
    return (sub + i % sub) * width_of(i);
  }

  void record(std::int64_t ns) noexcept {
    ++counts_[index_of(ns < 0 ? 0 : static_cast<std::uint64_t>(ns))];
    ++total_;
  }

  void merge(const histogram &o) noexcept {
    for (std::size_t i = 0; i < buckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }

  std::uint64_t count() const noexcept { return total_; }

  void reset() noexcept {
    counts_.fill(0);
    total_ = 0;
  }

  // Nearest-rank position of quantile q (1-based).
  static std::uint64_t rank_of(double q, std::uint64_t n) noexcept {
    auto r = static_cast<std::uint64_t>(q * static_cast<double>(n) + 0.999999);
    return std::clamp<std::uint64_t>(r, 1, n);
  }

  // A percentile is reported only when at least `min_beyond` samples lie
  // beyond it; otherwise the tail is too thin to say anything.
  static constexpr std::uint64_t min_beyond = 10;
  bool reportable(double q) const noexcept {
    return total_ > 0 && total_ - rank_of(q, total_) >= min_beyond;
  }

  // Nearest-rank quantile, interpolated linearly inside its bucket so the
  // figure moves smoothly rather than in bucket-sized steps; 0 when empty.
  double quantile(double q) const noexcept {
    if (total_ == 0) return 0;
    const std::uint64_t rank = rank_of(q, total_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets; ++i) {
      if (seen + counts_[i] >= rank) {
        const double frac = (static_cast<double>(rank - seen) - 0.5) /
                            static_cast<double>(counts_[i]);
        return static_cast<double>(lower_of(i)) +
               frac * static_cast<double>(width_of(i));
      }
      seen += counts_[i];
    }
    return static_cast<double>(lower_of(buckets - 1));
  }

 private:
  std::array<std::uint64_t, buckets> counts_{};
  std::uint64_t total_ = 0;
};

// Order-independent fingerprint of a multiset of item values: count, sum
// and sum of a 64-bit mix of each value. Producers and consumers each keep
// one; exactly-once delivery means the merged sides are equal.
struct tally {
  std::uint64_t count = 0, sum = 0, hsum = 0;

  static std::uint64_t mix(std::uint64_t z) noexcept {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  void add(std::uint64_t v) noexcept {
    ++count;
    sum += v;
    hsum += mix(v + 0x9e3779b97f4a7c15ULL);
  }
  void remove(std::uint64_t v) noexcept {
    --count;
    sum -= v;
    hsum -= mix(v + 0x9e3779b97f4a7c15ULL);
  }
  void merge(const tally &o) noexcept {
    count += o.count;
    sum += o.sum;
    hsum += o.hsum;
  }
};

// Lower bound on the items lost or duplicated between what was sent and
// what was received. Equal counts with different fingerprints mean at
// least one item went missing and another arrived twice.
inline std::uint64_t delivery_errors(const tally &sent,
                                     const tally &got) noexcept {
  if (sent.count != got.count)
    return sent.count > got.count ? sent.count - got.count
                                  : got.count - sent.count;
  return (sent.sum != got.sum || sent.hsum != got.hsum) ? 2 : 0;
}

} // namespace perfbench
