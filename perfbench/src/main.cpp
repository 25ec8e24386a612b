// perfbench_ssq: the repository's benchmark binary.
//
//   perfbench_ssq run --workload NAME --seed N --seconds S --trace 0|1
//                     [--trace-out FILE] [--inject drop|dup]
//   perfbench_ssq selftest
//
// `run` measures one workload in this process and prints one JSON document
// on stdout: the host and build description, the workload parameters, the
// exactly-once check and the metrics (end-to-end ones untraced, per-layer
// ones with --trace 1). perfbench/run.py builds this binary, runs it and
// formats the result. Exit status 1 means an output check failed.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/java5_sq.hpp"
#include "calibrate.hpp"
#include "core/synchronous_queue.hpp"
#include "harness/stats.hpp"
#include "support/annotations.hpp"
#include "sync/spin_policy.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using ssq::unique_task;
using unfair_q = ssq::synchronous_queue<std::uint32_t>;
using fair_q = ssq::synchronous_queue<std::uint32_t, true>;
using task_q = ssq::synchronous_queue<unique_task>;

// ---------------------------------------------------------------- workloads
//
// Why these three: see perfbench/README.md.

struct workload {
  const char *name;
  const char *queue;
  bool pool;
  closed_shape closed;
  pool_shape open;
  // One episode over the library's queue, and the same over the Java 5
  // baseline (traced run only).
  std::function<episode_result(const episode_opts &)> run, run_java5;
  // Calibration of the queue type this workload hands off through.
  std::function<calib()> offer_miss, poll_miss;
};

std::vector<workload> workloads() {
  const closed_shape sym{2, 2}, fan{1, 3};
  const pool_shape pool{3, 20'000};
  return {
      {"sym-unfair", "synchronous_queue<uint32_t>", false, sym, {},
       [=](const episode_opts &o) { return run_closed<unfair_q>(sym, o); },
       [=](const episode_opts &o) {
         return run_closed<ssq::java5_sq<std::uint32_t, false>>(sym, o);
       },
       [] { return offer_miss_ns<unfair_q>(std::uint32_t{7}); },
       [] { return poll_miss_ns<unfair_q>(); }},
      {"fanout-fair", "synchronous_queue<uint32_t, true>", false, fan, {},
       [=](const episode_opts &o) { return run_closed<fair_q>(fan, o); },
       [=](const episode_opts &o) {
         return run_closed<ssq::java5_sq<std::uint32_t, true>>(fan, o);
       },
       [] { return offer_miss_ns<fair_q>(std::uint32_t{7}); },
       [] { return poll_miss_ns<fair_q>(); }},
      {"pool-open", "thread_pool_executor<synchronous_queue<unique_task>>",
       true, {}, pool,
       [=](const episode_opts &o) { return run_pool<task_q>(pool, o); },
       [=](const episode_opts &o) {
         return run_pool<ssq::java5_sq<unique_task, false>>(pool, o);
       },
       [] { return offer_miss_ns<task_q>(unique_task([] {})); },
       [] { return poll_miss_ns<task_q>(); }},
  };
}

// ------------------------------------------------------------------- output

struct metric {
  std::string name, unit;
  double value;
  std::uint64_t samples;
};

std::string json_str(const std::string &s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o + "\"";
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  for (std::string line; std::getline(f, line);)
    if (line.rfind("model name", 0) == 0) {
      auto p = line.find(':');
      return p == std::string::npos ? line : line.substr(p + 2);
    }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// Share of the host's CPU time that the hypervisor gave to other guests
// between two reads (the `steal` column of /proc/stat). On a shared VM this
// is what moves the figures from one half hour to the next, so every run
// reports it; 0 where the kernel does not account for it.
struct cpu_clock {
  double steal = 0, total = 0;
  static cpu_clock read() {
    std::ifstream f("/proc/stat");
    std::string label;
    f >> label; // "cpu": user nice system idle iowait irq softirq steal
    cpu_clock c;
    double v = 0;
    for (int i = 0; i < 8 && f >> v; ++i) {
      c.total += v;
      if (i == 7) c.steal = v;
    }
    return c;
  }
  double steal_frac_since(const cpu_clock &start) const {
    return total > start.total ? (steal - start.steal) / (total - start.total)
                               : 0;
  }
};

// Peak resident set of this process, in MiB. Read from VmHWM rather than
// getrusage's ru_maxrss: ru_maxrss survives exec, so a child forked from a
// large parent would report the parent's size.
double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  for (std::string line; std::getline(f, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  return 0;
}

// ------------------------------------------------------------- aggregation

// What the aggregation keeps of one episode once it has ended: scalars
// only. The memory held then does not grow with the number of episodes, so
// the peak resident set is the library's plus a fixed amount.
struct episode_summary {
  double setup_s = 0, seconds = 0, cpu_ns = 0;
  std::uint64_t ops = 0, samples = 0;
  double p50 = 0, p90 = 0, p99 = 0;
  bool p99_ok = false;
  double steal = 0; // host steal share over the episode
};

episode_summary summary_of(const episode_result &e, double steal) {
  return {e.setup_s,
          e.seconds,
          e.cpu_ns,
          e.ops,
          e.latency.count(),
          e.latency.quantile(0.50),
          e.latency.quantile(0.90),
          e.latency.quantile(0.99),
          e.latency.reportable(0.99),
          steal};
}

// Run `n` episodes of `secs` seconds each (0 = set-up only). Each result
// goes to `sink`, with the host steal share over its episode, as soon as
// the episode ends.
template <typename Sink>
void episodes(const workload &w, bool java5, unsigned n, double secs,
              const episode_opts &base, unsigned &next_episode, Sink sink) {
  for (unsigned i = 0; i < n; ++i) {
    episode_opts o = base;
    o.seconds = secs;
    o.episode = next_episode++;
    const cpu_clock host0 = cpu_clock::read();
    const episode_result r = java5 ? w.run_java5(o) : w.run(o);
    sink(r, cpu_clock::read().steal_frac_since(host0));
  }
}

// Episodes during which the hypervisor took more than this share of the
// host's CPU are left out of the medians. In ten-seed sets on a shared
// 4-vCPU VM, pool-open's median latency held within 3% while steal stayed
// under it, and more than doubled in runs where steal reached 14-24%: its
// workers' wake path then measures the host rather than the library.
constexpr double max_steal = 0.08;

// The timed episodes the medians are taken over: those under max_steal or,
// when fewer than half of them are, the quieter half.
std::vector<episode_summary> quiet_episodes(std::vector<episode_summary> eps) {
  std::stable_sort(eps.begin(), eps.end(),
                   [](const episode_summary &a, const episode_summary &b) {
                     return a.steal < b.steal;
                   });
  const auto quiet = static_cast<std::size_t>(
      std::count_if(eps.begin(), eps.end(), [](const episode_summary &e) {
        return e.steal <= max_steal;
      }));
  eps.resize(std::max(quiet, (eps.size() + 1) / 2));
  return eps;
}

struct phase_stats {
  double ops_per_s, p50, p90, p99, cpu_ns_per_op;
  std::uint64_t ops, samples;
  bool p99_ok;
};

// Medians over the timed episodes, so a single disturbed episode does not
// move a figure.
phase_stats stats_of(const std::vector<episode_summary> &eps) {
  std::vector<double> rate, p50, p90, p99, cpu;
  phase_stats s{};
  s.p99_ok = true;
  for (const auto &e : eps) {
    rate.push_back(static_cast<double>(e.ops) / e.seconds);
    p50.push_back(e.p50);
    p90.push_back(e.p90);
    p99.push_back(e.p99);
    cpu.push_back(e.cpu_ns / static_cast<double>(e.ops ? e.ops : 1));
    s.ops += e.ops;
    s.samples += e.samples;
    s.p99_ok = s.p99_ok && e.p99_ok;
  }
  s.ops_per_s = ssq::harness::summarize(rate).median;
  s.p50 = ssq::harness::summarize(p50).median;
  s.p90 = ssq::harness::summarize(p90).median;
  s.p99 = ssq::harness::summarize(p99).median;
  s.cpu_ns_per_op = ssq::harness::summarize(cpu).median;
  return s;
}

struct check {
  std::uint64_t attempted = 0, failed = 0;
  void add(const episode_result &e) {
    attempted += e.attempted;
    failed += e.failed;
  }
};

void print_doc(const workload &w, std::uint64_t seed, double seconds,
               bool traced, const check &chk,
               const std::vector<metric> &metrics,
               const std::vector<std::pair<std::string, double>> &notes,
               const trace_result *tr) {
  const auto pol = ssq::sync::spin_policy::adaptive();
  std::printf("{\n  \"workload\": %s,\n  \"traced\": %s,\n",
              json_str(w.name).c_str(), traced ? "true" : "false");
  std::printf("  \"meta\": {\"nproc\": %ld, \"cpu_model\": %s, "
              "\"compiler\": %s, \"build_type\": %s, "
              "\"memory_order_mode\": %s, "
              "\"spin_policy\": {\"front_spins\": %d, \"back_spins\": %d, "
              "\"yield_every\": %d}},\n",
              sysconf(_SC_NPROCESSORS_ONLN), json_str(cpu_model()).c_str(),
              json_str(compiler()).c_str(),
              json_str(PERFBENCH_BUILD_TYPE).c_str(),
              json_str(SSQ_MEMORY_ORDER_MODE).c_str(), pol.front_spins,
              pol.back_spins, pol.yield_every);
  if (w.pool)
    std::printf("  \"params\": {\"seed\": %llu, \"seconds\": %g, "
                "\"loop\": \"open\", \"rate_per_s\": %g, \"submitters\": 1, "
                "\"pool_cap\": %u, \"queue\": %s},\n",
                static_cast<unsigned long long>(seed), seconds, w.open.rate,
                w.open.workers, json_str(w.queue).c_str());
  else
    std::printf("  \"params\": {\"seed\": %llu, \"seconds\": %g, "
                "\"loop\": \"closed\", \"producers\": %u, \"consumers\": %u, "
                "\"queue\": %s},\n",
                static_cast<unsigned long long>(seed), seconds,
                w.closed.producers, w.closed.consumers,
                json_str(w.queue).c_str());
  std::printf("  \"correct\": %s,\n  \"attempted\": %llu,\n"
              "  \"failed\": %llu,\n",
              chk.failed == 0 && chk.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(chk.attempted),
              static_cast<unsigned long long>(chk.failed));
  std::printf("  \"metrics\": {");
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\n    %s: {\"value\": %.10g, \"unit\": %s, "
                "\"samples\": %llu}",
                i ? "," : "", json_str(metrics[i].name).c_str(),
                metrics[i].value, json_str(metrics[i].unit).c_str(),
                static_cast<unsigned long long>(metrics[i].samples));
  std::printf("\n  },\n  \"notes\": {");
  for (std::size_t i = 0; i < notes.size(); ++i)
    std::printf("%s%s: %.10g", i ? ", " : "", json_str(notes[i].first).c_str(),
                notes[i].second);
  std::printf("}");
  if (tr) {
    std::printf(",\n  \"spans\": {\"recorded\": %llu, \"dropped\": %llu, "
                "\"by_name\": [",
                static_cast<unsigned long long>(tr->spans),
                static_cast<unsigned long long>(tr->dropped));
    for (std::size_t i = 0; i < tr->by_name.size(); ++i) {
      const auto &s = tr->by_name[i];
      std::printf("%s\n    {\"name\": \"%s\", \"parent\": \"%s\", "
                  "\"count\": %llu, \"duration_p50_ns\": %.10g, "
                  "\"self_p50_ns\": %.10g, \"self_p99_ns\": %.10g}",
                  i ? "," : "", to_string(s.name), to_string(s.parent),
                  static_cast<unsigned long long>(s.duration.count()),
                  s.duration.quantile(0.5), s.self.quantile(0.5),
                  s.self.quantile(0.99));
    }
    std::printf("\n  ]}");
  }
  std::printf("\n}\n");
}

// -------------------------------------------------------------------- runs

// End-to-end run: untraced. Each metric is the median over the quiet
// timed episodes; set-up is the median over all timed episodes and as many
// set-up-only episodes, which run last so that their thread churn does not
// count towards the workload's peak memory.
int run_e2e(const workload &w, std::uint64_t seed, double seconds,
            inject fault) {
  // Short episodes, many of them: the host's scheduling hiccups last
  // seconds at a time, and a median over many half-second episodes keeps
  // one of them from moving a tail percentile.
  constexpr double episode_s = 0.5;
  constexpr unsigned setup_only = 40;
  const unsigned timed_episodes =
      std::max(1u, static_cast<unsigned>(seconds / episode_s + 0.5));
  episode_opts base;
  base.seed = seed;
  base.fault = fault;
  unsigned next = 0;
  check chk;
  std::vector<episode_summary> timed, setups;
  histogram late;
  const cpu_clock host0 = cpu_clock::read();
  episodes(w, false, timed_episodes, seconds / timed_episodes, base, next,
           [&](const episode_result &e, double steal) {
             chk.add(e);
             late.merge(e.late);
             timed.push_back(summary_of(e, steal));
           });
  const double steal = cpu_clock::read().steal_frac_since(host0);
  const double peak_rss = peak_rss_mib();
  episodes(w, false, setup_only, 0, base, next,
           [&](const episode_result &e, double steal_e) {
             chk.add(e);
             setups.push_back(summary_of(e, steal_e));
           });
  std::vector<double> setup_s;
  for (const auto *v : {&setups, &timed})
    for (const auto &e : *v) setup_s.push_back(e.setup_s);
  const std::vector<episode_summary> used = quiet_episodes(timed);
  const bool quiet = used.back().steal <= max_steal;
  if (!quiet)
    std::fprintf(stderr,
                 "perfbench: host steal above %.0f%% in more than half of "
                 "the episodes; the medians are over the quieter half and "
                 "measure the host as much as the library\n",
                 max_steal * 100);
  const phase_stats s = stats_of(used);
  const double attempted =
      static_cast<double>(chk.attempted ? chk.attempted : 1);
  std::vector<metric> m{
      {"setup_s", "s", ssq::harness::summarize(setup_s).median,
       setup_s.size()},
      {"ops_per_s", "1/s", s.ops_per_s, s.ops},
      {"latency_p50_ns", "ns", s.p50, s.samples},
      {"latency_p90_ns", "ns", s.p90, s.samples},
      {"latency_p99_ns", "ns", s.p99, s.samples},
      {"cpu_ns_per_op", "ns", s.cpu_ns_per_op, s.ops},
      {"peak_rss_mb", "MiB", peak_rss, 1},
      {"failed_frac", "ratio", static_cast<double>(chk.failed) / attempted,
       chk.attempted},
  };
  std::vector<std::pair<std::string, double>> notes{
      {"episodes", timed_episodes},
      {"episodes_used", static_cast<double>(used.size())},
      {"quiet", quiet ? 1 : 0},
      {"p99_reportable", s.p99_ok ? 1 : 0},
      {"host_steal_frac", steal}};
  if (w.pool) notes.emplace_back("gen_late_p99_ns", late.quantile(0.99));
  print_doc(w, seed, seconds, false, chk, m, notes, nullptr);
  return chk.failed == 0 && chk.attempted > 0 && s.p99_ok ? 0 : 1;
}

double per(std::uint64_t n, std::uint64_t ops, double scale = 1) {
  return ops ? static_cast<double>(n) * scale / static_cast<double>(ops) : 0;
}

metric calibrated(const char *name, calib c) {
  return {name, "ns", c.ns, c.samples};
}

// Traced run: the same workload untraced (for the counter deltas and the
// tracing overhead), then traced, then over the Java 5 baseline, then the
// layer calibration loops.
int run_traced(const workload &w, std::uint64_t seed, double seconds,
               const std::string &trace_out) {
  constexpr unsigned n_eps = 3;
  episode_opts base;
  base.seed = seed;
  unsigned next = 0;
  const double untraced_s = seconds * 0.3, traced_s = seconds * 0.3,
               java5_s = seconds * 0.2;
  check chk;
  std::vector<episode_summary> plain, traced, java5;
  // Counter deltas come from the untraced phase only: the Java 5 baseline
  // parks through the same park_slot and would pollute them.
  diag::snapshot d{};
  std::uint64_t ops = 0, spawned = 0;
  std::size_t largest = 0;
  histogram late, take, submit;
  std::vector<span> spans;
  std::uint64_t dropped = 0;
  const cpu_clock host0 = cpu_clock::read();
  episodes(w, false, n_eps, untraced_s / n_eps, base, next,
           [&](const episode_result &e, double steal) {
             chk.add(e);
             for (unsigned i = 0; i < diag::id_count; ++i)
               d.v[i] += e.counters.v[i];
             ops += e.ops;
             spawned += e.spawned;
             largest = std::max(largest, e.largest_pool);
             late.merge(e.late);
             plain.push_back(summary_of(e, steal));
           });
  base.traced = true;
  episodes(w, false, n_eps, traced_s / n_eps, base, next,
           [&](const episode_result &e, double steal) {
             chk.add(e);
             take.merge(e.take);
             submit.merge(e.submit);
             spans.insert(spans.end(), e.spans.begin(), e.spans.end());
             dropped += e.spans_dropped;
             traced.push_back(summary_of(e, steal));
           });
  base.traced = false;
  episodes(w, true, 2, java5_s / 2, base, next,
           [&](const episode_result &e, double steal) {
             chk.add(e);
             java5.push_back(summary_of(e, steal));
           });
  const double steal = cpu_clock::read().steal_frac_since(host0);

  const trace_result tr = summarize_spans(spans, dropped);
  if (!trace_out.empty() && !write_spans(trace_out, spans))
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
  spans.clear();
  spans.shrink_to_fit();

  const phase_stats su = stats_of(plain), st = stats_of(traced),
                    sj = stats_of(java5);
  const double overhead =
      std::max(su.ops_per_s > 0 ? 1 - st.ops_per_s / su.ops_per_s : 0,
               su.p50 > 0 ? st.p50 / su.p50 - 1 : 0);
  using diag::id;
  const std::uint64_t recycled = d[id::pool_recycle], fresh = d[id::pool_fresh];

  std::vector<metric> m{
      {"core.cas_fail_per_op", "1/op", per(d[id::cas_fail], ops), ops},
      {"core.take_p50_ns", "ns", take.quantile(0.5), take.count()},
      {"core.take_p99_ns", "ns", take.quantile(0.99), take.count()},
      calibrated("core.offer_miss_ns", w.offer_miss()),
      calibrated("core.poll_miss_ns", w.poll_miss()),
      {"memory.node_alloc_per_op", "1/op", per(d[id::node_alloc], ops), ops},
      {"memory.node_retire_per_op", "1/op", per(d[id::node_retire], ops), ops},
      {"memory.hp_scan_per_kop", "1/kop", per(d[id::hp_scan], ops, 1000), ops},
      {"memory.pool_recycle_frac", "ratio", per(recycled, recycled + fresh),
       recycled + fresh},
      calibrated("memory.pool_alloc_free_ns", pool_alloc_free_ns()),
      calibrated("memory.hp_protect_ns", hp_protect_ns()),
      calibrated("memory.hp_retire_ns", hp_retire_ns()),
      {"sync.spin_retry_per_op", "1/op", per(d[id::spin_retry], ops), ops},
      {"sync.park_per_op", "1/op", per(d[id::park], ops), ops},
      {"sync.unpark_per_op", "1/op", per(d[id::unpark], ops), ops},
      calibrated("sync.park_roundtrip_ns", park_roundtrip_ns()),
      calibrated("support.codec_inline_ns", codec_ns(std::uint32_t{7})),
      calibrated("support.codec_boxed_ns", codec_ns(unique_task([] {}))),
      {"support.box_alloc_per_op", "1/op", per(d[id::box_alloc], ops), ops},
      calibrated("support.diag_bump_1t_ns", diag_bump_ns(1)),
      calibrated("support.diag_bump_4t_ns", diag_bump_ns(4)),
      {"executor.submit_p50_ns", "ns", submit.quantile(0.5), submit.count()},
      {"executor.submit_p99_ns", "ns", submit.quantile(0.99), submit.count()},
      {"executor.queue_wait_p50_ns", "ns", tr.queue_wait.quantile(0.5),
       tr.queue_wait.count()},
      {"executor.spawn_per_kop", "1/kop", per(spawned, ops, 1000),
       w.pool ? ops : 0},
      {"executor.largest_pool", "count", static_cast<double>(largest),
       w.pool ? plain.size() : 0},
      {"baselines.java5_ops_per_s", "1/s", sj.ops_per_s, sj.ops},
      {"baselines.java5_latency_p50_ns", "ns", sj.p50, sj.samples},
      {"gen.late_p99_ns", "ns", late.quantile(0.99), late.count()},
      {"trace.overhead_frac", "ratio", overhead, su.ops + st.ops},
  };
  std::vector<std::pair<std::string, double>> notes{
      {"untraced_ops_per_s", su.ops_per_s}, {"traced_ops_per_s", st.ops_per_s},
      {"untraced_latency_p50_ns", su.p50}, {"traced_latency_p50_ns", st.p50},
      {"host_steal_frac", steal}};
  print_doc(w, seed, seconds, true, chk, m, notes, &tr);
  return chk.failed == 0 && chk.attempted > 0 ? 0 : 1;
}

// ---------------------------------------------------------------- selftest

int failures = 0;
void expect(bool ok, const char *what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

// Histogram percentiles against exact nearest-rank percentiles of a known
// sample, and the exactly-once check against injected faults.
int selftest() {
  ssq::xoshiro256 rng(42);
  std::vector<std::int64_t> xs;
  auto h = std::make_unique<histogram>();
  for (int i = 0; i < 100'000; ++i) {
    // Spread over six decades, like latencies from tens of ns to ms.
    double e = static_cast<double>(rng.below(1'000'000)) / 1e6 * 6 + 1;
    auto v = static_cast<std::int64_t>(std::pow(10.0, e));
    xs.push_back(v);
    h->record(v);
  }
  std::sort(xs.begin(), xs.end());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = static_cast<double>(
        xs[histogram::rank_of(q, xs.size()) - 1]);
    const double got = h->quantile(q);
    char what[96];
    std::snprintf(what, sizeof what, "histogram p%g %.0f vs exact %.0f",
                  q * 100, got, exact);
    expect(std::abs(got - exact) <= exact / (1 << histogram::sub_bits) + 1,
           what);
  }
  auto small = std::make_unique<histogram>();
  for (int i = 1; i <= 1000; ++i) small->record(i);
  expect(std::abs(small->quantile(0.5) - 500) <= 500.0 / histogram::sub + 1,
         "histogram p50 of 1..1000");
  expect(small->reportable(0.99), "p99 of 1000 samples has 10 beyond it");
  expect(!small->reportable(0.999), "p99.9 of 1000 samples is withheld");

  tally sent, got;
  for (std::uint64_t v = 1; v <= 1000; ++v) {
    sent.add(v);
    got.add(v);
  }
  expect(delivery_errors(sent, got) == 0, "clean delivery passes");
  tally dropped = got, dup = got, swapped = got;
  dropped.remove(17);
  dup.add(17);
  swapped.remove(17);
  swapped.add(18);
  expect(delivery_errors(sent, dropped) == 1, "dropped item flagged");
  expect(delivery_errors(sent, dup) == 1, "duplicated item flagged");
  expect(delivery_errors(sent, swapped) == 2,
         "one dropped plus one duplicated item flagged");
  std::printf("%s\n", failures ? "selftest FAILED" : "selftest passed");
  return failures ? 1 : 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_ssq run --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] "
               "[--inject drop|dup]\n       perfbench_ssq selftest\n");
  return 2;
}

} // namespace
} // namespace perfbench

int main(int argc, char **argv) {
  using namespace perfbench;
  if (argc < 2) return usage();
  if (std::strcmp(argv[1], "selftest") == 0) return selftest();
  if (std::strcmp(argv[1], "run") != 0) return usage();
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  try {
    const std::string name = args.at("workload");
    const std::uint64_t seed = std::stoull(args.at("seed"));
    const double seconds = std::stod(args.at("seconds"));
    const bool traced = args.count("trace") && args.at("trace") == "1";
    inject fault = inject::none;
    if (args.count("inject"))
      fault = args["inject"] == "drop" ? inject::drop
              : args["inject"] == "dup" ? inject::dup
                                        : throw std::invalid_argument("inject");
    if (!(seconds > 0 && seconds <= 600)) return usage();
    for (const auto &w : workloads())
      if (name == w.name)
        return traced ? run_traced(w, seed, seconds, args["trace-out"])
                      : run_e2e(w, seed, seconds, fault);
    std::fprintf(stderr, "perfbench: unknown workload %s\n", name.c_str());
    return 2;
  } catch (const std::exception &) {
    return usage();
  }
}
