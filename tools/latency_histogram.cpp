// latency_histogram: per-transfer handoff latency distribution.
//
// Throughput (the figures) hides tail behaviour; this tool measures
// individual put()->return latencies under a steady 1:1 handoff and prints
// min / p50 / p90 / p99 / p99.9 / max per implementation. Fair-mode lock
// pileups and notify-all storms show up here as long tails well before
// they dominate the mean.
//
//   ./latency_histogram --ops=20000 --impls=new-fair,new-unfair,...
//                       [--csv=PATH] [--json=PATH]
//
// --json writes the table with the same host/compiler/build-type/spin-policy
// header as the bench binaries (bench/bench_common.hpp).
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/hanson_sq.hpp"
#include "baselines/java5_sq.hpp"
#include "baselines/naive_sq.hpp"
#include "bench_common.hpp"
#include "core/eliminating_sq.hpp"
#include "core/synchronous_queue.hpp"
#include "harness/options.hpp"
#include "harness/stats.hpp"
#include "harness/table.hpp"

using namespace ssq;

namespace {

struct put_take {
  std::function<void(std::uint32_t)> put;
  std::function<std::uint32_t()> take;
};

template <typename Q>
put_take make(std::shared_ptr<Q> q) {
  return {[q](std::uint32_t v) { q->put(v); }, [q] { return q->take(); }};
}

put_take make_impl(const std::string &name) {
  if (name == "new-fair")
    return make(std::make_shared<synchronous_queue<std::uint32_t, true>>());
  if (name == "new-unfair")
    return make(std::make_shared<synchronous_queue<std::uint32_t, false>>());
  if (name == "java5-fair")
    return make(std::make_shared<java5_sq<std::uint32_t, true>>());
  if (name == "java5-unfair")
    return make(std::make_shared<java5_sq<std::uint32_t, false>>());
  if (name == "hanson")
    return make(std::make_shared<hanson_sq<std::uint32_t>>());
  if (name == "naive")
    return make(std::make_shared<naive_sq<std::uint32_t>>());
  if (name == "eliminating")
    return make(std::make_shared<eliminating_sq<std::uint32_t>>());
  std::fprintf(stderr, "unknown impl %s\n", name.c_str());
  std::exit(2);
}

std::vector<std::string> split_names(const std::string &csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    auto comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > start) out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

} // namespace

int main(int argc, char **argv) {
  auto opt = harness::options::parse(argc, argv);
  const auto ops = static_cast<std::uint64_t>(
      opt.get_int("ops", opt.has("quick") ? 2000 : 20000));
  auto names = split_names(opt.get(
      "impls",
      "java5-unfair,java5-fair,hanson,new-unfair,new-fair,eliminating"));

  harness::table t(
      {"impl", "min(ns)", "p50", "p90", "p99", "p99.9", "max"});
  for (const auto &name : names) {
    put_take q = make_impl(name);
    std::vector<double> lat;
    lat.reserve(ops);
    std::thread consumer([&] {
      for (std::uint64_t i = 0; i < ops; ++i) (void)q.take();
    });
    for (std::uint64_t i = 0; i < ops; ++i) {
      auto t0 = steady_clock::now();
      q.put(static_cast<std::uint32_t>(i + 1));
      lat.push_back(std::chrono::duration<double, std::nano>(
                        steady_clock::now() - t0)
                        .count());
    }
    consumer.join();
    auto s = harness::summarize(lat);
    t.add_row({name, harness::table::fmt(s.min, 0),
               harness::table::fmt(harness::percentile(lat, 0.50), 0),
               harness::table::fmt(harness::percentile(lat, 0.90), 0),
               harness::table::fmt(harness::percentile(lat, 0.99), 0),
               harness::table::fmt(harness::percentile(lat, 0.999), 0),
               harness::table::fmt(s.max, 0)});
    std::fflush(stdout);
  }
  std::printf("\nPer-put handoff latency, 1 producer : 1 consumer\n");
  t.print();
  std::string csv = opt.get("csv", "");
  if (!csv.empty() && t.write_csv(csv))
    std::printf("(csv written to %s)\n", csv.c_str());
  std::string json = opt.get("json", "");
  if (!json.empty()) bench::write_json(t, json);
  return 0;
}
