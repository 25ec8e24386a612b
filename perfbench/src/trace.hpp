// Spans of the traced run.
//
// A span is one call the benchmark made into the library (or the task body
// the library ran for it): a name, start, end, the name of its parent span
// and the id of the item or task it carried. Spans of one item share its id,
// so the parent of a span is "the span named `parent` with the same id".
// Each thread appends to its own fixed-capacity buffer; nothing is shared
// until the buffers are merged after the threads are joined.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

enum class span_name : std::uint8_t { none, put, take, arrival, execute, task };

inline const char *to_string(span_name n) noexcept {
  switch (n) {
    case span_name::put: return "put";
    case span_name::take: return "take";
    case span_name::arrival: return "arrival";
    case span_name::execute: return "execute";
    case span_name::task: return "task";
    case span_name::none: break;
  }
  return "none";
}

struct span {
  std::uint64_t id;
  std::int64_t start, end;
  span_name name, parent;
  std::uint16_t thread;
};

class span_buffer {
 public:
  // Per-thread cap: spans beyond it are counted but not kept, so a long
  // traced run stays within a fixed memory budget.
  static constexpr std::size_t capacity = std::size_t{1} << 16;

  void reserve() { spans_.reserve(capacity); }

  void add(span_name n, span_name parent, std::uint64_t id, std::int64_t s,
           std::int64_t e, std::uint16_t thread) {
    if (spans_.size() < capacity)
      spans_.push_back(span{id, s, e, n, parent, thread});
    else
      ++dropped_;
  }

  // Empties the buffer but keeps its capacity for the next episode.
  void clear() noexcept {
    spans_.clear();
    dropped_ = 0;
  }

  const std::vector<span> &spans() const noexcept { return spans_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::vector<span> spans_;
  std::uint64_t dropped_ = 0;
};

// Per span name: how long the spans took and their self time, i.e. the
// duration minus the part of it that child spans of the same id cover.
struct span_summary {
  span_name name = span_name::none, parent = span_name::none;
  histogram duration, self;
};

struct trace_result {
  std::vector<span_summary> by_name;
  histogram queue_wait; // task start - execute() return, per task id
  std::uint64_t spans = 0, dropped = 0;
};

inline trace_result summarize_spans(std::vector<span> all,
                                    std::uint64_t dropped) {
  trace_result r;
  r.spans = all.size();
  r.dropped = dropped;
  std::sort(all.begin(), all.end(), [](const span &a, const span &b) {
    return a.id != b.id ? a.id < b.id : a.start < b.start;
  });
  auto summary_for = [&r](span_name n, span_name p) -> span_summary & {
    for (auto &s : r.by_name)
      if (s.name == n) return s;
    r.by_name.push_back(span_summary{n, p, {}, {}});
    return r.by_name.back();
  };
  std::vector<std::pair<std::int64_t, std::int64_t>> kids;
  for (std::size_t lo = 0; lo < all.size();) {
    std::size_t hi = lo;
    while (hi < all.size() && all[hi].id == all[lo].id) ++hi;
    const span *exec = nullptr, *task = nullptr;
    for (std::size_t i = lo; i < hi; ++i) {
      const span &s = all[i];
      if (s.name == span_name::execute) exec = &s;
      if (s.name == span_name::task) task = &s;
      kids.clear();
      for (std::size_t j = lo; j < hi; ++j)
        if (all[j].parent == s.name && j != i)
          kids.emplace_back(std::max(all[j].start, s.start),
                            std::min(all[j].end, s.end));
      std::sort(kids.begin(), kids.end());
      std::int64_t covered = 0, reach = s.start;
      for (auto [a, b] : kids) {
        a = std::max(a, reach);
        if (b > a) {
          covered += b - a;
          reach = b;
        }
      }
      auto &sum = summary_for(s.name, s.parent);
      sum.duration.record(s.end - s.start);
      sum.self.record(s.end - s.start - covered);
    }
    if (exec && task) r.queue_wait.record(task->start - exec->end);
    lo = hi;
  }
  return r;
}

// One line per span: name,parent,id,thread,start_ns,end_ns.
inline bool write_spans(const std::string &path, const std::vector<span> &all) {
  std::FILE *f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "name,parent,id,thread,start_ns,end_ns\n");
  for (const span &s : all)
    std::fprintf(f, "%s,%s,%llu,%u,%lld,%lld\n", to_string(s.name),
                 to_string(s.parent), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned>(s.thread),
                 static_cast<long long>(s.start),
                 static_cast<long long>(s.end));
  return std::fclose(f) == 0;
}

} // namespace perfbench
