// Shared measurement plumbing of the benchmark: clocks, order statistics,
// peak RSS, the outside span tracer and the result printer.
//
// Spans are recorded by the benchmark's own code around its calls into the
// program's public functions; nothing inside src/ is instrumented. A span
// records its name, an optional tag (the program, for trace builds), start
// and end, and its parent on the same thread, so a stage's self time is its
// duration minus the part its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile q in [0, 1] of unsorted values (0 when empty).
double quantile(std::vector<double> values, double q);

/// Median of unsorted values (0 when empty).
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process, in MiB.
double self_peak_rss_mib();

/// Runs `fn` in a forked child and returns the seconds it took there, timed
/// inside the child so the fork is not counted. Call only while this
/// process runs no other thread.
double seconds_in_child(const std::function<void()>& fn);

/// Runs `work(i, worker)` for i in [0, count) on `threads` threads (worker
/// in [0, threads)) pulling from one shared index; joins them all before
/// returning.
void parallel_for(std::size_t count, int threads,
                  const std::function<void(std::size_t, int)>& work);

// -- outside spans -----------------------------------------------------------

struct SpanRecord {
  const char* name = "";
  std::string_view tag;  // must outlive the trace (e.g. a program name)
  int parent = -1;
  Clock::time_point start;
  Clock::time_point end;
};

/// Spans of one thread. Not thread-safe: each thread owns one.
class ThreadTrace {
 public:
  int open(const char* name, std::string_view tag = {});
  void close(int index);
  /// Adds a finished span that began on another thread (e.g. a request
  /// submitted by a reader thread and awaited by a writer thread).
  void record(const char* name, Clock::time_point start, Clock::time_point end);
  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null trace makes it a no-op, which is how the untraced runs
/// share code with the traced ones.
class Span {
 public:
  Span(ThreadTrace* trace, const char* name, std::string_view tag = {})
      : trace_(trace), index_(trace ? trace->open(name, tag) : -1) {}
  ~Span() {
    if (trace_ != nullptr) trace_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadTrace* trace_;
  int index_;
};

/// Per-name totals over all threads' spans.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;  // summed durations
  double self_s = 0.0;   // summed durations minus child coverage
  double max_s = 0.0;    // longest single span
};

/// Collects the ThreadTraces of a run and aggregates them.
class Tracer {
 public:
  /// A fresh per-thread trace owned by the tracer (thread-safe).
  ThreadTrace* thread_trace();
  /// Totals by span name.
  std::map<std::string, SpanTotals> by_name() const;
  /// Totals of spans called `name`, by tag.
  std::map<std::string, SpanTotals> by_tag(std::string_view name) const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadTrace>> traces_;
};

// -- result ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // printed in the human report only (e.g. sample counts)
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  // why `correct` is false (the first few)
  std::uint64_t failed_checks = 0;

  void add(std::string name, double value, std::string unit,
           std::string note = {}) {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(note)});
  }
  void fail(std::string why) {
    correct = false;
    if (++failed_checks <= 10) failures.push_back(std::move(why));
  }
};

/// Prints the human report to stderr and the one-line JSON result to stdout.
void print_result(const Result& result, std::string_view workload);

}  // namespace perfbench
