#include "measure.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double self_peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double seconds_in_child(const std::function<void()>& fn) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    bool written = false;
    try {
      const Clock::time_point start = Clock::now();
      fn();
      const double seconds = seconds_between(start, Clock::now());
      written = ::write(fds[1], &seconds, sizeof seconds) == sizeof seconds;
    } catch (...) {
    }
    ::_exit(written ? 0 : 1);
  }
  ::close(fds[1]);
  double seconds = -1.0;
  const bool read_ok = ::read(fds[0], &seconds, sizeof seconds) == sizeof seconds;
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!read_ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("timed child process failed");
  }
  return seconds;
}

void parallel_for(std::size_t count, int threads,
                  const std::function<void(std::size_t, int)>& work) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto body = [&](int worker) {
    try {
      for (std::size_t i = next.fetch_add(1); i < count;
           i = next.fetch_add(1)) {
        work(i, worker);
      }
    } catch (...) {
      std::lock_guard lock(error_mutex);
      if (!error) error = std::current_exception();
      next.store(count);  // the other workers stop at their next pull
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(body, t);
  body(0);
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

int ThreadTrace::open(const char* name, std::string_view tag) {
  SpanRecord span;
  span.name = name;
  span.tag = tag;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start = Clock::now();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void ThreadTrace::close(int index) {
  spans_[static_cast<std::size_t>(index)].end = Clock::now();
  stack_.pop_back();
}

void ThreadTrace::record(const char* name, Clock::time_point start,
                         Clock::time_point end) {
  SpanRecord span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start = start;
  span.end = end;
  spans_.push_back(std::move(span));
}

ThreadTrace* Tracer::thread_trace() {
  std::lock_guard lock(mutex_);
  traces_.push_back(std::make_unique<ThreadTrace>());
  return traces_.back().get();
}

namespace {

// Visits every span with its duration and self time.
template <typename Visit>
void for_each_span(const std::vector<std::unique_ptr<ThreadTrace>>& traces,
                   Visit visit) {
  for (const auto& trace : traces) {
    const std::vector<SpanRecord>& spans = trace->spans();
    std::vector<double> child_s(spans.size(), 0.0);
    for (const SpanRecord& span : spans) {
      if (span.parent >= 0) {
        child_s[static_cast<std::size_t>(span.parent)] +=
            seconds_between(span.start, span.end);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double duration = seconds_between(spans[i].start, spans[i].end);
      visit(spans[i], duration, duration - child_s[i]);
    }
  }
}

void accumulate(SpanTotals& totals, double duration, double self) {
  ++totals.count;
  totals.total_s += duration;
  totals.self_s += self;
  totals.max_s = std::max(totals.max_s, duration);
}

}  // namespace

std::map<std::string, SpanTotals> Tracer::by_name() const {
  std::lock_guard lock(mutex_);
  std::map<std::string, SpanTotals> out;
  for_each_span(traces_, [&](const SpanRecord& span, double d, double self) {
    accumulate(out[span.name], d, self);
  });
  return out;
}

std::map<std::string, SpanTotals> Tracer::by_tag(std::string_view name) const {
  std::lock_guard lock(mutex_);
  std::map<std::string, SpanTotals> out;
  for_each_span(traces_, [&](const SpanRecord& span, double d, double self) {
    if (name == span.name) accumulate(out[std::string(span.tag)], d, self);
  });
  return out;
}

void print_result(const Result& result, std::string_view workload) {
  std::fprintf(stderr, "-- perfbench %.*s (build type %s) --\n",
               static_cast<int>(workload.size()), workload.data(),
               PERFBENCH_BUILD_TYPE);
  for (const Metric& m : result.metrics) {
    std::fprintf(stderr, "   %-36s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                 m.unit.c_str(), m.note.c_str());
  }
  std::fprintf(stderr, "   attempted %llu, failed %llu, correct %s\n",
               static_cast<unsigned long long>(result.attempted),
               static_cast<unsigned long long>(result.failed),
               result.correct ? "yes" : "NO");
  for (const std::string& why : result.failures) {
    std::fprintf(stderr, "   FAILED CHECK: %s\n", why.c_str());
  }
  if (result.failed_checks > result.failures.size()) {
    std::fprintf(stderr, "   ... %llu failed checks in all\n",
                 static_cast<unsigned long long>(result.failed_checks));
  }

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  char number[64];
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::snprintf(number, sizeof number, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + number + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}\n";
  std::fflush(stderr);
  std::fputs(json.c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace perfbench
