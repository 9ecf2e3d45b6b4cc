// serve-hot: the serve path with the result cache doing all the work.
// Setup fills an in-process serve::Service's cache with every exact key of
// the 292-key matrix; one closed-loop client on a socketpair connection
// served by serve::serve_fd then sends exact Zipf(1.1) requests, keeping a
// fixed number of them in flight. Nearly every request is a cache hit, so
// the run measures the stream loop, the wire codec, the dispatcher and the
// cache while trace building does no work: a trace-reuse change must leave
// it unchanged, and a wire-codec or conversion change shows here.
//
// One pipelined connection, not several ping-pong ones: with one request
// in flight per connection each hit costs four thread wake-ups, and three
// such connections ran 14 threads on 4 cores, so the run measured the
// host's scheduler (throughput moved 20-30% between runs). With requests
// queued at every stage, the client, the connection's reader and writer
// and the dispatcher (4 threads) each find work waiting.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "fault/fault.hpp"
#include "serve/service.hpp"
#include "serve/stream.hpp"
#include "serve/wire.hpp"

namespace perfbench {

namespace {

namespace serve = repro::serve;
namespace v1 = repro::v1;

constexpr int kClients = 3;
constexpr int kServiceThreads = 4;
constexpr int kSetupRepeats = 3;
// The hot mix's multiset (traffic.hpp), repeated for as long as the run
// lasts. Every request is a cache hit of about the same cost, so its size
// only needs to give the Zipf tail keys their share.
constexpr std::size_t kHotRequests = 1 << 14;

// One request/response exchange as the client saw it. A response line is
// kept as its id check plus a hash of the rest: the rest depends only on
// the key and the cached flag, so the check needs one expected line per
// (key, cached) pair, and a long run's memory stays the service's.
struct Exchange {
  std::size_t key = 0;  // index into key_matrix()
  double done_s = 0.0;  // response arrival, from the window's start
  double latency_s = 0.0;
  bool id_ok = false;   // the line starts {"v":1,"id":<request id>,
  bool ok = false;
  bool cached = false;
  std::size_t rest_hash = 0;
};

std::string id_prefix(std::uint64_t id) {
  return "{\"v\":1,\"id\":" + std::to_string(id) + ",";
}

serve::Service::Options service_options() {
  serve::Service::Options options;
  options.threads = kServiceThreads;
  options.cache_capacity = 1024;
  options.queue_limit = 1024;  // the whole fill is queued at once
  return options;
}

// Submits every exact key of the matrix and waits for all of them. The
// whole fill is queued before dispatch resumes, so the dispatcher always
// cuts it into the same batches, and the set-up's peak memory (a batch's
// traces) repeats from run to run.
void fill_cache(serve::Service& service) {
  const std::vector<Key>& keys = key_matrix();
  std::vector<serve::Service::Ticket> tickets;
  service.pause();
  for (std::size_t k = 0; k < keys.size(); ++k) {
    v1::ExperimentRequest request;
    request.id = k + 1;
    request.program = keys[k].program;
    request.input_index = keys[k].input;
    request.config = keys[k].config;
    tickets.push_back(service.submit(std::move(request)));
  }
  service.resume();
  for (const serve::Service::Ticket& ticket : tickets) {
    if (ticket.wait().status != serve::Status::kOk) {
      throw std::runtime_error("serve-hot: cache fill request failed");
    }
  }
}

// The traced server side of one connection: serve::serve_lines for
// measurement requests, with a span around each public call. As there, a
// reader thread parses and submits while a writer thread waits on the
// tickets in order, formats and writes; `service-wait` runs from submit on
// the reader to the ticket being ready on the writer.
void traced_serve_fd(serve::Service& service, int fd, Tracer& tracer) {
  struct Slot {
    serve::Service::Ticket ticket;
    serve::Response invalid;  // used when the line did not parse
    Clock::time_point submitted;
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Slot> slots;
  bool done = false;

  ThreadTrace* writer_trace = tracer.thread_trace();
  std::thread writer([&] {
    for (;;) {
      Slot slot;
      {
        std::unique_lock lock(mutex);
        cv.wait(lock, [&] { return done || !slots.empty(); });
        if (slots.empty()) return;
        slot = std::move(slots.front());
        slots.pop_front();
      }
      const serve::Response& response =
          slot.ticket.valid() ? slot.ticket.wait() : slot.invalid;
      writer_trace->record("service-wait", slot.submitted, Clock::now());
      std::string out;
      {
        Span span(writer_trace, "format");
        out = serve::format_response_line(response);
      }
      // serve_fd writes the line and its newline as two writes.
      serve::fd_write_all(fd, out.data(), out.size()) &&
          serve::fd_write_all(fd, "\n", 1);
    }
  });

  ThreadTrace* reader_trace = tracer.thread_trace();
  serve::FdLineReader reader(fd);
  std::string line;
  std::uint64_t line_number = 0;
  while (reader.next(line)) {
    ++line_number;
    {
      // serve_lines runs every line through the wire-fault filter and the
      // endpoint checks before parsing it as a measurement request.
      Span span(reader_trace, "classify");
      line = repro::fault::filter_wire_line("inbound", line);
      if (serve::is_health_request(line) || serve::is_metrics_request(line) ||
          serve::is_attribution_request(line) ||
          serve::is_sweep_request(line) || serve::is_recommend_request(line)) {
        throw std::runtime_error("serve-hot sends measurement requests only");
      }
    }
    v1::ExperimentRequest request;
    std::string error;
    bool parsed = false;
    {
      Span span(reader_trace, "parse");
      parsed = serve::parse_request_line(line, request, error);
    }
    Slot slot;
    slot.submitted = Clock::now();
    if (parsed) {
      if (request.id == 0) request.id = line_number;
      slot.ticket = service.submit(std::move(request));
    } else {
      slot.invalid.id = line_number;
      slot.invalid.error = error;
    }
    {
      std::lock_guard lock(mutex);
      slots.push_back(std::move(slot));
    }
    cv.notify_one();
  }
  {
    std::lock_guard lock(mutex);
    done = true;
  }
  cv.notify_one();
  writer.join();
}

struct Window {
  std::vector<Exchange> exchanges;
  double wall_s = 0.0;
};

// Runs the closed-loop clients against `service` for `seconds`. A tracer
// selects the traced server loop.
Window run_window(serve::Service& service, const Traffic& traffic,
                  double seconds, Tracer* tracer) {
  std::atomic<std::uint64_t> next{0};
  std::vector<std::vector<Exchange>> per_client(kClients);
  std::vector<std::thread> servers;
  std::vector<std::thread> clients;
  std::vector<int> client_fds;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (int c = 0; c < kClients; ++c) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      throw std::runtime_error("serve-hot: socketpair failed");
    }
    client_fds.push_back(sv[0]);
    const int server_fd = sv[1];
    servers.emplace_back([&service, server_fd, tracer] {
      if (tracer != nullptr) {
        traced_serve_fd(service, server_fd, *tracer);
      } else {
        serve::serve_fd(service, server_fd);
      }
      ::close(server_fd);
    });
  }
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = client_fds[static_cast<std::size_t>(c)];
      serve::FdLineReader reader(fd);
      std::vector<Exchange>& out = per_client[static_cast<std::size_t>(c)];
      std::string response;
      while (Clock::now() < deadline) {
        const Request request = traffic.at(next.fetch_add(1));
        const std::string line = request.line + '\n';
        const Clock::time_point sent = Clock::now();
        if (!serve::fd_write_all(fd, line.data(), line.size()) ||
            !reader.next(response)) {
          break;
        }
        const Clock::time_point arrived = Clock::now();
        const std::string prefix = id_prefix(request.index + 1);
        Exchange exchange;
        exchange.key = request.key;
        exchange.done_s = seconds_between(start, arrived);
        exchange.latency_s = seconds_between(sent, arrived);
        exchange.id_ok = response.compare(0, prefix.size(), prefix) == 0;
        exchange.ok = response.find("\"status\":\"ok\"") != std::string::npos;
        exchange.cached =
            response.find("\"cached\":true") != std::string::npos;
        exchange.rest_hash = std::hash<std::string_view>{}(
            std::string_view(response).substr(std::min(prefix.size(),
                                                       response.size())));
        out.push_back(exchange);
      }
      ::shutdown(fd, SHUT_WR);  // end of stream: the server loop returns
    });
  }
  for (std::thread& t : clients) t.join();
  Window window;
  window.wall_s = seconds_between(start, Clock::now());
  for (std::thread& t : servers) t.join();
  for (int fd : client_fds) ::close(fd);
  for (std::vector<Exchange>& part : per_client) {
    window.exchanges.insert(window.exchanges.end(), part.begin(), part.end());
  }
  return window;
}

std::vector<double> latencies(const Window& window) {
  std::vector<double> out;
  for (const Exchange& x : window.exchanges) out.push_back(x.latency_s);
  return out;
}

// Throughput and latency quantiles of each whole second of the window,
// summarized by the run's better seconds: the upper quartile of the
// per-second throughputs and the lower quartile of the per-second latency
// quantiles. A slow spell of the shared host that covers up to three
// quarters of the run moves none of them; a slower service moves them all.
// Medians over the seconds read 35% low, and a p99 6x high, on runs that a
// slow spell covered for more than half their length.
struct PerSecond {
  double throughput_rps = 0.0;
  double p50_s = 0.0;
  double p90_s = 0.0;
  std::size_t seconds = 0;
};

PerSecond per_second(const Window& window) {
  const std::size_t seconds = static_cast<std::size_t>(window.wall_s);
  std::vector<std::vector<double>> buckets(std::max<std::size_t>(seconds, 1));
  for (const Exchange& x : window.exchanges) {
    const std::size_t b = static_cast<std::size_t>(x.done_s);
    if (b < buckets.size()) buckets[b].push_back(x.latency_s);
  }
  std::vector<double> rates, p50s, p90s;
  for (std::vector<double>& bucket : buckets) {
    rates.push_back(static_cast<double>(bucket.size()));
    p50s.push_back(quantile(bucket, 0.5));
    p90s.push_back(quantile(std::move(bucket), 0.9));
  }
  return {quantile(rates, 0.75), quantile(p50s, 0.25), quantile(p90s, 0.25),
          buckets.size()};
}

// Every served response must equal the line a direct v1::Session
// computation of the same request formats to (same id and cached flag).
void verify(const std::vector<const Window*>& windows, Result& result) {
  repro::Options options;
  options.threads = 4;
  v1::Session session(options);
  const v1::BatchSummary summary =
      session.run_matrix({"default", "614", "324", "ecc"}, true);
  std::map<std::string, v1::MeasurementResult> reference;
  for (const v1::BatchEntry& entry : summary.entries) {
    reference[entry.key] = entry.result;
  }
  // Hash of the expected line after its id prefix, by key and cached flag.
  const std::size_t prefix_size = id_prefix(0).size();
  std::map<std::pair<std::size_t, bool>, std::size_t> expected_rest;
  const std::vector<Key>& keys = key_matrix();
  for (std::size_t k = 0; k < keys.size(); ++k) {
    for (const bool cached : {false, true}) {
      serve::Response expected;
      expected.status = serve::Status::kOk;
      expected.cached = cached;
      expected.key = repro::core::experiment_key(keys[k].program, keys[k].input,
                                                 keys[k].config);
      expected.result = reference[expected.key];
      expected_rest[{k, cached}] = std::hash<std::string_view>{}(
          std::string_view(serve::format_response_line(expected))
              .substr(prefix_size));
    }
  }
  for (const Window* window : windows) {
    for (const Exchange& x : window->exchanges) {
      ++result.attempted;
      if (!x.ok) {
        ++result.failed;
      } else if (!x.id_ok || expected_rest.at({x.key, x.cached}) != x.rest_hash) {
        ++result.failed;
        result.fail("served response differs from Session: " +
                    repro::core::experiment_key(keys[x.key].program,
                                                keys[x.key].input,
                                                keys[x.key].config));
      }
    }
  }
}

}  // namespace

Result run_serve_hot(const Args& args) {
  Result result;
  const Traffic traffic(Mix::kHot, args.seed, kHotRequests);

  std::vector<double> setups;
  std::unique_ptr<serve::Service> service;
  double peak_rss_mib = 0.0;
  for (int k = 0; k < kSetupRepeats; ++k) {
    service.reset();
    const Clock::time_point t0 = Clock::now();
    service = std::make_unique<serve::Service>(service_options());
    fill_cache(*service);
    setups.push_back(seconds_between(t0, Clock::now()));
    // The first set-up of a fresh process: later ones only add allocator
    // history, which moves the peak between runs.
    if (k == 0) peak_rss_mib = self_peak_rss_mib();
  }

  if (!args.trace) {
    const Window window = run_window(*service, traffic, args.seconds, nullptr);
    EndToEnd e;
    e.setup_s = median(setups);
    e.peak_rss_mib = peak_rss_mib;
    verify({&window}, result);
    const PerSecond stats = per_second(window);
    e.ok_frac = static_cast<double>(result.attempted - result.failed) /
                static_cast<double>(result.attempted);
    e.throughput_rps = stats.throughput_rps;
    e.latency_mid_ms = 1e3 * stats.p50_s;
    e.latency_tail_ms = 1e3 * stats.p90_s;
    e.latency_note = "better quartile of " + std::to_string(stats.seconds) +
                     " one-second buckets, p50 mid, p90 tail, n=" +
                     std::to_string(window.exchanges.size());
    add_end_to_end(result, e);
    return result;
  }

  // Traced: an untraced half, then a traced half against the same warm
  // cache; the difference is the tracing overhead.
  const Window untraced =
      run_window(*service, traffic, args.seconds / 2.0, nullptr);
  const serve::Service::Stats before = service->stats();
  Tracer tracer;
  const Window traced =
      run_window(*service, traffic, args.seconds / 2.0, &tracer);
  const serve::Service::Stats after = service->stats();
  verify({&untraced, &traced}, result);

  PerLayer p;
  const auto totals = tracer.by_name();
  const auto mean_of = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : it->second.total_s / static_cast<double>(it->second.count);
  };
  p.wire_parse_us = 1e6 * mean_of("parse");
  p.wire_format_us = 1e6 * mean_of("format");
  p.service_wait_ms = 1e3 * mean_of("service-wait");
  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double misses =
      static_cast<double>(after.cache.misses - before.cache.misses);
  p.cache_hit_rate = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  // Every cache miss of an exact request builds one trace.
  p.trace_builds = misses;
  const double untraced_p50 = median(latencies(untraced));
  const double traced_p50 = median(latencies(traced));
  p.kind_p50_ms[static_cast<int>(Kind::kExact)] = 1e3 * traced_p50;
  p.overhead_frac = (traced_p50 - untraced_p50) / untraced_p50;
  std::fprintf(stderr,
               "   untraced p50 %.4f ms (n=%zu), traced p50 %.4f ms (n=%zu)\n",
               1e3 * untraced_p50, untraced.exchanges.size(), 1e3 * traced_p50,
               traced.exchanges.size());
  add_per_layer(result, p);
  return result;
}

}  // namespace perfbench
