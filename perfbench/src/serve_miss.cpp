// serve-miss: the sharded tier on cold caches. A shard::Router runs over 2
// worker processes forked during setup, each a serve::Service with 1
// scheduler thread. 2 closed-loop clients send Zipf(1.1) keys in the miss
// mix (traffic.hpp): 60% sampled with a unique seed (always a miss), 20%
// exact, 10% exact with the thermal scenario, 10% recommend on the two-point
// 614/705 MHz grid. The mix drives all four miss paths (dispatch,
// dispatch_sampled, dispatch_thermal, the sweep's point measurement) and
// rebuilds a trace on every miss, so a miss-pipeline or trace-reuse change
// shows here, as does a change that helps one request kind and slows
// another.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/convert.hpp"
#include "bench.hpp"
#include "serve/wire.hpp"
#include "shard/router.hpp"
#include "shard/worker.hpp"
#include "sim/gpuconfig.hpp"
#include "util/rng.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

namespace {

namespace serve = repro::serve;
namespace shard = repro::shard;
namespace v1 = repro::v1;

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr int kWorkerThreads = 1;
constexpr int kSetupRepeats = 9;
// Sampled responses are checked against a direct Session computation for a
// seeded quarter of them: checking every one would double the run, since
// each is a unique miss. Every exact, thermal and recommend response is
// checked (they repeat keys, so their direct computations are shared).
constexpr std::uint64_t kSampledCheckOneIn = 4;
// The traced run recomputes every this-many-th ok request of its window
// stage by stage (the send order is a seeded shuffle, so a stride is a
// representative sample), on as many threads as the tier has workers.
constexpr std::size_t kRecomputeOneIn = 5;
// A run sends a fixed number of requests (traffic.hpp): this many per
// second of --seconds, about the tier's throughput on a 4-core host, so a
// run measures about --seconds there.
constexpr double kRequestsPerSecond = 70.0;

struct Exchange {
  Request request;
  double latency_s = 0.0;
  double route_s = 0.0;  // the Router::route_line call alone
  bool ok = false;
  bool cached = false;
  std::string response;
};

struct Tier {
  std::vector<shard::WorkerProcess> processes;
  std::unique_ptr<shard::Router> router;
};

// Closes the tier and reaps its workers; returns the largest worker's peak
// resident set in MiB.
double close_tier(Tier& tier) {
  tier.router.reset();  // closes the transports; workers drain and exit
  double peak_mib = 0.0;
  for (const shard::WorkerProcess& process : tier.processes) {
    int status = 0;
    rusage usage{};
    ::wait4(process.pid, &status, 0, &usage);
    peak_mib = std::max(peak_mib, static_cast<double>(usage.ru_maxrss) / 1024.0);
  }
  tier.processes.clear();
  return peak_mib;
}

// Forks the workers (no thread may exist at this point) and starts the
// router over them.
Tier spawn_tier() {
  serve::Service::Options options;
  options.threads = kWorkerThreads;
  Tier tier;
  tier.processes = shard::spawn_worker_processes(kWorkers, options);
  std::vector<shard::WorkerEndpoint> endpoints;
  for (const shard::WorkerProcess& process : tier.processes) {
    endpoints.push_back(shard::endpoint_for(process));
  }
  tier.router = std::make_unique<shard::Router>(shard::Router::Options{},
                                                std::move(endpoints));
  if (tier.processes.size() != static_cast<std::size_t>(kWorkers)) {
    close_tier(tier);
    throw std::runtime_error("serve-miss: worker spawn failed");
  }
  return tier;
}

std::string ring_key(const Request& request) {
  const Key& key = key_matrix()[request.key];
  return repro::core::experiment_key(
      key.program, key.input,
      request.kind == Kind::kRecommend ? "sweep" : key.config);
}

struct Window {
  std::vector<Exchange> exchanges;  // sorted by request index
  double wall_s = 0.0;
  std::map<std::string, std::uint64_t> owners;  // traced windows only
};

// Sends requests [0, count) from the closed-loop clients.
Window run_window(shard::Router& router, const Traffic& traffic,
                  std::uint64_t count, bool traced) {
  std::atomic<std::uint64_t> next{0};
  std::vector<std::vector<Exchange>> per_client(kClients);
  std::vector<std::map<std::string, std::uint64_t>> owners(kClients);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::uint64_t index = next.fetch_add(1); index < count;
           index = next.fetch_add(1)) {
        Exchange x;
        x.request = traffic.at(index);
        const Clock::time_point sent = Clock::now();
        if (traced) {
          ++owners[static_cast<std::size_t>(c)]
                  [router.owner_of(ring_key(x.request))];
        }
        const Clock::time_point routed = Clock::now();
        x.response = router.route_line(x.request.line, x.request.index + 1);
        const Clock::time_point done = Clock::now();
        x.latency_s = seconds_between(sent, done);
        x.route_s = seconds_between(routed, done);
        x.ok = x.response.find("\"status\":\"ok\"") != std::string::npos;
        x.cached = x.response.find("\"cached\":true") != std::string::npos;
        per_client[static_cast<std::size_t>(c)].push_back(std::move(x));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  Window window;
  window.wall_s = seconds_between(start, Clock::now());
  for (int c = 0; c < kClients; ++c) {
    for (Exchange& x : per_client[static_cast<std::size_t>(c)]) {
      window.exchanges.push_back(std::move(x));
    }
    for (const auto& [owner, n] : owners[static_cast<std::size_t>(c)]) {
      window.owners[owner] += n;
    }
  }
  std::sort(window.exchanges.begin(), window.exchanges.end(),
            [](const Exchange& a, const Exchange& b) {
              return a.request.index < b.request.index;
            });
  return window;
}

std::vector<double> latencies(const Window& window, int kind = -1) {
  std::vector<double> out;
  for (const Exchange& x : window.exchanges) {
    if (kind < 0 || static_cast<int>(x.request.kind) == kind) {
      out.push_back(x.latency_s);
    }
  }
  return out;
}

const repro::workloads::Workload& workload_of(const Key& key) {
  return *repro::workloads::Registry::instance().find(key.program);
}

// The ok response line a fault-free service owes `x`, given the result.
std::string expected_line(const Exchange& x,
                          const v1::MeasurementResult& result) {
  const Key& key = key_matrix()[x.request.key];
  serve::Response response;
  response.id = x.request.index + 1;
  response.status = serve::Status::kOk;
  response.cached = x.cached;
  response.key = repro::core::experiment_key(key.program, key.input, key.config);
  response.result = result;
  return serve::format_response_line(response);
}

std::string expected_recommend_line(const Exchange& x,
                                    const v1::Recommendation& rec) {
  return serve::format_recommend_line(x.request.index + 1, rec,
                                      serve::Degradation::kNone, 0);
}

bool checked(const Exchange& x, std::uint64_t seed) {
  return x.request.kind != Kind::kSampled ||
         repro::util::mix64(seed ^ (x.request.index * 0x9E3779B97F4A7C15ULL)) %
                 kSampledCheckOneIn ==
             0;
}

// Counts attempts and non-ok statuses (per kind too), and compares the
// checked subset of ok responses with a direct v1::Session computation.
void verify(const Window& window, const Traffic& traffic, std::uint64_t seed,
            Result& result, PerLayer* per_layer) {
  std::uint64_t attempted[kNumKinds] = {};
  std::uint64_t failed[kNumKinds] = {};
  // One direct computation per distinct request content (responses to
  // equal requests differ only in their ids): `slot` maps each checked
  // exchange to the computation it shares.
  std::map<std::string, std::size_t> slot_of_content;
  std::vector<std::size_t> reps;  // exchange computed for each slot
  std::vector<std::pair<std::size_t, std::size_t>> to_check;  // (x, slot)
  for (std::size_t i = 0; i < window.exchanges.size(); ++i) {
    const Exchange& x = window.exchanges[i];
    const int kind = static_cast<int>(x.request.kind);
    ++attempted[kind];
    ++result.attempted;
    if (!x.ok) {
      ++failed[kind];
      ++result.failed;
      std::fprintf(stderr, "   non-ok %s response to %s: %s\n",
                   kind_name(x.request.kind), ring_key(x.request).c_str(),
                   x.response.c_str());
      continue;
    }
    if (!checked(x, seed)) continue;
    const std::string content =
        x.request.kind == Kind::kSampled
            ? x.request.line
            : std::to_string(kind) + "/" + std::to_string(x.request.key);
    const auto [it, inserted] = slot_of_content.emplace(content, reps.size());
    if (inserted) reps.push_back(i);
    to_check.emplace_back(i, it->second);
  }

  repro::Options options;
  options.threads = 1;
  v1::Session session(options);
  std::vector<v1::MeasurementResult> measured(reps.size());
  std::vector<v1::Recommendation> recommended(reps.size());
  parallel_for(reps.size(), 4, [&](std::size_t r, int) {
    const Exchange& x = window.exchanges[reps[r]];
    if (x.request.kind == Kind::kRecommend) {
      const Key& key = key_matrix()[x.request.key];
      recommended[r] = session.recommend(key.program, key.input,
                                         traffic.recommend_options());
    } else {
      measured[r] = session.measure(traffic.measurement(x.request));
    }
  });

  std::uint64_t mismatches = 0;
  for (const auto& [i, r] : to_check) {
    const Exchange& x = window.exchanges[i];
    const std::string expected =
        x.request.kind == Kind::kRecommend
            ? expected_recommend_line(x, recommended[r])
            : expected_line(x, measured[r]);
    if (expected != x.response) {
      ++mismatches;
      ++failed[static_cast<int>(x.request.kind)];
      ++result.failed;
      result.fail(std::string("served ") + kind_name(x.request.kind) +
                  " response differs from Session: " + x.response);
    }
  }
  std::fprintf(stderr, "   checked %zu ok responses against Session (%zu "
               "distinct computations), %llu mismatches\n",
               to_check.size(), reps.size(),
               static_cast<unsigned long long>(mismatches));
  for (int k = 0; k < kNumKinds; ++k) {
    std::fprintf(stderr, "   kind %-9s attempted %6llu failed %llu\n",
                 kind_name(static_cast<Kind>(k)),
                 static_cast<unsigned long long>(attempted[k]),
                 static_cast<unsigned long long>(failed[k]));
    if (per_layer != nullptr) {
      per_layer->kind_failed[k] += static_cast<double>(failed[k]);
    }
  }
}

// Recomputes a stride of the traced window's ok requests stage by stage and
// checks each against its served response.
void recompute(const Window& window, const Traffic& traffic, Result& result,
               PerLayer& p) {
  std::vector<const Exchange*> picked;
  for (const Exchange& x : window.exchanges) {
    if (x.ok && x.request.index % kRecomputeOneIn == 0) picked.push_back(&x);
  }
  std::vector<repro::sim::GpuConfig> ladder(
      repro::sim::standard_configs().begin(),
      repro::sim::standard_configs().end());

  Tracer tracer;
  std::vector<ThreadTrace*> traces;
  for (int t = 0; t < kWorkers; ++t) traces.push_back(tracer.thread_trace());
  std::vector<StageCounts> counts(kWorkers);
  std::vector<std::string> expected(picked.size());
  std::vector<v1::Recommendation> recommendations(picked.size());
  parallel_for(picked.size(), kWorkers, [&](std::size_t i, int worker) {
    const Exchange& x = *picked[i];
    const Key& key = key_matrix()[x.request.key];
    const repro::workloads::Workload& w = workload_of(key);
    const repro::sim::GpuConfig& config =
        repro::sim::config_by_name(key.config);
    ThreadTrace* trace = traces[static_cast<std::size_t>(worker)];
    StageCounts& c = counts[static_cast<std::size_t>(worker)];
    const v1::ExperimentRequest request = traffic.measurement(x.request);
    switch (x.request.kind) {
      case Kind::kExact:
        expected[i] = expected_line(
            x, to_wire(recompute_experiment(w, key.input, config,
                                            repro::core::Study::Options{},
                                            trace, c)));
        break;
      case Kind::kThermal: {
        repro::core::Study::Options options;
        options.thermal =
            v1::detail::thermal_to_internal(request.thermal, ladder);
        expected[i] = expected_line(
            x, to_wire(recompute_experiment(w, key.input, config, options,
                                            trace, c)));
        break;
      }
      case Kind::kSampled: {
        repro::sample::SampleOptions options;
        options.mode = repro::sample::Mode::kStratified;
        options.fraction = request.sampling.fraction;
        options.target_rel_error = request.sampling.target_rel_error;
        options.seed = request.sampling.seed;
        expected[i] = expected_line(
            x, to_wire(recompute_sampled(w, key.input, config, options, trace,
                                         c)));
        break;
      }
      case Kind::kRecommend: {
        Span job(trace, "job");
        ++c.experiments;
        v1::Session session;
        {
          Span span(trace, "dvfs-sweep");
          recommendations[i] = session.recommend(key.program, key.input,
                                                 traffic.recommend_options());
        }
        expected[i] = expected_recommend_line(x, recommendations[i]);
        break;
      }
    }
  });

  StageCounts total;
  for (const StageCounts& c : counts) total.add(c);
  std::set<std::pair<std::string, std::size_t>> inputs;
  double grid_points = 0.0, pruned = 0.0, measured = 0.0;
  for (std::size_t i = 0; i < picked.size(); ++i) {
    const Exchange& x = *picked[i];
    const Key& key = key_matrix()[x.request.key];
    if (x.request.kind != Kind::kRecommend) {
      inputs.emplace(key.program, key.input);
    } else {
      const v1::SweepResult& sweep = recommendations[i].sweep;
      grid_points += static_cast<double>(sweep.grid_points);
      pruned += static_cast<double>(sweep.pruned);
      measured += static_cast<double>(sweep.measured);
    }
    if (expected[i] != x.response) {
      result.fail(std::string("stage-by-stage recomputation differs from the "
                              "served ") +
                  kind_name(x.request.kind) + " response: " + x.response);
    }
  }
  fill_stage_layers(p, tracer, total);
  p.trace_builds = static_cast<double>(total.trace_builds);
  p.trace_builds_per_input =
      inputs.empty() ? 0.0 : p.trace_builds / static_cast<double>(inputs.size());
  p.dvfs_points_measured = measured;
  p.dvfs_pruned_frac = grid_points > 0.0 ? pruned / grid_points : 0.0;
  const auto totals = tracer.by_name();
  const auto sweep = totals.find("dvfs-sweep");
  if (sweep != totals.end()) p.dvfs_sweep_s = sweep->second.self_s;
}

}  // namespace

Result run_serve_miss(const Args& args) {
  Result result;
  const std::uint64_t requests = std::max<std::uint64_t>(
      100, static_cast<std::uint64_t>(kRequestsPerSecond * args.seconds));

  std::vector<double> setups;
  Tier tier;
  for (int k = 0; k < kSetupRepeats; ++k) {
    if (tier.router) close_tier(tier);
    const Clock::time_point t0 = Clock::now();
    tier = spawn_tier();
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  if (!args.trace) {
    const Traffic traffic(Mix::kMiss, args.seed, requests);
    const Window window = run_window(*tier.router, traffic, requests, false);
    EndToEnd e;
    e.setup_s = median(setups);
    e.peak_rss_mib = close_tier(tier);
    verify(window, traffic, args.seed, result, nullptr);
    const std::vector<double> lat = latencies(window);
    e.ok_frac = static_cast<double>(result.attempted - result.failed) /
                static_cast<double>(result.attempted);
    e.throughput_rps =
        static_cast<double>(window.exchanges.size()) / window.wall_s;
    // The p50 falls on the gap between the fast requests (cache hits and
    // tiny programs, about 45%) and the misses, where it jumped 2x between
    // runs; p75 sits inside the miss mode.
    e.latency_mid_ms = 1e3 * quantile(lat, 0.75);
    e.latency_tail_ms = 1e3 * quantile(lat, 0.9);
    e.latency_note = "per request, p75 mid, p90 tail, n=" +
                     std::to_string(lat.size());
    add_end_to_end(result, e);
    return result;
  }

  // Traced: an untraced half on one cold tier, then a traced half on a
  // fresh cold tier sending the same requests.
  const Traffic traffic(Mix::kMiss, args.seed, requests / 2);
  const Window untraced =
      run_window(*tier.router, traffic, requests / 2, false);
  close_tier(tier);
  tier = spawn_tier();
  const Window traced = run_window(*tier.router, traffic, requests / 2, true);
  close_tier(tier);

  PerLayer p;
  verify(traced, traffic, args.seed, result, &p);
  recompute(traced, traffic, result, p);

  for (int k = 0; k < kNumKinds; ++k) {
    p.kind_p50_ms[k] = 1e3 * median(latencies(traced, k));
  }
  std::vector<double> hop;
  double ok_measurements = 0.0, cached = 0.0;
  Tracer parse_tracer;
  ThreadTrace* parse_trace = parse_tracer.thread_trace();
  for (const Exchange& x : traced.exchanges) {
    if (x.request.kind == Kind::kRecommend) continue;
    if (x.ok) ok_measurements += 1.0;
    if (x.cached) {
      cached += 1.0;
      hop.push_back(x.route_s);
    }
    v1::ExperimentRequest parsed;
    std::string error;
    Span span(parse_trace, "parse");
    serve::parse_request_line(x.request.line, parsed, error);
  }
  const SpanTotals parse = parse_tracer.by_name()["parse"];
  p.wire_parse_us =
      parse.count > 0 ? 1e6 * parse.total_s / static_cast<double>(parse.count)
                      : 0.0;
  p.cache_hit_rate = ok_measurements > 0.0 ? cached / ok_measurements : 0.0;
  p.route_ms = 1e3 * median(hop);
  std::uint64_t busiest = 0, routed = 0;
  for (const auto& [owner, n] : traced.owners) {
    busiest = std::max(busiest, n);
    routed += n;
  }
  p.load_imbalance = routed == 0 ? 0.0
                                 : static_cast<double>(busiest) /
                                       (static_cast<double>(routed) / kWorkers);
  const double untraced_p50 = median(latencies(untraced));
  const double traced_p50 = median(latencies(traced));
  p.overhead_frac = (traced_p50 - untraced_p50) / untraced_p50;
  std::fprintf(stderr,
               "   untraced p50 %.3f ms (n=%zu), traced p50 %.3f ms (n=%zu), "
               "route hop p50 %.3f ms over %zu cache hits\n",
               1e3 * untraced_p50, untraced.exchanges.size(), 1e3 * traced_p50,
               traced.exchanges.size(), p.route_ms, hop.size());
  add_per_layer(result, p);
  return result;
}

}  // namespace perfbench
