// matrix-cold: the paper reproduction itself. A fresh v1::Session runs the
// 220-experiment matrix (every primary program and input under the four
// paper configurations) on 2 scheduler threads, as often as the run's
// seconds allow. Every pipeline stage runs; trace building dominates; the
// serve and shard layers are never touched.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/scheduler.hpp"
#include "obs/trace.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

namespace {

namespace v1 = repro::v1;

const std::vector<std::string> kConfigs = {"default", "614", "324", "ecc"};
constexpr int kThreads = 2;
constexpr int kSetupRepeats = 15;
// Accepted disagreement between the traced recomputation's summed stage
// self times and (a) the scheduler's busy time in an untraced run, (b) the
// program's own stage.* histograms in an obs-on run. Both compare separate
// runs of the same work, so the tolerance covers run-to-run noise.
constexpr double kSelfTimeTolerance = 0.25;

// The golden line format of tests/golden_test.cpp.
std::string golden_line(const std::string& key, bool usable, double time_s,
                        double energy_j, double power_w) {
  char line[512];
  std::snprintf(line, sizeof line,
                "%s usable=%d time_s=%.17g energy_j=%.17g power_w=%.17g",
                key.c_str(), usable ? 1 : 0, time_s, energy_j, power_w);
  return line;
}

std::map<std::string, std::string> load_goldens() {
  std::map<std::string, std::string> goldens;
  std::ifstream in(std::string(PERFBENCH_REPO_ROOT) +
                   "/tests/golden/experiments.txt");
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t space = line.find(' ');
    if (space != std::string::npos) goldens[line.substr(0, space)] = line;
  }
  return goldens;
}

// False when `line`'s experiment has a golden line that differs.
bool matches_golden(const std::string& line,
                    const std::map<std::string, std::string>& goldens,
                    std::size_t& golden_matches, Result& result) {
  const auto golden = goldens.find(line.substr(0, line.find(' ')));
  if (golden == goldens.end()) return true;
  ++golden_matches;
  if (golden->second == line) return true;
  result.fail("golden mismatch: " + line);
  return false;
}

// Checks one matrix's results against the goldens and against the first
// matrix of the run; returns the number of experiments that failed.
std::uint64_t check_matrix(const std::vector<std::string>& lines,
                           const std::vector<std::string>& first,
                           const std::map<std::string, std::string>& goldens,
                           std::size_t& golden_matches, Result& result) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const bool same_as_first = i < first.size() && lines[i] == first[i];
    if (!matches_golden(lines[i], goldens, golden_matches, result) ||
        !same_as_first) {
      ++failed;
    }
  }
  if (lines.size() != first.size()) {
    result.fail("matrix sizes differ between runs");
  }
  return failed;
}

// Set-up is what a fresh process pays before it can run the matrix: its
// first v1::Session, which registers every workload. Registration happens
// once per process, so each repeat runs in a forked child; the parent must
// not have constructed a Session yet.
double median_setup_s(const repro::Options& options) {
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    setups.push_back(seconds_in_child([&] { v1::Session session(options); }));
  }
  return median(setups);
}

void run_end_to_end(const Args& args, const repro::Options& options,
                    const std::map<std::string, std::string>& goldens,
                    Result& result, EndToEnd& e) {
  std::vector<double> walls;
  std::vector<std::string> first;
  std::size_t golden_matches = 0;
  const Clock::time_point start = Clock::now();
  do {
    v1::Session session(options);
    const Clock::time_point t0 = Clock::now();
    const v1::BatchSummary summary = session.run_matrix(kConfigs);
    walls.push_back(seconds_between(t0, Clock::now()));

    std::vector<std::string> lines;
    for (const v1::BatchEntry& entry : summary.entries) {
      lines.push_back(golden_line(entry.key, entry.result.usable,
                                  entry.result.time_s, entry.result.energy_j,
                                  entry.result.power_w));
    }
    if (first.empty()) {
      // The first matrix of a fresh process: later ones only add allocator
      // history, which moved the peak by 20% between runs.
      e.peak_rss_mib = self_peak_rss_mib();
      first = lines;
    }
    result.attempted += lines.size();
    result.failed += check_matrix(lines, first, goldens, golden_matches,
                                  result);
  } while (seconds_between(start, Clock::now()) < args.seconds);

  if (golden_matches == 0) result.fail("no matrix entry has a golden line");
  e.ok_frac = static_cast<double>(result.attempted - result.failed) /
              static_cast<double>(result.attempted);
  // Per matrix, so a slow spell of the host during one matrix moves the
  // median no more than it moves the latency.
  e.throughput_rps = static_cast<double>(first.size()) / median(walls);
  e.latency_mid_ms = 1e3 * median(walls);
  e.latency_tail_ms = 1e3 * quantile(walls, 0.9);
  e.latency_note = "per cold matrix, p50 mid, p90 tail, n=" +
                   std::to_string(walls.size());
  std::fprintf(stderr, "   %zu cold matrices of %zu experiments, %zu golden "
               "lines matched\n", walls.size(), first.size(), golden_matches);
}

void run_traced(const std::map<std::string, std::string>& goldens,
                Result& result, PerLayer& p) {
  repro::suites::register_all_workloads();
  const std::vector<repro::core::ExperimentJob> jobs =
      repro::core::registry_matrix(kConfigs);
  const repro::core::Scheduler scheduler{
      repro::core::Scheduler::Options{kThreads}};

  // A: the program's own scheduler run, untraced.
  repro::core::Study study;
  const repro::core::BatchReport untraced = scheduler.run(study, jobs);

  // B: the stage-by-stage recomputation, traced, on as many threads.
  Tracer tracer;
  std::vector<ThreadTrace*> traces;
  for (int t = 0; t < kThreads; ++t) traces.push_back(tracer.thread_trace());
  std::vector<StageCounts> counts(kThreads);
  std::vector<repro::core::ExperimentResult> recomputed(jobs.size());
  const Clock::time_point b0 = Clock::now();
  parallel_for(jobs.size(), kThreads, [&](std::size_t i, int worker) {
    const repro::core::ExperimentJob& job = jobs[i];
    recomputed[i] = recompute_experiment(
        *job.workload, job.input_index, *job.config, study.options(),
        traces[static_cast<std::size_t>(worker)],
        counts[static_cast<std::size_t>(worker)]);
  });
  const double traced_wall = seconds_between(b0, Clock::now());
  StageCounts total;
  for (const StageCounts& c : counts) total.add(c);

  std::size_t golden_matches = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const repro::core::ExperimentJob& job = jobs[i];
    const repro::core::ExperimentResult& served =
        study.measure(*job.workload, job.input_index, *job.config);
    const std::string key = repro::core::experiment_key(
        *job.workload, job.input_index, *job.config);
    ++result.attempted;
    bool ok = matches_golden(golden_line(key, served.usable, served.time_s,
                                         served.energy_j, served.power_w),
                             goldens, golden_matches, result);
    if (!same_result(recomputed[i], served)) {
      ok = false;
      result.fail("stage-by-stage recomputation differs from the program: " +
                  key);
    }
    if (!ok) ++result.failed;
  }
  if (golden_matches == 0) result.fail("no matrix entry has a golden line");

  // C: the program's scheduler run with its own observability on; its
  // stage.* histograms are the program's view of the same stages.
  repro::obs::set_enabled(true);
  repro::core::Study obs_study;
  const repro::core::BatchReport observed = scheduler.run(obs_study, jobs);
  repro::obs::set_enabled(false);

  fill_stage_layers(p, tracer, total);
  std::set<std::pair<std::string, std::size_t>> inputs;
  for (const repro::core::ExperimentJob& job : jobs) {
    inputs.emplace(std::string(job.workload->name()), job.input_index);
  }
  const repro::core::Study::CacheStats& stats = untraced.stats;
  p.trace_builds = static_cast<double>(stats.trace_misses);
  p.trace_builds_per_input = p.trace_builds / static_cast<double>(inputs.size());
  const double trace_lookups =
      static_cast<double>(stats.trace_hits + stats.trace_misses);
  p.study_trace_hit_rate =
      trace_lookups > 0.0 ? static_cast<double>(stats.trace_hits) / trace_lookups
                          : 0.0;
  p.study_result_hit_rate = untraced.hit_rate();
  p.scheduler_busy_frac =
      untraced.busy_s() / (untraced.threads * untraced.wall_s);
  p.scheduler_steals = static_cast<double>(untraced.total_steals());

  const double stage_self = p.trace_build_s + p.run_trace_s + p.variability_s +
                            p.synthesis_s + p.record_s + p.analyze_s;
  double obs_total = 0.0;
  for (const repro::core::StageTiming& s : observed.stage_timing) {
    obs_total += s.total_s;
    std::fprintf(stderr, "   obs stage %-18s %9.4f s (n=%llu)\n",
                 s.stage.c_str(), s.total_s,
                 static_cast<unsigned long long>(s.count));
  }
  p.self_over_busy = stage_self / untraced.busy_s();
  p.self_over_obs = obs_total > 0.0 ? stage_self / obs_total : 0.0;
  p.overhead_frac = (traced_wall - untraced.wall_s) / untraced.wall_s;
  std::fprintf(stderr,
               "   stage self %.4f s vs scheduler busy %.4f s (%.3f) vs obs "
               "stages %.4f s (%.3f); tolerance +-%.0f%%\n",
               stage_self, untraced.busy_s(), p.self_over_busy, obs_total,
               p.self_over_obs, 100.0 * kSelfTimeTolerance);
  std::fprintf(stderr, "   traced wall %.4f s vs untraced %.4f s\n",
               traced_wall, untraced.wall_s);
  if (std::abs(p.self_over_busy - 1.0) > kSelfTimeTolerance) {
    result.fail("stage self times do not account for the scheduler's busy "
                "time within tolerance");
  }
  if (std::abs(p.self_over_obs - 1.0) > kSelfTimeTolerance) {
    result.fail("stage self times disagree with the stage.* histograms");
  }
}

}  // namespace

Result run_matrix_cold(const Args& args) {
  Result result;
  const std::map<std::string, std::string> goldens = load_goldens();
  if (goldens.empty()) {
    result.fail("tests/golden/experiments.txt is missing or empty");
  }
  repro::Options options;
  options.threads = kThreads;

  EndToEnd e;
  e.setup_s = median_setup_s(options);
  if (!args.trace) {
    run_end_to_end(args, options, goldens, result, e);
    add_end_to_end(result, e);
  } else {
    PerLayer p;
    run_traced(goldens, result, p);
    add_per_layer(result, p);
  }
  return result;
}

}  // namespace perfbench
