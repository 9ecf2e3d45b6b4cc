// perfbench: the repository benchmark driver.
//
//   perfbench --workload matrix-cold|serve-hot|serve-miss --seed N
//             --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with no outside spans; --trace 1
// runs the traced variant and reports the per-layer metrics. Either way the
// outputs are checked, a human report goes to stderr, and the last stdout
// line is one JSON object {"correct", "attempted", "failed", "metrics"}.
// The exit code is 0 only when every correctness check passed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace perfbench {

void add_end_to_end(Result& r, const EndToEnd& e) {
  r.add("setup_s", e.setup_s, "s");
  r.add("ok_frac", e.ok_frac, "fraction");
  r.add("peak_rss_mib", e.peak_rss_mib, "MiB");
  r.add("throughput_rps", e.throughput_rps, "1/s");
  r.add("latency_mid_ms", e.latency_mid_ms, "ms", e.latency_note);
  r.add("latency_tail_ms", e.latency_tail_ms, "ms", e.latency_note);
}

void add_per_layer(Result& r, const PerLayer& p) {
  r.add("workloads.trace_build_s", p.trace_build_s, "s");
  r.add("workloads.trace_build_s.SSSP", p.trace_build_sssp_s, "s");
  r.add("workloads.trace_build_s.L-BFS", p.trace_build_lbfs_s, "s");
  r.add("workloads.trace_build_s.QTC", p.trace_build_qtc_s, "s");
  r.add("workloads.trace_builds", p.trace_builds, "count");
  r.add("workloads.trace_builds_per_input", p.trace_builds_per_input, "ratio");
  r.add("sim.run_trace_s", p.run_trace_s, "s");
  r.add("sim.phases", p.phases, "count");
  r.add("sim.simulated_s_per_host_s", p.simulated_s_per_host_s, "ratio");
  r.add("core.variability_s", p.variability_s, "s");
  r.add("core.scheduler.busy_frac", p.scheduler_busy_frac, "ratio");
  r.add("core.scheduler.steals", p.scheduler_steals, "count");
  r.add("core.scheduler.longest_job_s", p.scheduler_longest_job_s, "s");
  r.add("core.study.trace_hit_rate", p.study_trace_hit_rate, "ratio");
  r.add("core.study.result_hit_rate", p.study_result_hit_rate, "ratio");
  r.add("power.synthesis_s", p.synthesis_s, "s");
  r.add("power.memo_hit_rate", p.memo_hit_rate, "ratio");
  r.add("sensor.record_s", p.record_s, "s");
  r.add("sensor.samples", p.samples, "count");
  r.add("k20power.analyze_s", p.analyze_s, "s");
  r.add("k20power.usable_frac", p.usable_frac, "ratio");
  r.add("thermal.simulate_s", p.thermal_s, "s");
  r.add("sample.measure_s", p.sample_measure_s, "s");
  r.add("dvfs.points_measured", p.dvfs_points_measured, "count");
  r.add("dvfs.pruned_frac", p.dvfs_pruned_frac, "ratio");
  r.add("dvfs.sweep_s", p.dvfs_sweep_s, "s");
  r.add("serve.wire.parse_us", p.wire_parse_us, "us");
  r.add("serve.wire.format_us", p.wire_format_us, "us");
  r.add("serve.service.wait_ms", p.service_wait_ms, "ms");
  r.add("serve.cache.hit_rate", p.cache_hit_rate, "ratio");
  for (int k = 0; k < kNumKinds; ++k) {
    const std::string kind = kind_name(static_cast<Kind>(k));
    r.add("serve.kind." + kind + ".p50_ms", p.kind_p50_ms[k], "ms");
    r.add("serve.kind." + kind + ".failed", p.kind_failed[k], "count");
  }
  r.add("shard.route_ms", p.route_ms, "ms");
  r.add("shard.load_imbalance", p.load_imbalance, "ratio");
  r.add("trace.self_over_busy", p.self_over_busy, "ratio");
  r.add("trace.self_over_obs", p.self_over_obs, "ratio");
  r.add("trace.overhead_frac", p.overhead_frac, "ratio");
  r.add("trace.recomputed_ops", p.recomputed_ops, "count");
}

void fill_stage_layers(PerLayer& p, const Tracer& tracer,
                       const StageCounts& counts) {
  const auto totals = tracer.by_name();
  const auto self_of = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_s;
  };
  const auto builds = tracer.by_tag("trace-build");
  const auto build_of = [&](const char* program) {
    const auto it = builds.find(program);
    return it == builds.end() ? 0.0 : it->second.self_s;
  };
  p.trace_build_s = self_of("trace-build");
  p.trace_build_sssp_s = build_of("SSSP");
  p.trace_build_lbfs_s = build_of("L-BFS");
  p.trace_build_qtc_s = build_of("QTC");
  p.run_trace_s = self_of("timing");
  p.phases = static_cast<double>(counts.phases);
  p.simulated_s_per_host_s =
      p.run_trace_s > 0.0 ? counts.simulated_s / p.run_trace_s : 0.0;
  p.variability_s = self_of("variability");
  p.synthesis_s = self_of("power-synthesis");
  p.memo_hit_rate = counts.memo_lookups == 0
                        ? 0.0
                        : static_cast<double>(counts.memo_hits) /
                              static_cast<double>(counts.memo_lookups);
  p.record_s = self_of("sensor-sampling");
  p.samples = static_cast<double>(counts.samples);
  p.analyze_s = self_of("k20power-analysis");
  p.usable_frac = counts.analyses == 0
                      ? 0.0
                      : static_cast<double>(counts.usable_analyses) /
                            static_cast<double>(counts.analyses);
  p.thermal_s = self_of("thermal");
  p.sample_measure_s = self_of("sample-measure");
  const auto job = totals.find("job");
  if (job != totals.end()) p.scheduler_longest_job_s = job->second.max_s;
  p.recomputed_ops = static_cast<double>(counts.experiments);
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload matrix-cold|serve-hot|serve-miss "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0.0) return usage();

  perfbench::Result result;
  try {
    if (args.workload == "matrix-cold") {
      result = perfbench::run_matrix_cold(args);
    } else if (args.workload == "serve-hot") {
      result = perfbench::run_serve_hot(args);
    } else if (args.workload == "serve-miss") {
      result = perfbench::run_serve_miss(args);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  perfbench::print_result(result, args.workload);
  return result.correct ? 0 : 1;
}
