// Workload entry points and the fixed metric sets every workload prints.
#pragma once

#include <cstdint>
#include <string>

#include "measure.hpp"
#include "pipeline.hpp"
#include "traffic.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// End-to-end metrics, measured with the outside spans off. Every workload
/// reports all of them; README.md defines each per workload.
struct EndToEnd {
  double setup_s = 0.0;
  double ok_frac = 0.0;
  double peak_rss_mib = 0.0;
  double throughput_rps = 0.0;
  double latency_mid_ms = 0.0;
  double latency_tail_ms = 0.0;
  std::string latency_note;  // percentiles used, sample count
};

void add_end_to_end(Result& result, const EndToEnd& e);

/// Per-layer metrics of the traced run. Layers a workload does not exercise
/// keep 0; README.md maps each one to the end-to-end metric it should move.
struct PerLayer {
  double trace_build_s = 0.0;
  double trace_build_sssp_s = 0.0;
  double trace_build_lbfs_s = 0.0;
  double trace_build_qtc_s = 0.0;
  double trace_builds = 0.0;
  double trace_builds_per_input = 0.0;
  double run_trace_s = 0.0;
  double phases = 0.0;
  double simulated_s_per_host_s = 0.0;
  double variability_s = 0.0;
  double scheduler_busy_frac = 0.0;
  double scheduler_steals = 0.0;
  double scheduler_longest_job_s = 0.0;
  double study_trace_hit_rate = 0.0;
  double study_result_hit_rate = 0.0;
  double synthesis_s = 0.0;
  double memo_hit_rate = 0.0;
  double record_s = 0.0;
  double samples = 0.0;
  double analyze_s = 0.0;
  double usable_frac = 0.0;
  double thermal_s = 0.0;
  double sample_measure_s = 0.0;
  double dvfs_points_measured = 0.0;
  double dvfs_pruned_frac = 0.0;
  double dvfs_sweep_s = 0.0;
  double wire_parse_us = 0.0;
  double wire_format_us = 0.0;
  double service_wait_ms = 0.0;
  double cache_hit_rate = 0.0;
  double kind_p50_ms[4] = {0.0, 0.0, 0.0, 0.0};   // by Kind
  double kind_failed[4] = {0.0, 0.0, 0.0, 0.0};   // by Kind
  double route_ms = 0.0;
  double load_imbalance = 0.0;
  double self_over_busy = 0.0;
  double self_over_obs = 0.0;
  double overhead_frac = 0.0;
  double recomputed_ops = 0.0;
};

void add_per_layer(Result& result, const PerLayer& p);

/// Fills the stage layers (trace build through sampling) from the spans and
/// work counts of a recomputation.
void fill_stage_layers(PerLayer& p, const Tracer& tracer,
                       const StageCounts& counts);

Result run_matrix_cold(const Args& args);
Result run_serve_hot(const Args& args);
Result run_serve_miss(const Args& args);

}  // namespace perfbench
