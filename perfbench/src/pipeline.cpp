#include "pipeline.hpp"

#include <algorithm>
#include <functional>
#include <vector>

#include "core/variability.hpp"
#include "k20power/analyze.hpp"
#include "power/model.hpp"
#include "sensor/sampler.hpp"
#include "sensor/waveform.hpp"
#include "sim/device.hpp"
#include "sim/engine.hpp"
#include "thermal/thermal.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace core = repro::core;
namespace sim = repro::sim;

void StageCounts::add(const StageCounts& o) {
  experiments += o.experiments;
  trace_builds += o.trace_builds;
  phases += o.phases;
  simulated_s += o.simulated_s;
  samples += o.samples;
  analyses += o.analyses;
  usable_analyses += o.usable_analyses;
  memo_lookups += o.memo_lookups;
  memo_hits += o.memo_hits;
}

namespace {

// Workload::trace then sim::run_trace, as core::Study::trace_result does.
sim::TraceResult traced_trace(const repro::workloads::Workload& workload,
                              std::size_t input_index,
                              const sim::GpuConfig& config,
                              std::uint64_t structural_seed,
                              ThreadTrace* trace, StageCounts& counts) {
  repro::workloads::ExecContext ctx;
  ctx.core_mhz = config.core_mhz;
  ctx.mem_mhz = config.mem_mhz;
  ctx.ecc = config.ecc;
  ctx.structural_seed = structural_seed;
  repro::workloads::LaunchTrace launches;
  {
    Span span(trace, "trace-build", workload.name());
    launches = workload.trace(input_index, ctx);
  }
  ++counts.trace_builds;
  sim::TraceResult timed;
  {
    Span span(trace, "timing");
    timed = sim::run_trace(sim::k20c(), config, launches);
  }
  counts.phases += timed.phases.size();
  counts.simulated_s += timed.active_time_s;
  return timed;
}

}  // namespace

core::ExperimentResult recompute_experiment(
    const repro::workloads::Workload& workload, std::size_t input_index,
    const sim::GpuConfig& config, const core::Study::Options& options,
    ThreadTrace* trace, StageCounts& counts) {
  Span job(trace, "job");
  ++counts.experiments;
  const sim::TraceResult ground = traced_trace(
      workload, input_index, config, options.structural_seed, trace, counts);

  core::ExperimentResult result;
  result.true_active_s = ground.active_time_s;
  // The measurement stream is derived from the experiment key exactly as
  // core::Study derives it.
  const std::string key = core::experiment_key(workload, input_index, config);
  repro::util::Rng stream{repro::util::mix64(
      options.measurement_seed ^
      repro::util::mix64(std::hash<std::string>{}(key)))};
  const repro::sensor::Sensor sensor;
  const repro::power::PowerModel model;
  repro::power::PhasePowerMemo memo{
      model, config, config.ecc ? workload.ecc_power_adjustment() : 1.0};
  const repro::k20power::AnalyzeOptions analyze_options =
      repro::k20power::options_for_tail(memo.tail_power_w());
  repro::sensor::Waveform waveform;
  std::vector<repro::sensor::Sample> samples;

  std::vector<double> times, energies, powers;
  for (int rep = 0; rep < options.repetitions; ++rep) {
    repro::util::Rng rep_rng = stream.fork(static_cast<std::uint64_t>(rep) + 1);
    sim::TraceResult perturbed;
    {
      Span span(trace, "variability");
      perturbed = core::perturb(ground, workload.regularity(), rep_rng);
    }
    {
      Span span(trace, "power-synthesis");
      repro::sensor::synthesize_into(waveform, perturbed, memo);
    }
    if (options.thermal.enabled) {
      Span span(trace, "thermal");
      const repro::thermal::ThermalResult th = repro::thermal::simulate(
          waveform, options.thermal, config, memo.static_power_w(),
          memo.leakage_w());
      result.thermal = true;
      result.peak_temp_c = std::max(result.peak_temp_c, th.peak_die_c);
      result.throttled = result.throttled || th.throttled;
      result.throttle_events = std::max(result.throttle_events,
                                        static_cast<int>(th.events.size()));
    }
    {
      Span span(trace, "sensor-sampling");
      sensor.record_into(waveform, rep_rng, samples);
    }
    counts.samples += samples.size();
    repro::k20power::Measurement m;
    {
      Span span(trace, "k20power-analysis");
      m = repro::k20power::analyze(samples, analyze_options);
    }
    ++counts.analyses;
    result.repetitions.push_back(m);
    if (m.usable) {
      ++counts.usable_analyses;
      times.push_back(m.active_time_s);
      energies.push_back(m.energy_j);
      powers.push_back(m.avg_power_w);
    }
  }
  counts.memo_lookups += memo.lookups();
  counts.memo_hits += memo.hits();

  if (times.size() >= 2) {
    result.usable = true;
    result.time_s = repro::util::median(times);
    result.energy_j = repro::util::median(energies);
    result.power_w = repro::util::median(powers);
    result.time_spread = repro::util::relative_spread(times);
    result.energy_spread = repro::util::relative_spread(energies);
  }
  return result;
}

repro::sample::SampledResult recompute_sampled(
    const repro::workloads::Workload& workload, std::size_t input_index,
    const sim::GpuConfig& config, const repro::sample::SampleOptions& options,
    ThreadTrace* trace, StageCounts& counts) {
  Span job(trace, "job");
  ++counts.experiments;
  core::Study study;
  traced_trace(workload, input_index, config, study.options().structural_seed,
               trace, counts);
  // Builds the study's own copy of the same trace outside every span, so
  // the sampling span below excludes trace building.
  study.trace_result(workload, input_index, config);
  Span span(trace, "sample-measure");
  return repro::sample::measure_sampled(study, workload, input_index, config,
                                        options);
}

repro::v1::MeasurementResult to_wire(const core::ExperimentResult& r) {
  repro::v1::MeasurementResult out;
  out.usable = r.usable;
  out.time_s = r.time_s;
  out.energy_j = r.energy_j;
  out.power_w = r.power_w;
  out.true_active_s = r.true_active_s;
  out.time_spread = r.time_spread;
  out.energy_spread = r.energy_spread;
  out.thermal = r.thermal;
  out.throttled = r.throttled;
  out.peak_temp_c = r.peak_temp_c;
  out.throttle_events = r.throttle_events;
  return out;
}

repro::v1::MeasurementResult to_wire(const repro::sample::SampledResult& r) {
  repro::v1::MeasurementResult out = to_wire(r.base);
  out.sampled = r.sampled;
  out.sample_fraction = r.fraction;
  out.time_ci = {r.time_ci.low, r.time_ci.high};
  out.energy_ci = {r.energy_ci.low, r.energy_ci.high};
  out.power_ci = {r.power_ci.low, r.power_ci.high};
  return out;
}

bool same_result(const core::ExperimentResult& a,
                 const core::ExperimentResult& b) {
  return a.usable == b.usable && a.time_s == b.time_s &&
         a.energy_j == b.energy_j && a.power_w == b.power_w &&
         a.true_active_s == b.true_active_s &&
         a.time_spread == b.time_spread &&
         a.energy_spread == b.energy_spread && a.thermal == b.thermal &&
         a.throttled == b.throttled && a.peak_temp_c == b.peak_temp_c &&
         a.throttle_events == b.throttle_events;
}

}  // namespace perfbench
