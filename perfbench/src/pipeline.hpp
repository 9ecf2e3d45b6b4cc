// The traced run's stage-by-stage recomputation of one experiment.
//
// It calls the same public functions, in the same order and with the same
// seeds, as core::Study's measurement of one experiment key (a fresh trace
// per key, three repetitions of perturb -> synthesize_into -> [thermal
// simulate] -> record_into -> analyze, medians), with an outside span around
// each call. Its results must equal the program's bit for bit; the benchmark
// checks that, so a change to the program's pipeline that this mirror does
// not follow fails the traced run instead of producing misleading layer
// times.
#pragma once

#include <cstdint>
#include <string>

#include "core/study.hpp"
#include "measure.hpp"
#include "repro/api.hpp"
#include "sample/sample.hpp"

namespace perfbench {

/// Work counts of the recomputed stages.
struct StageCounts {
  std::uint64_t experiments = 0;
  std::uint64_t trace_builds = 0;
  std::uint64_t phases = 0;          // timed phases out of sim::run_trace
  double simulated_s = 0.0;          // simulated active GPU seconds
  std::uint64_t samples = 0;         // sensor readings recorded
  std::uint64_t analyses = 0;        // k20power::analyze calls
  std::uint64_t usable_analyses = 0;
  std::uint64_t memo_lookups = 0;    // power::PhasePowerMemo dynamic lookups
  std::uint64_t memo_hits = 0;

  void add(const StageCounts& other);
};

/// Exact (or thermal, when `options.thermal.enabled`) measurement of one
/// experiment, recomputed stage by stage with spans on `trace`.
repro::core::ExperimentResult recompute_experiment(
    const repro::workloads::Workload& workload, std::size_t input_index,
    const repro::sim::GpuConfig& config,
    const repro::core::Study::Options& options, ThreadTrace* trace,
    StageCounts& counts);

/// Sampled measurement of one experiment: trace build and timing are timed
/// as their own spans, then sample::measure_sampled runs against a study
/// whose trace is already built, so its span covers sampling alone.
repro::sample::SampledResult recompute_sampled(
    const repro::workloads::Workload& workload, std::size_t input_index,
    const repro::sim::GpuConfig& config,
    const repro::sample::SampleOptions& options, ThreadTrace* trace,
    StageCounts& counts);

/// Field-for-field copies into the wire's result type (the same copies the
/// facade makes), so recomputed results can be formatted as response lines.
repro::v1::MeasurementResult to_wire(const repro::core::ExperimentResult& r);
repro::v1::MeasurementResult to_wire(const repro::sample::SampledResult& r);

/// Bitwise equality of the fields a served result carries.
bool same_result(const repro::core::ExperimentResult& a,
                 const repro::core::ExperimentResult& b);

}  // namespace perfbench
