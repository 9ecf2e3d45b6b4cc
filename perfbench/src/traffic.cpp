#include "traffic.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <tuple>
#include <utility>

#include "serve/wire.hpp"
#include "sim/gpuconfig.hpp"
#include "util/rng.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

namespace {

constexpr double kZipfAlpha = 1.1;

// Shares of each mix, by Kind (exact, sampled, thermal, recommend).
constexpr std::array<double, kNumKinds> kHotShare = {1.0, 0.0, 0.0, 0.0};
constexpr std::array<double, kNumKinds> kMissShare = {0.2, 0.6, 0.1, 0.1};

// Zipf probabilities of ranks 1..n.
std::vector<double> zipf(std::size_t n) {
  std::vector<double> p(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    p[k] = 1.0 / std::pow(static_cast<double>(k + 1), kZipfAlpha);
    total += p[k];
  }
  for (double& x : p) x /= total;
  return p;
}

struct Cell {
  Kind kind;
  std::size_t key;
  double quota;  // requests owed to this (kind, key) pair
};

// Hamilton's method: every cell gets the floor of its quota, and the
// requests left over go to the largest remainders (ties in cell order).
std::vector<std::pair<Kind, std::size_t>> apportion(
    const std::vector<Cell>& cells, std::size_t total) {
  std::vector<std::pair<Kind, std::size_t>> out;
  std::vector<std::pair<double, std::size_t>> remainders;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const double whole = std::floor(cells[c].quota);
    for (double n = 0; n < whole; n += 1.0) {
      out.emplace_back(cells[c].kind, cells[c].key);
    }
    remainders.emplace_back(cells[c].quota - whole, c);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t r = 0; out.size() < total && r < remainders.size(); ++r) {
    const Cell& cell = cells[remainders[r].second];
    out.emplace_back(cell.kind, cell.key);
  }
  return out;
}

}  // namespace

const std::vector<Key>& key_matrix() {
  static const std::vector<Key> keys = [] {
    repro::suites::register_all_workloads();
    std::vector<Key> out;
    for (const repro::workloads::Workload* w :
         repro::workloads::Registry::instance().all()) {
      for (std::size_t input = 0; input < w->inputs().size(); ++input) {
        for (const repro::sim::GpuConfig& config :
             repro::sim::standard_configs()) {
          out.push_back(Key{std::string(w->name()), input, config.name});
        }
      }
    }
    return out;
  }();
  return keys;
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kExact: return "exact";
    case Kind::kSampled: return "sampled";
    case Kind::kThermal: return "thermal";
    case Kind::kRecommend: return "recommend";
  }
  return "?";
}

Traffic::Traffic(Mix mix, std::uint64_t seed, std::size_t requests)
    : seed_(seed) {
  const std::vector<Key>& keys = key_matrix();
  std::vector<std::size_t> all(keys.size());
  std::vector<std::size_t> primary;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    all[k] = k;
    if (repro::workloads::Registry::instance()
            .find(keys[k].program)
            ->variant()
            .empty()) {
      primary.push_back(k);
    }
  }
  const std::array<double, kNumKinds>& share =
      mix == Mix::kHot ? kHotShare : kMissShare;
  std::vector<Cell> cells;
  for (int k = 0; k < kNumKinds; ++k) {
    const Kind kind = static_cast<Kind>(k);
    // Recommend requests draw from the primary programs' keys only: the
    // L-BFS worklist variants have no usable grid point, so a recommend on
    // them always fails ("no measured grid point is usable").
    const std::vector<std::size_t>& ranked =
        kind == Kind::kRecommend ? primary : all;
    const std::vector<double> p = zipf(ranked.size());
    for (std::size_t r = 0; r < ranked.size(); ++r) {
      const double quota = share[k] * p[r] * static_cast<double>(requests);
      if (quota > 0.0) cells.push_back({kind, ranked[r], quota});
    }
  }
  order_ = apportion(cells, requests);
  repro::util::Rng shuffle{repro::util::mix64(seed ^ 0x5EEDF00DULL)};
  for (std::size_t i = order_.size(); i > 1; --i) {
    std::swap(order_[i - 1], order_[shuffle.uniform_index(i)]);
  }
}

Request Traffic::at(std::uint64_t index) const {
  Request request;
  request.index = index;
  std::tie(request.kind, request.key) = order_[index % order_.size()];
  if (request.kind == Kind::kRecommend) {
    const Key& key = key_matrix()[request.key];
    repro::serve::RecommendRequest r;
    r.id = index + 1;
    r.program = key.program;
    r.input_index = key.input;
    const repro::v1::RecommendOptions options = recommend_options();
    r.objective = options.objective;
    r.options = options.sweep;
    request.line = repro::serve::format_recommend_request_line(r);
  } else {
    request.line = repro::serve::format_request_line(measurement(request));
  }
  return request;
}

repro::v1::ExperimentRequest Traffic::measurement(const Request& request) const {
  const Key& key = key_matrix()[request.key];
  repro::v1::ExperimentRequest r;
  r.id = request.index + 1;
  r.program = key.program;
  r.input_index = key.input;
  r.config = key.config;
  if (request.kind == Kind::kSampled) {
    // A seed unique within the run gives every sampled request its own
    // cache key: a guaranteed miss that rebuilds the trace.
    r.sampling.mode = repro::v1::SamplingMode::kStratified;
    r.sampling.fraction = 0.5;
    r.sampling.seed = seed_ * 1000003ULL + request.index + 1;
  } else if (request.kind == Kind::kThermal) {
    r.thermal.enabled = true;
    r.thermal.ambient_c = 25.0;
    r.thermal.ceiling_c = 80.0;
  }
  return r;
}

repro::v1::RecommendOptions Traffic::recommend_options() const {
  // The two-point 614/705 MHz grid at stock memory clock.
  repro::v1::RecommendOptions options;
  options.sweep.core_mhz = {614.0, 705.0, 91.0};
  options.sweep.mem_mhz = {2600.0, 2600.0, 0.0};
  return options;
}

}  // namespace perfbench
