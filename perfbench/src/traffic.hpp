// Request streams of the serve workloads.
//
// Request i of a run is a pure function of (workload seed, i): closed-loop
// clients draw i from one shared counter, so thread interleaving decides
// only which client sends a request, never which requests a run sends.
//
// Key popularity is Zipf(1.1) over the 292-key matrix (every registered
// program, variants included, x input x the paper's four configurations),
// ranked in registry order.
//
// A run sends a fixed multiset of (kind, key) requests: the Zipf x mix
// distribution apportioned by largest remainders, the same for every seed.
// The seed sets only the order they are sent in and the sample seeds. Miss
// requests cost from microseconds to a second depending on key and kind,
// and the costly keys sit in the Zipf tail, where random draws sent each
// one zero times or a few: throughput then differed by 20% between seeds.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "repro/api.hpp"

namespace perfbench {

struct Key {
  std::string program;
  std::size_t input = 0;
  std::string config;
};

/// Every (program, input, config) cell of the registry, variants included,
/// in registry order (the Zipf rank order).
const std::vector<Key>& key_matrix();

enum class Kind { kExact, kSampled, kThermal, kRecommend };
inline constexpr int kNumKinds = 4;
const char* kind_name(Kind kind);

struct Request {
  std::uint64_t index = 0;
  Kind kind = Kind::kExact;
  std::size_t key = 0;  // index into key_matrix()
  std::string line;     // the JSONL request line sent
};

/// The request mixes of the two serve workloads.
enum class Mix {
  kHot,   // exact requests only
  kMiss,  // 60% sampled (unique seed), 20% exact, 10% thermal, 10% recommend
};

class Traffic {
 public:
  /// A multiset of `requests` requests, repeated past its end.
  Traffic(Mix mix, std::uint64_t seed, std::size_t requests);

  /// Request `index` (ids are index + 1).
  Request at(std::uint64_t index) const;

  /// The parsed forms of a request, for the direct Session computation.
  repro::v1::ExperimentRequest measurement(const Request& request) const;
  repro::v1::RecommendOptions recommend_options() const;

 private:
  std::uint64_t seed_;
  // The run's requests in send order: (kind, index into key_matrix()).
  std::vector<std::pair<Kind, std::size_t>> order_;
};

}  // namespace perfbench
