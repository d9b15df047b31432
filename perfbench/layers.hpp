// Layer micro-timings: each public function a workload leans on, timed
// in isolation on fixed inputs generated from the workload seed. The
// results are the per-layer metrics that no span inside a run can give
// (an idle runtime, a recorder or checker on its own, a directory miss
// at capacity, one wire frame).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/factory.hpp"

namespace perfbench {

using Fields = std::vector<std::pair<std::string, double>>;

struct LayerInputs {
  std::uint64_t seed{1};
  /// Which layers the workload runs through.
  bool inproc{true};
  bool keyed{false};
  /// The per-key (or only) counter and its processor count.
  dcnt::CounterKind counter{dcnt::CounterKind::kCentral};
  /// The workload's schedule: initiator distribution over n processors
  /// at its op cap, plus the key distribution when keyed.
  std::string initiators{"roundrobin"};
  double zipf_s{0.99};
  std::int64_t n{16};
  std::size_t op_cap{0};
  std::size_t keys{0};
  double key_skew{0.99};
  std::size_t key_capacity{0};
  /// Measured ops of the workload's run: the history size the
  /// linearizability check is timed at.
  std::size_t run_ops{0};
  /// Smaller repetition counts for the quick check.
  bool quick{false};
};

/// Times every layer that applies to the workload and returns the
/// metrics by name (harness.schedule_ms, traffic.*, concurrent.*,
/// net.encode_ns / net.decode_ns of the workload's own messages, and
/// runtime.idle_inc_us / service.hit_ns / service.miss_evict_us where
/// they apply).
Fields time_layers(const LayerInputs& in);

}  // namespace perfbench
