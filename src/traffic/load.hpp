// LoadSpec: the traffic knobs every live harness shares (DESIGN.md
// §14), declared once.
//
// The threaded-runtime workload (runtime/workload.hpp and its harness
// harness/throughput.hpp), the shared-memory harness
// (shm/shm_harness.hpp) and the socket cluster controller
// (harness/cluster.hpp) all drive the same two load shapes — a closed
// loop of `inflight`-deep client slots, or an open loop on a
// deterministic arrival timeline — and record the same latency tail.
// Their option structs derive from LoadSpec, so each knob has one
// declaration and one default, and the decisions that depend only on
// the knobs (is this open loop, which arrival shape, is the SLO split
// by burst phase) are made here and nowhere else.
//
// KeyedOptions is the keyspace shape the runtime and cluster harnesses
// share for multi-key (service/MultiCounter) runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "traffic/recorder.hpp"
#include "traffic/shape.hpp"

namespace dcnt::traffic {

struct LoadSpec {
  /// Ops each closed-loop client slot keeps outstanding: the issue
  /// window is concurrency * inflight ops wide. 1 is the classic
  /// one-op-per-client closed loop; 0 reads as 1. Ignored in open loop,
  /// where the backlog is whatever the arrival timeline has scheduled
  /// past the system's service rate.
  std::size_t inflight{1};
  /// Unrecorded operations run closed-loop (same window) and to
  /// quiescence before the measured phase; message metrics are reset
  /// afterwards, so cold-start costs never land in the numbers.
  std::size_t warmup{0};
  /// > 0: open-loop issuance at this mean rate (ops/second) on the
  /// deterministic arrival timeline; latency is measured from each op's
  /// scheduled arrival (coordinated-omission-free). 0 = closed loop.
  double open_rate{0.0};
  /// Open-loop rate shape: "constant", "burst" or "diurnal"
  /// (traffic/shape.hpp); period/amplitude/duty parameterize it.
  std::string shape{"constant"};
  double period_s{1.0};
  double amplitude{0.5};
  double duty{0.5};
  /// > 0: measured-phase wall-clock budget in seconds. The run issues
  /// only the schedule prefix that fits (open loop: arrivals scheduled
  /// before the budget; closed loop: no reissues after the deadline),
  /// then drains; the op count becomes a cap.
  double duration_s{0.0};
  /// > 0: latency SLO threshold in microseconds; results report the
  /// fraction of completed ops at or under it.
  double slo_us{0.0};
  /// Runs with more op slots than this record latency into the
  /// O(buckets) HDR histogram instead of exact per-op storage.
  std::size_t exact_cap{TailRecorder::kDefaultExactCap};
  std::uint64_t seed{1};
  /// Capture every measured op's (invoke, response, value) interval and
  /// run the linearizability check over the real history after the run.
  /// Keyed runs skip it (per-key value spaces make a global counter
  /// history meaningless).
  bool lin_check{true};

  bool open_loop() const { return open_rate > 0.0; }

  /// The open-loop arrival shape (traffic::make_shape, which aborts on
  /// an unknown shape or an out-of-range parameter); closed loop gets a
  /// zero-rate shape and validates nothing.
  RateShape rate_shape() const {
    if (!open_loop()) return RateShape{};
    return make_shape(shape, open_rate, period_s, amplitude, duty);
  }

  std::int64_t slo_ns() const { return static_cast<std::int64_t>(slo_us * 1e3); }

  /// Open-loop burst runs report SLO attainment split by the scheduled
  /// arrival's duty phase (TailRecorder::enable_phases).
  bool split_phases() const {
    return rate_shape().kind == RateShape::Kind::kBurst;
  }
};

}  // namespace dcnt::traffic

namespace dcnt {

/// Keyspace shape for keyed runs: the fabric multiplexes `keys`
/// counters over the protocol's processor set, ops drawn from
/// `key_dist` over keys crossed with the harness' initiator choice over
/// processors.
struct KeyedOptions {
  /// Counters multiplexed; 0 = an unkeyed run (the cluster's default;
  /// run_keyed_throughput requires > 0).
  std::size_t keys{0};
  /// "roundrobin", "uniform" or "zipf" (key 0 hottest).
  std::string key_dist{"zipf"};
  double key_skew{0.99};
  /// LRU capacity for live per-key instances (per node on the
  /// cluster); 0 = unbounded. Requires a service-evictable counter.
  std::size_t key_capacity{0};
};

}  // namespace dcnt
