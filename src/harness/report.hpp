// RunReport and KeyedReport: the result fields every live harness
// shares, declared once.
//
// The threaded-runtime harness (ThroughputResult), the shm harness
// (which returns a ThroughputResult too) and the socket cluster
// (net::ClusterResult) report the same rates, latency tail, SLO
// attainment, linearizability verdict and paper-currency message loads.
// Their result structs derive from RunReport, and set_tail / set_lin
// are the one place a run's TrafficStats and LinearizabilityReport
// land in it. KeyedReport holds the multi-key fabric's per-key
// bottleneck and LRU counters, shared by KeyedThroughputResult and the
// cluster's keyed mode.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "concurrent/history.hpp"
#include "sim/types.hpp"
#include "traffic/recorder.hpp"

namespace dcnt {

struct RunReport {
  std::string counter;
  std::size_t n{0};
  /// Measured ops issued and completed (< the requested count when
  /// duration_s cut the schedule short).
  std::size_t ops{0};
  std::size_t warmup{0};
  /// The counter's value contract held (also DCNT_CHECKed): returned
  /// values form an exact permutation (per key for keyed runs).
  bool values_ok{false};

  double wall_seconds{0.0};
  double ops_per_sec{0.0};
  double mean_us{0.0};
  double p50_us{0.0};
  double p95_us{0.0};
  double p99_us{0.0};
  double p999_us{0.0};
  double p9999_us{0.0};
  double max_us{0.0};
  /// SLO attainment (slo_us > 0 in the options): slo_ok completions at
  /// or under the threshold out of slo_den measured ops.
  double slo_us{0.0};
  std::int64_t slo_den{0};
  std::int64_t slo_ok{0};
  double slo_attainment{0.0};
  /// True when latency came from the O(buckets) HDR histogram rather
  /// than exact per-op storage; hdr_overflow counts saturated samples.
  bool hdr_recorder{false};
  std::int64_t hdr_overflow{0};
  /// Distinct threads that completed measured ops.
  std::size_t record_threads{0};
  /// Linearizability over the measured history (options.lin_check):
  /// lin_checked says the check ran; linearizable is the verdict;
  /// lin_violations counts offending pairs (a serializing counter must
  /// report 0 at any inflight depth; a quiescently-consistent one —
  /// diffracting tree, counting network — may not).
  bool lin_checked{false};
  bool linearizable{false};
  std::int64_t lin_violations{0};
  /// Phase-split SLO attainment (open-loop burst runs only;
  /// slo_phases says the split was recorded).
  bool slo_phases{false};
  std::int64_t slo_high_den{0};
  std::int64_t slo_high_ok{0};
  double slo_high_attainment{0.0};
  std::int64_t slo_low_den{0};
  std::int64_t slo_low_ok{0};
  double slo_low_attainment{0.0};

  /// Protocol-level message accounting — the paper's m_p, merged over
  /// workers or nodes.
  std::int64_t total_messages{0};
  std::int64_t max_load{0};
  ProcessorId bottleneck{kNoProcessor};

  /// The latency tail, SLO and phase split of a finished run.
  void set_tail(const traffic::TrafficStats& t) {
    mean_us = t.mean_us;
    p50_us = t.p50_us;
    p95_us = t.p95_us;
    p99_us = t.p99_us;
    p999_us = t.p999_us;
    p9999_us = t.p9999_us;
    max_us = t.max_us;
    slo_us = static_cast<double>(t.slo_ns) / 1e3;
    slo_den = t.count;
    slo_ok = t.slo_ok;
    slo_attainment = t.slo_attainment;
    hdr_recorder = !t.exact;
    hdr_overflow = t.hdr_overflow;
    record_threads = t.record_threads;
    slo_phases = t.phases;
    slo_high_den = t.high_count;
    slo_high_ok = t.high_slo_ok;
    slo_high_attainment = t.high_attainment;
    slo_low_den = t.low_count;
    slo_low_ok = t.low_slo_ok;
    slo_low_attainment = t.low_attainment;
  }

  /// The verdict of a linearizability check that ran.
  void set_lin(const LinearizabilityReport& r) {
    lin_checked = true;
    linearizable = r.linearizable;
    lin_violations = r.violations;
  }
};

struct KeyedReport {
  std::size_t keys{0};
  /// Key with the most measured (post-warmup) operations (ties to the
  /// smallest key id); hot_key_ops counts those operations.
  KeyId hot_key{kNoKey};
  std::int64_t hot_key_ops{0};
  /// max_p m_p restricted to the hot key's traffic — the paper's
  /// bottleneck measured per key inside the fabric.
  std::int64_t hot_key_max_load{0};
  std::int64_t hot_key_messages{0};
  /// Keys that moved at least one measured message.
  std::size_t keys_touched{0};
  /// LRU tier counters (service/KeyDirectory; summed across nodes on
  /// the cluster).
  std::int64_t lru_hits{0};
  std::int64_t lru_misses{0};
  std::int64_t lru_evicts{0};
  std::int64_t lru_rehydrates{0};
};

}  // namespace dcnt
