// Wall-clock throughput harness: the threaded-runtime sibling of
// runner.hpp.
//
// run_throughput drives a counter protocol on real threads with a
// closed- or open-loop workload and verifies the concurrent-mode
// contract — returned values form a permutation of 0..m-1 (same check
// as run_concurrent; sequential 0,1,2,... ordering is meaningless once
// operations genuinely overlap). Aborts on violation, so a bench
// completing is itself a correctness check.
//
// run_runtime_sequential is the paper's model on the runtime: one
// operation at a time, quiescing in between. Used by the
// runtime/simulator equivalence tests: for sequential schedules the
// message complexity of the tree and central counters is
// schedule-independent, so total_messages (and per-processor loads)
// must match the simulator exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/placement.hpp"
#include "sim/metrics.hpp"
#include "sim/protocol.hpp"
#include "sim/types.hpp"

namespace dcnt {

struct ThroughputOptions {
  /// Worker threads; 0 = the process-wide --threads/DCNT_THREADS knob.
  std::size_t workers{0};
  /// Operations; 0 = 8 * num_processors.
  std::size_t ops{0};
  /// Closed-loop clients (ignored when open_rate > 0).
  std::size_t concurrency{16};
  /// Ops each closed-loop client keeps outstanding (window =
  /// concurrency * inflight); 1 = the classic closed loop. See
  /// WorkloadOptions::inflight.
  std::size_t inflight{1};
  /// > 0: open-loop issuance at this mean rate (ops/sec), latency
  /// measured from scheduled arrival time (coordinated-omission-free).
  double open_rate{0.0};
  /// Open-loop rate shape: "constant", "burst" or "diurnal"
  /// (traffic/shape.hpp); period/amplitude/duty parameterize it.
  std::string shape{"constant"};
  double period_s{1.0};
  double amplitude{0.5};
  double duty{0.5};
  /// > 0: wall-clock budget in seconds — the run issues only the
  /// schedule prefix that fits, then drains (ops becomes a cap).
  double duration_s{0.0};
  /// > 0: SLO threshold in microseconds; results report attainment.
  double slo_us{0.0};
  /// Runs larger than this switch from exact per-op latency storage to
  /// the O(buckets) HDR histogram.
  std::size_t exact_cap{1 << 16};
  /// Initiator choice: "roundrobin", "uniform", or "zipf".
  std::string initiators{"roundrobin"};
  /// Zipf skew (initiators == "zipf"); processor 0 hottest.
  double zipf_s{0.9};
  std::uint64_t seed{1};
  /// Unrecorded warmup operations run to quiescence (metrics reset
  /// after) before the measured ops — see WorkloadOptions::warmup.
  std::size_t warmup{0};
  /// Passed through to RuntimeConfig: 0 = adaptive (min(workers,
  /// cores)); tests pin it to `workers` to force real cross-shard
  /// delivery on any host.
  std::size_t active_shards{0};
  /// Passed through to RuntimeConfig::flush_batch.
  std::size_t flush_batch{64};
  /// Capture every measured op's (invoke, response, value) interval in
  /// a concurrent::HistoryBuffer and run check_linearizable on the real
  /// history after the run. Costs three stores per op; results land in
  /// ThroughputResult::linearizable / lin_violations. Keyed runs ignore
  /// it (per-key value spaces make a global counter history
  /// meaningless).
  bool lin_check{true};
  /// Core placement for the runtime workers (runtime/placement.hpp);
  /// kNone leaves scheduling to the kernel. Results report what
  /// actually applied (pinned_workers / placement_supported) — an
  /// unsupported host runs unpinned and says so rather than failing.
  Placement placement{Placement::kNone};
};

struct ThroughputResult {
  std::string counter;
  std::size_t n{0};
  std::size_t workers{0};
  /// Measured ops issued and completed (< the requested count when
  /// duration_s cut the schedule short).
  std::size_t ops{0};
  std::size_t warmup{0};
  double wall_seconds{0.0};
  double ops_per_sec{0.0};
  double mean_us{0.0};
  double p50_us{0.0};
  double p95_us{0.0};
  double p99_us{0.0};
  double p999_us{0.0};
  double p9999_us{0.0};
  double max_us{0.0};
  /// SLO attainment (slo_us > 0 in the options): fraction of completed
  /// ops at or under the threshold, denominator slo_den.
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
  /// Elastic tree only (concurrent::ElasticTreeCounter; zeros for every
  /// other protocol): completed online migrations, epochs opened, and
  /// the final epoch's fan-out — the bench row's resize evidence.
  std::size_t elastic_resizes{0};
  std::uint32_t elastic_epochs{0};
  int elastic_final_k{0};
  std::int64_t total_messages{0};
  std::int64_t max_load{0};
  ProcessorId bottleneck{kNoProcessor};
  double mean_load{0.0};
  bool values_ok{false};
  /// Placement outcome: the policy asked for, how many workers actually
  /// pinned, and whether pinning was possible at all on this host (the
  /// "--pin applies or cleanly reports unsupported" contract).
  std::string placement{"none"};
  std::size_t pinned_workers{0};
  bool placement_supported{true};
};

/// Runs the workload, verifies the value permutation (aborts on
/// violation) and check_quiescent, and reports wall-clock rates plus
/// the merged message-load metrics.
ThroughputResult run_throughput(std::unique_ptr<CounterProtocol> protocol,
                                const ThroughputOptions& options = {});

/// Keyspace shape for run_keyed_throughput: the fabric multiplexes
/// `keys` counters over the protocol's processor set, ops drawn from
/// `key_dist` over keys crossed with ThroughputOptions::initiators over
/// processors.
struct KeyedOptions {
  std::size_t keys{1};
  /// "roundrobin", "uniform" or "zipf" (key 0 hottest).
  std::string key_dist{"zipf"};
  double key_skew{0.99};
  /// LRU capacity for live per-key instances; 0 = unbounded.
  std::size_t key_capacity{0};
};

struct KeyedThroughputResult {
  /// Aggregate rates / loads / latencies over all keys. values_ok here
  /// reports the *per-key* contract: each key's returned values form an
  /// exact permutation of 0..ops_k-1 (also DCNT_CHECKed).
  ThroughputResult base;
  std::size_t keys{0};
  /// Key with the most measured (post-warmup) operations (ties to the
  /// smallest key id); hot_key_ops counts those operations.
  KeyId hot_key{kNoKey};
  std::int64_t hot_key_ops{0};
  /// max_p m_p restricted to the hot key's traffic — the paper's
  /// bottleneck measured per key inside the fabric.
  std::int64_t hot_key_max_load{0};
  std::int64_t hot_key_messages{0};
  /// Keys that moved at least one message.
  std::size_t keys_touched{0};
  /// LRU tier counters (service/KeyDirectory).
  std::int64_t lru_hits{0};
  std::int64_t lru_misses{0};
  std::int64_t lru_evicts{0};
  std::int64_t lru_rehydrates{0};
  std::size_t live_instances{0};
};

/// Multi-key sibling of run_throughput: wraps `prototype` in a
/// service/MultiCounter (routing seed = options.seed), drives the keyed
/// workload, verifies every key's values are a permutation of
/// 0..ops_k-1 plus the fabric's check_quiescent, and reports aggregate
/// rates, the hot key's per-key bottleneck load, and LRU counters.
KeyedThroughputResult run_keyed_throughput(
    std::unique_ptr<CounterProtocol> prototype,
    const ThroughputOptions& options, const KeyedOptions& keyed);

struct RuntimeSequentialResult {
  std::vector<Value> values;
  Metrics metrics;
};

/// Sequential driver on the threaded runtime: begin one inc per entry
/// of `order`, wait for quiescence after each, assert the value is the
/// initiation index (the paper's sequential contract) and run
/// check_quiescent. `workers` as in RuntimeConfig (0 = auto). Always
/// pins active_shards = workers — this is the equivalence harness, and
/// it must exercise genuine cross-shard delivery on any host.
/// `flush_batch` as in RuntimeConfig: the equivalence tests sweep it to
/// prove outbox coalescing is delivery-transparent.
RuntimeSequentialResult run_runtime_sequential(
    std::unique_ptr<CounterProtocol> protocol, std::size_t workers,
    const std::vector<ProcessorId>& order, std::uint64_t seed = 1,
    std::size_t flush_batch = 64);

}  // namespace dcnt
