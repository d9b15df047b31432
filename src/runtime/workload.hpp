// Wall-clock workload generation against a ThreadedRuntime.
//
// Two standard load shapes:
//   - closed loop: `concurrency` clients, each issuing its next
//     operation the moment its previous one completes (issuance rides
//     the completion callback, so the offered load self-regulates to
//     the service rate — the classic saturation benchmark);
//   - open loop: a driver thread issues on a deterministic arrival
//     timeline (traffic/shape.hpp: constant, burst or diurnal rate)
//     regardless of completions. Latency is measured from each op's
//     *scheduled* arrival time, not from when the driver got around to
//     sending it, so a backlogged system is charged for the queueing
//     delay it caused — the coordinated-omission-free measurement
//     (DESIGN.md §14). The driver never skips an arrival: if it falls
//     behind it issues late, and the lateness lands in the latency.
// Who initiates is the caller's choice: pass any initiator sequence
// (harness/schedule.hpp generates round-robin, uniform and Zipf ones).
//
// Runs stop on whichever bound hits first: the initiator sequence
// running out (op-count budget) or `duration_s` of wall clock
// (open loop: arrivals scheduled past the budget are not issued;
// closed loop: clients stop reissuing once the deadline passes).
// Either way every issued op runs to completion before returning.
//
// Latency lands in a traffic::TailRecorder: exact per-op storage for
// small runs, an HDR-style O(buckets) histogram for large ones, with
// p50..p99.99, max and SLO attainment in the result either way.
#pragma once

#include <cstdint>
#include <vector>

#include "concurrent/history.hpp"
#include "runtime/threaded_runtime.hpp"
#include "sim/types.hpp"
#include "traffic/load.hpp"
#include "traffic/recorder.hpp"

namespace dcnt {

/// The traffic knobs (closed-loop inflight window, open-loop rate and
/// shape, duration budget, SLO, exact_cap, warmup) come from
/// traffic::LoadSpec. Warmup ops are issued closed-loop (same window,
/// cycling through the initiator sequence) and run to quiescence before
/// the measured phase; they are excluded from the recorder and the
/// rates, and the runtime's metrics are reset afterwards, so message
/// counts stay comparable to a no-warmup run. seed and lin_check are
/// the harness' business: the driver records a history only into the
/// buffer it is handed.
struct WorkloadOptions : traffic::LoadSpec {
  /// Closed-loop clients; used when no open-loop rate is set.
  std::size_t concurrency{8};
  /// Multi-key fabric workload: when non-empty (size must equal the
  /// initiator count), op i runs begin_op(initiators[i], {keys[i]})
  /// instead of a plain inc — the keyed entry point of
  /// service/MultiCounter. Warmup cycles through the keys exactly as it
  /// cycles through the initiators.
  std::vector<KeyId> keys;
  /// When set, every measured op's invoke time, response time and
  /// returned value land in this buffer (capacity must cover
  /// warmup + initiator count), ready for check_linearizable after the
  /// run. Invoke is stamped just before begin_* and response inside the
  /// completion callback — both conservative widenings of the true
  /// interval, so the checker can miss a borderline violation but never
  /// fabricate one. Warmup ops are not recorded.
  concurrent::HistoryBuffer* history{nullptr};
};

struct WorkloadResult {
  /// Measured operations issued and completed (every issued op runs to
  /// completion). Equals the initiator count unless duration_s cut the
  /// schedule short.
  std::size_t ops{0};
  double wall_seconds{0.0};
  double ops_per_sec{0.0};
  /// Tail latency, SLO attainment and recorder accounting. Open-loop
  /// latencies are measured from scheduled arrival time.
  traffic::TrafficStats traffic;
  /// Keyed runs only: key_of_op[op] is the key OpId `op` counted on
  /// (size warmup + initiator count — concurrent issuance means OpId
  /// order need not match the schedule index, so the mapping is
  /// recorded at issue time). Empty for plain runs.
  std::vector<KeyId> key_of_op;
};

/// Issues up to one operation per entry of `initiators` into `rt`
/// (which must be fresh: no operations started yet), waits for all
/// issued completions, then runs the runtime to quiescence so the
/// caller can read merged_metrics() and protocol state. Wall time
/// covers first issue to last completion (not the trailing quiesce).
/// With options.warmup > 0, that many unrecorded operations run (and
/// quiesce) first; measured operations then occupy OpIds
/// warmup..warmup+result.ops-1.
WorkloadResult run_workload(ThreadedRuntime& rt,
                            const std::vector<ProcessorId>& initiators,
                            const WorkloadOptions& options = {});

}  // namespace dcnt
