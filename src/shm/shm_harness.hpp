// Throughput harness for the shared-memory counters: the shm sibling
// of harness/run_throughput, producing the SAME ThroughputResult so
// bench_throughput's SHM table ranks silicon and message-passing rows
// on one axis.
//
// Closed loop: T real threads each keep one batch of F increments in
// flight — a thread claims op ids [i, i+F) from a shared cursor, stamps
// all F invokes, submits ONE inc_batch(t, F), and stamps all F
// responses with tickets base..base+F-1. The batch linearizes at the
// inc_batch's own linearization point, which sits inside every one of
// the F (invoke, response) windows, so the recorded history is honest
// and check_linearizable vets it exactly as it does the message-passing
// protocols at the same --inflight F. F amortizes coherence transfers
// the way message combining amortizes RTTs — that symmetry is the
// point of the sweep.
//
// Open loop: arrivals follow the deterministic timeline of
// traffic/shape.hpp; threads claim the next scheduled arrival, sleep
// until its offset, then run a single inc. Latency is measured from the
// scheduled arrival (coordinated-omission-free), invoke stamps from the
// actual call time (the history must reflect real overlap, not the
// schedule).
//
// Verification per run (all DCNT_CHECKed, so a bench row completing is
// a correctness run):
//   - ticket counters: returned values are exactly {warmup, ...,
//     warmup+ops-1} and check_linearizable passes over the live
//     history;
//   - the sharded counter: a sampler thread interleaves read()s with
//     the increments and check_inc_read_linearizable vets the combined
//     history (reads inside the inc-interval bounds, monotone);
//   - all counters: read() == warmup + ops at quiescence (exact final
//     value).
#pragma once

#include <cstdint>
#include <string>

#include "harness/throughput.hpp"
#include "runtime/placement.hpp"
#include "shm/shm_counter.hpp"
#include "traffic/load.hpp"

namespace dcnt::shm {

/// The traffic knobs come from traffic::LoadSpec, with shm meanings:
/// `inflight` is the per-thread batch size (the shm meaning of
/// --inflight F), `warmup` increments run before the threads
/// barrier-sync into the measured phase, and `lin_check` captures the
/// live history and checks it (ticket criterion, or inc/read for
/// non-ticket counters). There is no wall-clock budget: duration_s must
/// stay 0.
struct ShmOptions : traffic::LoadSpec {
  /// Real threads driving the counter (the shm analogue of workers).
  std::size_t threads{4};
  /// Measured increments (split across threads by the shared cursor).
  std::size_t ops{1 << 14};
  /// Core placement for the harness threads (same policies as the
  /// runtime workers).
  Placement placement{Placement::kNone};
  /// Non-ticket counters: concurrent read() samples taken by the
  /// sampler thread for the inc/read check (0 disables the sampler).
  std::size_t read_samples{128};
};

/// Drives make_shm_counter(kind) and returns a bench-table-ready
/// result. Aborts (DCNT_CHECK) on any exactness violation; the
/// linearizability verdict is reported, not asserted — callers that
/// require lin=y assert on the result, mirroring run_throughput.
ThroughputResult run_shm_throughput(ShmKind kind, const ShmOptions& options);

}  // namespace dcnt::shm
