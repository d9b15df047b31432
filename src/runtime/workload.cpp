#include "runtime/workload.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>

#include "support/check.hpp"

namespace dcnt {

using traffic::TailRecorder;

WorkloadResult run_workload(ThreadedRuntime& rt,
                            const std::vector<ProcessorId>& initiators,
                            const WorkloadOptions& options) {
  const std::size_t ops = initiators.size();
  DCNT_CHECK(ops > 0);
  DCNT_CHECK_MSG(rt.ops_started() == 0, "run_workload needs a fresh runtime");
  const bool keyed = !options.keys.empty();
  DCNT_CHECK_MSG(!keyed || options.keys.size() == ops,
                 "keys must pair 1:1 with initiators");
  std::vector<KeyId> key_of_op;
  if (keyed) key_of_op.assign(options.warmup + ops, kNoKey);
  // Issues schedule entry i in [0, ops) — plain inc or keyed op — and
  // returns its OpId, recording the op -> key mapping for keyed runs.
  const auto begin_entry = [&](std::size_t i) {
    if (!keyed) return rt.begin_inc(initiators[i]);
    const KeyId key = options.keys[i];
    const OpId op = rt.begin_op(initiators[i], {key});
    key_of_op[static_cast<std::size_t>(op)] = key;
    return op;
  };

  if (options.warmup > 0) {
    // Unrecorded closed-loop phase cycling through the initiators:
    // wakes the workers, grows every reusable buffer to steady-state
    // size, and faults in the op table. Quiesce, then zero the message
    // metrics so the measured phase starts from a clean ledger on a hot
    // runtime.
    const std::size_t warmup = options.warmup;
    std::atomic<std::size_t> wcursor{0};
    std::atomic<std::size_t> wdone{0};
    std::mutex wmu;
    std::condition_variable wcv;
    const auto wissue = [&] {
      const std::size_t i = wcursor.fetch_add(1, std::memory_order_acq_rel);
      if (i >= warmup) return;
      begin_entry(i % ops);
    };
    rt.set_completion([&](OpId /*op*/, Value /*value*/) {
      wissue();
      if (wdone.fetch_add(1, std::memory_order_acq_rel) + 1 == warmup) {
        std::lock_guard<std::mutex> lock(wmu);
        wcv.notify_all();
      }
    });
    // Warmup uses the measured phase's full window so steady-state
    // buffer sizes match what the run will actually need.
    const std::size_t wwindow =
        (options.concurrency == 0 ? std::size_t{1} : options.concurrency) *
        (options.inflight == 0 ? std::size_t{1} : options.inflight);
    const std::size_t clients = std::min(warmup, wwindow);
    for (std::size_t c = 0; c < clients; ++c) wissue();
    {
      std::unique_lock<std::mutex> lock(wmu);
      wcv.wait(lock, [&] {
        return wdone.load(std::memory_order_acquire) == warmup;
      });
    }
    rt.wait_quiescent();
    rt.set_completion(nullptr);
    rt.reset_metrics();
  }

  const traffic::RateShape shape = options.rate_shape();
  const bool open_loop = options.open_loop();
  const std::int64_t budget_ns =
      options.duration_s > 0.0
          ? static_cast<std::int64_t>(options.duration_s * 1e9)
          : std::numeric_limits<std::int64_t>::max();
  concurrent::HistoryBuffer* const history = options.history;
  DCNT_CHECK_MSG(history == nullptr ||
                     history->capacity() >= options.warmup + ops,
                 "history buffer smaller than the op-id space");

  // Measured ops occupy ids warmup..warmup+issued-1; recorder slots for
  // the warmup range simply stay empty.
  TailRecorder recorder(options.warmup + ops, options.slo_ns(),
                        options.exact_cap);
  const bool split_phases = options.split_phases();
  if (split_phases) recorder.enable_phases();
  // Coordination atomics deliberately use the default (seq_cst) order:
  // the finish condition below leans on the single total order across
  // `no_more`, `issued` and `done`.
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> issued{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> no_more{open_loop};  // closed loop: set by decliners
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<std::int64_t> last_completion_ns{0};

  const auto epoch = std::chrono::steady_clock::now();
  const std::int64_t epoch_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          epoch.time_since_epoch())
          .count();
  const std::int64_t deadline_ns = budget_ns == std::numeric_limits<std::int64_t>::max()
                                       ? budget_ns
                                       : epoch_ns + budget_ns;

  // Closed loop: issues the next initiator, from the driver thread or
  // from inside a completion callback; declines (and latches no_more)
  // once the sequence is exhausted or the deadline passed. The stamp is
  // the send time, which for a closed-loop client IS its scheduled time
  // (it cannot want an op before the previous one completed).
  const auto issue_next = [&] {
    if (TailRecorder::now_ns() >= deadline_ns) {
      no_more.store(true);
      return;
    }
    const std::size_t i = cursor.fetch_add(1);
    if (i >= ops) {
      no_more.store(true);
      return;
    }
    issued.fetch_add(1);
    const std::int64_t t0 = TailRecorder::now_ns();
    const OpId op = begin_entry(i);
    recorder.on_issue(op, t0);
    if (history) history->on_invoke(op, t0);
  };

  // Finish when nothing more will be issued and every issued op is
  // done. Reissues happen before done++ in the callback, so done ==
  // issued implies no reissue is mid-flight: any callback that has not
  // yet bumped `done` has its op still counted in issued - done.
  rt.set_completion([&](OpId op, Value value) {
    const std::int64_t t = TailRecorder::now_ns();
    recorder.on_complete(op, t);
    if (history) history->on_response(op, t, value);
    // Closed loop: this client immediately issues its next operation.
    if (!open_loop) issue_next();
    const std::size_t d = done.fetch_add(1) + 1;
    if (no_more.load() && d == issued.load()) {
      last_completion_ns.store(t);
      std::lock_guard<std::mutex> lock(mu);
      cv.notify_all();
    }
  });

  if (open_loop) {
    // Single driver walking the deterministic arrival timeline. Every
    // arrival inside the budget is issued — late if the driver fell
    // behind (sleep_until returns immediately for past deadlines), with
    // the lateness charged to the op via its scheduled-time stamp.
    traffic::ArrivalTimeline timeline(shape);
    for (std::size_t n = 0; n < ops; ++n) {
      const std::int64_t offset = timeline.next_ns();
      if (offset >= budget_ns) break;
      std::this_thread::sleep_until(epoch + std::chrono::nanoseconds(offset));
      issued.fetch_add(1);
      // The latency stamp is the scheduled arrival (coordinated-
      // omission-free); the history stamp is the actual send time —
      // linearizability needs the real interval, and a backdated invoke
      // would tighten it unsoundly.
      const std::int64_t t0 = TailRecorder::now_ns();
      const OpId op = begin_entry(n);
      if (split_phases) {
        recorder.on_issue(op, epoch_ns + offset,
                          shape.high_at(static_cast<double>(offset) / 1e9));
      } else {
        recorder.on_issue(op, epoch_ns + offset);
      }
      if (history) history->on_invoke(op, t0);
    }
  } else {
    // The closed-loop window: concurrency clients, each holding
    // `inflight` ops in the air. Seeding window-many ops and reissuing
    // exactly one per completion keeps the window at its seed size for
    // the whole run (until the schedule tail drains it).
    const std::size_t per_client =
        options.inflight == 0 ? std::size_t{1} : options.inflight;
    const std::size_t window =
        (options.concurrency == 0 ? std::size_t{1} : options.concurrency) *
        per_client;
    const std::size_t clients = std::min(ops, window);
    for (std::size_t c = 0; c < clients; ++c) issue_next();
  }

  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return no_more.load() && done.load() == issued.load(); });
  }
  // Let stragglers (stale combining-window timers and the like) drain
  // so the caller can read metrics and protocol state.
  rt.wait_quiescent();
  rt.set_completion(nullptr);

  WorkloadResult result;
  result.ops = issued.load();
  const std::int64_t t_end = last_completion_ns.load();
  if (t_end > 0) {
    result.wall_seconds = static_cast<double>(t_end - epoch_ns) / 1e9;
  }
  if (result.wall_seconds > 0.0) {
    result.ops_per_sec =
        static_cast<double>(result.ops) / result.wall_seconds;
  }
  result.traffic = recorder.stats();
  result.key_of_op = std::move(key_of_op);
  return result;
}

}  // namespace dcnt
