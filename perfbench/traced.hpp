// Timing decorator for the traced benchmark run.
//
// TracedCounter wraps any CounterProtocol and forwards every Protocol
// hook unchanged (shard safety, shard start, quiescence checks, the
// service-fabric eviction hooks, cloning), so the runtime, the keyed
// fabric and the LRU tier treat it exactly like the protocol it wraps.
// Around each on_message / start_op it records a span, and it hands the
// inner protocol a Context whose send() and complete() record child
// spans. A handler's self time is its span minus its children, so
// core.handler_ns excludes the runtime's send path (runtime.send_ns)
// and the harness' completion path (harness.complete_ns).
//
// Spans live in per-thread buffers (no lock on the hot path) that the
// Tracer owns; totals are exact for every span, while only the first
// kKeptSpansPerThread measured spans per thread are kept for the
// Chrome-trace file written at exit.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/protocol.hpp"

namespace perfbench {

/// Pseudo-tags for the non-message spans. Message handler spans use the
/// message tag itself (>= 0).
inline constexpr std::int32_t kSpanStart = -1;
inline constexpr std::int32_t kSpanSend = -2;
inline constexpr std::int32_t kSpanComplete = -3;
inline constexpr std::int32_t kMaxTag = 16;

struct Span {
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  dcnt::OpId op{dcnt::kNoOp};
  /// Index of the enclosing span in the same thread's buffer, -1 = none.
  std::int32_t parent{-1};
  std::int32_t name{0};
};

/// Exact per-thread totals over measured ops (op id >= first_measured,
/// or protocol traffic not tied to an op).
struct SpanTotals {
  std::int64_t handler_calls{0};
  std::int64_t handler_ns{0};       ///< inclusive handler time
  std::int64_t handler_self_ns{0};  ///< minus send/complete children
  std::int64_t sends{0};
  std::int64_t send_ns{0};
  std::int64_t completes{0};
  std::int64_t complete_ns{0};
  /// Counted messages (non-local, src != dst) sent, by tag.
  std::array<std::int64_t, kMaxTag> msgs_by_tag{};
  /// Every counted message, warmup included (the base of
  /// core.useful_msg_frac, to match TreeServiceStats).
  std::int64_t msgs_all{0};

  void add(const SpanTotals& o);
};

class Tracer {
 public:
  static constexpr std::size_t kKeptSpansPerThread = 16384;

  /// Ops with a smaller id are warmup: timed, but left out of totals.
  void set_first_measured(dcnt::OpId op) { first_measured_ = op; }
  dcnt::OpId first_measured() const { return first_measured_; }

  struct ThreadLog {
    std::vector<Span> spans;
    std::vector<std::int32_t> stack;     ///< open spans (buffer index, -1 = not kept)
    std::vector<std::int64_t> child_ns;  ///< child time per open span
    SpanTotals totals;
    std::uint32_t tid{0};
    std::int64_t dropped{0};
  };
  /// The calling thread's log, created on first use.
  ThreadLog& local();

  /// Sum over all threads. Call after every traced thread has stopped.
  SpanTotals totals() const;
  std::int64_t spans_kept() const;
  std::int64_t spans_dropped() const;
  /// Chrome trace-event JSON ("X" events; args carry the op id as the
  /// request id and the parent span). Returns false if the file could
  /// not be written.
  bool write_chrome_trace(const std::string& path,
                          const std::vector<std::string>& tag_names) const;

  /// Tree housekeeping counters, snapshot at the quiescence check
  /// (before the runtime destroys the protocol). They include warmup.
  std::int64_t forwarded{0};
  std::int64_t retirements{0};
  std::int64_t orphan_stashes{0};
  std::int64_t pool_wraps{0};

 private:
  dcnt::OpId first_measured_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

class TracedCounter final : public dcnt::CounterProtocol {
 public:
  TracedCounter(std::unique_ptr<dcnt::CounterProtocol> inner,
                std::shared_ptr<Tracer> tracer);

  std::size_t num_processors() const override;
  void on_message(dcnt::Context& ctx, const dcnt::Message& msg) override;
  void start_inc(dcnt::Context& ctx, dcnt::ProcessorId origin,
                 dcnt::OpId op) override;
  void start_op(dcnt::Context& ctx, dcnt::ProcessorId origin, dcnt::OpId op,
                const std::vector<std::int64_t>& args) override;
  std::unique_ptr<dcnt::CounterProtocol> clone_counter() const override;
  void on_peer_unreachable(dcnt::Context& ctx, dcnt::ProcessorId self,
                           dcnt::ProcessorId peer) override;
  bool shard_safe() const override;
  void on_shard_start(std::size_t workers) override;
  std::string name() const override;
  void check_quiescent(std::size_t ops_completed) const override;
  bool service_evictable() const override;
  dcnt::Value service_value() const override;
  void service_rehydrate(dcnt::Value value) override;

 private:
  std::unique_ptr<dcnt::CounterProtocol> inner_;
  std::shared_ptr<Tracer> tracer_;
};

}  // namespace perfbench
