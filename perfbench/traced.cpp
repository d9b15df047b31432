#include "traced.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

#include "core/tree_service.hpp"

namespace perfbench {

using dcnt::Context;
using dcnt::Message;
using dcnt::OpId;
using dcnt::ProcessorId;
using dcnt::Value;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One open span on the calling thread. Reserves its buffer slot at
/// start so children can name it as their parent.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, std::int32_t name, OpId op)
      : log_(tracer.local()),
        name_(name),
        measured_(op == dcnt::kNoOp || op >= tracer.first_measured()) {
    const std::int32_t parent =
        log_.stack.empty() ? -1 : log_.stack.back();
    start_ = now_ns();
    std::int32_t index = -1;
    if (measured_) {
      if (log_.spans.size() < Tracer::kKeptSpansPerThread) {
        index = static_cast<std::int32_t>(log_.spans.size());
        log_.spans.push_back(Span{start_, 0, op, parent, name});
      } else {
        ++log_.dropped;
      }
    }
    log_.stack.push_back(index);
    log_.child_ns.push_back(0);
  }

  ~SpanScope() {
    const std::int64_t end = now_ns();
    const std::int64_t dur = end - start_;
    const std::int32_t index = log_.stack.back();
    const std::int64_t children = log_.child_ns.back();
    log_.stack.pop_back();
    log_.child_ns.pop_back();
    if (!log_.child_ns.empty()) log_.child_ns.back() += dur;
    if (index >= 0) log_.spans[static_cast<std::size_t>(index)].end_ns = end;
    if (!measured_) return;
    SpanTotals& t = log_.totals;
    if (name_ == kSpanSend) {
      ++t.sends;
      t.send_ns += dur;
    } else if (name_ == kSpanComplete) {
      ++t.completes;
      t.complete_ns += dur;
    } else {
      ++t.handler_calls;
      t.handler_ns += dur;
      t.handler_self_ns += dur - children;
    }
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer::ThreadLog& log_;
  std::int32_t name_;
  bool measured_;
  std::int64_t start_{0};
};

/// The Context the inner protocol sees: times send() and complete()
/// and counts messages by tag, forwarding everything else. `op` is the
/// operation being handled; a send that leaves msg.op unset (the
/// runtime stamps it later) is charged to it.
class TracingContext final : public Context {
 public:
  TracingContext(Context& inner, Tracer& tracer, OpId op)
      : inner_(inner), tracer_(tracer), op_(op) {}

  void send(Message msg) override {
    const OpId op = msg.op != dcnt::kNoOp ? msg.op : op_;
    if (!msg.local && msg.src != msg.dst) {
      SpanTotals& t = tracer_.local().totals;
      ++t.msgs_all;
      if ((op == dcnt::kNoOp || op >= tracer_.first_measured()) &&
          msg.tag >= 0 && msg.tag < kMaxTag) {
        ++t.msgs_by_tag[static_cast<std::size_t>(msg.tag)];
      }
    }
    SpanScope span(tracer_, kSpanSend, op);
    inner_.send(std::move(msg));
  }
  void send_local(ProcessorId p, std::int32_t tag,
                  std::vector<std::int64_t> args,
                  dcnt::SimTime delay) override {
    inner_.send_local(p, tag, std::move(args), delay);
  }
  void complete(OpId op, Value value) override {
    SpanScope span(tracer_, kSpanComplete, op);
    inner_.complete(op, value);
  }
  dcnt::SimTime now() const override { return inner_.now(); }
  dcnt::Rng& rng() override { return inner_.rng(); }

 private:
  Context& inner_;
  Tracer& tracer_;
  OpId op_;
};

}  // namespace

void SpanTotals::add(const SpanTotals& o) {
  handler_calls += o.handler_calls;
  handler_ns += o.handler_ns;
  handler_self_ns += o.handler_self_ns;
  sends += o.sends;
  send_ns += o.send_ns;
  completes += o.completes;
  complete_ns += o.complete_ns;
  for (std::size_t i = 0; i < msgs_by_tag.size(); ++i) {
    msgs_by_tag[i] += o.msgs_by_tag[i];
  }
  msgs_all += o.msgs_all;
}

Tracer::ThreadLog& Tracer::local() {
  thread_local const Tracer* owner = nullptr;
  thread_local ThreadLog* log = nullptr;
  if (owner != this) {
    auto fresh = std::make_unique<ThreadLog>();
    fresh->spans.reserve(kKeptSpansPerThread);
    std::lock_guard<std::mutex> lock(mu_);
    fresh->tid = static_cast<std::uint32_t>(logs_.size() + 1);
    log = fresh.get();
    logs_.push_back(std::move(fresh));
    owner = this;
  }
  return *log;
}

SpanTotals Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  SpanTotals sum;
  for (const auto& log : logs_) sum.add(log->totals);
  return sum;
}

std::int64_t Tracer::spans_kept() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t n = 0;
  for (const auto& log : logs_) n += static_cast<std::int64_t>(log->spans.size());
  return n;
}

std::int64_t Tracer::spans_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t n = 0;
  for (const auto& log : logs_) n += log->dropped;
  return n;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                const std::vector<std::string>& tag_names) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t t0 = std::numeric_limits<std::int64_t>::max();
  for (const auto& log : logs_) {
    for (const Span& s : log->spans) t0 = std::min(t0, s.start_ns);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans) {
      std::string name;
      if (s.name == kSpanStart) {
        name = "start_op";
      } else if (s.name == kSpanSend) {
        name = "send";
      } else if (s.name == kSpanComplete) {
        name = "complete";
      } else if (s.name >= 0 &&
                 static_cast<std::size_t>(s.name) < tag_names.size() &&
                 !tag_names[static_cast<std::size_t>(s.name)].empty()) {
        name = "on_message:" + tag_names[static_cast<std::size_t>(s.name)];
      } else {
        name = "on_message:" + std::to_string(s.name);
      }
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%lld,"
                   "\"parent\":%d}}",
                   first ? "" : ",\n", name.c_str(), log->tid,
                   static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<long long>(s.op), s.parent);
      first = false;
    }
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

TracedCounter::TracedCounter(std::unique_ptr<dcnt::CounterProtocol> inner,
                             std::shared_ptr<Tracer> tracer)
    : inner_(std::move(inner)), tracer_(std::move(tracer)) {}

std::size_t TracedCounter::num_processors() const {
  return inner_->num_processors();
}

void TracedCounter::on_message(Context& ctx, const Message& msg) {
  SpanScope span(*tracer_, msg.tag, msg.op);
  TracingContext traced(ctx, *tracer_, msg.op);
  inner_->on_message(traced, msg);
}

void TracedCounter::start_inc(Context& ctx, ProcessorId origin, OpId op) {
  SpanScope span(*tracer_, kSpanStart, op);
  TracingContext traced(ctx, *tracer_, op);
  inner_->start_inc(traced, origin, op);
}

void TracedCounter::start_op(Context& ctx, ProcessorId origin, OpId op,
                             const std::vector<std::int64_t>& args) {
  SpanScope span(*tracer_, kSpanStart, op);
  TracingContext traced(ctx, *tracer_, op);
  inner_->start_op(traced, origin, op, args);
}

std::unique_ptr<dcnt::CounterProtocol> TracedCounter::clone_counter() const {
  return std::make_unique<TracedCounter>(inner_->clone_counter(), tracer_);
}

void TracedCounter::on_peer_unreachable(Context& ctx, ProcessorId self,
                                        ProcessorId peer) {
  TracingContext traced(ctx, *tracer_, dcnt::kNoOp);
  inner_->on_peer_unreachable(traced, self, peer);
}

bool TracedCounter::shard_safe() const { return inner_->shard_safe(); }

void TracedCounter::on_shard_start(std::size_t workers) {
  inner_->on_shard_start(workers);
}

std::string TracedCounter::name() const { return inner_->name(); }

void TracedCounter::check_quiescent(std::size_t ops_completed) const {
  inner_->check_quiescent(ops_completed);
  // The runtime destroys the protocol when the harness call returns, so
  // the tree's counters are captured here, at the final quiescence.
  if (const auto* tree = dynamic_cast<const dcnt::TreeService*>(inner_.get())) {
    const dcnt::TreeServiceStats& s = tree->stats();
    tracer_->forwarded = s.forwarded_messages;
    tracer_->retirements = s.retirements_total;
    tracer_->orphan_stashes = s.orphan_stashes;
    tracer_->pool_wraps = s.pool_wraps;
  }
}

bool TracedCounter::service_evictable() const {
  return inner_->service_evictable();
}

Value TracedCounter::service_value() const { return inner_->service_value(); }

void TracedCounter::service_rehydrate(Value value) {
  inner_->service_rehydrate(value);
}

}  // namespace perfbench
