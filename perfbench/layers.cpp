#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <thread>

#include "concurrent/history.hpp"
#include "harness/factory.hpp"
#include "harness/schedule.hpp"
#include "net/wire.hpp"
#include "runtime/threaded_runtime.hpp"
#include "service/key_directory.hpp"
#include "support/rng.hpp"
#include "traffic/recorder.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

double ns_since(Clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Median over `batches` of body()'s wall time divided by `per_batch`.
template <typename Body>
double per_op_ns(int batches, std::size_t per_batch, Body&& body) {
  std::vector<double> samples;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    body();
    samples.push_back(ns_since(t0) / static_cast<double>(per_batch));
  }
  return median(samples);
}

/// Keeps a computed value alive so the timed loop is not elided.
std::atomic<std::int64_t> g_sink{0};

double schedule_ms(const LayerInputs& in) {
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    const auto initiators = dcnt::make_initiators(
        in.initiators, in.zipf_s, in.n, static_cast<std::int64_t>(in.op_cap),
        in.seed);
    std::int64_t keep = static_cast<std::int64_t>(initiators.size());
    if (in.keyed) {
      const auto keys = dcnt::make_keys(
          "zipf", in.key_skew, static_cast<std::int64_t>(in.keys),
          static_cast<std::int64_t>(in.op_cap), in.seed);
      keep += static_cast<std::int64_t>(keys.size());
    }
    samples.push_back(ns_since(t0) / 1e6);
    g_sink += keep;
  }
  return median(samples);
}

/// on_issue + on_complete pairs on a recorder sized so it picks the
/// requested mode; latencies are synthetic so only the recorder is timed.
double recorder_ns(std::size_t max_ops, bool expect_exact, dcnt::Rng& rng) {
  std::vector<std::int64_t> lat(max_ops);
  for (auto& l : lat) l = 20'000 + static_cast<std::int64_t>(rng.next_below(400'000));
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    dcnt::traffic::TailRecorder rec(max_ops, 1'000'000);
    if (rec.exact_mode() != expect_exact) return 0.0;
    const std::int64_t base = 1'000'000'000;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < max_ops; ++i) {
      const auto t = base + static_cast<std::int64_t>(i) * 1000;
      rec.on_issue(static_cast<dcnt::OpId>(i), t);
      rec.on_complete(static_cast<dcnt::OpId>(i), t + lat[i]);
    }
    samples.push_back(ns_since(t0) / static_cast<double>(max_ops));
    g_sink += rec.stats().count;
  }
  return median(samples);
}

double history_ns(std::size_t ops) {
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    dcnt::concurrent::HistoryBuffer hist(ops);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
      const auto t = 1 + static_cast<std::int64_t>(i) * 1000;
      hist.on_invoke(static_cast<dcnt::OpId>(i), t);
      hist.on_response(static_cast<dcnt::OpId>(i), t + 640,
                       static_cast<dcnt::Value>(i));
    }
    samples.push_back(ns_since(t0) / static_cast<double>(ops));
  }
  return median(samples);
}

/// A linearizable history of `ops` incs with 64 in flight at a time and
/// values shuffled within each window, as a closed loop produces.
double lin_check_ns_per_inc(std::size_t ops, dcnt::Rng& rng) {
  std::vector<dcnt::CounterOpRecord> base(ops);
  for (std::size_t i = 0; i < ops; ++i) {
    base[i].op = static_cast<dcnt::OpId>(i);
    base[i].invoked = static_cast<dcnt::SimTime>(i) * 100;
    base[i].responded = base[i].invoked + 64 * 100 - 1;
    base[i].value = static_cast<dcnt::Value>(i);
  }
  for (std::size_t w = 0; w + 64 <= ops; w += 64) {
    for (std::size_t i = 63; i > 0; --i) {
      std::swap(base[w + i].value, base[w + rng.next_below(i + 1)].value);
    }
  }
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    auto copy = base;
    const auto t0 = Clock::now();
    const auto report = dcnt::check_linearizable(std::move(copy));
    samples.push_back(ns_since(t0) / static_cast<double>(ops));
    g_sink += report.violations;
  }
  return median(samples);
}

/// begin_inc -> completion on an idle 3-worker central runtime, with
/// each op issued only after the workers have had time to park.
double idle_inc_us(std::uint64_t seed, int ops) {
  dcnt::RuntimeConfig config;
  config.workers = 3;
  config.seed = seed;
  config.max_ops = static_cast<std::size_t>(ops);
  dcnt::ThreadedRuntime rt(dcnt::make_counter(dcnt::CounterKind::kCentral, 81),
                           config);
  std::atomic<std::int64_t> done_ns{0};
  rt.set_completion([&](dcnt::OpId, dcnt::Value) {
    done_ns.store(dcnt::traffic::TailRecorder::now_ns(),
                  std::memory_order_release);
  });
  dcnt::Rng rng(seed);
  std::vector<double> samples;
  for (int i = 0; i < ops; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    done_ns.store(0, std::memory_order_relaxed);
    const auto origin =
        static_cast<dcnt::ProcessorId>(1 + rng.next_below(80));
    const std::int64_t t0 = dcnt::traffic::TailRecorder::now_ns();
    rt.begin_inc(origin);
    std::int64_t t1 = 0;
    while ((t1 = done_ns.load(std::memory_order_acquire)) == 0) {
      std::this_thread::yield();
    }
    samples.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  rt.wait_quiescent();
  return median(samples);
}

/// KeyDirectory::with_entry on live keys, then on cold keys with the
/// directory at capacity (each such call evicts one instance).
std::pair<double, double> directory_timings(const LayerInputs& in,
                                            dcnt::Rng& rng) {
  const std::int64_t n = in.n;
  dcnt::service::KeyDirectory dir(
      [n] { return dcnt::make_counter(dcnt::CounterKind::kCentral, n); }, n,
      true, {in.seed, in.key_capacity});
  const auto cap = static_cast<dcnt::KeyId>(in.key_capacity);
  for (dcnt::KeyId k = 0; k < cap; ++k) dir.with_entry(k, [](auto&) {});
  const std::size_t hits = in.quick ? 20'000 : 200'000;
  std::vector<dcnt::KeyId> live(hits);
  for (auto& k : live) k = static_cast<dcnt::KeyId>(rng.next_below(static_cast<std::uint64_t>(cap)));
  // Hits on random live keys never evict, so the live set stays 0..cap-1.
  const double hit_ns = per_op_ns(5, hits, [&] {
    std::int64_t sum = 0;
    for (const auto k : live) {
      dir.with_entry(k, [&](auto& e) { sum += e.offset; });
    }
    g_sink += sum;
  });
  const std::size_t misses = in.quick ? 50 : 400;
  dcnt::KeyId next_cold = cap;
  const double miss_ns = per_op_ns(5, misses, [&] {
    for (std::size_t i = 0; i < misses; ++i) {
      dir.with_entry(next_cold++, [](auto&) {});
    }
  });
  return {hit_ns, miss_ns / 1e3};
}

/// Context for capture_traffic: queues every send for FIFO delivery and
/// keeps a copy. Sends that leave msg.op unset are stamped with the op
/// being handled, as the runtime does.
class CaptureContext final : public dcnt::Context {
 public:
  explicit CaptureContext(std::uint64_t seed) : rng_(seed) {}
  void send(dcnt::Message msg) override {
    if (msg.op == dcnt::kNoOp) msg.op = op_;
    sent.push_back(msg);
    queue.push_back(std::move(msg));
  }
  void send_local(dcnt::ProcessorId, std::int32_t, std::vector<std::int64_t>,
                  dcnt::SimTime) override {}
  void complete(dcnt::OpId, dcnt::Value) override {}
  dcnt::SimTime now() const override { return 0; }
  dcnt::Rng& rng() override { return rng_; }

  dcnt::OpId op_{dcnt::kNoOp};
  std::vector<dcnt::Message> sent;
  std::deque<dcnt::Message> queue;

 private:
  dcnt::Rng rng_;
};

/// The wire messages the workload's counter actually sends: incs from
/// seeded uniform origins, each run to quiescence, until `count`
/// messages (src != dst) have been captured.
std::vector<dcnt::Message> capture_traffic(const LayerInputs& in,
                                           std::size_t count, dcnt::Rng& rng) {
  auto counter = dcnt::make_counter(in.counter, in.n);
  CaptureContext ctx(in.seed);
  std::vector<dcnt::Message> out;
  for (dcnt::OpId op = 0; out.size() < count; ++op) {
    ctx.op_ = op;
    counter->start_inc(ctx, static_cast<dcnt::ProcessorId>(rng.next_below(
                                static_cast<std::uint64_t>(in.n))),
                       op);
    while (!ctx.queue.empty()) {
      const dcnt::Message m = std::move(ctx.queue.front());
      ctx.queue.pop_front();
      ctx.op_ = m.op;
      counter->on_message(ctx, m);
    }
    for (auto& m : ctx.sent) {
      if (m.src != m.dst && !m.local && out.size() < count) out.push_back(std::move(m));
    }
    ctx.sent.clear();
  }
  return out;
}

/// Wire encode and decode of the workload's messages, one frame each:
/// kMsg frames, or kKeyedMsg envelopes carrying seeded keys for the keyed
/// fabric.
std::pair<double, double> wire_timings(const LayerInputs& in, dcnt::Rng& rng) {
  const std::size_t count = in.quick ? 2048 : 16384;
  auto msgs = capture_traffic(in, count, rng);
  if (in.keyed) {
    const auto keys = dcnt::make_keys("zipf", in.key_skew,
                                      static_cast<std::int64_t>(in.keys),
                                      static_cast<std::int64_t>(msgs.size()), in.seed);
    for (std::size_t i = 0; i < msgs.size(); ++i) msgs[i].key = keys[i];
  }
  std::vector<std::uint8_t> buf;
  buf.reserve(count * 96);
  const double encode_ns = per_op_ns(9, msgs.size(), [&] {
    buf.clear();
    for (const auto& m : msgs) {
      if (in.keyed) {
        dcnt::net::append_keyed_message(buf, m);
      } else {
        dcnt::net::append_message(buf, m);
      }
    }
    g_sink += static_cast<std::int64_t>(buf.size());
  });
  const double decode_ns = per_op_ns(9, msgs.size(), [&] {
    std::int64_t sum = 0;
    std::size_t pos = 0;
    dcnt::Message m;
    while (pos + 4 <= buf.size()) {
      std::uint32_t len = 0;
      std::memcpy(&len, buf.data() + pos, 4);  // little-endian host
      const dcnt::net::FrameView frame(buf.data() + pos + 4, len);
      if (in.keyed) {
        if (!dcnt::net::decode_keyed_message(frame, &m)) return;
      } else {
        m = dcnt::net::decode_message(frame);
      }
      sum += m.op + m.tag;
      pos += 4 + len;
    }
    g_sink += sum;
  });
  return {encode_ns, decode_ns};
}

}  // namespace

Fields time_layers(const LayerInputs& in) {
  dcnt::Rng rng(dcnt::mix64(in.seed ^ 0x6c61796572ULL));
  Fields out;
  out.emplace_back("harness.schedule_ms", schedule_ms(in));
  const std::size_t exact = dcnt::traffic::TailRecorder::kDefaultExactCap;
  out.emplace_back("traffic.record_ns", recorder_ns(exact, true, rng));
  out.emplace_back("traffic.hdr_record_ns",
                   recorder_ns(in.quick ? exact + 1 : 4 * exact, false, rng));
  const std::size_t hist_ops = in.quick ? exact : 4 * exact;
  out.emplace_back("concurrent.history_ns", history_ns(hist_ops));
  if (!in.keyed) {
    out.emplace_back("concurrent.lin_check_ns_per_inc",
                     lin_check_ns_per_inc(std::max<std::size_t>(in.run_ops, 64), rng));
  }
  if (in.inproc) {
    out.emplace_back("runtime.idle_inc_us", idle_inc_us(in.seed, in.quick ? 20 : 200));
  }
  if (in.keyed) {
    const auto [hit_ns, miss_us] = directory_timings(in, rng);
    out.emplace_back("service.hit_ns", hit_ns);
    out.emplace_back("service.miss_evict_us", miss_us);
  }
  {
    const auto [encode_ns, decode_ns] = wire_timings(in, rng);
    out.emplace_back("net.encode_ns", encode_ns);
    out.emplace_back("net.decode_ns", decode_ns);
  }
  return out;
}

}  // namespace perfbench
