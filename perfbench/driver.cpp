// perfbench_driver: one measured repetition of one benchmark workload,
// or the layer micro-timings of one workload. Prints one JSON object on
// stdout. run.py starts one perfbench_driver process per repetition, so a
// DCNT_CHECK abort (a wrong value, a failed quiescence check) ends only
// that repetition and is counted there as a failed run.
//
//   perfbench_driver run    --workload W --seed S --seconds T
//                           [--traced] [--trace-out FILE] [--quick]
//                           [--node-bin PATH]
//   perfbench_driver layers --workload W --seed S --run-ops N [--quick]
//
// The workloads are defined here; BENCHMARK.json and perfbench/README.md
// say why each was chosen and which layer it stresses.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "harness/cluster.hpp"
#include "harness/factory.hpp"
#include "harness/schedule.hpp"
#include "harness/throughput.hpp"
#include "layers.hpp"
#include "traced.hpp"
#include "traffic/recorder.hpp"

namespace {

using perfbench::Fields;

enum class Kind { kInproc, kKeyed, kCluster };

struct Spec {
  const char* name;
  Kind kind;
  dcnt::CounterKind counter;
  std::int64_t n;
  /// Runtime workers (inproc, keyed) or node processes (cluster).
  std::size_t workers;
  std::size_t concurrency;
  std::size_t inflight;
  /// > 0: open loop at this rate (inc/s).
  double open_rate;
  const char* initiators;
  std::size_t warmup;
  /// Rate the op cap is sized from: far above the measured rate for
  /// closed loops, so the duration ends each run even after a large
  /// gain; the fixed rate for the open loop.
  double cap_rate;
};

constexpr double kSloUs = 1000.0;
constexpr std::size_t kKeys = 100'000;
constexpr double kKeySkew = 0.99;
constexpr std::size_t kKeyCapacity = 12'500;

// Best rates seen on a 4-vCPU host: tree-closed ~250k inc/s,
// central-tcp ~400k, keys-lru ~8k (~375k without the LRU cap),
// central-open fixed at 100k. cap_rate leaves at least 4x headroom over
// each, so the duration, not the cap, ends a run even after a large gain.
const Spec kSpecs[] = {
    {"tree-closed", Kind::kInproc, dcnt::CounterKind::kTree, 81, 4, 16, 4,
     0.0, "roundrobin", 20'000, 1.0e6},
    {"central-tcp", Kind::kCluster, dcnt::CounterKind::kCentral, 16, 3, 4, 8,
     0.0, "roundrobin", 20'000, 1.6e6},
    {"keys-lru", Kind::kKeyed, dcnt::CounterKind::kCentral, 16, 4, 16, 1, 0.0,
     "uniform", 40'000, 1.5e6},
    {"central-open", Kind::kInproc, dcnt::CounterKind::kCentral, 81, 3, 1, 1,
     100'000.0, "roundrobin", 10'000, 100'000.0},
};

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::size_t op_cap(const Spec& spec, double seconds) {
  const double headroom = spec.open_rate > 0.0 ? 1.5 : 1.0;
  const auto cap =
      static_cast<std::size_t>(std::ceil(spec.cap_rate * headroom * seconds));
  // Above the recorder's exact cap, so every run records in HDR mode.
  return std::max(cap, 2 * dcnt::traffic::TailRecorder::kDefaultExactCap);
}

std::vector<std::string> tag_names(dcnt::CounterKind counter) {
  if (counter == dcnt::CounterKind::kTree) {
    return {"", "inc", "value", "takeover", "child_info", "new_id"};
  }
  return {"", "req", "value"};
}

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed{1};
  double seconds{1.0};
  bool traced{false};
  bool quick{false};
  std::string trace_out;
  std::string node_bin;
  std::size_t run_ops{0};
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver run|layers --workload W --seed S "
               "[--seconds T] [--traced] [--trace-out F] [--node-bin P] "
               "[--run-ops N] [--quick]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--traced") {
      a.traced = true;
    } else if (flag == "--quick") {
      a.quick = true;
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else if (flag == "--node-bin") {
      a.node_bin = value();
    } else if (flag == "--run-ops") {
      a.run_ops = std::stoull(value());
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.mode != "run" && a.mode != "layers") usage("mode must be run or layers");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

void print_json(const std::vector<std::pair<std::string, std::string>>& text,
                const Fields& numbers) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : text) {
    out += (first ? "\"" : ",\"") + k + "\":\"" + v + "\"";
    first = false;
  }
  char buf[64];
  for (const auto& [k, v] : numbers) {
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    out += (first ? "\"" : ",\"") + k + "\":" + buf;
    first = false;
  }
  out += "}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The end-to-end numbers every workload reports, from the harness's
/// own result fields.
void add_end_to_end(Fields& f, const dcnt::ThroughputResult& r,
                    double call_s) {
  f.emplace_back("attempted", static_cast<double>(r.ops));
  f.emplace_back("inc_per_s", r.ops_per_sec);
  f.emplace_back("p50_us", r.p50_us);
  f.emplace_back("p99_us", r.p99_us);
  f.emplace_back("slo_attain", r.slo_attainment);
  f.emplace_back("msgs_per_inc", ratio(static_cast<double>(r.total_messages),
                                       static_cast<double>(r.ops)));
  f.emplace_back("measured_s", r.wall_seconds);
  f.emplace_back("setup_s", call_s - r.wall_seconds);
  f.emplace_back("hdr_recorder", r.hdr_recorder ? 1.0 : 0.0);
  f.emplace_back("hdr_overflow", static_cast<double>(r.hdr_overflow));
  f.emplace_back("lin_checked", r.lin_checked ? 1.0 : 0.0);
  // A linearizability violation is a wrong answer: count each offending
  // pair as a failed inc (the value check itself aborts on failure).
  f.emplace_back("failed", static_cast<double>(std::min<std::int64_t>(
                               r.lin_violations,
                               static_cast<std::int64_t>(r.ops))));
}

/// Per-layer numbers measured by the TracedCounter spans.
void add_span_layers(Fields& f, const perfbench::Tracer& tracer,
                     const Spec& spec, double ops, double warmup,
                     double workers, double measured_s) {
  const perfbench::SpanTotals t = tracer.totals();
  const auto d = [](std::int64_t v) { return static_cast<double>(v); };
  f.emplace_back("core.handler_ns", ratio(d(t.handler_self_ns), d(t.handler_calls)));
  f.emplace_back("core.handler_calls_per_inc", ratio(d(t.handler_calls), ops));
  const auto names = tag_names(spec.counter);
  for (std::size_t tag = 1; tag < names.size(); ++tag) {
    f.emplace_back("core.msgs_per_inc." + names[tag],
                   ratio(d(t.msgs_by_tag[tag]), ops));
  }
  // TreeServiceStats count warmup too, so these divide by warmup + ops.
  const double all_ops = ops + warmup;
  f.emplace_back("core.forwards_per_inc", ratio(d(tracer.forwarded), all_ops));
  f.emplace_back("core.retirements_per_inc", ratio(d(tracer.retirements), all_ops));
  f.emplace_back("core.orphan_stashes_per_inc",
                 ratio(d(tracer.orphan_stashes), all_ops));
  f.emplace_back("core.pool_wraps", d(tracer.pool_wraps));
  // Both counts include warmup, so the base matches.
  f.emplace_back("core.useful_msg_frac",
                 t.msgs_all > 0 ? 1.0 - d(tracer.forwarded) / d(t.msgs_all) : 1.0);
  f.emplace_back("runtime.send_ns", ratio(d(t.send_ns), d(t.sends)));
  f.emplace_back("runtime.busy_frac",
                 ratio(d(t.handler_ns) / 1e9, workers * measured_s));
  f.emplace_back("harness.complete_ns", ratio(d(t.complete_ns), d(t.completes)));
  f.emplace_back("trace.spans_kept", d(tracer.spans_kept()));
  f.emplace_back("trace.spans_dropped", d(tracer.spans_dropped()));
}

dcnt::ThroughputOptions throughput_options(const Spec& spec, const Args& a,
                                           std::size_t cap, std::size_t warmup) {
  dcnt::ThroughputOptions o;
  o.workers = spec.workers;
  o.ops = cap;
  o.concurrency = spec.concurrency;
  o.inflight = spec.inflight;
  o.open_rate = spec.open_rate;
  o.duration_s = a.seconds;
  o.slo_us = kSloUs;
  o.initiators = spec.initiators;
  o.seed = a.seed;
  o.warmup = warmup;
  o.lin_check = true;
  return o;
}

int run(const Spec& spec, const Args& a) {
  const std::size_t cap = op_cap(spec, a.seconds);
  const std::size_t warmup = a.quick ? spec.warmup / 10 : spec.warmup;
  auto tracer = std::make_shared<perfbench::Tracer>();
  tracer->set_first_measured(static_cast<dcnt::OpId>(warmup));
  const auto wrap = [&](std::unique_ptr<dcnt::CounterProtocol> p)
      -> std::unique_ptr<dcnt::CounterProtocol> {
    if (!a.traced) return p;
    return std::make_unique<perfbench::TracedCounter>(std::move(p), tracer);
  };

  Fields f;
  std::size_t ops = 0;
  if (spec.kind == Kind::kInproc) {
    const auto o = throughput_options(spec, a, cap, warmup);
    const auto t0 = std::chrono::steady_clock::now();
    const auto r =
        dcnt::run_throughput(wrap(dcnt::make_counter(spec.counter, spec.n)), o);
    const double call_s = seconds_since(t0);
    ops = r.ops;
    add_end_to_end(f, r, call_s);
    f.emplace_back("bottleneck_msgs_per_inc",
                   ratio(static_cast<double>(r.max_load), static_cast<double>(r.ops)));
    if (a.traced) {
      add_span_layers(f, *tracer, spec, static_cast<double>(r.ops),
                      static_cast<double>(warmup), static_cast<double>(r.workers),
                      r.wall_seconds);
    }
  } else if (spec.kind == Kind::kKeyed) {
    const auto o = throughput_options(spec, a, cap, warmup);
    dcnt::KeyedOptions k;
    k.keys = kKeys;
    k.key_dist = "zipf";
    k.key_skew = kKeySkew;
    k.key_capacity = kKeyCapacity;
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = dcnt::run_keyed_throughput(
        wrap(dcnt::make_counter(spec.counter, spec.n)), o, k);
    const double call_s = seconds_since(t0);
    ops = r.base.ops;
    add_end_to_end(f, r.base, call_s);
    // The paper's bound is per counter: the hot key's busiest processor.
    // Its load counts measured ops only, but hot_key_ops counts warmup
    // too, so the hot key's measured ops are recounted from the schedule
    // (measured op i addresses keys[i]).
    const auto keys = dcnt::make_keys(k.key_dist, k.key_skew,
                                      static_cast<std::int64_t>(k.keys),
                                      static_cast<std::int64_t>(cap), a.seed);
    const auto hot_measured =
        std::count(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(r.base.ops),
                   r.hot_key);
    f.emplace_back("bottleneck_msgs_per_inc",
                   ratio(static_cast<double>(r.hot_key_max_load),
                         static_cast<double>(hot_measured)));
    // The directory's counters include warmup, so the per-inc ratios
    // divide by warmup + ops.
    const double all_ops = static_cast<double>(r.base.ops + warmup);
    f.emplace_back("service.hit_frac",
                   ratio(static_cast<double>(r.lru_hits),
                         static_cast<double>(r.lru_hits + r.lru_misses)));
    f.emplace_back("service.evicts_per_inc",
                   ratio(static_cast<double>(r.lru_evicts), all_ops));
    f.emplace_back("service.rehydrates_per_inc",
                   ratio(static_cast<double>(r.lru_rehydrates), all_ops));
    f.emplace_back("service.live_instances", static_cast<double>(r.live_instances));
    if (a.traced) {
      add_span_layers(f, *tracer, spec, static_cast<double>(r.base.ops),
                      static_cast<double>(warmup),
                      static_cast<double>(r.base.workers), r.base.wall_seconds);
    }
  } else {
    dcnt::net::ClusterOptions o;
    o.counter = dcnt::to_string(spec.counter);
    o.min_processors = spec.n;
    o.nodes = static_cast<std::uint32_t>(spec.workers);
    o.ops = cap;
    o.warmup = warmup;
    o.initiators = spec.initiators;
    o.seed = a.seed;
    o.concurrency = spec.concurrency;
    o.inflight = spec.inflight;
    o.duration_s = a.seconds;
    o.slo_us = kSloUs;
    o.loops = 1;
    o.shards_per_node = 0;  // inline drive: one thread per node
    o.node_binary = a.node_bin;
    o.lin_check = true;
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = dcnt::net::run_cluster(o);
    const double call_s = seconds_since(t0);
    ops = r.ops;
    const double d_ops = static_cast<double>(r.ops);
    f.emplace_back("attempted", d_ops);
    f.emplace_back("inc_per_s", r.ops_per_sec);
    f.emplace_back("p50_us", r.p50_us);
    f.emplace_back("p99_us", r.p99_us);
    f.emplace_back("slo_attain", r.slo_attainment);
    f.emplace_back("msgs_per_inc", ratio(static_cast<double>(r.total_messages), d_ops));
    f.emplace_back("bottleneck_msgs_per_inc",
                   ratio(static_cast<double>(r.max_load), d_ops));
    f.emplace_back("measured_s", r.wall_seconds);
    f.emplace_back("setup_s", call_s - r.wall_seconds);
    f.emplace_back("hdr_recorder", r.hdr_recorder ? 1.0 : 0.0);
    f.emplace_back("hdr_overflow", static_cast<double>(r.hdr_overflow));
    f.emplace_back("lin_checked", r.lin_checked ? 1.0 : 0.0);
    f.emplace_back("failed", static_cast<double>(std::min<std::int64_t>(
                                 r.lin_violations, static_cast<std::int64_t>(r.ops))));
    // The nodes re-baseline their wire counters after warmup, so these
    // are measured-phase only.
    const double writes = static_cast<double>(r.wire_write_syscalls);
    f.emplace_back("net.wire_msgs_per_inc",
                   ratio(static_cast<double>(r.wire_msgs_sent), d_ops));
    f.emplace_back("net.wire_bytes_per_inc",
                   ratio(static_cast<double>(r.wire_bytes_sent), d_ops));
    f.emplace_back("net.writes_per_inc", ratio(writes, d_ops));
    f.emplace_back("net.bytes_per_write",
                   ratio(static_cast<double>(r.wire_bytes_sent), writes));
    f.emplace_back("net.quiesce_rounds", static_cast<double>(r.quiesce_rounds));
    f.emplace_back("net.retransmissions", static_cast<double>(r.retransmissions));
  }
  // Keyed runs verify each key's permutation instead: the harness skips
  // the global history check there.
  f.emplace_back("lin_required", spec.kind == Kind::kKeyed ? 0.0 : 1.0);
  f.emplace_back("op_cap", static_cast<double>(cap));
  f.emplace_back("cap_hit", ops >= cap ? 1.0 : 0.0);
  f.emplace_back("warmup", static_cast<double>(warmup));
  if (a.traced && !a.trace_out.empty() && spec.kind != Kind::kCluster) {
    if (!tracer->write_chrome_trace(a.trace_out, tag_names(spec.counter))) {
      std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                   a.trace_out.c_str());
      return 1;
    }
  }
  print_json({{"workload", spec.name},
              {"build_type", PERFBENCH_BUILD_TYPE},
              {"compiler", PERFBENCH_CXX_ID},
              {"cxx_flags", PERFBENCH_CXX_FLAGS}},
             f);
  return 0;
}

int layers(const Spec& spec, const Args& a) {
  perfbench::LayerInputs in;
  in.seed = a.seed;
  in.inproc = spec.kind != Kind::kCluster;
  in.keyed = spec.kind == Kind::kKeyed;
  in.counter = spec.counter;
  in.initiators = spec.initiators;
  in.zipf_s = 0.99;
  in.n = spec.n;
  in.op_cap = op_cap(spec, a.seconds);
  in.keys = kKeys;
  in.key_skew = kKeySkew;
  in.key_capacity = kKeyCapacity;
  in.run_ops = a.run_ops;
  in.quick = a.quick;
  print_json({{"workload", spec.name}}, perfbench::time_layers(in));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const Spec* spec = find_spec(a.workload);
  if (spec == nullptr) usage(("unknown workload " + a.workload).c_str());
  return a.mode == "run" ? run(*spec, a) : layers(*spec, a);
}
