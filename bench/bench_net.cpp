// NET — what real sockets cost: the multi-process cluster runtime
// (dcnt_node processes over localhost TCP or lossy UDP) versus the
// in-process threaded runtime at matched protocol, n, and parallelism.
//
// Each mode runs the identical closed-loop workload and verifies the
// returned values are an exact permutation of 0..ops-1, so every row
// is also a correctness check. Protocol-level message loads (m_p, the
// paper's bottleneck quantity) match the in-process runtime on the TCP
// rows up to the tree's O(1)-per-handover slack; the UDP rows run
// behind the reliable transport, whose Data/Ack envelopes are protocol
// messages too — the m_p delta is exactly what at-least-once delivery
// costs in the paper's own currency. Wall-clock columns price the
// transport itself: loopback TCP costs microseconds per hop where the
// in-process runtime costs nanoseconds, and the lossy rows add
// retransmission stalls on top.
//
// Each run starts with `--warmup` unmeasured closed-loop ops: the
// connection setup, allocator cold-start and first-touch faults settle,
// a cluster-wide quiescence barrier fires, the nodes reset their
// metrics, and only then does the measured phase begin. The wr_B column
// (wire bytes per kernel write()) is the coalescing observable: the
// event loop batches every frame queued in one drain round into a
// single write() per peer.
//
// The cluster rows sweep `--pipelines` (closed-loop depth D, the
// cluster's `inflight` knob: each of the `--concurrency` slots keeps D
// ops outstanding). D=1 is the classic one-op-per-slot closed loop;
// D>1 amortises the per-wakeup syscall cost across a deeper in-flight
// window — the lever the v2 reactor/threading work targets. Every depth is still verified
// as an exact permutation. p50/p99 latency is per-op as stamped at the
// controller, so at D>1 it includes queueing behind the same slot's
// earlier ops.
//
// With --inflight_list set (default 1,8,64,256), each counter also runs
// "tcp-conc" rows: the concurrency plane's closed-loop window sweep on
// the real TCP mesh. Each of the --concurrency slots keeps F ops
// outstanding (window = concurrency * F), the controller records every
// op's (invoke, response, value) triple in a history buffer, and
// check_linearizable runs over the real socket history after quiesce —
// the lin/viol columns are measured, not assumed. Serializing counters
// (tree, central, combining, elastic) must come back linearizable at
// every F; balancer-based ones (diffracting, counting networks) are
// only quiescent-consistent and may not.
//
// With --rates set, each counter also runs open-loop "tcp-open" rows:
// the controller paces Starts on a deterministic arrival timeline
// (--shape/--period/--amplitude/--duty) and stamps latency from each
// op's *scheduled* arrival, so queueing in the mesh counts against the
// tail (coordinated-omission-free); --slo_us adds attainment and
// --duration caps the run by wall clock instead of op count.
//
//   $ bench_net [--counters=tree,central] [--n=16] [--nodes=4]
//               [--ops_factor=16] [--concurrency=16] [--drop=0.05]
//               [--pipelines=1,8] [--inflight_list=1,8,64,256]
//               [--loops=1] [--shards_per_node=0]
//               [--backend=] [--warmup=64] [--seed=7]
//               [--rates=] [--shape=constant] [--period=1]
//               [--amplitude=0.5] [--duty=0.5] [--duration=0]
//               [--slo_us=0] [--exact_cap=65536]
//               [--out=BENCH_net.json]
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "harness/cluster.hpp"
#include "harness/factory.hpp"
#include "harness/throughput.hpp"
#include "support/check.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"

using namespace dcnt;

namespace {

/// One row of the comparison, whichever runtime produced it.
struct NetRow {
  std::string mode;  ///< "inproc", "tcp", "udp", "udp-lossy", "tcp-conc", "tcp-open"
  std::size_t pipeline{1};  ///< closed-loop depth per slot (1 for inproc)
  std::size_t inflight{0};  ///< tcp-conc rows: F ops outstanding per slot
  std::size_t parallelism{0};  ///< workers (inproc) or nodes (cluster)
  double rate{0.0};  ///< tcp-open rows: offered rate
  RunReport run;
  /// Wire accounting, summed across nodes (0 for the in-process rows).
  std::int64_t wire_msgs{0};
  std::int64_t wire_bytes{0};
  std::int64_t write_syscalls{0};
  std::int64_t injected_drops{0};
  std::int64_t retransmissions{0};

  /// Wire bytes per kernel write() — how much frame coalescing the
  /// deferred-flush event loop achieved.
  double bytes_per_write() const {
    if (write_syscalls <= 0) return 0.0;
    return static_cast<double>(wire_bytes) /
           static_cast<double>(write_syscalls);
  }
};

NetRow from_cluster(const net::ClusterResult& r, const std::string& mode,
                    std::size_t pipeline) {
  NetRow row;
  row.mode = mode;
  row.pipeline = pipeline;
  row.parallelism = r.nodes;
  row.run = r;
  row.wire_msgs = r.wire_msgs_sent;
  row.wire_bytes = r.wire_bytes_sent;
  row.write_syscalls = r.wire_write_syscalls;
  row.injected_drops = r.injected_drops;
  row.retransmissions = r.retransmissions;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = parse_bench_flags(
      argc, argv,
      "NET: socket cluster runtime vs in-process runtime at matched "
      "protocol/n/parallelism",
      {"amplitude", "backend", "concurrency", "counters", "drop", "duration",
       "duty", "exact_cap", "inflight_list", "loops", "n", "nodes",
       "ops_factor", "out", "period", "pipelines", "rates", "seed", "shape",
       "shards_per_node", "slo_us", "warmup"});
  const auto counters = parse_choice_list(flags, "counters", "tree,central",
                                          counter_kind_names());
  const std::int64_t n = flags.get_int("n", 16);
  const auto nodes = static_cast<std::uint32_t>(flags.get_int("nodes", 4));
  const std::int64_t ops_factor = flags.get_int("ops_factor", 16);
  const auto concurrency =
      static_cast<std::size_t>(flags.get_int("concurrency", 16));
  const double drop = flags.get_double("drop", 0.05);
  const auto pipelines = parse_int_list(flags, "pipelines", "1,8");
  // tcp-conc window sweep (empty disables): F outstanding ops per slot,
  // linearizability checked over the real socket history.
  const auto inflight_list =
      parse_int_list(flags, "inflight_list", "1,8,64,256");
  const auto loops = static_cast<std::uint32_t>(flags.get_int("loops", 1));
  // Default 0 = inline drive (the event-loop thread runs the protocol
  // shard itself): the fastest topology wherever nodes outnumber cores,
  // and the configuration the checked-in BENCH_net.json is measured at.
  const auto shards_per_node =
      static_cast<std::uint32_t>(flags.get_int("shards_per_node", 0));
  const std::string backend = flags.get_string("backend", "");
  if (!backend.empty()) parse_choice_value("backend", backend, {"epoll", "poll"});
  const auto warmup = static_cast<std::size_t>(flags.get_int("warmup", 64));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const std::string out = flags.get_string("out", "BENCH_net.json");
  // Open-loop cluster rows (--rates non-empty): the controller paces
  // Start frames on the deterministic arrival timeline and stamps
  // latency from scheduled arrival — queueing in the mesh counts.
  const auto rates = parse_double_list(flags, "rates", "");

  // The knobs every cluster row shares; each section copies and extends.
  net::ClusterOptions cluster;
  cluster.min_processors = n;
  cluster.nodes = nodes;
  cluster.loops = loops;
  cluster.shards_per_node = shards_per_node;
  cluster.backend = backend;
  cluster.warmup = warmup;
  cluster.seed = seed;
  net::ClusterOptions open = cluster;
  read_shape_flags(flags, !rates.empty(), open);
  open.duration_s = flags.get_double("duration", 0.0);
  open.slo_us = flags.get_double("slo_us", 0.0);
  open.exact_cap = static_cast<std::size_t>(flags.get_int("exact_cap", 1 << 16));

  Table table({"counter", "mode", "pipe", "n", "par", "ops", "inc/s", "p50_us",
               "p99_us", "total_msgs", "max_load", "wire_msgs", "wr_B", "retx",
               "lin", "viol"});
  std::vector<NetRow> rows;

  for (const std::string& name : counters) {
    const CounterKind kind = counter_kind_from_string(name);
    auto probe = make_counter(kind, n);
    if (!probe->shard_safe()) {
      std::cout << "skip: " << probe->name() << " (not shard-safe)\n";
      continue;
    }
    const std::size_t procs = probe->num_processors();
    const auto ops = static_cast<std::size_t>(ops_factor) * procs;

    // In-process baseline: worker count matched to the cluster's
    // process count, so both runtimes get the same parallelism budget.
    ThroughputOptions topt;
    topt.workers = nodes;
    topt.ops = ops;
    topt.concurrency = concurrency;
    topt.warmup = warmup;
    topt.seed = seed;
    const ThroughputResult base = run_throughput(make_counter(kind, n), topt);
    NetRow inproc;
    inproc.mode = "inproc";
    inproc.parallelism = base.workers;
    inproc.run = base;
    inproc.run.counter = name;  // cluster rows carry the flag name; match it
    rows.push_back(inproc);

    for (const std::int64_t depth : pipelines) {
      const auto d = static_cast<std::size_t>(depth > 0 ? depth : 1);
      net::ClusterOptions copt = cluster;
      copt.counter = name;
      copt.ops = ops;
      copt.concurrency = concurrency;
      copt.inflight = d;
      rows.push_back(from_cluster(net::run_cluster(copt), "tcp", d));

      copt.udp = true;
      copt.drop_probability = 0.0;
      rows.push_back(from_cluster(net::run_cluster(copt), "udp", d));

      if (drop > 0.0) {
        copt.drop_probability = drop;
        // Faster retransmission clock: at the default 200us tick the
        // first retry would wait ~3ms of wall time per lost datagram.
        copt.tick_us = 100;
        copt.retry.ack_timeout = 8;
        copt.retry.max_timeout = 64;
        copt.retry.max_attempts = 30;
        rows.push_back(from_cluster(net::run_cluster(copt), "udp-lossy", d));
      }
    }

    // Concurrency-plane rows on the TCP plane: each client slot keeps F
    // ops outstanding; the op count is scaled so every window refills a
    // few times, and the linearizability verdict comes from the real
    // socket history (serializing counters must pass at every F).
    for (const std::int64_t f : inflight_list) {
      const auto inflight = static_cast<std::size_t>(f > 0 ? f : 1);
      net::ClusterOptions copt = cluster;
      copt.counter = name;
      copt.ops = std::max(ops, 4 * concurrency * inflight);
      copt.concurrency = concurrency;
      copt.inflight = inflight;
      NetRow row = from_cluster(net::run_cluster(copt), "tcp-conc", inflight);
      row.inflight = inflight;
      DCNT_CHECK_MSG(row.run.lin_checked, "tcp-conc row without a lin verdict");
      if (expected_linearizable(kind)) {
        DCNT_CHECK_MSG(row.run.linearizable,
                       "serializing counter failed linearizability on TCP");
      }
      rows.push_back(row);
    }

    // Open-loop rows on the TCP plane: one per offered rate.
    for (const double rate : rates) {
      net::ClusterOptions copt = open;
      copt.counter = name;
      copt.ops = ops;
      copt.open_rate = rate;
      NetRow row = from_cluster(net::run_cluster(copt), "tcp-open", 1);
      row.rate = rate;
      rows.push_back(row);
    }
  }

  for (const NetRow& row : rows) {
    const RunReport& r = row.run;
    table.row()
        .add(r.counter)
        .add(row.mode)
        .add(static_cast<std::int64_t>(row.pipeline))
        .add(static_cast<std::int64_t>(r.n))
        .add(static_cast<std::int64_t>(row.parallelism))
        .add(static_cast<std::int64_t>(r.ops))
        .add(r.ops_per_sec, 0)
        .add(r.p50_us, 1)
        .add(r.p99_us, 1)
        .add(r.total_messages)
        .add(r.max_load)
        .add(row.wire_msgs)
        .add(row.bytes_per_write(), 1)
        .add(row.retransmissions)
        .add(r.lin_checked ? (r.linearizable ? "y" : "NO") : "-")
        .add(r.lin_violations);
  }
  table.print(std::cout,
              "NET: in-process runtime vs multi-process socket cluster "
              "(every run verified exact)");

  JsonWriter json(out);
  json.field("bench", "net");
  json.field("n", n);
  json.field("nodes", nodes);
  json.field("ops_factor", ops_factor);
  json.field("concurrency", concurrency);
  json.field("drop", drop, 3);
  json.field("loops", loops);
  json.field("shards_per_node", shards_per_node);
  json.field("backend", backend.empty() ? "default" : backend);
  json.field("warmup", warmup);
  json.field("seed", seed);
  json.begin_array("runs");
  for (const NetRow& row : rows) {
    const RunReport& r = row.run;
    json.begin_object();
    json.field("counter", r.counter);
    json.field("mode", row.mode);
    json.field("pipeline", row.pipeline);
    json.field("n", r.n);
    json.field("parallelism", row.parallelism);
    json.field("ops", r.ops);
    json.field("wall_seconds", r.wall_seconds, 4);
    json.field("ops_per_sec", r.ops_per_sec, 1);
    json.field("mean_us", r.mean_us, 2);
    json.field("p50_us", r.p50_us, 2);
    json.field("p99_us", r.p99_us, 2);
    if (row.mode == "tcp-open") {
      json.field("rate", row.rate, 1);
      json.field("shape", open.shape);
      json.field("p999_us", r.p999_us, 2);
      json.field("p9999_us", r.p9999_us, 2);
      json.field("max_us", r.max_us, 2);
      json.field("slo_us", open.slo_us, 1);
      json.field("slo_attainment", r.slo_attainment, 6);
      json.field("hdr_recorder", r.hdr_recorder ? 1 : 0);
    }
    if (row.mode == "tcp-conc") {
      json.field("inflight", row.inflight);
      json.field("window", row.inflight * concurrency);
    }
    json.field("lin_checked", r.lin_checked ? 1 : 0);
    json.field("linearizable", r.linearizable ? 1 : 0);
    json.field("lin_violations", r.lin_violations);
    json.field("total_messages", r.total_messages);
    json.field("max_load", r.max_load);
    json.field("wire_msgs", row.wire_msgs);
    json.field("wire_bytes", row.wire_bytes);
    json.field("write_syscalls", row.write_syscalls);
    json.field("bytes_per_write", row.bytes_per_write(), 1);
    json.field("injected_drops", row.injected_drops);
    json.field("retransmissions", row.retransmissions);
    json.end_object();
  }
  json.end_array();
  return 0;
}
