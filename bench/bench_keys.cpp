// KEYS — counter-as-a-service: the multi-key fabric (service/) over the
// threaded runtime and the socket cluster.
//
// The paper's bound is per counter: a single exact counter has a
// processor carrying m_p >= Omega(k) messages, no matter how it is
// implemented. The fabric multiplexes `keys` independent counters over
// one processor set, rotating each key's instance so distinct keys pin
// their bottleneck on distinct processors. This bench measures both
// halves of that claim at once:
//
//   - aggregate inc/s grows with the worker/shard count at large
//     keyspaces (the fabric scales),
//   - the hottest key's per-key max_p stays within a small constant
//     factor of the same counter run with keys=1 at equal ops — no
//     amount of keyspace sharding relaxes the per-key Omega(k) price.
//
// Every row verifies the per-key contract internally (each key's
// returned values are an exact permutation of 0..ops_k-1), so a row
// completing is itself a correctness check. The `inproc-lru` row caps
// the directory so the LRU cold tier does real work (evict to durable
// value, rehydrate on next touch); its counters are reported. The tcp
// rows run the real 4-process cluster with batched keyed Starts
// (kStartBatch) and coalesced completions (kCompleteBatch).
//
//   $ bench_keys [--counter=central] [--n=16] [--keys_list=1,1000,100000]
//                [--key_skews=0,0.99] [--workers_list=1,4] [--ops=0]
//                [--key_capacity=0] [--concurrency=16] [--warmup=64]
//                [--nodes=4] [--cluster_keys=256] [--batch=16] [--seed=7]
//                [--open_rate=0] [--shape=constant] [--slo_us=0]
//                [--quick] [--out=BENCH_keys.json]
//
// With --open_rate > 0 (on by default under --quick) an "inproc-open"
// row drives the fabric open-loop on the deterministic arrival
// timeline, with latency measured from scheduled arrival and SLO
// attainment at --slo_us — plus a "tcp-open" row doing the same against
// the real socket cluster (keyed Starts paced per op; the controller
// forces batch=1 in the open loop, so queueing in the mesh counts
// against the tail, coordinated-omission-free).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "harness/cluster.hpp"
#include "harness/factory.hpp"
#include "harness/throughput.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"

using namespace dcnt;

namespace {

struct KeyRow {
  std::string mode;  ///< "inproc", "inproc-lru", "inproc-open", "tcp", "tcp-open"
  std::string key_dist;
  double key_skew{0.0};
  std::size_t parallelism{0};  ///< workers (inproc) or nodes (tcp)
  std::size_t batch{1};        ///< tcp rows: schedule entries per frame
  std::size_t key_capacity{0};
  /// Open-loop rows: offered rate (latency from scheduled arrival).
  double rate{0.0};
  RunReport run;
  KeyedReport keyed;
  std::size_t live_instances{0};  ///< inproc rows
  std::int64_t wire_msgs{0};      ///< tcp rows

  /// The normalized per-key bottleneck: the hot key's max_p divided by
  /// its op count. The paper's claim is that this stays Omega(1) per op
  /// (a constant for central) regardless of how many other keys share
  /// the fabric.
  double hot_key_load_per_op() const {
    if (keyed.hot_key_ops <= 0) return 0.0;
    return static_cast<double>(keyed.hot_key_max_load) /
           static_cast<double>(keyed.hot_key_ops);
  }
};

KeyRow from_keyed_throughput(const KeyedThroughputResult& r,
                             const KeyedOptions& kopt, const std::string& mode) {
  KeyRow row;
  row.mode = mode;
  row.key_dist = kopt.key_dist;
  row.key_skew = kopt.key_skew;
  row.parallelism = r.base.workers;
  row.key_capacity = kopt.key_capacity;
  row.run = r.base;
  row.keyed = r;
  row.live_instances = r.live_instances;
  return row;
}

/// The cluster rows all draw keys Zipf(0.99) with an uncapped directory.
KeyRow from_cluster(const net::ClusterResult& r, const std::string& mode) {
  KeyRow row;
  row.mode = mode;
  row.key_dist = "zipf";
  row.key_skew = 0.99;
  row.parallelism = r.nodes;
  row.run = r;
  row.keyed = r;
  row.wire_msgs = r.wire_msgs_sent;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = parse_bench_flags(
      argc, argv,
      "KEYS: multi-key counter fabric — aggregate inc/s scales with shards "
      "while every key keeps paying the per-key bottleneck",
      {"batch", "cluster_keys", "concurrency", "counter", "key_capacity",
       "key_skews", "keys_list", "n", "nodes", "open_rate", "ops", "out",
       "quick", "seed", "shape", "slo_us", "warmup", "workers_list"});
  const bool quick = flags.get_bool("quick", false);
  const CounterKind kind = read_counter_kind(flags, "counter", "central");
  const std::string counter = to_string(kind);
  const std::int64_t n = flags.get_int("n", quick ? 8 : 16);
  auto keys_list =
      parse_int_list(flags, "keys_list", quick ? "1,64" : "1,1000,100000");
  auto key_skews =
      parse_double_list(flags, "key_skews", quick ? "0.99" : "0,0.99");
  auto workers_list =
      parse_int_list(flags, "workers_list", quick ? "2" : "1,4");
  const std::int64_t ops_flag = flags.get_int("ops", 0);
  const std::size_t key_capacity = read_key_capacity(flags, kind);
  const auto concurrency =
      static_cast<std::size_t>(flags.get_int("concurrency", 16));
  const auto warmup =
      static_cast<std::size_t>(flags.get_int("warmup", quick ? 16 : 64));
  const auto nodes =
      static_cast<std::uint32_t>(flags.get_int("nodes", quick ? 2 : 4));
  const auto cluster_keys =
      static_cast<std::size_t>(flags.get_int("cluster_keys", quick ? 16 : 256));
  const auto batch = static_cast<std::size_t>(flags.get_int("batch", 16));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  // Open-loop keyed row: the traffic engine against the fabric, latency
  // from scheduled arrival. --quick keeps it in the smoke path.
  const double open_rate =
      flags.get_double("open_rate", quick ? 20000.0 : 0.0);
  const std::string out = flags.get_string("out", "BENCH_keys.json");
  // The open rows' traffic knobs: rate, arrival shape and SLO.
  traffic::LoadSpec open;
  open.warmup = warmup;
  open.seed = seed;
  open.open_rate = open_rate;
  read_shape_flags(flags, open_rate > 0.0, open);
  open.slo_us = flags.get_double("slo_us", quick ? 1000.0 : 0.0);

  const std::size_t procs = make_counter(kind, n)->num_processors();
  // Ops per row: enough to touch a large keyspace several times over,
  // bounded so the 100k-key row stays seconds, not minutes.
  const auto ops_for = [&](std::size_t keys) {
    if (ops_flag > 0) return static_cast<std::size_t>(ops_flag);
    const std::size_t floor_ops = (quick ? 4 : 16) * procs;
    const std::size_t by_keys = std::min<std::size_t>(4 * keys, 200000);
    return std::max(floor_ops, by_keys);
  };
  const auto keyed_for = [](std::size_t keys, double skew,
                            std::size_t capacity) {
    KeyedOptions kopt;
    kopt.keys = keys;
    kopt.key_dist = skew > 0.0 ? "zipf" : "uniform";
    kopt.key_skew = skew;
    kopt.key_capacity = capacity;
    return kopt;
  };
  const auto workers_for = [](std::int64_t w) {
    return static_cast<std::size_t>(w > 0 ? w : 1);
  };
  const auto max_keys = static_cast<std::size_t>(
      *std::max_element(keys_list.begin(), keys_list.end()));

  // The knobs every closed in-process row shares. active_shards stays
  // adaptive (min(workers, cores)) like the other wall-clock benches: on
  // a small host W > 1 degrades gracefully instead of paying forced
  // cross-shard hops; the keyed tests pin it instead.
  ThroughputOptions closed;
  closed.concurrency = concurrency;
  closed.warmup = warmup;
  closed.seed = seed;

  std::vector<KeyRow> rows;
  for (const std::int64_t keys64 : keys_list) {
    const auto keys = static_cast<std::size_t>(keys64 > 0 ? keys64 : 1);
    for (const double skew : key_skews) {
      for (const std::int64_t w : workers_list) {
        ThroughputOptions topt = closed;
        topt.workers = workers_for(w);
        topt.ops = ops_for(keys);
        const KeyedOptions kopt = keyed_for(keys, skew, key_capacity);
        rows.push_back(from_keyed_throughput(
            run_keyed_throughput(make_counter(kind, n), topt, kopt), kopt,
            "inproc"));
      }
    }
  }

  // LRU cold tier at work: cap the directory well below the largest
  // keyspace so the skewed stream keeps evicting cold keys to their
  // durable values and rehydrating them on the next touch.
  if (max_keys > 1) {
    ThroughputOptions topt = closed;
    topt.workers = workers_for(workers_list.back());
    topt.ops = ops_for(max_keys);
    const KeyedOptions kopt = keyed_for(max_keys, key_skews.back(),
                                        std::max<std::size_t>(16, max_keys / 8));
    rows.push_back(from_keyed_throughput(
        run_keyed_throughput(make_counter(kind, n), topt, kopt), kopt,
        "inproc-lru"));
  }

  // Open-loop keyed row: the fabric under offered load at the largest
  // swept keyspace, tails measured from scheduled arrival.
  if (open_rate > 0.0) {
    ThroughputOptions topt;
    static_cast<traffic::LoadSpec&>(topt) = open;
    topt.workers = workers_for(workers_list.back());
    topt.ops = ops_for(max_keys);
    const KeyedOptions kopt = keyed_for(max_keys, key_skews.back(), 0);
    KeyRow row = from_keyed_throughput(
        run_keyed_throughput(make_counter(kind, n), topt, kopt), kopt,
        "inproc-open");
    row.rate = open_rate;
    rows.push_back(row);
  }

  // The real cluster: batched keyed Starts out, coalesced completions
  // back, per-key values verified as exact permutations across 4
  // processes, per-key loads merged from chunked kKeyedStats reports.
  net::ClusterOptions cluster;
  cluster.counter = counter;
  cluster.min_processors = n;
  cluster.nodes = nodes;
  cluster.warmup = warmup;
  cluster.seed = seed;
  cluster.key_dist = "zipf";
  cluster.key_skew = 0.99;
  std::vector<std::size_t> cluster_batches{1};
  if (batch > 1) cluster_batches.push_back(batch);
  std::vector<std::size_t> cluster_keyspaces{1};
  if (cluster_keys > 1) cluster_keyspaces.push_back(cluster_keys);
  for (const std::size_t b : cluster_batches) {
    for (const std::size_t keys : cluster_keyspaces) {
      if (b == 1 && keys == 1) continue;  // covered by the batch sweep
      net::ClusterOptions copt = cluster;
      copt.ops = std::min<std::size_t>(std::max<std::size_t>(4 * keys, 256),
                                       quick ? 256 : 2048);
      copt.concurrency = 8;
      copt.keys = keys;
      copt.batch = b;
      KeyRow row = from_cluster(net::run_cluster(copt), "tcp");
      row.batch = b;
      rows.push_back(row);
    }
  }

  // Open-loop keyed row on the real cluster: same arrival timeline as
  // the inproc-open row, but the Starts cross actual sockets. Batch is
  // forced to 1 by the controller (pacing is per op), so the comparison
  // against the batched closed-loop tcp rows prices what coalescing
  // buys and what open-loop pacing costs.
  if (open_rate > 0.0) {
    net::ClusterOptions copt = cluster;
    static_cast<traffic::LoadSpec&>(copt) = open;
    copt.ops = quick ? 256 : 2048;
    copt.keys = cluster_keys;
    KeyRow row = from_cluster(net::run_cluster(copt), "tcp-open");
    row.rate = open_rate;
    rows.push_back(row);
  }

  Table table({"mode", "keys", "dist", "par", "batch", "ops", "cap", "inc/s",
               "p99_us", "max_load", "hot_ops", "hk_max", "hk/op", "touched",
               "evict", "rehyd"});
  for (const KeyRow& row : rows) {
    const RunReport& r = row.run;
    const KeyedReport& k = row.keyed;
    table.row()
        .add(row.mode)
        .add(static_cast<std::int64_t>(k.keys))
        .add(row.key_dist)
        .add(static_cast<std::int64_t>(row.parallelism))
        .add(static_cast<std::int64_t>(row.batch))
        .add(static_cast<std::int64_t>(r.ops))
        .add(static_cast<std::int64_t>(row.key_capacity))
        .add(r.ops_per_sec, 0)
        .add(r.p99_us, 1)
        .add(r.max_load)
        .add(k.hot_key_ops)
        .add(k.hot_key_max_load)
        .add(row.hot_key_load_per_op(), 2)
        .add(static_cast<std::int64_t>(k.keys_touched))
        .add(k.lru_evicts)
        .add(k.lru_rehydrates);
  }
  table.print(std::cout,
              "KEYS: multi-key fabric — aggregate scales, every key still "
              "pays its own bottleneck (all rows verified per key)");

  JsonWriter json(out);
  json.field("bench", "keys");
  json.field("counter", counter);
  json.field("n", n);
  json.field("concurrency", concurrency);
  json.field("warmup", warmup);
  json.field("nodes", nodes);
  json.field("batch", batch);
  json.field("seed", seed);
  json.begin_array("runs");
  for (const KeyRow& row : rows) {
    const RunReport& r = row.run;
    const KeyedReport& k = row.keyed;
    json.begin_object();
    json.field("mode", row.mode);
    json.field("keys", k.keys);
    json.field("key_dist", row.key_dist);
    json.field("key_skew", row.key_skew, 2);
    json.field("parallelism", row.parallelism);
    json.field("batch", row.batch);
    json.field("ops", r.ops);
    json.field("key_capacity", row.key_capacity);
    json.field("ops_per_sec", r.ops_per_sec, 1);
    json.field("p50_us", r.p50_us, 2);
    json.field("p99_us", r.p99_us, 2);
    if (row.mode == "inproc-open" || row.mode == "tcp-open") {
      json.field("rate", row.rate, 1);
      json.field("shape", open.shape);
      json.field("p999_us", r.p999_us, 2);
      json.field("max_us", r.max_us, 2);
      json.field("slo_us", open.slo_us, 1);
      json.field("slo_attainment", r.slo_attainment, 6);
      json.field("hdr_recorder", r.hdr_recorder ? 1 : 0);
    }
    json.field("total_messages", r.total_messages);
    json.field("max_load", r.max_load);
    json.field("hot_key", k.hot_key);
    json.field("hot_key_ops", k.hot_key_ops);
    json.field("hot_key_max_load", k.hot_key_max_load);
    json.field("hot_key_load_per_op", row.hot_key_load_per_op(), 3);
    json.field("keys_touched", k.keys_touched);
    json.field("live_instances", row.live_instances);
    json.field("lru_hits", k.lru_hits);
    json.field("lru_misses", k.lru_misses);
    json.field("lru_evicts", k.lru_evicts);
    json.field("lru_rehydrates", k.lru_rehydrates);
    json.field("wire_msgs", row.wire_msgs);
    json.end_object();
  }
  json.end_array();
  return 0;
}
