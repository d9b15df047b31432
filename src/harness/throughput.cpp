#include "harness/throughput.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <unordered_map>

#include "concurrent/elastic_tree.hpp"
#include "concurrent/history.hpp"
#include "harness/schedule.hpp"
#include "runtime/threaded_runtime.hpp"
#include "runtime/workload.hpp"
#include "service/multi_counter.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace dcnt {

namespace {

bool is_permutation_of_iota(std::vector<Value> values) {
  std::sort(values.begin(), values.end());
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] != static_cast<Value>(i)) return false;
  }
  return true;
}

WorkloadOptions make_workload_options(const ThroughputOptions& options) {
  WorkloadOptions wl;
  static_cast<traffic::LoadSpec&>(wl) = options;
  wl.concurrency = options.concurrency;
  return wl;
}

void fill_run(ThroughputResult& out, const WorkloadResult& run) {
  out.ops = run.ops;
  out.wall_seconds = run.wall_seconds;
  out.ops_per_sec = run.ops_per_sec;
  out.set_tail(run.traffic);
}

}  // namespace

ThroughputResult run_throughput(std::unique_ptr<CounterProtocol> protocol,
                                const ThroughputOptions& options) {
  DCNT_CHECK(protocol != nullptr);
  const auto n = static_cast<std::int64_t>(protocol->num_processors());
  const std::size_t ops =
      options.ops != 0 ? options.ops : static_cast<std::size_t>(8 * n);

  ThroughputResult out;
  out.counter = protocol->name();
  out.n = static_cast<std::size_t>(n);
  out.ops = ops;
  out.warmup = options.warmup;

  RuntimeConfig config;
  config.workers = options.workers;
  config.seed = options.seed;
  config.max_ops = options.warmup + ops;
  config.active_shards = options.active_shards;
  config.flush_batch = options.flush_batch;
  config.placement = options.placement;
  ThreadedRuntime rt(std::move(protocol), config);
  out.workers = rt.workers();
  out.placement = to_string(options.placement);

  const auto initiators =
      make_initiators(options.initiators, options.zipf_s, n,
                      static_cast<std::int64_t>(ops), options.seed);
  WorkloadOptions wl = make_workload_options(options);
  std::unique_ptr<concurrent::HistoryBuffer> history;
  if (options.lin_check) {
    history =
        std::make_unique<concurrent::HistoryBuffer>(options.warmup + ops);
    wl.history = history.get();
  }
  const WorkloadResult run = run_workload(rt, initiators, wl);

  // Warmup ops take part in the permutation too (they consumed counter
  // values before the measured phase), so verify over the full range of
  // issued ops — a duration-cut run completes a prefix of the schedule,
  // and any completed prefix must still be an exact permutation.
  const std::size_t total = options.warmup + run.ops;
  std::vector<Value> values(total);
  for (std::size_t i = 0; i < total; ++i) {
    const auto v = rt.result(static_cast<OpId>(i));
    DCNT_CHECK_MSG(v.has_value(), "operation never completed");
    values[i] = *v;
  }
  out.values_ok = is_permutation_of_iota(values);
  DCNT_CHECK_MSG(out.values_ok, "values are not a permutation of 0..m-1");
  rt.protocol().check_quiescent(total);
  if (const auto* elastic = dynamic_cast<const concurrent::ElasticTreeCounter*>(
          &rt.protocol())) {
    out.elastic_resizes = elastic->resizes();
    out.elastic_epochs = elastic->epochs_used();
    out.elastic_final_k = elastic->current_k();
  }

  fill_run(out, run);

  if (history) {
    // Measured ops only: warmup slots never completed in the buffer and
    // are skipped by the snapshot.
    out.set_lin(check_linearizable(history->snapshot(options.warmup)));
  }

  const Metrics metrics = rt.merged_metrics();
  out.total_messages = metrics.total_messages();
  out.max_load = metrics.max_load();
  out.bottleneck = metrics.bottleneck();
  out.mean_load = 2.0 * static_cast<double>(metrics.total_messages()) /
                  static_cast<double>(n);
  out.pinned_workers = rt.pinned_workers();
  out.placement_supported = rt.placement_supported();
  return out;
}

KeyedThroughputResult run_keyed_throughput(
    std::unique_ptr<CounterProtocol> prototype,
    const ThroughputOptions& options, const KeyedOptions& keyed) {
  DCNT_CHECK(prototype != nullptr);
  DCNT_CHECK(keyed.keys > 0);
  const auto n = static_cast<std::int64_t>(prototype->num_processors());
  const std::size_t ops =
      options.ops != 0 ? options.ops : static_cast<std::size_t>(8 * n);

  service::MultiCounterOptions mc;
  mc.seed = options.seed;
  mc.capacity = keyed.key_capacity;
  auto fabric =
      std::make_unique<service::MultiCounter>(std::move(prototype), mc);
  const service::MultiCounter* fabric_view = fabric.get();

  KeyedThroughputResult out;
  out.keys = keyed.keys;
  out.base.counter = fabric->name();
  out.base.n = static_cast<std::size_t>(n);
  out.base.ops = ops;
  out.base.warmup = options.warmup;

  RuntimeConfig config;
  config.workers = options.workers;
  config.seed = options.seed;
  config.max_ops = options.warmup + ops;
  config.active_shards = options.active_shards;
  config.flush_batch = options.flush_batch;
  ThreadedRuntime rt(std::move(fabric), config);
  out.base.workers = rt.workers();

  const auto initiators =
      make_initiators(options.initiators, options.zipf_s, n,
                      static_cast<std::int64_t>(ops), options.seed);
  WorkloadOptions wl = make_workload_options(options);
  wl.keys = make_keys(keyed.key_dist, keyed.key_skew,
                      static_cast<std::int64_t>(keyed.keys),
                      static_cast<std::int64_t>(ops), options.seed);
  const WorkloadResult run = run_workload(rt, initiators, wl);

  // Per-key contract: within each key (warmup ops included — they
  // consumed that key's low values) the returned values are an exact
  // permutation of 0..ops_k-1. Holds for any completed schedule prefix,
  // so a duration-cut run verifies over the ops actually issued.
  const std::size_t total = options.warmup + run.ops;
  std::unordered_map<KeyId, std::vector<Value>> by_key;
  std::unordered_map<KeyId, std::int64_t> ops_by_key;
  for (std::size_t i = 0; i < total; ++i) {
    const auto v = rt.result(static_cast<OpId>(i));
    DCNT_CHECK_MSG(v.has_value(), "operation never completed");
    by_key[run.key_of_op.at(i)].push_back(*v);
    if (i >= options.warmup) ++ops_by_key[run.key_of_op.at(i)];
  }
  out.base.values_ok = true;
  for (auto& [key, values] : by_key) {
    if (!is_permutation_of_iota(values)) out.base.values_ok = false;
  }
  DCNT_CHECK_MSG(out.base.values_ok,
                 "some key's values are not a permutation of 0..ops_k-1");
  rt.protocol().check_quiescent(total);

  fill_run(out.base, run);

  const Metrics metrics = rt.merged_metrics();
  out.base.total_messages = metrics.total_messages();
  out.base.max_load = metrics.max_load();
  out.base.bottleneck = metrics.bottleneck();
  out.base.mean_load = 2.0 * static_cast<double>(metrics.total_messages()) /
                       static_cast<double>(n);
  out.keys_touched = metrics.key_loads().size();
  for (const auto& [key, count] : ops_by_key) {
    if (count > out.hot_key_ops ||
        (count == out.hot_key_ops && key < out.hot_key)) {
      out.hot_key = key;
      out.hot_key_ops = count;
    }
  }
  if (out.hot_key != kNoKey) {
    out.hot_key_max_load = metrics.key_max_load(out.hot_key);
    out.hot_key_messages = metrics.key_total_messages(out.hot_key);
  }
  const auto lru = fabric_view->lru_stats();
  out.lru_hits = lru.hits;
  out.lru_misses = lru.misses;
  out.lru_evicts = lru.evicts;
  out.lru_rehydrates = lru.rehydrates;
  out.live_instances = fabric_view->directory().live_instances();
  return out;
}

RuntimeSequentialResult run_runtime_sequential(
    std::unique_ptr<CounterProtocol> protocol, std::size_t workers,
    const std::vector<ProcessorId>& order, std::uint64_t seed,
    std::size_t flush_batch) {
  DCNT_CHECK(protocol != nullptr);
  RuntimeConfig config;
  config.workers = workers;
  config.seed = seed;
  config.max_ops = std::max<std::size_t>(order.size(), 1);
  // Equivalence runs must not collapse to fewer shards on small hosts:
  // the whole point is to drive the cross-shard machinery.
  config.active_shards = workers;
  config.flush_batch = flush_batch;
  ThreadedRuntime rt(std::move(protocol), config);

  RuntimeSequentialResult out;
  out.values.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const OpId op = rt.begin_inc(order[i]);
    rt.wait_quiescent();
    const auto v = rt.result(op);
    DCNT_CHECK_MSG(v.has_value(), "operation never completed");
    DCNT_CHECK_MSG(*v == static_cast<Value>(i),
                   "sequential semantics violated (value != op index)");
    out.values.push_back(*v);
    rt.protocol().check_quiescent(i + 1);
  }
  out.metrics = rt.merged_metrics();
  return out;
}

}  // namespace dcnt
